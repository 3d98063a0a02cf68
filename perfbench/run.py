"""cyclicphase benchmark runner.

    python3 perfbench/run.py --workload figures --seed 0 --seconds 10 --trace 0

Runs passes of real CLI invocations of one workload in this process through
``cyclicphase.cli.main(argv)``, checks every output against the acceptance
bounds and prints the metrics as one JSON object on the last line of
standard output.  ``--trace 0`` reports the end-to-end metrics with tracing
off; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead.  The package is imported from
``src/`` of the checkout that holds this file; without it the runner exits 2.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

#: pinned to 1 before numpy loads: the plain single-threaded baseline
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, PACKAGE, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
RESULTS_DIR = ROOT / ".perfbench_results"

#: pass_tail_s needs ten samples beyond it, so a run measures at least 11 passes
MIN_PASSES = 11
#: a traced run measures at least this many traced and untraced passes each
MIN_TRACED_PASSES = 2
#: no pass starts after this many seconds, so a run ends well within 180 s
DEADLINE_S = 130.0
#: time of the calibration loop on the reference machine when it runs fast;
#: pass_ref_s rescales every pass from the measured loop time to this one
CAL_REF_S = 0.006

#: the set-up process times the calibration loop (source of calibrate()
#: below) before and after the import, so setup_s is rescaled like pass_ref_s
SETUP_CODE = """\
import sys
from time import perf_counter
{calibrate}
c0 = calibrate()
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import cyclicphase.cli
cyclicphase.cli.build_parser()
t = perf_counter() - t0
print(t, (c0 + calibrate()) / 2)
"""

#: module-level caches of the seed code; any other one found is flagged in
#: the output (it is cleared before each command all the same)
KNOWN_CACHES = ("hilbert._quadrature_kernel_fft",)

#: spans whose calls and self seconds per traced pass the traced run reports;
#: the per-layer totals <layer>.self_s cover every wrapped function
LAYER_SPANS = (
    "cli.main",
    "experiments.emit_outputs",
    "experiments.run_reciprocity_case",
    "experiments.run_coefficient_case",
    "experiments.measure_berry_phase",
    "model.integrate_ode",
    "model.solution_residual",
    "model.analytic_state_pair",
    "model.evaluate_model",
    "trigpoly.polynomial_roots",
    "trigpoly.root_check",
    "trigpoly.analyze",
    "trigpoly.to_helicity",
    "trigpoly.spectrum",
    "trigpoly.from_spectrum",
    "hilbert.log_coefficients",
    "hilbert.periodic_hilbert.series",
    "hilbert.periodic_hilbert.quadrature",
    "hilbert.unwrap",
    "hilbert.coefficient_equality_check",
)
#: work counted at the layer boundaries, reported per pass
LAYER_COUNTS = (
    "experiments.emit_outputs.bytes",
    "experiments.emit_outputs.rows",
    "model.integrate_ode.steps",
    "model.evaluate_model.samples",
    "trigpoly.polynomial_roots.degree_sum",
    "trigpoly.runtime_warnings",
    "hilbert.log_coefficients.analysis_cells",
    "hilbert.periodic_hilbert.samples",
    "hilbert.unwrap.samples",
)


def import_cli():
    """Import cyclicphase.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "cyclicphase" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cyclicphase package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cyclicphase.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cyclicphase imported from {cli.__file__}, not {SRC}")
    return cli


def module_caches() -> dict:
    """{'layer.name': cache} of every module-level functools cache of the package."""
    out = {}
    for module in [PACKAGE] + [f"{PACKAGE}.{layer}" for layer in LAYERS]:
        for name, obj in vars(importlib.import_module(module)).items():
            if callable(getattr(obj, "cache_clear", None)) and obj not in out.values():
                out[f"{module.removeprefix(PACKAGE + '.')}.{name}"] = obj
    return out


def clear(caches) -> None:
    """Empty the caches, so the next command starts as in a fresh CLI process."""
    for cache in caches.values():
        cache.cache_clear()


def time_setup() -> tuple[float, float]:
    """(seconds a fresh process takes to import cyclicphase and build the parser,
    mean calibration seconds in that process)."""
    code = SETUP_CODE.format(calibrate=inspect.getsource(calibrate))
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    wall, cal = map(float, proc.stdout.split())
    return wall, cal


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now.

    The fastest of three runs, so that an interrupt in one run does not count.
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        x = 0
        for i in range(100_000):
            x += i * i
        best = min(best, perf_counter() - t0)
    return best


def run_pass(cli, cmds, caches, tracer=None):
    """Run the commands once, each from cold caches, timing the calibration
    loop before each and after the last.

    Returns (seconds inside cli.main, median calibration seconds,
    [(cmd, CheckResult)]).
    """
    wall = 0.0
    cal = []
    outcomes = []
    for cmd in cmds:
        out = io.StringIO()
        clear(caches)
        cal.append(calibrate())
        if tracer is not None:
            tracer.begin_command()
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(cmd.argv))
            except Exception as exc:  # a crash fails the command, not the run
                code = f"{type(exc).__name__}: {exc}"
        wall += perf_counter() - t0
        outcomes.append((cmd, checks.check(cmd, code, out.getvalue())))
    cal.append(calibrate())
    return wall, statistics.median(cal), outcomes


def measure(cli, cmds, caches, seed: int, seconds: float, tracer=None):
    """Warm up, then run passes for ``seconds`` (and at least the minimum count).

    Returns (set-ups, untraced passes, traced passes, outcomes); a set-up
    or pass is (seconds, calibration seconds), and a traced pass also
    carries its spans.  Without a
    tracer, one fresh-process set-up is timed before each pass, so the set-up
    samples spread over the run like the passes do.  With a tracer, untraced
    and traced passes alternate, swapping which goes first, and set-up is not
    timed.
    """
    orders = workloads.pass_orders(cmds, seed)
    if tracer is None:
        time_setup()  # writes bytecode caches of a fresh checkout
    _, _, outcomes = run_pass(cli, next(orders), caches)  # finishes lazy set-up
    setup, untraced, traced = [], [], []
    minimum = MIN_PASSES if tracer is None else MIN_TRACED_PASSES
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        done = len(untraced) if tracer is None else len(traced)
        if elapsed >= DEADLINE_S or (elapsed >= seconds and done >= minimum):
            break
        if tracer is None:
            setup.append(time_setup())
            kinds = (False,)
        else:
            kinds = (True, False) if done % 2 else (False, True)
        for traced_pass in kinds:
            if traced_pass:
                first = len(tracer.spans)
                with tracer:
                    wall, cal, out = run_pass(cli, next(orders), caches, tracer)
                traced.append((wall, cal, tracer.spans[first:]))
            else:
                wall, cal, out = run_pass(cli, next(orders), caches)
                untraced.append((wall, cal))
            outcomes += out
    return setup, untraced, traced, outcomes


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with ten beyond it.

    With ten samples or fewer no such percentile exists; the maximum is
    returned with zero samples beyond it.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def accuracy(outcomes) -> dict:
    """Largest accuracy figures of the checked outputs (informational)."""
    def largest(attr):
        values = [v for _, r in outcomes for v in getattr(r, attr)]
        return max(values) if values else None
    return {"phase_err_rms": largest("phase_rms"),
            "logmod_err_rms": largest("logmod_rms"),
            "berry_err_rad": largest("berry_err")}


def rescaled(passes) -> list[float]:
    """Set-up or pass seconds at the reference host speed (see CAL_REF_S)."""
    return [wall * CAL_REF_S / cal for wall, cal, *_ in passes]


def self_seconds(tracer, traced) -> dict:
    """{span name: median self seconds per traced pass}, rescaled like pass_ref_s.

    The per-layer totals ``<layer>.self_s`` sum every wrapped function of the
    layer within each pass before the median is taken.
    """
    per_pass = []
    for _, cal, spans in traced:
        row = {name: s * CAL_REF_S / cal for name, (_, s) in tracer.self_times(spans).items()}
        for layer in LAYERS:
            row[f"{layer}.self_s"] = sum(v for name, v in row.items()
                                         if name.startswith(layer + "."))
        per_pass.append(row)
    names = {name for row in per_pass for name in row}
    return {name: statistics.median(row.get(name, 0.0) for row in per_pass)
            for name in names}


def end_to_end_metrics(setup, untraced, outcomes) -> dict:
    attempted = len(outcomes)
    failed = sum(1 for _, r in outcomes if r.errors)
    ratios = [v for _, r in outcomes for v in r.ratios]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {
        "setup_s": (statistics.median(rescaled(setup)), "s"),
        "pass_ref_s": (statistics.median(rescaled(untraced)), "s"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "err_to_bound": (statistics.fmean(ratios) if ratios else math.nan, "ratio"),
    }


def per_layer_metrics(tracer, traced, untraced) -> dict:
    n = len(traced)
    calls = tracer.self_times()
    self_s = self_seconds(tracer, traced)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[f"{layer}.self_s"], "s")
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = (calls.get(name, (0, 0.0))[0] / n, "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in LAYER_COUNTS:
        metrics[name] = (tracer.counts[name] / n, "count")
    metrics["trigpoly.polynomial_roots.per_series"] = (tracer.roots_per_series(), "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(rescaled(traced)) - statistics.median(rescaled(untraced)), "s")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_cli()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    threads = {var: os.environ[var] for var in THREAD_VARS}
    caches = module_caches()

    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    cmds = workloads.commands(args.workload, args.seed, workdir)
    try:
        setup, untraced, traced, outcomes = measure(cli, cmds, caches, args.seed,
                                                    args.seconds, tracer)
    finally:
        shutil.rmtree(workdir)

    passes = [wall for wall, _ in untraced]
    if tracer is None:
        metrics = end_to_end_metrics(setup, untraced, outcomes)
    else:
        metrics = per_layer_metrics(tracer, traced, untraced)
    failed = [(cmd, r) for cmd, r in outcomes if r.errors]
    hashes = {}
    for _, r in outcomes:
        hashes.update(r.hashes)
    value, pct, beyond = tail(passes)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": threads,
        "argv": [" ".join(c.argv) for c in cmds], "caches_cleared": list(caches),
        "setup_raw_s": [wall for wall, _ in setup],
        "setup_calibration_s": [cal for _, cal in setup],
        "pass_s": passes, "calibration_s": [cal for _, cal in untraced],
        "traced_pass_s": [wall for wall, *_ in traced],
        "pass_tail": {"value_s": value, "percentile": pct, "samples": len(untraced),
                      "beyond": beyond},
        "fail_ratio": len(failed) / len(outcomes),
        "failures": sorted({f"{' '.join(c.argv)}: {e}" for c, r in failed for e in r.errors}),
        "dataset_sha256": hashes,
        **accuracy(outcomes),
    }
    if tracer is not None:
        n = len(traced)
        self_s = self_seconds(tracer, traced)
        info["self_s_per_pass"] = {
            name: {"calls": calls / n, "self_s": self_s[name]}
            for name, (calls, _) in sorted(tracer.self_times().items(),
                                           key=lambda kv: -self_s[kv[0]])}
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(
        {"info": info, "metrics": metrics}, indent=2) + "\n")
    if tracer is not None:
        with open(RESULTS_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, threads {threads}")
    for line in info["argv"]:
        print(f"  cyclicphase {line}")
    print(f"caches cleared before each command: {', '.join(caches) or 'none'}")
    for name in caches:
        if name not in KNOWN_CACHES:
            print(f"NEW module-level cache {name}: cleared before each command")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; median untraced "
          f"pass_s {statistics.median(passes):.6g} s, calibration loop "
          f"{statistics.median(info['calibration_s']):.6g} s")
    print(f"pass_tail_s {value:.6g} s: the p{pct:.1f} of {len(untraced)} untraced passes "
          f"({beyond} beyond it)")
    print(f"fail_ratio {info['fail_ratio']:.3g}; largest phase_err_rms "
          f"{info['phase_err_rms']}, logmod_err_rms {info['logmod_err_rms']}, "
          f"berry_err_rad {info['berry_err_rad']}")
    for failure in info["failures"]:
        print(f"FAILED {failure}")
    if tracer is not None:
        print("self seconds per traced pass, rescaled (all wrapped functions, largest first):")
        for name, row in info["self_s_per_pass"].items():
            print(f"  {name:48s} {row['self_s']:.6f} s  {row['calls']:g} calls")
    for name, (v, unit) in metrics.items():
        print(f"  {name:48s} {v:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
