"""Command-line front end.

Subcommands: reciprocity (figure pipelines + file emission), coeffs
(A_n = B_n table), verify (solution and zero-location checks), berry
(measured vs predicted geometric phase), sweep (summary over several k).
Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import experiments, hilbert, model, trigpoly
from .experiments import PRESETS


#: --rk4-steps ceiling, and the default's (from g ~ 8.9e7): verify forms at
#: most RK4_CHUNK + 1 states whatever the step count, so the bound only
#: refuses an absurd count (g = 1e150 would ask for ~3e182 steps);
#: arange(RK4_CHUNK + 1) * steps stays far inside int64
MAX_RK4_STEPS = 1_000_000_000_000

#: RK4 steps of verify up to g = RK4_STEPS_G (all three presets)
RK4_STEPS = 20_000
RK4_STEPS_G = 34.0


class ConfigError(Exception):
    pass


def _add_model_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--g", type=float, default=None,
                   help="coupling ratio G/omega (> 0)")
    p.add_argument("--k", type=float, default=None,
                   help="drive ratio K/omega (> 1/2); derived from g if omitted")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="figure preset (overrides --g/--k)")
    p.add_argument("--omega", type=float, default=1.0,
                   help="angular frequency for output time units (default 1)")


def _positive(value, flag):
    if value is None or not np.isfinite(value) or value <= 0:
        raise ConfigError(f"{flag} must be a positive finite number, got {value}")
    return value


def _build_params(build, *values) -> model.ModelParams:
    """Call derive_params or params_from_k; a rejected value is a configuration error."""
    try:
        return build(*values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def resolve_params(args) -> tuple[model.ModelParams, int]:
    """Validate the g/k/preset choice and return (params, default grid size)."""
    sources = [name for name, val in
               (("--g", args.g), ("--k", args.k), ("--preset", args.preset))
               if val is not None]
    if len(sources) != 1:
        raise ConfigError(
            f"exactly one of --g, --k, --preset must be given (got: "
            f"{', '.join(sources) if sources else 'none'})")
    _positive(args.omega, "--omega")
    if args.preset is not None:
        preset = PRESETS[args.preset]
        params = _build_params(model.derive_params, preset["g"], args.omega)
        return params, preset["grid_size"]
    if args.g is not None:
        _positive(args.g, "--g")
        params = _build_params(model.derive_params, args.g, args.omega)
    else:
        if args.k <= 0.5:
            raise ConfigError(f"--k must exceed 1/2, got {args.k}")
        params = _build_params(model.params_from_k, args.k, args.omega)
    return params, 16384 if params.k >= 10 else 32768


def _resolve_grid(args, default: int) -> int:
    grid = args.grid_size if args.grid_size is not None else default
    if not 8 <= grid <= hilbert.MAX_ANALYSIS_GRID or grid % 4 != 0:
        raise ConfigError(f"--grid-size must be a multiple of 4 from 8 to "
                          f"{hilbert.MAX_ANALYSIS_GRID}, got {grid}")
    return grid


def _check_out_prefix(args) -> None:
    """Refuse an unusable --out prefix (exit 1) before the computation, not after it."""
    if args.out:
        for path in experiments.output_paths(args.out, args.format):
            experiments.check_writable(path)


def _print_config(command: str, params: model.ModelParams, extra: dict) -> None:
    resolved = {"command": command, "g": params.g, "k": params.k,
                "omega": params.omega, "n_harmonic": params.n_harmonic,
                "cyclic": params.cyclic, "regime": params.regime}
    resolved.update(extra)
    print("resolved configuration: " + json.dumps(resolved))


def cmd_reciprocity(args) -> int:
    params, default_grid = resolve_params(args)
    grid = _resolve_grid(args, default_grid)
    _positive(args.epsilon, "--epsilon")
    if args.n_max < 1:
        raise ConfigError(f"--n-max must be at least 1, got {args.n_max}")
    if args.fejer and args.method != "series":
        raise ConfigError("--fejer applies to --method series only")
    _print_config("reciprocity", params,
                  {"grid_size": grid, "method": args.method, "fejer": args.fejer,
                   "epsilon": args.epsilon, "n_max": args.n_max,
                   "out": args.out, "format": args.format})
    _check_out_prefix(args)
    options = dict(method=args.method, fejer=args.fejer, n_max=args.n_max,
                   exclusion_halfwidth=args.epsilon)
    if args.out:
        report, dataset = experiments.run_reciprocity_case(params, grid, **options)
        for path in experiments.emit_outputs(report, dataset, args.out, args.format):
            print(f"wrote {path}")
    else:  # no dataset is formed
        report, _ = experiments.reciprocity_report(params, grid, **options)
        print(json.dumps(experiments.report_to_dict(report), indent=2))
    return 0


def cmd_coeffs(args) -> int:
    params, _ = resolve_params(args)
    grid = _resolve_grid(args, 16384)
    if args.n_max < 1:
        raise ConfigError(f"--n-max must be at least 1, got {args.n_max}")
    if not params.cyclic:
        raise ConfigError("coeffs requires a cyclic drive (integer K/omega)")
    _print_config("coeffs", params,
                  {"grid_size": grid, "n_max": args.n_max, "out": args.out})
    _check_out_prefix(args)
    report, table = experiments.run_coefficient_case(params, args.n_max, grid)
    if args.out:
        for path in experiments.emit_outputs(report, table, args.out, args.format):
            print(f"wrote {path}")
    else:
        print(json.dumps(experiments.report_to_dict(report), indent=2))
        for n, a, b, diff in zip(*(table.data[c].tolist() for c in table.columns)):
            print(f"n={int(n):3d}  A={a:+.12e}  B={b:+.12e}  |A-B|={diff:.3e}")
    return 0


def default_rk4_steps(g: float) -> int:
    """verify's RK4 step count: RK4_STEPS, raised as g^(6/5) above RK4_STEPS_G.

    RK4's stability function has |R(iy)|^2 = 1 - y^6/72 + ..., so the norm
    drift over a fixed span goes as g^6 / steps^5, and this keeps it at
    fig2's ~4.1e-10 for every g (2,657,610 steps at k = 1000).  verify's cost
    does not follow the step count (``cmd_verify``); MAX_RK4_STEPS caps the
    count only for a g too large for any run to resolve.
    """
    scaled = int(np.ceil(RK4_STEPS * (g / RK4_STEPS_G) ** 1.2))
    return min(max(RK4_STEPS, scaled), MAX_RK4_STEPS)


def cmd_verify(args) -> int:
    params, default_grid = resolve_params(args)
    grid = _resolve_grid(args, min(default_grid, 16384))
    steps = args.rk4_steps if args.rk4_steps is not None else default_rk4_steps(params.g)
    if not 1 <= steps <= MAX_RK4_STEPS:
        raise ConfigError(f"--rk4-steps must be between 1 and {MAX_RK4_STEPS}, "
                          f"got {steps}")
    _print_config("verify", params, {"grid_size": grid, "rk4_steps": steps})
    checks, notes = [], []  # notes follow the PASS/FAIL lines

    res = model.solution_residual(params, grid)
    checks.append(("solution residual < 1e-8", res.max_residual < 1e-8,
                   f"{res.max_residual:.3e}"))

    s = trigpoly.offset_grid(min(grid, 4096))
    # every state up to RK4_CHUNK steps, else RK4_CHUNK + 1 spread evenly,
    # the first and the last included: the norm is exactly |mu|^(2n), so the
    # drift is largest at the last state
    spread = min(steps, model.RK4_CHUNK)
    traj = model.integrate_ode(params, model.analytic_state_pair(params, s[0]),
                               (s[0], s[-1]), step=(s[-1] - s[0]) / steps,
                               at=np.arange(spread + 1) * steps // spread)
    rk4_err = float(np.max(np.abs(traj.states - model.analytic_state_pair(params, traj.s))))
    checks.append(("RK4 vs analytic < 1e-6", rk4_err < 1e-6, f"{rk4_err:.3e}"))
    checks.append(("norm drift < 1e-8", traj.norm_drift < 1e-8,
                   f"{traj.norm_drift:.3e}"))
    notes.append(f"RK4 compared at {len(traj.s)} of its {steps + 1} states, "
                 f"the last included")

    if params.cyclic:
        # at round(k), the k of the cyclic path (model.helicity_series and
        # half_period_signals): at k itself a cyclic k within CYCLIC_TOL of an
        # integer leaves phi1(+-pi/2) ~ |k - round(k)| off zero
        at_integer = dataclasses.replace(params, k=float(round(params.k)))
        edge = np.max(np.abs(model.phi1_values(at_integer, np.array([-np.pi / 2, np.pi / 2]))))
        checks.append(("phi1(+-pi/2) = 0 to 1e-12", edge < 1e-12, f"{edge:.3e}"))
        rc = trigpoly.root_check(model.helicity_series(params))
        checks.append(("all helicity zeros |z| >= 1", rc.passed,
                       f"min |z| = {rc.min_modulus:.12f}"))
        # the double roots +-i are exact, so min |z| reads 1 for every integer
        # k; rho, the root next nearest the circle, shows how the roots move
        rho = hilbert._nearest_off_circle(np.abs(rc.roots))
        notes.append(f"nearest helicity zero off the unit circle |z| = {rho:.15f}")
    else:
        print("note: zero-location gate skipped (non-cyclic drive; assumptions violated)")

    ok = True
    for name, passed, detail in checks:
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
    for note in notes:
        print(f"note: {note}")
    return 0 if ok else 1


def cmd_berry(args) -> int:
    params, default_grid = resolve_params(args)
    grid = _resolve_grid(args, default_grid)
    if not params.cyclic:
        raise ConfigError("berry requires a cyclic drive (integer K/omega)")
    _print_config("berry", params, {"grid_size": grid})
    predicted = model.berry_phase_predicted(params)
    measured = experiments.measure_berry_phase(model.half_period_signals(params, grid))
    print(f"berry predicted = {predicted:.12f} rad")
    print(f"berry measured  = {measured:.12f} rad")
    print(f"|difference|    = {abs(measured - predicted):.3e} rad")
    return 0


def cmd_sweep(args) -> int:
    try:
        k_values = [float(x) for x in args.k_values.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"--k-values must be a comma-separated list: {exc}")
    if not k_values or any(k <= 0.5 for k in k_values):
        raise ConfigError("--k-values entries must all exceed 1/2")
    _positive(args.omega, "--omega")
    params_list = [_build_params(model.params_from_k, k, args.omega) for k in k_values]
    grid = _resolve_grid(args, 16384)
    print("resolved configuration: " + json.dumps(
        {"command": "sweep", "k_values": k_values, "grid_size": grid,
         "omega": args.omega, "out": args.out}))
    if args.out:  # before the first k is computed
        experiments.check_writable(args.out)
    reports = []
    for params in params_list:
        report, _ = experiments.reciprocity_report(params, grid)
        reports.append(report)
        print(f"k={params.k:<10.6g} cyclic={params.cyclic!s:5}  "
              f"rms_phase={report.rms_phase_error:.3e}  "
              f"rms_logmod={report.rms_logmod_error:.3e}  "
              + (f"berry: {report.berry_measured:.6f}/{report.berry_predicted:.6f}"
                 if params.cyclic else "berry: n/a (non-cyclic)"))
    if args.out:
        # one column per report field; None (a cyclic-only field of a
        # non-cyclic run) is written as NaN, a bool as 0/1
        columns = ("k", "g", "cyclic", "rms_phase_error", "rms_logmod_error",
                   "berry_predicted", "berry_measured", "root_check_pass")
        table = experiments.Table(columns, {
            c: np.array([np.nan if getattr(r, c) is None else float(getattr(r, c))
                         for r in reports])
            for c in columns})
        experiments.write_csv(table, args.out)
        print(f"wrote {args.out}")
    return 0


def _reciprocity_arguments(p: argparse.ArgumentParser) -> None:
    _add_model_arguments(p)
    p.add_argument("--grid-size", type=int, default=None)
    p.add_argument("--method", choices=("series", "quadrature"), default="series")
    p.add_argument("--fejer", action="store_true",
                   help="Cesaro-resum the series reconstruction")
    p.add_argument("--epsilon", type=float, default=0.05,
                   help="zero-exclusion half-width in s (default 0.05)")
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--out", default=None, help="output path prefix")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_reciprocity)


def _coeffs_arguments(p: argparse.ArgumentParser) -> None:
    _add_model_arguments(p)
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--grid-size", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_coeffs)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    _add_model_arguments(p)
    p.add_argument("--grid-size", type=int, default=None)
    p.add_argument("--rk4-steps", type=int, default=None,
                   help=f"RK4 steps (default {RK4_STEPS}, raised as g^1.2 above "
                        f"g = {RK4_STEPS_G:g})")
    p.set_defaults(func=cmd_verify)


def _berry_arguments(p: argparse.ArgumentParser) -> None:
    _add_model_arguments(p)
    p.add_argument("--grid-size", type=int, default=None)
    p.set_defaults(func=cmd_berry)


def _sweep_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-values", default="1,2,3,17",
                   help="comma-separated K/omega values")
    p.add_argument("--grid-size", type=int, default=None)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--out", default=None, help="summary CSV path")
    p.set_defaults(func=cmd_sweep)


#: subcommand -> (help line, the function that adds its arguments and handler)
SUBCOMMANDS = {
    "reciprocity": ("run a figure pipeline and emit files", _reciprocity_arguments),
    "coeffs": ("A_n = B_n coefficient table", _coeffs_arguments),
    "verify": ("solution residual, RK4 cross-check, zero gate", _verify_arguments),
    "berry": ("measured vs predicted geometric phase", _berry_arguments),
    "sweep": ("summary table over several k values", _sweep_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser; with a subcommand ``command``, only that one is built.

    Its usage still names all five, so a run that names its subcommand prints
    and parses as with the full parser, which any other ``command`` gets.
    """
    parser = argparse.ArgumentParser(
        prog="cyclicphase",
        description="Reciprocal phase / log-modulus relations for cyclic "
                    "two-level wave functions")
    names = [command] if command in SUBCOMMANDS else list(SUBCOMMANDS)
    # the full parser keeps argparse's own name for errors ("argument command")
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        "{" + ",".join(SUBCOMMANDS) + "}" if len(names) == 1 else None))
    for name in names:
        help_line, add_arguments = SUBCOMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the subcommand comes first; anything else (--help, a typo) gets every one
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
