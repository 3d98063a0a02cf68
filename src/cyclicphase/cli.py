"""Command-line front end.

Subcommands: reciprocity (figure pipelines + file emission), coeffs
(A_n = B_n table), verify (solution and zero-location checks), berry
(measured vs predicted geometric phase), sweep (summary over several k).
Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import experiments, model, trigpoly
from .experiments import PRESETS


#: --rk4-steps ceiling (50x the default); the trajectory holds steps + 1 states
MAX_RK4_STEPS = 1_000_000


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
        params = model.derive_params(preset["g"], args.omega)
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
    if grid < 8 or grid % 4 != 0:
        raise ConfigError(f"--grid-size must be a multiple of 4 (>= 8), got {grid}")
    return grid


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
    _print_config("reciprocity", params,
                  {"grid_size": grid, "method": args.method, "fejer": args.fejer,
                   "epsilon": args.epsilon, "n_max": args.n_max,
                   "out": args.out, "format": args.format})
    report, dataset = experiments.run_reciprocity_case(
        params, grid, method=args.method, fejer=args.fejer, n_max=args.n_max,
        exclusion_halfwidth=args.epsilon)
    if args.out:
        for path in experiments.emit_outputs(report, dataset, args.out, args.format):
            print(f"wrote {path}")
    else:
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
    report, table = experiments.run_coefficient_case(params, args.n_max, grid)
    if args.out:
        for path in experiments.emit_outputs(report, table, args.out, args.format):
            print(f"wrote {path}")
    else:
        print(json.dumps(experiments.report_to_dict(report), indent=2))
        for i in range(table.n_rows):
            print(f"n={int(table.data['n'][i]):3d}  A={table.data['A_n'][i]:+.12e}  "
                  f"B={table.data['B_n'][i]:+.12e}  "
                  f"|A-B|={table.data['abs_diff'][i]:.3e}")
    return 0


def cmd_verify(args) -> int:
    params, default_grid = resolve_params(args)
    grid = _resolve_grid(args, min(default_grid, 16384))
    if not 1 <= args.rk4_steps <= MAX_RK4_STEPS:
        raise ConfigError(f"--rk4-steps must be between 1 and {MAX_RK4_STEPS}, "
                          f"got {args.rk4_steps}")
    _print_config("verify", params, {"grid_size": grid, "rk4_steps": args.rk4_steps})
    checks = []

    res = model.solution_residual(params, grid)
    checks.append(("solution residual < 1e-8", res.max_residual < 1e-8,
                   f"{res.max_residual:.3e}"))

    s = trigpoly.offset_grid(min(grid, 4096))
    pair = model.analytic_state_pair(params, s)
    traj = model.integrate_ode(params, pair[0], (s[0], s[-1]),
                               step=(s[-1] - s[0]) / args.rk4_steps)
    ref = model.analytic_state_pair(params, traj.s)
    rk4_err = float(np.max(np.abs(traj.states - ref)))
    checks.append(("RK4 vs analytic < 1e-6", rk4_err < 1e-6, f"{rk4_err:.3e}"))
    checks.append(("norm drift < 1e-8", traj.norm_drift < 1e-8,
                   f"{traj.norm_drift:.3e}"))

    if params.cyclic:
        edge = np.max(np.abs(model.phi1_values(params, np.array([-np.pi / 2, np.pi / 2]))))
        checks.append(("phi1(+-pi/2) = 0 to 1e-12", edge < 1e-12, f"{edge:.3e}"))
        signals = model.evaluate_model(params, grid)
        rc = trigpoly.root_check(signals.helicity)
        checks.append(("all helicity zeros |z| >= 1", rc.passed,
                       f"min |z| = {rc.min_modulus:.12f}"))
    else:
        print("note: zero-location gate skipped (non-cyclic drive; assumptions violated)")

    ok = True
    for name, passed, detail in checks:
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
    return 0 if ok else 1


def cmd_berry(args) -> int:
    params, default_grid = resolve_params(args)
    grid = _resolve_grid(args, default_grid)
    _positive(args.epsilon, "--epsilon")
    if not params.cyclic:
        raise ConfigError("berry requires a cyclic drive (integer K/omega)")
    _print_config("berry", params, {"grid_size": grid, "epsilon": args.epsilon})
    predicted = model.berry_phase_predicted(params)
    signals = model.evaluate_model(params, grid)
    measured = experiments.measure_berry_phase(signals, args.epsilon)
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
    rows = {"k": [], "g": [], "cyclic": [], "rms_phase_error": [],
            "rms_logmod_error": [], "berry_predicted": [], "berry_measured": [],
            "root_check_pass": []}
    for params in params_list:
        report, _ = experiments.run_reciprocity_case(params, grid)
        rows["k"].append(params.k)
        rows["g"].append(params.g)
        rows["cyclic"].append(float(params.cyclic))
        rows["rms_phase_error"].append(report.rms_phase_error)
        rows["rms_logmod_error"].append(report.rms_logmod_error)
        rows["berry_predicted"].append(report.berry_predicted if params.cyclic else np.nan)
        rows["berry_measured"].append(report.berry_measured if params.cyclic else np.nan)
        rows["root_check_pass"].append(float(report.root_check_pass)
                                       if report.root_check_pass is not None else np.nan)
        print(f"k={params.k:<10.6g} cyclic={params.cyclic!s:5}  "
              f"rms_phase={report.rms_phase_error:.3e}  "
              f"rms_logmod={report.rms_logmod_error:.3e}  "
              + (f"berry: {report.berry_measured:.6f}/{report.berry_predicted:.6f}"
                 if params.cyclic else "berry: n/a (non-cyclic)"))
    if args.out:
        table = experiments.Table(tuple(rows), {c: np.asarray(v) for c, v in rows.items()})
        experiments.write_csv(table, args.out)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclicphase",
        description="Reciprocal phase / log-modulus relations for cyclic "
                    "two-level wave functions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reciprocity", help="run a figure pipeline and emit files")
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

    p = sub.add_parser("coeffs", help="A_n = B_n coefficient table")
    _add_model_arguments(p)
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--grid-size", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify", help="solution residual, RK4 cross-check, zero gate")
    _add_model_arguments(p)
    p.add_argument("--grid-size", type=int, default=None)
    p.add_argument("--rk4-steps", type=int, default=20000)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("berry", help="measured vs predicted geometric phase")
    _add_model_arguments(p)
    p.add_argument("--grid-size", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.set_defaults(func=cmd_berry)

    p = sub.add_parser("sweep", help="summary table over several k values")
    p.add_argument("--k-values", default="1,2,3,17",
                   help="comma-separated K/omega values")
    p.add_argument("--grid-size", type=int, default=None)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--out", default=None, help="summary CSV path")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
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
