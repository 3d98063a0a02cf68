"""Command-line interface: dispatch, validation, determinism."""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csv_oracle
import cyclicphase
from cyclicphase import cli, experiments, model, trigpoly
from cyclicphase.cli import MAX_RK4_STEPS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidation:
    def test_negative_g_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "reciprocity", "--g", "-1")
        assert code == 2
        assert "--g" in err

    def test_conflicting_sources_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "reciprocity", "--g", "1.0", "--k", "2.0")
        assert code == 2
        assert "exactly one" in err

    def test_missing_source_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "reciprocity")
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "reciprocity", "--nonsense")
        assert code == 2

    def test_bad_grid_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "reciprocity", "--k", "1",
                               "--grid-size", "1002")
        assert code == 2
        assert "--grid-size" in err

    def test_berry_has_no_epsilon(self, capsys):
        code, _, err = run_cli(capsys, "berry", "--k", "1", "--epsilon", "0.05")
        assert code == 2
        assert "--epsilon" in err

    @pytest.mark.parametrize("k, grid", [("1", "128"), ("16.59", "4096")])
    def test_exclusion_covering_every_sample_exits_1(self, capsys, k, grid):
        # two windows of half-width >= pi/2 around s = +-pi/2 cover the period
        code, _, err = run_cli(capsys, "reciprocity", "--k", k, "--grid-size", grid,
                               "--epsilon", "4")
        assert code == 1
        assert err.startswith("error:") and "no sample" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["coeffs", "reciprocity"])
    def test_n_max_above_analysis_ceiling_exits_1(self, capsys, command):
        # 4 n_max + 4 points would be ~1.2e9 complex samples (~19 GB)
        code, _, err = run_cli(capsys, command, "--k", "1", "--grid-size", "128",
                               "--n-max", "300000000")
        assert code == 1
        assert err.startswith("error:") and "ceiling" in err
        assert err.count("\n") == 1

    def test_unconverged_roots_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(trigpoly, "MAX_SWEEPS", 0)
        code, _, err = run_cli(capsys, "reciprocity", "--k", "17", "--grid-size", "4096")
        assert code == 1
        assert err.startswith("error:") and "degree-70" in err and "converge" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        # k = 1/2 to round-off: e^{is} phi1 has no constant term
        ("--g", "1e-300"),
        # k = 2.5: e^{5is} phi1 has no constant term either
        ("--k", "2.5", "--grid-size", "16384"),
    ], ids=["g-1e-300", "k-2.5"])
    def test_half_integer_k_runs(self, capsys, argv):
        # the non-cyclic curves come from phi1 alone, so no c_0 has to exist
        code, out, err = run_cli(capsys, "reciprocity", *argv)
        assert code == 0 and err == ""
        report = json.loads(out.split("\n", 1)[1])
        assert report["cyclic"] is False
        assert all(np.isfinite(report[key]) for key in
                   ("rms_phase_error", "max_phase_error",
                    "rms_logmod_error", "max_logmod_error"))

    def test_non_cyclic_verify_on_8_points_passes_the_residual(self, capsys):
        # the closed-form residual needs no stencil; 50 RK4 steps still fail
        code, out, err = run_cli(capsys, "verify", "--k", "16.59", "--grid-size", "8",
                                 "--rk4-steps", "50")
        assert code == 1 and err == ""
        assert "PASS  solution residual < 1e-8" in out
        assert "FAIL  RK4 vs analytic" in out

    def test_rk4_sample_at_s0_compares_quietly(self, capsys):
        # 50 steps over the 64-point grid's span put a sample exactly at s = 0
        code, out, err = run_cli(capsys, "verify", "--k", "1", "--grid-size", "64",
                                 "--rk4-steps", "50")
        assert code == 1 and err == ""
        assert "FAIL  RK4 vs analytic < 1e-6  (5.006e-05)" in out

    def test_berry_non_cyclic_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "berry", "--k", "16.59")
        assert code == 2
        assert "cyclic" in err


class TestImportCost:
    def test_parser_leaves_the_dataset_kernel_unloaded(self, tmp_path):
        # a fresh process that builds the parser (what setup_s times) does not
        # load or build the dataset kernel; its first dataset write does
        script = ("import sys, cyclicphase.cli\n"
                  "cyclicphase.cli.build_parser()\n"
                  "print('cyclicphase._tabletext' in sys.modules)\n"
                  "from cyclicphase import experiments\n"
                  "experiments.write_csv(experiments.Table(('a',), {'a': [0.5]}), sys.argv[1])\n"
                  "print('cyclicphase._tabletext' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cyclicphase.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "a.csv")],
                              capture_output=True, text=True, env=env, check=False, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\nTrue\n", "")
        assert (tmp_path / "a.csv").read_text() == "a\n0.5\n"


class TestLazyParser:
    """main() gives arguments to the named subcommand only; nothing it prints changes."""

    @staticmethod
    def full_parser_run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                cli.build_parser().parse_args(argv)
                code = None
            except SystemExit as exc:
                code = int(exc.code or 0)
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["nosuch"], ["--bogus"],
        *([name, flag] for name in ("reciprocity", "coeffs", "verify", "berry", "sweep")
          for flag in ("--help", "--bogus", "--grid-size")),
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_help_and_usage_errors_match_the_full_parser(self, capsys, argv):
        want = self.full_parser_run(argv)
        assert want[0] is not None  # help or a usage error: argparse exits
        assert run_cli(capsys, *argv) == want

    def test_other_subcommands_are_left_bare(self):
        parser = cli.build_parser("verify")
        assert parser.parse_args(["verify", "--k", "17"]).k == 17.0
        with redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
            parser.parse_args(["berry", "--k", "17"])


class TestInputContract:
    @pytest.mark.parametrize("argv", [
        ("coeffs", "--k", "1", "--n-max", "0"),
        ("coeffs", "--k", "1", "--n-max", "-1"),
        ("reciprocity", "--g", "1e200"),
        ("reciprocity", "--k", "nan"),
        ("sweep", "--k-values", "1,nan", "--grid-size", "4096"),
        ("verify", "--k", "1", "--rk4-steps", "0"),
        ("verify", "--k", "1", "--rk4-steps", str(MAX_RK4_STEPS + 1)),
        ("reciprocity", "--k", "1", "--n-max", "0"),
        ("reciprocity", "--k", "1", "--n-max", "-1"),
        # a grid above the analysis ceiling of 2^20 points, refused before allocation
        ("reciprocity", "--k", "1", "--grid-size", "1099511627776"),
        ("berry", "--k", "1", "--grid-size", "1099511627776"),
        ("verify", "--k", "1", "--grid-size", "1099511627776"),
        ("coeffs", "--k", "1", "--grid-size", "1099511627776"),
        ("sweep", "--k-values", "1", "--grid-size", "1099511627776"),
        # the period 2 pi / omega, and so the t column, would overflow
        ("reciprocity", "--k", "1", "--omega", "1e-320", "--grid-size", "64"),
        ("reciprocity", "--preset", "fig1", "--omega", "1e-320"),
        ("reciprocity", "--k", "1", "--method", "quadrature", "--fejer"),
    ])
    def test_rejected_with_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("configuration error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert "rms_phase" not in out  # the sweep rejects every k before any row


class TestReciprocity:
    def test_preset_writes_files(self, capsys, tmp_path):
        prefix = tmp_path / "fig1"
        code, out, _ = run_cli(capsys, "reciprocity", "--preset", "fig1",
                               "--grid-size", "4096", "--out", str(prefix))
        assert code == 0
        assert out.startswith("resolved configuration:")
        assert (tmp_path / "fig1.csv").exists()
        assert (tmp_path / "fig1.report.json").exists()

    def test_preset_fig2_equals_explicit_k17(self, capsys, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_cli(capsys, "reciprocity", "--preset", "fig2",
                       "--grid-size", "4096", "--out", str(a))[0] == 0
        assert run_cli(capsys, "reciprocity", "--k", "17",
                       "--grid-size", "4096", "--out", str(b))[0] == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        ra = json.loads((tmp_path / "a.report.json").read_text())
        rb = json.loads((tmp_path / "b.report.json").read_text())
        assert ra == rb

    def test_no_out_prints_report(self, capsys):
        code, out, _ = run_cli(capsys, "reciprocity", "--k", "1",
                               "--grid-size", "4096")
        assert code == 0
        body = out.split("\n", 1)[1]
        parsed = json.loads(body)
        assert parsed["cyclic"] is True

    def test_non_integer_k_routes_to_non_cyclic(self, capsys):
        code, out, _ = run_cli(capsys, "reciprocity", "--k", "16.59",
                               "--grid-size", "4096")
        assert code == 0
        parsed = json.loads(out.split("\n", 1)[1])
        assert parsed["cyclic"] is False
        assert "assumptions violated" in parsed["notes"]

    @pytest.mark.parametrize("argv, bound", [
        pytest.param(("--k", "17", "--method", "series"), 4.25, id="series"),
        pytest.param(("--k", "17", "--method", "quadrature"), 4.25, id="quadrature"),
        pytest.param(("--k", "16.59",), 6.5, id="non-cyclic"),
        pytest.param(("--k", "16.59", "--fejer"), 6.5, id="non-cyclic-fejer"),
        pytest.param(("--k", "16.59", "--method", "quadrature"), 6.75,
                     id="non-cyclic-quadrature"),
        pytest.param(("--k", "17", "--out", "{out}"), 10.0, id="cyclic-out")])
    def test_peak_is_a_few_curves(self, capsys, tmp_path, argv, bound):
        # every full-size curve is formed once and updated in place, the error
        # statistics hold one buffer of the kept differences and phi1 is sampled
        # in blocks: s, the two direct curves and the two reconstructions, plus
        # the quadrature's cached kernel, are near all a non-cyclic run holds
        # at its peak (in arrays of m float64, 8m bytes each).  A cyclic run
        # without --out holds its curves as quarter-length heads: s and the
        # kept buffer are its only full-size arrays (3.26 and 3.51 measured).
        # With --out it lays out the six columns, and the CSV text peaks
        # above them (9.75 measured, as when every curve was full-size)
        m = 65536
        argv = [a.format(out=tmp_path / "run") for a in argv]
        # a first run on a small grid takes the modules a run imports out of the count
        assert run_cli(capsys, "reciprocity", *argv, "--grid-size", "4096")[0] == 0
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "reciprocity", *argv, "--grid-size", str(m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= bound * 8 * m, peak / (8 * m)

    @pytest.mark.parametrize("command", [("reciprocity", "--k", "17"),
                                         ("reciprocity", "--k", "16.59"),
                                         ("sweep", "--k-values", "1,16.59")])
    def test_no_dataset_without_a_file(self, capsys, tmp_path, monkeypatch, command):
        calls = []
        original = experiments.reciprocity_dataset

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(experiments, "reciprocity_dataset", spy)
        assert run_cli(capsys, *command, "--grid-size", "4096")[0] == 0
        assert calls == []
        if command[0] == "reciprocity":  # the spy sees the dataset of a written run
            assert run_cli(capsys, *command, "--grid-size", "4096",
                           "--out", str(tmp_path / "run"))[0] == 0
            assert len(calls) == 1

    def test_deterministic_across_invocations(self, capsys, tmp_path):
        argv = ["reciprocity", "--preset", "fig3", "--grid-size", "4096"]
        code1 = main(argv + ["--out", str(tmp_path / "r1")])
        code2 = main(argv + ["--out", str(tmp_path / "r2")])
        capsys.readouterr()
        assert code1 == code2 == 0
        assert ((tmp_path / "r1.csv").read_bytes()
                == (tmp_path / "r2.csv").read_bytes())


class TestOtherCommands:
    @pytest.mark.parametrize("command", ["verify", "coeffs"])
    def test_k_above_the_harmonic_ceiling_exits_1(self, capsys, command):
        # 2N + 1 = 4e10 helicity coefficients (298 GiB) are refused before
        # they are allocated, in one line
        code, _, err = run_cli(capsys, command, "--k", "1e10")
        assert code == 1
        assert err.startswith("error: k = 1e+10 needs N = 20000000001 harmonics")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_verify_k1(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--k", "1",
                               "--grid-size", "4096", "--rk4-steps", "10000")
        assert code == 0
        assert "PASS  solution residual" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("k", ["1.0000000001", "17.0000000005"])
    def test_verify_near_integer_k_passes(self, capsys, k):
        # a k within CYCLIC_TOL of an integer is cyclic, and every check is
        # taken at round(k): phi1(+-pi/2) at k itself read 1.6e-10 and 4.6e-11
        code, out, err = run_cli(capsys, "verify", "--k", k)
        checks = [line for line in out.splitlines()
                  if line.startswith(("PASS", "FAIL"))]
        assert code == 0 and err == ""
        assert len(checks) == 5 and all(line.startswith("PASS  ") for line in checks)

    def test_verify_notes_the_nearest_root_off_the_circle(self, capsys):
        # min |z| reads 1 for every integer k (the double roots +-i are exact);
        # the note after the PASS/FAIL lines gives rho, 2 cos(pi/12) at k = 1.
        # 50 RK4 steps fail the cross-check: the note comes whatever the verdict
        code, out, _ = run_cli(capsys, "verify", "--k", "1", "--grid-size", "64",
                               "--rk4-steps", "50")
        last = out.splitlines()[-1]
        prefix = "note: nearest helicity zero off the unit circle |z| = "
        assert code == 1 and "FAIL  RK4" in out and last.startswith(prefix)
        assert float(last[len(prefix):]) == pytest.approx(2 * np.cos(np.pi / 12), abs=1e-14)
        code, out, _ = run_cli(capsys, "verify", "--k", "16.59", "--grid-size", "64")
        assert code == 0 and prefix not in out

    def test_verify_non_cyclic_coarse_grid(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--k", "16.59", "--grid-size", "64")
        assert code == 0
        assert "PASS  solution residual < 1e-8" in out
        assert "FAIL" not in out

    def test_verify_k50_passes_at_the_default_steps(self, capsys):
        # 20,000 steps left a norm drift of 2.7e-7 here; the g^1.2 default passes
        code, out, _ = run_cli(capsys, "verify", "--k", "50", "--grid-size", "4096")
        assert code == 0
        assert '"rk4_steps": 72985' in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("preset", ["fig1", "fig2", "fig3"])
    def test_presets_keep_20000_rk4_steps(self, preset):
        params = model.derive_params(experiments.PRESETS[preset]["g"])
        assert cli.default_rk4_steps(params.g) == 20000

    def test_rk4_default_reaches_the_ceiling(self):
        # the g^1.2 rule holds up to g ~ 8.9e7 (1e12 steps); only beyond is it capped
        assert cli.default_rk4_steps(model.params_from_k(200.3).g) == 385929
        assert cli.default_rk4_steps(model.params_from_k(1000).g) == 2657610
        assert cli.default_rk4_steps(1e150) == MAX_RK4_STEPS

    def test_rk4_default_holds_the_fig2_drift(self):
        # the drift goes as g^6 / steps^5, so the default steps keep fig2's drift
        s = trigpoly.offset_grid(4096)

        def drift(params):
            psi0 = model.analytic_state_pair(params, s[0])
            step = (s[-1] - s[0]) / cli.default_rk4_steps(params.g)
            return model.integrate_ode(params, psi0, (s[0], s[-1]), step=step).norm_drift

        fig2 = drift(model.derive_params(experiments.PRESETS["fig2"]["g"]))
        for k in (50, 100, 200.3):
            assert drift(model.params_from_k(k)) == pytest.approx(fig2, rel=0.05)

    def test_explicit_rk4_steps_honoured(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--k", "50", "--grid-size", "4096",
                               "--rk4-steps", "20000")
        assert code == 1
        assert '"rk4_steps": 20000' in out and "FAIL  norm drift" in out

    def test_verify_rk4_drift_fails_quietly(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--preset", "fig2",
                                 "--rk4-steps", "200")
        assert code == 1
        assert "FAIL  RK4" in out
        assert err == ""

    def test_verify_reference_stays_small_beside_the_trajectory(self, capsys):
        # 385,929 steps, RK4_CHUNK + 1 states formed and compared: the whole
        # trajectory, compared RK4_CHUNK states at a time, peaked at 16.0 MB
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "verify", "--k", "200.3", "--grid-size", "64")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and "FAIL" not in out
        assert peak <= 256 * model.RK4_CHUNK, peak / model.RK4_CHUNK

    @pytest.mark.parametrize("steps", [4097, 10**6, MAX_RK4_STEPS])
    def test_verify_peak_is_the_trajectory_and_one_block(self, capsys, steps):
        # the same bound at every step count; the 1e6-step trajectory peaked
        # at 40.6 MB when every state was formed
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "verify", "--k", "17", "--grid-size", "4096",
                                   "--rk4-steps", str(steps))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code == 0) == (steps > 4097) and "FAIL  solution" not in out
        assert peak <= 256 * model.RK4_CHUNK, peak / model.RK4_CHUNK

    @pytest.mark.parametrize("steps", [50, model.RK4_CHUNK, model.RK4_CHUNK + 1,
                                       3 * model.RK4_CHUNK + 5])
    def test_verify_compares_every_rk4_state(self, capsys, monkeypatch, steps):
        # every state up to RK4_CHUNK steps; above, RK4_CHUNK + 1 states spread
        # evenly over the run, sorted and distinct, the first and last included
        seen, pair = [], model.analytic_state_pair
        monkeypatch.setattr(model, "analytic_state_pair",
                            lambda p, s: seen.append(np.asarray(s)) or pair(p, s))
        code, out, _ = run_cli(capsys, "verify", "--k", "1", "--grid-size", "64",
                               "--rk4-steps", str(steps))
        s = trigpoly.offset_grid(64)
        h = (s[-1] - s[0]) / steps
        assert code == (1 if steps == 50 else 0) and seen[0] == s[0]  # the initial state
        (compared,) = seen[1:]
        n = np.round((compared - s[0]) / h).astype(int)
        assert np.array_equal(compared, s[0] + h * n)
        if steps <= model.RK4_CHUNK:
            assert np.array_equal(n, np.arange(steps + 1))
        else:
            assert len(n) == model.RK4_CHUNK + 1 and n[0] == 0 and n[-1] == steps
            assert set(np.diff(n)) <= {steps // model.RK4_CHUNK,
                                       steps // model.RK4_CHUNK + 1}
        assert (f"note: RK4 compared at {len(n)} of its {steps + 1} states, "
                f"the last included\n") in out

    @pytest.mark.parametrize("k, m", [(17, 4096), (50, 4096), (100, 4096),
                                      (200.3, 4096), (1000, None), (17, 64)])
    def test_sampled_rk4_error_is_the_trajectory_maximum(self, capsys, k, m):
        # away from round-off the error and the drift over every state read
        # as over the states verify compares, to the 4 digits it prints (so
        # within 1e-3 relative); the states are formed 2^18 at a time (k = 1000
        # takes 2,657,610 steps).  m None is the command as typed: verify
        # --k 1000 runs on 16384 points and integrates over its first 4096
        grid = () if m is None else ("--grid-size", str(m))
        code, out, _ = run_cli(capsys, "verify", "--k", str(k), *grid)
        config = json.loads(out.splitlines()[0].split(": ", 1)[1])
        params = model.params_from_k(k)
        s = trigpoly.offset_grid(min(config["grid_size"], 4096))
        psi0, steps = model.analytic_state_pair(params, s[0]), cli.default_rk4_steps(params.g)
        err = drift = 0.0
        for i in range(0, steps + 1, 1 << 18):
            traj = model.integrate_ode(params, psi0, (s[0], s[-1]),
                                       step=(s[-1] - s[0]) / steps,
                                       at=np.arange(i, min(i + (1 << 18), steps + 1)))
            err = max(err, np.max(np.abs(traj.states
                                         - model.analytic_state_pair(params, traj.s))))
            drift = max(drift, traj.norm_drift)
        assert code == 0 and steps > model.RK4_CHUNK
        assert f"PASS  RK4 vs analytic < 1e-6  ({err:.3e})" in out
        assert f"PASS  norm drift < 1e-8  ({drift:.3e})" in out

    @pytest.mark.parametrize("k", ["1000", "10000"])
    def test_verify_large_k_passes_at_the_default_steps(self, capsys, k):
        # 2,657,610 and 42,120,284 steps; the 1e6-step cap failed both
        code, out, err = run_cli(capsys, "verify", "--k", k)
        assert code == 0 and err == "" and "FAIL" not in out

    def test_verify_zero_gate_beyond_the_dataset_grid(self, capsys):
        # N = 2001 needs 8008 samples, more than the 4096-point grid: the gate
        # samples the series on its own grid.  300 RK4 steps at g = 2000 blow
        # up, which fails the RK4 lines without a warning.
        code, out, err = run_cli(capsys, "verify", "--k", "1000", "--grid-size", "4096",
                                 "--rk4-steps", "300")
        assert code == 1 and err == ""
        assert "PASS  all helicity zeros |z| >= 1  (min |z| = 1.000000000000)" in out
        assert "FAIL  norm drift < 1e-8  (nan)" in out

    def test_no_command_reaches_the_general_root_path(self, capsys, monkeypatch):
        # every series a command builds has the four-term structure, so the
        # companion eigensolve, seconds at degree ~1600, serves no command;
        # a cyclic k within CYCLIC_TOL of an integer keeps it too, and every
        # command exits 0 either way
        argvs = [("sweep", "--k-values", "1,2,3,16.59,17"), ("coeffs", "--k", "50"),
                 ("berry", "--k", "7"), ("verify", "--preset", "fig2"),
                 ("reciprocity", "--k", "17", "--grid-size", "4096"),
                 ("coeffs", "--k", "1.0000000001", "--n-max", "5"),
                 ("reciprocity", "--k", "17.0000000005", "--grid-size", "4096"),
                 ("verify", "--k", "17.0000000005"),
                 ("sweep", "--k-values", "1.0000000001,17.0000000005")]

        def general_path(q):
            raise AssertionError(f"the general root path ran at degree {len(q) - 1}")

        with monkeypatch.context() as patch:
            patch.setattr(trigpoly, "_eig_roots", general_path)
            patched = [run_cli(capsys, *argv)[:2] for argv in argvs]
        for argv, result in zip(argvs, patched):
            assert result == run_cli(capsys, *argv)[:2], argv
        assert [code for code, _ in patched] == [0] * 9

    def test_coeffs_stdout_bytes(self, capsys):
        # the table lines as formatted cell by numpy cell, after the report
        code, out, _ = run_cli(capsys, "coeffs", "--g", "1.7320508075688772",
                               "--n-max", "12", "--grid-size", "4096")
        assert code == 0
        report, table = experiments.run_coefficient_case(
            model.derive_params(1.7320508075688772), 12, 4096)
        expected = "".join(
            f"n={int(table.data['n'][i]):3d}  A={table.data['A_n'][i]:+.12e}  "
            f"B={table.data['B_n'][i]:+.12e}  "
            f"|A-B|={table.data['abs_diff'][i]:.3e}\n" for i in range(table.n_rows))
        report_text = json.dumps(experiments.report_to_dict(report), indent=2) + "\n"
        assert out.split("\n", 1)[1] == report_text + expected

    def test_coeffs_table(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--g", "1.7320508075688772",
                               "--n-max", "10", "--grid-size", "4096")
        assert code == 0
        assert "n= 10" in out

    def test_coeffs_at_large_k(self, capsys):
        # the roots of the degree-120002 series lie 1.7e-5 off the unit
        # circle; the contour inside it reads them on 16384 points all the same
        code, out, err = run_cli(capsys, "coeffs", "--k", "30000")
        assert code == 0, err
        assert '"analysis_grid_size": 16384' in out
        assert '"max_relative_discrepancy": 0.0' in out

    def test_berry_output(self, capsys):
        code, out, _ = run_cli(capsys, "berry", "--k", "1",
                               "--grid-size", "4096")
        assert code == 0
        assert "berry predicted" in out and "berry measured" in out

    @pytest.mark.parametrize("command", ["reciprocity", "berry"])
    def test_coarse_grid_runs(self, capsys, command):
        # 2h = 0.098 exceeds the 0.05 exclusion half-width on this grid
        code, out, err = run_cli(capsys, command, "--k", "1", "--grid-size", "128")
        assert code == 0, err
        assert "berry" in out

    def test_sweep_summary(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--k-values", "1,2",
                               "--grid-size", "4096", "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0].startswith("k,g,cyclic")
        assert len(lines) == 3

    def test_sweep_creates_missing_directories(self, capsys, tmp_path):
        out_csv = tmp_path / "missing" / "a" / "s.csv"
        code, out, err = run_cli(capsys, "sweep", "--k-values", "2",
                                 "--grid-size", "256", "--out", str(out_csv))
        assert code == 0, err
        assert out.endswith(f"wrote {out_csv}\n")
        assert out_csv.read_text().startswith("k,g,cyclic")

    @pytest.mark.skipif(not Path("/dev/null").exists(), reason="no /dev/null")
    def test_non_regular_out_is_written_but_not_cut(self, capsys):
        # truncating a character device fails with EINVAL
        code, out, err = run_cli(capsys, "sweep", "--k-values", "2",
                                 "--grid-size", "256", "--out", "/dev/null")
        assert code == 0 and err == ""
        assert out.endswith("wrote /dev/null\n")

    @pytest.mark.parametrize("command", [("sweep", "--k-values", "2"),
                                         ("reciprocity", "--k", "1")])
    def test_unwritable_out_exits_1(self, capsys, tmp_path, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = blocker / "out"
        code, _, err = run_cli(capsys, *command, "--grid-size", "256",
                               "--out", str(target))
        assert code == 1
        assert err.startswith(f"error: failed writing {target}")
        # the parent is named as no directory, not as a file that exists
        assert err.endswith(f": [Errno 20] Not a directory: '{blocker}'\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [("sweep", "--k-values", "2"),
                                         ("reciprocity", "--k", "1"),
                                         ("coeffs", "--k", "1")])
    def test_unwritable_out_refused_before_computing(self, capsys, tmp_path,
                                                     monkeypatch, command):
        calls = []
        for name in ("run_reciprocity_case", "reciprocity_report", "run_coefficient_case"):
            monkeypatch.setattr(experiments, name,
                                lambda *args, name=name, **kwargs: calls.append(name))
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = blocker / "out"
        code, _, err = run_cli(capsys, *command, "--grid-size", "256",
                               "--out", str(target))
        assert code == 1
        assert err.startswith(f"error: failed writing {target}")
        assert err.count("\n") == 1
        assert calls == []

    def test_directory_as_out_refused_before_computing(self, capsys, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(experiments, "reciprocity_report",
                            lambda *args, **kwargs: pytest.fail("computed"))
        code, _, err = run_cli(capsys, "sweep", "--k-values", "2", "--grid-size", "256",
                               "--out", str(tmp_path))
        assert code == 1
        assert err.startswith(f"error: failed writing {tmp_path}: [Errno 21]")

    def test_sweep_bytes_with_non_cyclic_row(self, capsys, tmp_path, monkeypatch):
        tables = []
        original = experiments.write_csv

        def spy(table, path):
            tables.append(table)
            return original(table, path)

        monkeypatch.setattr(experiments, "write_csv", spy)
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--k-values", "1,16.59",
                             "--grid-size", "4096", "--out", str(out_csv))
        assert code == 0
        (table,) = tables
        assert np.isnan(table.data["berry_measured"][1])
        assert out_csv.read_bytes() == csv_oracle(table).encode("ascii")


#: (accepted, refused) values per flag.  Accepted values stay small (k <= 30,
#: grid <= 4096, RK4 steps <= 2000); refused ones are negatives, 0, nan, +-inf,
#: non-multiples of 4, garbage and grids above 2^20, which must be refused
#: before any allocation
FLAG_VALUES = {
    "--k": (("1", "2", "17", "30", "0.7", "2.5", "16.59"),
            ("0.5", "0", "-3", "nan", "inf", "-inf", "1e308", "x")),
    "--g": (("1.7320508075688772", "1", "33.97", "59.99"),
            ("0", "-1", "nan", "inf", "1e200", "x")),
    "--preset": (("fig1", "fig2", "fig3"), ("fig4",)),
    "--omega": (("1", "2.5", "1e300"), ("0", "-1", "nan", "inf", "1e-320", "x")),
    "--grid-size": (("8", "64", "256", "1024", "4096"),
                    ("0", "-4", "10", "4097", str(2 ** 20 + 4), str(2 ** 40), "nan",
                     "1e3", "x")),
    "--n-max": (("1", "7", "50"), ("0", "-1", "300000000", "x")),
    "--epsilon": (("0.05", "0.3", "4"), ("0", "-1", "nan", "inf", "x")),
    "--method": (("series", "quadrature"), ("simpson",)),
    "--format": (("csv", "json"), ("xml",)),
    "--rk4-steps": (("1", "50", "2000"),
                    ("0", "-5", str(MAX_RK4_STEPS + 1), "2.5", "x")),
    "--k-values": (("1", "2,17", "16.59", "30,1.5"),
                   ("1,nan", "0.5", "-1", "inf", "1e308", "a,b", "", ",")),
    "--out": (("out", "missing/dir/out"), ("file/out",)),
}
SWITCHES = ("--fejer",)
COMMAND_FLAGS = {
    "reciprocity": ("--omega", "--method", "--fejer", "--epsilon", "--n-max",
                    "--out", "--format"),
    "coeffs": ("--omega", "--n-max", "--out", "--format"),
    "verify": ("--omega",),
    "berry": ("--omega",),
    "sweep": ("--omega", "--out"),
}
#: a flag the subcommand does not take, or a second model source
STRAY_FLAGS = ("--bogus", "--k", "--rk4-steps", "--fejer", "--epsilon")


@st.composite
def cli_argv(draw):
    """A subcommand, mostly with accepted values, now and then a refused value or flag.

    --grid-size (and --rk4-steps for verify) is always given, so no default
    grid of 16384 or more points and no default 20,000 RK4 steps is run.
    """
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = ["--k-values"] if command == "sweep" else [
        draw(st.sampled_from(("--k", "--g", "--preset")))]
    flags += ["--grid-size"] + (["--rk4-steps"] if command == "verify" else [])
    flags += [f for f in COMMAND_FLAGS[command] if draw(st.booleans())]
    flags += [f for f in [draw(st.sampled_from((None,) * 6 + STRAY_FLAGS))] if f]
    argv = [command]
    for flag in dict.fromkeys(flags):
        argv.append(flag)
        if flag not in SWITCHES:
            accepted, refused = FLAG_VALUES.get(flag, ((), ("1",)))
            refuse = not accepted or draw(st.integers(0, 5)) == 0
            argv.append(draw(st.sampled_from(refused if refuse else accepted)))
    return argv


class TestArgvProperty:
    @settings(max_examples=120, deadline=None)
    @given(argv=cli_argv())
    def test_exit_code_without_traceback(self, tmp_path_factory, argv):
        directory = tmp_path_factory.mktemp("cli")
        (directory / "file").write_text("")
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(directory / argv[i])
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert err.getvalue().count("\n") <= 1 or code == 2, (argv, err.getvalue())
        grid = argv[argv.index("--grid-size") + 1]
        if grid.isdigit() and int(grid) > 2 ** 20:
            assert code == 2, argv  # refused before any allocation
