"""Command-line interface: dispatch, validation, determinism."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csv_oracle
from cyclicphase import experiments, model, trigpoly
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
        monkeypatch.setattr(trigpoly, "MAX_SWEEPS", 1)
        code, _, err = run_cli(capsys, "reciprocity", "--k", "17", "--grid-size", "4096")
        assert code == 1
        assert err.startswith("error:") and "degree-70" in err and "converge" in err
        assert err.count("\n") == 1

    def test_vanishing_non_cyclic_c0_exits_1(self, capsys):
        # k = 1/2 to round-off: N_eff = 1 and mean(e^{is} phi1) is exactly 0
        code, _, err = run_cli(capsys, "reciprocity", "--g", "1e-300")
        assert code == 1
        assert err.startswith("error:") and "c_0" in err and "vanishes" in err
        assert err.count("\n") == 1

    def test_non_cyclic_verify_on_8_points_exits_1(self, capsys):
        # the non-cyclic residual's 9-point difference stencil does not fit
        code, _, err = run_cli(capsys, "verify", "--k", "16.59", "--grid-size", "8",
                               "--rk4-steps", "50")
        assert code == 1
        assert err.startswith("error:") and "stencil" in err
        assert err.count("\n") == 1

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

    def test_deterministic_across_invocations(self, capsys, tmp_path):
        argv = ["reciprocity", "--preset", "fig3", "--grid-size", "4096"]
        code1 = main(argv + ["--out", str(tmp_path / "r1")])
        code2 = main(argv + ["--out", str(tmp_path / "r2")])
        capsys.readouterr()
        assert code1 == code2 == 0
        assert ((tmp_path / "r1.csv").read_bytes()
                == (tmp_path / "r2.csv").read_bytes())


class TestOtherCommands:
    def test_verify_k1(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--k", "1",
                               "--grid-size", "4096", "--rk4-steps", "10000")
        assert code == 0
        assert "PASS  solution residual" in out
        assert "FAIL" not in out

    def test_verify_rk4_drift_fails_quietly(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--preset", "fig2",
                                 "--rk4-steps", "200")
        assert code == 1
        assert "FAIL  RK4" in out
        assert err == ""

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
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [("sweep", "--k-values", "2"),
                                         ("reciprocity", "--k", "1"),
                                         ("coeffs", "--k", "1")])
    def test_unwritable_out_refused_before_computing(self, capsys, tmp_path,
                                                     monkeypatch, command):
        calls = []
        for name in ("run_reciprocity_case", "run_coefficient_case"):
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
        monkeypatch.setattr(experiments, "run_reciprocity_case",
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
