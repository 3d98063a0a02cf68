"""Command-line interface: dispatch, validation, determinism."""

import json

import pytest

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

    def test_sweep_summary(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--k-values", "1,2",
                               "--grid-size", "4096", "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0].startswith("k,g,cyclic")
        assert len(lines) == 3
