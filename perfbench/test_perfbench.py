"""Tests of the benchmark itself: output checks, metric names, span accounting."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

import checks
import run
import workloads
from tracer import Tracer, public_functions

cli = run.import_cli()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def fig1_output(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("fig1") / "fig1"
    cmd = workloads.Command(("reciprocity", "--preset", "fig1", "--out", str(prefix)),
                            "reciprocity", out=str(prefix))
    code, stdout = _run_cli(list(cmd.argv))
    return cmd, code, stdout


def test_real_output_passes(fig1_output):
    cmd, code, stdout = fig1_output
    result = checks.check(cmd, code, stdout)
    assert result.errors == []
    assert result.ratios and all(r < 1 for r in result.ratios)
    assert set(result.hashes) == {"fig1.csv"}


def test_doctored_rms_counts_as_failure(fig1_output, tmp_path):
    cmd, code, stdout = fig1_output
    report = json.loads(Path(cmd.out + ".report.json").read_text())
    report["rms_phase_error"] = 2 * checks.RMS_BOUND_K1
    prefix = tmp_path / "doctored"
    Path(str(prefix) + ".report.json").write_text(json.dumps(report))
    Path(str(prefix) + ".csv").write_bytes(Path(cmd.out + ".csv").read_bytes())
    doctored = workloads.Command(cmd.argv, "reciprocity", out=str(prefix))
    result = checks.check(doctored, code, stdout)
    assert any("rms_phase_error" in e for e in result.errors)


def test_truncated_dataset_counts_as_failure(fig1_output, tmp_path):
    cmd, code, stdout = fig1_output
    prefix = tmp_path / "short"
    Path(str(prefix) + ".report.json").write_bytes(Path(cmd.out + ".report.json").read_bytes())
    lines = Path(cmd.out + ".csv").read_text().splitlines()
    Path(str(prefix) + ".csv").write_text("\n".join(lines[:-1]) + "\n")
    result = checks.check(workloads.Command(cmd.argv, "reciprocity", out=str(prefix)),
                          code, stdout)
    assert any("rows" in e for e in result.errors)


def test_nonzero_exit_counts_as_failure(fig1_output):
    cmd, _, stdout = fig1_output
    assert checks.check(cmd, 1, stdout).errors == ["exit code 1"]


def test_verify_fail_line_counts_as_failure():
    code, stdout = _run_cli(["verify", "--preset", "fig3"])
    cmd = workloads.Command(("verify", "--preset", "fig3"), "verify")
    assert checks.check(cmd, code, stdout).errors == []
    doctored = stdout.replace("PASS  RK4", "FAIL  RK4")
    assert any("FAIL" in e for e in checks.check(cmd, code, doctored).errors)


def test_harmonic_k_values_one_per_band_and_seeded():
    for seed in range(20):
        ks = workloads.harmonic_k_values(seed)
        assert ks == workloads.harmonic_k_values(seed)
        assert all(lo <= k <= hi for k, (lo, hi) in zip(ks, workloads.K_BANDS))
    assert len({workloads.harmonic_k_values(s) for s in range(20)}) > 1


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_every_benchmark_metric(trace, section, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "MIN_TRACED_PASSES", 1)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(run, "RESULTS_DIR", tmp_path / "results")
    assert run.main(["--workload", "figures", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())


def test_span_self_times_fit_in_wall_time():
    tracer = Tracer()
    with tracer:
        tracer.begin_command()
        t0 = perf_counter()
        code, _ = _run_cli(["reciprocity", "--k", "17", "--grid-size", "4096",
                            "--method", "quadrature"])
        wall = perf_counter() - t0
    assert code == 0
    self_total = sum(s for _, s in tracer.self_times().values())
    assert 0 < self_total <= wall
    spans = {s.id: s for s in tracer.spans}
    assert {s.command for s in spans.values()} == {1}
    roots = [s for s in spans.values() if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    for s in spans.values():
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    assert "hilbert.periodic_hilbert.quadrature" in tracer.self_times()


def test_tracer_restores_the_package():
    before = public_functions()
    with Tracer():
        assert cli.main is not before["cli.main"]
    assert public_functions() == before
    assert cli.main is before["cli.main"]


def test_each_command_starts_with_cold_caches():
    caches = run.module_caches()
    assert set(caches) >= set(run.KNOWN_CACHES)
    kernel = caches["hilbert._quadrature_kernel_fft"]
    cmd = workloads.Command(("reciprocity", "--k", "17", "--grid-size", "4096",
                             "--method", "quadrature"), "reciprocity")
    _, _, outcomes = run.run_pass(cli, [cmd, cmd], caches)
    assert [r.errors for _, r in outcomes] == [[], []]
    # the cache was cleared before the second command: its one miss is
    # the kernel build, its one hit the second transform of that command
    info = kernel.cache_info()
    assert (info.misses, info.hits) == (1, 1)
