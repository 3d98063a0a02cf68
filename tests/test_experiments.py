"""Pipelines, Berry measurement, peak matching, file emission."""

import errno
import itertools
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csv_oracle, json_oracle
from cyclicphase import experiments, hilbert, model, trigpoly
from cyclicphase._tabletext import BLOCK_CELLS
from cyclicphase.experiments import (
    EXCLUSION_HALFWIDTH,
    PRESETS,
    Table,
    emit_outputs,
    kept_runs,
    match_peaks,
    measure_berry_phase,
    peak_positions,
    run_coefficient_case,
    run_reciprocity_case,
    write_csv,
)
from cyclicphase.trigpoly import offset_grid


def fig_params(name):
    return model.derive_params(PRESETS[name]["g"])


class TestMeasureBerryPhase:
    @staticmethod
    def _hand_built(params, phase_chi):
        # only the drive, the grid and phase_chi enter the measurement
        grid = offset_grid(4096)
        return model.ModelSignals(
            params=params, grid=grid, log_modulus=np.zeros_like(grid),
            phase_chi=phase_chi(grid),
            helicity=model.helicity_series(model.params_from_k(1)))

    def test_linear_phase_control(self):
        # a physical phase identically s changes by exactly pi over the revolution
        p = model.derive_params(np.sqrt(3.0))
        signals = self._hand_built(p, lambda s: s - (p.g - p.n_harmonic) * s)
        assert np.isclose(measure_berry_phase(signals), np.pi, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 17])
    def test_converges_with_grid(self, k):
        p = model.params_from_k(k)
        pred = model.berry_phase_predicted(p)
        coarse = abs(measure_berry_phase(model.evaluate_model(p, 4096)) - pred)
        fine = abs(measure_berry_phase(model.evaluate_model(p, 16384)) - pred)
        assert fine <= max(coarse, 1e-7)
        assert fine < 1e-5

    def test_requires_cyclic(self):
        signals = self._hand_built(model.derive_params(np.sqrt(1100.0)), np.copy)
        with pytest.raises(ValueError, match="cyclic"):
            measure_berry_phase(signals)

    def test_coarse_grid(self):
        # the measurement reads the two innermost samples on any grid
        p = model.derive_params(np.sqrt(3.0))
        measured = measure_berry_phase(model.evaluate_model(p, 128))
        assert abs(measured - model.berry_phase_predicted(p)) < 1e-4


class TestPeakMachinery:
    def test_peak_positions_subcell(self):
        s = offset_grid(4096)
        true_peak = 0.8123
        y = np.cos(5 * (s - true_peak))
        peaks = peak_positions(s, y, prominence=0.2)
        nearest = peaks[np.argmin(np.abs(peaks - true_peak))]
        assert abs(nearest - true_peak) < 0.1 * (s[1] - s[0])

    def test_greedy_matching(self):
        ref = np.array([0.0, 1.0, 2.0])
        cand = np.array([0.01, 2.02, 5.0])
        pairs, unmatched, extra = match_peaks(ref, cand, max_distance=0.1)
        assert len(pairs) == 2
        assert unmatched == [1.0]
        assert list(extra) == [5.0]

    def test_kept_runs_wrap(self):
        s = offset_grid(64)
        runs = kept_runs(s, ((np.pi, 1),), 0.2)
        assert runs[0][0] > 0 and runs[-1][1] < len(s)  # both period ends are near s = pi


def _kept_by_oracle(s, zeros, halfwidth):
    """The kept samples, by the wrapped distance to each zero written out."""
    keep = np.ones(len(s), dtype=bool)
    for loc, _ in zeros:
        d = np.abs(s - loc)
        keep &= np.minimum(d, 2.0 * np.pi - d) >= halfwidth
    return keep


class TestKeptRuns:
    ZERO_SETS = (model.DRIVE_ZEROS, ((np.pi, 1),), ((-np.pi, 1), (0.3, 1)))

    @pytest.mark.parametrize("m", [8, 16, 64, 4100, 16384, 65536])
    @pytest.mark.parametrize("zeros", ZERO_SETS)
    def test_matches_the_oracle(self, m, zeros):
        s = offset_grid(m)
        # one half-width lands exactly on a sample's distance from the zero at
        # pi/2, so that the boundary of >= is read
        on_a_sample = abs(s[m // 3] - np.pi / 2)
        for halfwidth in (0.0, -1.0, 1e-9, 0.05, np.pi / 2, 3.0, np.inf, np.nan,
                          on_a_sample):
            runs = kept_runs(s, zeros, halfwidth)
            got = np.zeros(m, dtype=bool)
            for i, j in runs:
                got[i:j] = True
            assert np.array_equal(got, _kept_by_oracle(s, zeros, halfwidth)), halfwidth
            # ordered, non-empty and maximal: no two runs touch
            assert all(i < j for i, j in runs)
            assert all(a[1] < b[0] for a, b in zip(runs, runs[1:]))

    def test_nan_halfwidth_leaves_no_sample(self):
        with pytest.raises(ValueError, match="leaves no sample"):
            run_reciprocity_case(fig_params("fig1"), 256, exclusion_halfwidth=np.nan)


class TestReciprocityCase:
    def test_fig1_report(self):
        report, dataset = run_reciprocity_case(fig_params("fig1"), 8192)
        assert report.cyclic and report.n_harmonic == 3
        assert report.rms_phase_error < 2e-3
        assert report.rms_logmod_error < 4e-3
        assert 0 <= report.rms_phase_error <= report.max_phase_error
        assert report.root_check_pass
        assert report.coeff_max_discrepancy < 1e-6
        assert abs(report.berry_measured - report.berry_predicted) < 1e-2
        assert report.matched_peak_count is None
        assert dataset.n_rows == 8192
        assert dataset.columns == ("s", "t", "log_modulus_direct",
                                   "log_modulus_reconstructed",
                                   "phase_direct", "phase_reconstructed")

    def test_methods_agree(self):
        p = fig_params("fig1")
        r_series, _ = run_reciprocity_case(p, 4096, method="series")
        r_quad, _ = run_reciprocity_case(p, 4096, method="quadrature")
        assert np.isclose(r_series.rms_phase_error, r_quad.rms_phase_error,
                          rtol=1e-6)

    def test_fig3_notes_and_peaks(self):
        report, dataset = run_reciprocity_case(fig_params("fig3"), 16384)
        assert not report.cyclic
        assert report.berry_predicted is None and report.berry_measured is None
        assert "assumptions violated" in report.notes
        assert report.matched_peak_count > 5
        assert report.oscillation_period is not None
        # the oscillations are Rabi undulations at twice the gap frequency:
        # spacing pi/(2k) in s, far from resolving to pi/k
        assert abs(report.oscillation_period - np.pi / (2 * report.k)) < 0.01
        assert report.gibbs_peak_positions is not None

    def test_no_matched_peak_reports_no_offset(self):
        # the cell-sized matching windows shrink with the grid: none matches at 65536
        report, _ = run_reciprocity_case(fig_params("fig3"), 65536)
        assert report.matched_peak_count == 0
        assert report.max_peak_offset_cells is None
        assert report.median_peak_offset_cells is None

    def test_fig3_statistics_grid_invariant(self):
        p = fig_params("fig3")
        r1, _ = run_reciprocity_case(p, 16384)
        r2, _ = run_reciprocity_case(p, 32768)
        # converged to the intrinsic (theorem-violation) discrepancy
        assert abs(r2.rms_phase_error / r1.rms_phase_error - 1.0) < 0.1
        assert abs(r2.rms_logmod_error / r1.rms_logmod_error - 1.0) < 0.1

    def test_roots_found_once_per_series(self, monkeypatch):
        calls = []
        original = trigpoly.polynomial_roots

        def counting(c, *args, **kwargs):
            calls.append(len(c))
            return original(c, *args, **kwargs)

        # every module binding, so a consumer with its own import is counted too
        for module in (trigpoly, hilbert, model, experiments):
            if getattr(module, "polynomial_roots", None) is original:
                monkeypatch.setattr(module, "polynomial_roots", counting)
        params = model.params_from_k(17)
        report, _ = run_reciprocity_case(params, 4096)
        assert report.root_check_pass
        assert calls == [2 * params.n_harmonic + 1]

    def test_non_cyclic_never_evaluates_the_model(self, monkeypatch):
        # a non-cyclic run samples phi1 itself; evaluate_model serves cyclic drives
        def refuse(*args):
            raise AssertionError("evaluate_model called")

        monkeypatch.setattr(model, "evaluate_model", refuse)
        report, dataset = run_reciprocity_case(fig_params("fig3"), 4096)
        assert not report.cyclic and dataset.n_rows == 4096

    @pytest.mark.parametrize("k, m, regime_keys", [
        (1, 64, ["berry_predicted", "berry_measured", "coeff_max_discrepancy",
                 "root_check_pass"]),
        (16.59, 4096, ["coeff_max_discrepancy", "root_check_pass"]),
    ], ids=["cyclic", "non-cyclic"])
    def test_report_keys(self, k, m, regime_keys):
        # the declared field order is the report's key order, in both regimes;
        # the Berry keys are dropped when None
        report, _ = run_reciprocity_case(model.params_from_k(k), m)
        assert list(experiments.report_to_dict(report)) == [
            "g", "omega", "k", "n_harmonic", "cyclic", "grid_size", "method", "fejer",
            "rms_phase_error", "max_phase_error", "rms_logmod_error", "max_logmod_error",
            *regime_keys, "matched_peak_count", "max_peak_offset_cells",
            "median_peak_offset_cells", "oscillation_period", "gibbs_peak_positions",
            "notes"]

    def test_fejer_flag_runs(self):
        report, dataset = run_reciprocity_case(fig_params("fig1"), 4096, fejer=True)
        assert report.fejer
        assert np.isfinite(report.rms_phase_error)
        assert all(np.all(np.isfinite(dataset.data[c])) for c in dataset.columns)

    def test_non_cyclic_quadrature_runs(self):
        report, dataset = run_reciprocity_case(fig_params("fig3"), 4096, method="quadrature")
        assert report.method == "quadrature" and not report.cyclic
        assert all(np.all(np.isfinite(dataset.data[c])) for c in dataset.columns)

    @pytest.mark.parametrize("k", [17, 16.59])
    def test_columns_share_no_memory(self, k):
        # each column is formed once and then updated in place; none is a view
        # of another, so writing one cannot move a second
        _, dataset = run_reciprocity_case(model.params_from_k(k), 1024)
        columns = [dataset.data[c] for c in dataset.columns]
        for a, b in itertools.combinations(columns, 2):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("k, m", [(k, m) for k in (0.7, 2.5, 16.59, 64.59)
                                      for m in (64, 4096, 65536)])
    def test_detrended_phase_has_no_endpoint_mismatch(self, monkeypatch, k, m):
        # modulus_from_phase rejects an endpoint mismatch above pi; the
        # non-cyclic phase it is handed is detrended, so only round-off is left
        handed = []
        original = hilbert.modulus_from_phase

        def recording(phase, *args):
            handed.append(phase)
            return original(phase, *args)

        monkeypatch.setattr(hilbert, "modulus_from_phase", recording)
        run_reciprocity_case(model.params_from_k(k), m)
        assert len(handed) == 1
        assert abs(handed[0][-1] - handed[0][0]) <= 1e-12

    @pytest.mark.parametrize("k, m", [(k, m) for k in (16.59, 64.59, 256.59)
                                      for m in (64, 256, 1024, 4096)])
    def test_non_cyclic_curves_are_demodulated_phi1(self, k, m):
        # arg phi1 advances ~2k h per sample and aliases in the unwrap once
        # m <~ 4k; the phase must be unwrapped from arg(e^{i N_eff s} phi1)
        params = model.params_from_k(k)
        _, dataset = run_reciprocity_case(params, m)
        s = dataset.data["s"]
        phi1 = model.phi1_values(params, s)
        n_eff = 2 * int(round(k)) + 1
        ref = np.unwrap(np.angle(np.exp(1j * n_eff * s) * phi1))
        ref -= (ref[-1] - ref[0]) / (s[-1] - s[0]) * s
        ref -= ref.mean()
        assert np.max(np.abs(dataset.data["phase_direct"] - ref)) <= 1e-12
        lm = dataset.data["log_modulus_direct"]
        shift = lm - np.log(np.abs(phi1))
        assert np.ptp(shift) <= 1e-13
        assert abs(lm.mean()) <= 1e-13


def _kept_run_stats(reconstructed, direct, runs):
    """RMS and max |d| of the arrays' differences on the kept runs, less their mean."""
    d = np.concatenate([reconstructed[i:j] - direct[i:j] for i, j in runs])
    d -= d.mean()
    return float(np.sqrt(np.mean(d * d))), float(np.max(np.abs(d)))


def _full_size_case(params, m, method, fejer):
    """The cyclic report's statistics and Berry phase, and the dataset, at full size:
    evaluate_model's arrays through the array route of periodic_hilbert."""
    signals = model.evaluate_model(params, m)
    s, lm, ph = signals.grid, signals.log_modulus, signals.phase_chi
    fejer_order = m // 2 if fejer else None
    ph_rec = hilbert.phase_from_modulus(lm, method, fejer_order)
    lm_rec = hilbert.modulus_from_phase(ph, method, fejer_order)
    runs = kept_runs(s, model.DRIVE_ZEROS, EXCLUSION_HALFWIDTH)
    stats = (*_kept_run_stats(ph_rec, ph, runs), *_kept_run_stats(lm_rec, lm, runs))
    ramp = (params.g - params.n_harmonic) * s
    columns = (s, 2.0 * s / params.omega, lm, lm_rec, ph + ramp, ph_rec + ramp)
    return stats, measure_berry_phase(signals), columns


class TestHalfPeriodRun:
    """A cyclic run on the first half-period of its curves is the full-size run."""

    @pytest.mark.parametrize("method, fejer", [("series", False), ("quadrature", False),
                                               ("series", True)])
    @pytest.mark.parametrize("k, m", [(k, m) for k in (1, 3, 17, 100)
                                      for m in (8 * k + 8, 4096, 4100, 65536)])
    def test_report_and_dataset_are_the_full_size_ones(self, k, m, method, fejer):
        # m = 4N + 4 = 8k + 8, a power of two and m/4 odd (4100): the head is
        # m/4 points, or m/2 on 4100
        params = model.params_from_k(k)
        report, dataset = run_reciprocity_case(params, m, method, fejer)
        stats, berry, columns = _full_size_case(params, m, method, fejer)
        assert (report.rms_phase_error, report.max_phase_error, report.rms_logmod_error,
                report.max_logmod_error) == stats
        assert report.berry_measured == berry
        for name, expected in zip(dataset.columns, columns):
            assert dataset.data[name].tobytes() == expected.tobytes(), name
        held, _ = experiments.reciprocity_report(params, m, method, fejer)
        assert held == report


def _full_grid_non_cyclic(params, m, method, fejer):
    """The direct curves, phase trend and statistics of a non-cyclic run formed on
    all m points: np.unwrap of the demodulated arg phi1, the endpoint slope and
    the mean removed, and the transforms of the two arrays."""
    s = offset_grid(m)
    phi1 = model.phi1_values(params, s)
    lm = np.log(np.abs(phi1))
    lm -= lm.mean()
    ph = np.unwrap(np.angle(phi1) + (2 * int(round(params.k)) + 1) * s)
    slope = (ph[-1] - ph[0]) / (s[-1] - s[0])
    ph -= slope * s
    ph -= ph.mean()
    fejer_order = m // 2 if fejer else None
    ph_rec = hilbert.phase_from_modulus(lm, method, fejer_order)
    lm_rec = hilbert.modulus_from_phase(ph, method, fejer_order)
    runs = kept_runs(s, model.DRIVE_ZEROS, EXCLUSION_HALFWIDTH)
    stats = (*_kept_run_stats(ph_rec, ph, runs), *_kept_run_stats(lm_rec, lm, runs))
    return lm, ph, slope, stats


class TestNonCyclicHalfPeriodRun:
    """phi1(-s) = conj phi1(s) for every k: a non-cyclic run is held on the first
    half of the grid, its log-modulus even and its phase odd."""

    METHODS = pytest.mark.parametrize("method, fejer", [
        ("series", False), ("quadrature", False), ("series", True)])

    @METHODS
    @pytest.mark.parametrize("m", [4096, 4100])
    def test_curves_are_half_periods_of_exact_parity(self, m, method, fejer):
        # heads of m/2 points, with m/4 even and odd; the grid's second half
        # is -s_j, the points the laid-out curves hold
        _, curves = experiments.reciprocity_report(fig_params("fig3"), m, method, fejer)
        assert curves.s[::-1].tobytes() == np.negative(curves.s).tobytes()
        for curve, parity in [(curves.log_modulus_direct, 1.0),
                              (curves.log_modulus_reconstructed, 1.0),
                              (curves.phase_direct, -1.0),
                              (curves.phase_reconstructed, -1.0)]:
            assert isinstance(curve, hilbert.HalfPeriod)
            assert (len(curve.head), curve.parity, curve.m) == (m // 2, parity, m)
            full = curve.full()
            assert full[::-1].tobytes() == np.multiply(full, parity).tobytes()

    @METHODS
    @pytest.mark.parametrize("k, m", [(16.59, 4096), (16.59, 4100), (64.59, 4096)])
    def test_report_is_the_full_grid_one(self, k, m, method, fejer):
        params = model.params_from_k(k)
        report, curves = experiments.reciprocity_report(params, m, method, fejer)
        lm, ph, slope, stats = _full_grid_non_cyclic(params, m, method, fejer)
        assert np.max(np.abs(curves.log_modulus_direct.full() - lm)) <= 1e-12
        assert np.max(np.abs(curves.phase_direct.full() - ph)) <= 1e-12
        np.testing.assert_allclose(
            (report.rms_phase_error, report.max_phase_error, report.rms_logmod_error,
             report.max_logmod_error), stats, rtol=1e-12, atol=0.0)
        assert f"phase trend {slope:.6f} rad/rad" in report.notes


class TestCoefficientCase:
    def test_k1_table(self):
        report, table = run_coefficient_case(fig_params("fig1"), 50, 16384)
        assert report.max_relative_discrepancy < 1e-6
        assert abs(report.a0) < 1e-8
        assert table.n_rows == 50
        # algebraic decay from the real-axis double zeros: exponent near -1
        assert -1.5 < report.decay_exponent < -0.5

    def test_geometric_decay_is_steeper(self):
        # contrast case: zero-free chi with exponentially decaying log series
        from cyclicphase.hilbert import log_coefficients
        s = offset_grid(4096)
        coeffs = log_coefficients(1.0 / (1.0 - 0.5 * np.exp(1j * s)), 50, 4096)
        n = np.arange(1, 51)
        sel = (n > 5) & (np.abs(coeffs.A[1:]) > 1e-12)
        slope = np.polyfit(np.log(n[sel]), np.log(np.abs(coeffs.A[1:][sel])), 1)[0]
        assert slope < -5.0

    def test_non_cyclic_rejected(self):
        with pytest.raises(ValueError, match="cyclic"):
            run_coefficient_case(fig_params("fig3"))

    def test_no_harmonics(self):
        # n_max = 0 leaves no n to fit: no exponent, as for fewer than three points
        report, table = run_coefficient_case(fig_params("fig1"), n_max=0)
        assert report.decay_exponent is None and table.n_rows == 0

    @pytest.mark.parametrize("params, n_max, grid, analysed", [
        (model.params_from_k(100), 10, 64, 512),  # raised to the contour's 2^9 >= 36 n_max
        (fig_params("fig2"), 200, 16384, 16384),
    ])
    def test_reports_the_analysis_grid(self, params, n_max, grid, analysed):
        report, _ = run_coefficient_case(params, n_max, grid)
        assert report.grid_size == grid
        assert report.analysis_grid_size == analysed

    def test_never_samples_the_requested_grid(self, monkeypatch):
        # the series is model.helicity_series's closed form, sampled on no grid
        def refuse(*args):
            raise AssertionError("evaluate_model called")

        monkeypatch.setattr(model, "evaluate_model", refuse)
        params = fig_params("fig2")
        report, table = run_coefficient_case(params, 50, 65536)
        assert report.max_relative_discrepancy < 1e-6 and table.n_rows == 50
        coeffs = hilbert.log_coefficients(model.helicity_series(params), 50, 65536)
        assert np.array_equal(table.data["A_n"], coeffs.A[1:])


class TestEmitOutputs:
    def test_files_and_round_trip(self, tmp_path):
        report, dataset = run_reciprocity_case(fig_params("fig1"), 4096)
        paths = emit_outputs(report, dataset, tmp_path / "fig1")
        names = {p.name for p in paths}
        assert names == {"fig1.csv", "fig1.report.json"}
        csv_lines = (tmp_path / "fig1.csv").read_text().strip().split("\n")
        assert csv_lines[0] == ("s,t,log_modulus_direct,log_modulus_reconstructed,"
                                "phase_direct,phase_reconstructed")
        assert len(csv_lines) == 4096 + 1
        parsed = json.loads((tmp_path / "fig1.report.json").read_text())
        assert np.isclose(parsed["rms_phase_error"], report.rms_phase_error)
        assert parsed["cyclic"] is True
        # full double precision survives the round trip
        first = [float(x) for x in csv_lines[1].split(",")]
        assert first[0] == dataset.data["s"][0]

    def test_berry_fields_dropped_for_non_cyclic(self, tmp_path):
        report, dataset = run_reciprocity_case(fig_params("fig3"), 4096)
        emit_outputs(report, dataset, tmp_path / "fig3")
        parsed = json.loads((tmp_path / "fig3.report.json").read_text())
        assert "berry_predicted" not in parsed
        assert "berry_measured" not in parsed
        assert "assumptions violated" in parsed["notes"]

    def test_deterministic_bytes(self, tmp_path):
        report, dataset = run_reciprocity_case(fig_params("fig1"), 4096)
        emit_outputs(report, dataset, tmp_path / "a")
        emit_outputs(report, dataset, tmp_path / "b")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert ((tmp_path / "a.report.json").read_bytes()
                == (tmp_path / "b.report.json").read_bytes())

    def test_json_dataset_format(self, tmp_path):
        report, dataset = run_coefficient_case(fig_params("fig1"), 10, 4096)
        paths = emit_outputs(report, dataset, tmp_path / "coeffs", fmt="json")
        payload = json.loads((tmp_path / "coeffs.json").read_text())
        assert payload["columns"] == ["n", "A_n", "B_n", "abs_diff"]
        assert len(payload["rows"]) == 10

    def test_json_dataset_bytes(self, tmp_path):
        # int, float32 and list columns all become full-precision doubles
        table = Table(("n", "x", "y"),
                      {"n": np.arange(1, 4), "x": np.array([0.1, -2.5e-300, 1 / 3]),
                       "y": [np.float32(0.1), 7, -0.0]})
        report, _ = run_coefficient_case(fig_params("fig1"), 5, 4096)
        emit_outputs(report, table, tmp_path / "t", fmt="json")
        rows = ("[\n      1.0,\n      0.1,\n      0.10000000149011612\n    ]",
                "[\n      2.0,\n      -2.5e-300,\n      7.0\n    ]",
                "[\n      3.0,\n      0.3333333333333333,\n      -0.0\n    ]")
        assert (tmp_path / "t.json").read_bytes() == (
            '{\n  "columns": [\n    "n",\n    "x",\n    "y"\n  ],\n  "rows": [\n    '
            + ",\n    ".join(rows) + "\n  ]\n}\n").encode("ascii")

    def test_bad_format_rejected(self, tmp_path):
        report, dataset = run_coefficient_case(fig_params("fig1"), 5, 4096)
        with pytest.raises(ValueError):
            emit_outputs(report, dataset, tmp_path / "x", fmt="tsv")

    def test_table_validation(self):
        with pytest.raises(ValueError):
            Table(("a", "b"), {"a": np.ones(3), "b": np.ones(4)})

    def test_table_needs_a_column(self):
        with pytest.raises(ValueError, match="at least one column"):
            Table((), {})


class TestRewrite:
    """An existing file is overwritten in place and cut to the bytes written."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("longer", [True, False])
    def test_gives_the_bytes_of_a_fresh_write(self, tmp_path, fmt, longer):
        # a writer that overwrote without cutting leaves the longer file's tail
        report, dataset = run_coefficient_case(fig_params("fig1"), 50, 4096)
        fresh = emit_outputs(report, dataset, tmp_path / "fresh" / "t", fmt)
        old = experiments.output_paths(tmp_path / "old" / "t", fmt)
        old[0].parent.mkdir()
        for path, new in zip(old, fresh):
            size = new.stat().st_size
            path.write_bytes(b"#" * (size + 1000 if longer else size // 2))
        assert emit_outputs(report, dataset, tmp_path / "old" / "t", fmt) == old
        for path, new in zip(old, fresh):
            assert path.read_bytes() == new.read_bytes()

    @pytest.mark.parametrize("first", [b"new", b"n" * 100_000], ids=["buffered", "written"])
    def test_failed_source_leaves_the_bytes_written(self, tmp_path, first):
        path = tmp_path / "t.csv"
        path.write_bytes(b"old " * 100_000)

        def chunks():
            yield first
            raise OSError(errno.EIO, "source failed")

        with pytest.raises(OSError) as info:
            experiments._write(path, chunks())
        assert str(info.value) == f"failed writing {path}: [Errno 5] source failed"
        assert path.read_bytes() == first

    def test_failed_write_leaves_the_bytes_written(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"old " * 1000)
        with pytest.raises(TypeError):
            experiments._write(path, [b"new", "not bytes"])
        assert path.read_bytes() == b"new"

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_has_the_mode_of_open_wb(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "reference", "wb"):
                pass
            experiments._write(tmp_path / "new", [b"x"])
        finally:
            os.umask(previous)
        assert (tmp_path / "new").stat().st_mode == (tmp_path / "reference").stat().st_mode


def emitted(table, directory, fmt):
    """Dataset bytes that emit_outputs writes for the table (empty report)."""
    emit_outputs(SimpleNamespace(), table, directory / "t", fmt)
    return (directory / f"t.{fmt}").read_bytes()


def oracle_bytes(table, fmt):
    return (csv_oracle if fmt == "csv" else json_oracle)(table).encode("ascii")


EDGE_TABLES = {
    "non-finite": Table(("nan", "inf"), {"nan": np.array([np.nan, np.inf, -np.inf]),
                                         "inf": np.array([-np.nan, -np.inf, np.inf])}),
    "extremes": Table(("a", "b"), {"a": np.array([-0.0, 5e-324, 1e308]),
                                   "b": np.array([-1e308, -5e-324, 0.0])}),
    "int, float32 and list": Table(("n", "x", "y"),
                                   {"n": np.arange(1, 4),
                                    "x": np.array([0.1, -2.5e-300, 1e30], dtype=np.float32),
                                    "y": [np.float32(0.1), 7, -0.0]}),
    "one row": Table(("s", "%r%%", 'q"\\'), {"s": [np.nan], "%r%%": [1 / 3],
                                            'q"\\': [-np.inf]}),
    "no rows": Table(("s", "t"), {"s": np.array([]), "t": []}),
}

CELLS = st.floats(width=64) | st.integers(-2 ** 62, 2 ** 62)


@st.composite
def tables(draw):
    """At most 6 columns x 40 rows; names that need escaping or look like tokens."""
    names = draw(st.lists(st.text("naif%,\"\\x", min_size=1, max_size=4),
                          min_size=1, max_size=6, unique=True))
    n_rows = draw(st.integers(0, 40))
    cells = st.lists(CELLS, min_size=n_rows, max_size=n_rows)
    return Table(tuple(names), {c: draw(cells) for c in names})


class TestEmissionBytes:
    """The writers against the cell-by-cell oracles of conftest."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fig1(self, tmp_path, fmt):
        _, dataset = run_reciprocity_case(fig_params("fig1"), 4096)
        assert emitted(dataset, tmp_path, fmt) == oracle_bytes(dataset, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(EDGE_TABLES))
    def test_edge_tables(self, tmp_path, name, fmt):
        table = EDGE_TABLES[name]
        assert emitted(table, tmp_path, fmt) == oracle_bytes(table, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("values", [[1e20], [np.nan],
                                        [-1e20, np.inf, -np.inf, -0.0, 5e-324, 1e-7]],
                             ids=["1e20", "nan", "mixed"])
    def test_blocks_without_a_fast_cell(self, tmp_path, fmt, values):
        # several whole blocks, every row from the block's one % call; the last
        # ends the table
        table = value_table(values * (20_000 // len(values)))
        assert emitted(table, tmp_path, fmt) == oracle_bytes(table, fmt)

    def test_write_csv(self, tmp_path):
        table = EDGE_TABLES["non-finite"]
        assert write_csv(table, tmp_path / "x.csv") == tmp_path / "x.csv"
        assert (tmp_path / "x.csv").read_bytes() == oracle_bytes(table, "csv")

    @settings(max_examples=60, deadline=None)
    @given(table=tables())
    def test_random_tables(self, tmp_path_factory, table):
        directory = tmp_path_factory.mktemp("table")
        for fmt in ("csv", "json"):
            assert emitted(table, directory, fmt) == oracle_bytes(table, fmt)

    def test_missing_directories_created(self, tmp_path):
        table = EDGE_TABLES["one row"]
        emitted(table, tmp_path / "a" / "b", "json")
        assert (tmp_path / "a" / "b" / "t.report.json").read_text() == "{}\n"


def value_table(values, n_cols=3):
    """The values row after row in n_cols columns (the last row padded with 0.0)."""
    values = list(values)
    values += [0.0] * (-len(values) % n_cols)
    names = tuple(f"c{j}" for j in range(n_cols))
    return Table(names, {c: values[j::n_cols] for j, c in enumerate(names)})


def csv_matches_oracle(table, directory):
    write_csv(table, directory / "t.csv")
    return (directory / "t.csv").read_bytes() == oracle_bytes(table, "csv")


def neighbours(x, steps=2):
    """x and the `steps` doubles on either side of it."""
    out = [x]
    down = up = x
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [float(down), float(up)]
    return out


def trailing_zeros_and_exponent(x):
    """The zeros that end the 17 significant digits of x, and its decimal exponent."""
    mantissa, exponent = f"{abs(x):.16e}".split("e")
    digits = mantissa.replace(".", "")
    return len(digits) - len(digits.rstrip("0")), int(exponent)


class TestCsvAtVolume:
    """write_csv on thousands of cells per table, against f"{x:.17g}" cell by cell.

    The writer formats fast cells (1e-6 < |x| < 1e16) with exact integer
    arithmetic and every other cell with one % call per block; these tables
    cross that boundary, the digit-count and exponent boundaries, and the
    block boundaries (9000 cells span two blocks).
    """

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1))
    def test_uniform_bit_patterns(self, tmp_path_factory, seed):
        bits = np.random.default_rng(seed).integers(0, 2 ** 64, size=9000, dtype=np.uint64)
        table = value_table(bits.view(np.float64))
        assert csv_matches_oracle(table, tmp_path_factory.mktemp("bits"))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), decade=st.integers(-8, 16))
    def test_one_decade(self, tmp_path_factory, seed, decade):
        rng = np.random.default_rng(seed)
        values = rng.uniform(1.0, 10.0, 4096) * 10.0 ** decade * rng.choice([-1.0, 1.0], 4096)
        table = value_table(values)
        assert csv_matches_oracle(table, tmp_path_factory.mktemp("decade"))

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        values = [v for p in range(-323, 309) for v in neighbours(float(f"1e{p}"))]
        values = values + [-v for v in values]
        assert csv_matches_oracle(value_table(values), tmp_path)

    def test_carry_values(self, tmp_path):
        # 17 nines parse to the doubles at a power of ten, where 17-digit rounding may carry
        values = [v for p in range(-330, 309)
                  for v in neighbours(float(f"9.9999999999999999e{p}"))]
        assert csv_matches_oracle(value_table(values + [-v for v in values]), tmp_path)

    def test_exact_tie_rounds_half_to_even(self, tmp_path):
        # 1000000000000000.25 is a double halfway between two 17-digit decimals:
        # %.17g keeps the even one
        table = value_table([1000000000000000.25, -1000000000000000.75, 0.5, 2.5e-6])
        write_csv(table, tmp_path / "t.csv")
        text = (tmp_path / "t.csv").read_text()
        assert text.splitlines()[1] == "1000000000000000.2,-1000000000000000.8,0.5"
        assert text == oracle_bytes(table, "csv").decode()

    def test_every_trailing_zero_count(self, tmp_path):
        # cells whose 17 digits end in exactly 0..16 zeros at every decimal
        # exponent of the fast cells, of both signs: the writer counts the
        # zeros of the last 4-digit group and, only where that group is 0000,
        # of the groups before it.  They sit among full-length cells in the
        # first block and again across the boundary of the first two
        rng = np.random.default_rng(15)
        special, found = [], set()
        for x in range(-6, 16):
            for z in range(17):
                length = 17 - z
                if length == 1:
                    mantissas = range(1, 10)
                else:   # a last digit other than 0
                    draws = rng.integers(10 ** (length - 2), 10 ** (length - 1), 60)
                    mantissas = draws * 10 + rng.integers(1, 10, 60)
                cells = [v for v in (float(f"{d}e{x - length + 1}") for d in mantissas)
                         if trailing_zeros_and_exponent(v) == (z, x)][:2]
                special += [c for v in cells for c in (v, -v)]
                found |= {(x, z)} if cells else set()
        # no double rounds to one significant digit at 1e-6 and 1e-5
        # (2e-6 reads 2.0000000000000001e-06): every other pair is there
        assert found == {(x, z) for x in range(-6, 16) for z in range(17)} - {(-6, 16),
                                                                             (-5, 16)}
        fast = 10.0 ** rng.uniform(-5.9, 15.9, 10_000) * rng.choice([-1.0, 1.0], 10_000)
        full = [v for v in fast if trailing_zeros_and_exponent(v)[0] == 0]
        n, boundary = len(special), BLOCK_CELLS // 3 * 3   # a block of a 3-column table
        head = [v for pair in zip(special, full) for v in pair]
        filler = full[n:boundary - 2 * n]
        across = [v for pair in zip(special, full[-n:]) for v in pair]   # n cells a side
        values = head + filler + across
        assert len(head + filler) == boundary - n and len(full) >= boundary - n
        assert csv_matches_oracle(value_table(values), tmp_path)

    def test_zeros_subnormals_and_non_finite(self, tmp_path):
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                   2.2250738585072014e-308, -1e-310, np.nan, -np.nan, np.inf, -np.inf,
                   1e-6, -1e-6, 1e16, -1e16, 1e-7, 1e17]
        values = [v for x in special for v in ([x] if not np.isfinite(x) or x == 0.0
                                                else neighbours(x))]
        # the same cells in every mix: alone, among fast cells, and as whole blocks
        mixed = values + list(np.linspace(-3.0, 3.0, 50)) + values * 300
        assert csv_matches_oracle(value_table(mixed, n_cols=7), tmp_path)

    def test_float32_and_large_integer_columns(self, tmp_path):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2 ** 32, size=6000, dtype=np.uint32)
        # signalling NaNs of both signs (quiet bit clear) flag "invalid" when
        # widened; the uniform draw holds more of them besides
        bits[:4] = [0x7FA00000, 0xFFA00000, 0x7F800001, 0xFFBFFFFF]
        f32 = bits.view(np.float32)
        big = [2 ** 53 + 1, 2 ** 60 + 12345, -(2 ** 62) - 3, 10 ** 17 + 1, 99999999999999999]
        ints = np.array(big * 1200, dtype=np.int64)
        table = Table(("f32", "i64", "py"), {"f32": f32, "i64": ints, "py": big * 1200})
        assert csv_matches_oracle(table, tmp_path)
        assert emitted(table, tmp_path, "json") == oracle_bytes(table, "json")


def json_matches_oracle(table, directory):
    return emitted(table, directory, "json") == oracle_bytes(table, "json")


def shortest_length(x):
    """The number of significant digits in repr(x)."""
    mantissa = repr(abs(x)).split("e")[0]
    return len(mantissa.replace(".", "").strip("0"))


class TestJsonAtVolume:
    """The JSON dataset on thousands of cells per table, against json.dumps.

    The writer prints a fast cell (1e-6 < |x| < 1e15, no power of two) from
    the shortest of its 17-, 16- and 15-digit roundings that reads back to it,
    with exact arithmetic, and every other cell with one % call per block;
    these tables cross those boundaries, the notation boundaries and the block
    boundaries (9000 cells span more than one block).
    """

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1))
    def test_uniform_bit_patterns(self, tmp_path_factory, seed):
        bits = np.random.default_rng(seed).integers(0, 2 ** 64, size=9000, dtype=np.uint64)
        table = value_table(bits.view(np.float64))
        assert json_matches_oracle(table, tmp_path_factory.mktemp("bits"))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), decade=st.integers(-8, 16))
    def test_one_decade(self, tmp_path_factory, seed, decade):
        rng = np.random.default_rng(seed)
        values = rng.uniform(1.0, 10.0, 4096) * 10.0 ** decade * rng.choice([-1.0, 1.0], 4096)
        table = value_table(values)
        assert json_matches_oracle(table, tmp_path_factory.mktemp("decade"))

    def test_powers_of_two_and_neighbours(self, tmp_path):
        # below a power of two the rounding interval is half as wide as above it
        values = [v for e in range(-1074, 1024) for v in neighbours(2.0 ** e)]
        assert json_matches_oracle(value_table(values + [-v for v in values]), tmp_path)

    def test_powers_of_ten_and_carry_values(self, tmp_path):
        # 17 nines parse to the doubles at a power of ten, where a rounding may carry
        values = [v for p in range(-330, 309)
                  for x in (float(f"1e{p}"), float(f"9.9999999999999999e{p}"))
                  for v in neighbours(x)]
        assert json_matches_oracle(value_table(values + [-v for v in values]), tmp_path)

    def test_ties_of_the_16_and_15_digit_rounding(self, tmp_path):
        # n / 2^j with n odd has j decimals, the last a 5: with 17 significant
        # digits it lies halfway between two 16-digit decimals, with 16 between
        # two 15-digit ones; both 16-digit neighbours of 600000000000000.25
        # read back to it
        rng = np.random.default_rng(11)
        values = [600000000000000.25, 600000000000000.75, -999999999999999.75]
        for digits in (17, 16):
            for j in range(1, digits):
                low = 10 ** (digits - 1 - j) * 2 ** j
                high = min(10 ** (digits - j) * 2 ** j, 2 ** 53)
                if low < high:
                    n = rng.integers(low, high, 40) | 1
                    values += [v for x in n / 2.0 ** j for v in neighbours(float(x), 1)]
        assert json_matches_oracle(value_table(values + [-v for v in values]), tmp_path)

    def test_every_shortest_length(self, tmp_path):
        rng = np.random.default_rng(12)
        values = []
        for length in range(1, 18):
            digits = rng.integers(10 ** (length - 1), 10 ** length, 300)
            digits[digits % 10 == 0] += 1
            exponents = rng.integers(-12, 20, 300)
            values += [float(f"{d}e{e}") for d, e in zip(digits, exponents)]
        assert {shortest_length(v) for v in values} == set(range(1, 18))
        assert json_matches_oracle(value_table(values + [-v for v in values]), tmp_path)

    def test_integer_valued_cells(self, tmp_path):
        # repr appends ".0" to an integer below 1e16; 15-digit ones are fast cells
        rng = np.random.default_rng(13)
        ints = np.concatenate([rng.integers(1, 10 ** 15, 2000),
                               rng.integers(10 ** 14, 10 ** 15, 2000),
                               rng.integers(1, 1000, 200)]).astype(float)
        values = [v for x in ints for v in neighbours(float(x), 1)]
        values += [123456789012345.0, 1e15 - 1, 1e15 - 0.5, 1e15 + 1, 2.0 ** 53 + 2]
        assert json_matches_oracle(value_table(values + [-v for v in values]), tmp_path)

    def test_notation_boundaries(self, tmp_path):
        # repr prints exponents below 1e-4 and from 1e16; fast cells end at 1e-6 and 1e15
        rng = np.random.default_rng(14)
        values = [v for x in (1e-4, 1e-5, 1e-6, 1e15, 1e16) for v in neighbours(x, 3)]
        for low, high in ((1e-6, 1e-5), (1e-5, 1e-4), (1e-4, 1e-3), (1e14, 1e15), (1e15, 1e16)):
            values += list(rng.uniform(low, high, 1000))
        assert json_matches_oracle(value_table(values + [-v for v in values]), tmp_path)

    def test_zeros_subnormals_and_non_finite(self, tmp_path):
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                   2.2250738585072014e-308, -1e-310, np.nan, -np.nan, np.inf, -np.inf,
                   1e-6, -1e-6, 1e15, -1e15, 1e-7, 1e17]
        values = [v for x in special for v in ([x] if not np.isfinite(x) or x == 0.0
                                                else neighbours(x))]
        # the same cells in every mix: alone, among fast cells, and as whole blocks
        mixed = values + list(np.linspace(-3.0, 3.0, 50)) + values * 300
        assert json_matches_oracle(value_table(mixed, n_cols=7), tmp_path)
