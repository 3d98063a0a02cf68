"""Pipelines, Berry measurement, peak matching, file emission."""

import json

import numpy as np
import pytest

from cyclicphase import experiments, hilbert, model, trigpoly
from cyclicphase.experiments import (
    PRESETS,
    Table,
    emit_outputs,
    exclusion_mask,
    match_peaks,
    measure_berry_phase,
    peak_positions,
    run_coefficient_case,
    run_reciprocity_case,
)
from cyclicphase.trigpoly import offset_grid


def fig_params(name):
    return model.derive_params(PRESETS[name]["g"])


class TestMeasureBerryPhase:
    def test_linear_phase_control(self):
        # chi = e^{is}: physical phase identically s, change over the
        # revolution is exactly pi
        p = model.derive_params(np.sqrt(3.0))
        grid = offset_grid(4096)
        signals = model.ModelSignals(
            params=p, grid=grid, phi1=np.exp(1j * grid),
            log_modulus=np.zeros_like(grid), phase_physical=grid.copy(),
            chi=np.exp(1j * grid), phase_chi=grid.copy(), c0=1.0)
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
        signals = model.evaluate_model(model.derive_params(np.sqrt(1100.0)), 4096)
        with pytest.raises(ValueError, match="cyclic"):
            measure_berry_phase(signals)

    def test_epsilon_validation(self):
        signals = model.evaluate_model(model.derive_params(np.sqrt(3.0)), 4096)
        with pytest.raises(ValueError):
            measure_berry_phase(signals, epsilon=3.0)
        with pytest.raises(ValueError):
            measure_berry_phase(signals, epsilon=1e-9)


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

    def test_exclusion_mask_wraps(self):
        s = offset_grid(64)
        mask = exclusion_mask(s, ((np.pi, 1),), 0.2)
        assert not mask[0] and not mask[-1]  # both period ends are near s = pi


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

    def test_fejer_flag_runs(self):
        report, _ = run_reciprocity_case(fig_params("fig1"), 4096, fejer=True)
        assert report.fejer
        assert np.isfinite(report.rms_phase_error)


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

    def test_bad_format_rejected(self, tmp_path):
        report, dataset = run_coefficient_case(fig_params("fig1"), 5, 4096)
        with pytest.raises(ValueError):
            emit_outputs(report, dataset, tmp_path / "x", fmt="tsv")

    def test_table_validation(self):
        with pytest.raises(ValueError):
            Table(("a", "b"), {"a": np.ones(3), "b": np.ones(4)})
