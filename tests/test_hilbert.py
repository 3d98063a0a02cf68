"""Hilbert transform, reciprocal reconstructions, log-series coefficients."""

import tracemalloc

import numpy as np
import pytest

from conftest import (
    conjugate_pair_from_roots,
    log_series_coefficients_newton,
    pv_hilbert_oracle,
)
from cyclicphase import model
from cyclicphase.hilbert import (
    PhaseModulusPair,
    coefficient_equality_check,
    log_coefficients,
    modulus_from_phase,
    periodic_hilbert,
    phase_from_modulus,
    unwrap,
)
from cyclicphase.trigpoly import HelicitySeries, offset_grid

METHODS = ("series", "quadrature")


class TestPeriodicHilbert:
    @pytest.mark.parametrize("method", METHODS)
    def test_cos_sin_pairs(self, method, grid_4096):
        s = grid_4096
        for n in range(1, 6):
            assert np.max(np.abs(periodic_hilbert(np.cos(n * s), method)
                                 + np.pi * np.sin(n * s))) < 1e-10
            assert np.max(np.abs(periodic_hilbert(np.sin(n * s), method)
                                 - np.pi * np.cos(n * s))) < 1e-10

    @pytest.mark.parametrize("method", METHODS)
    def test_constant_annihilated(self, method):
        out = periodic_hilbert(np.full(256, 3.7), method)
        assert np.max(np.abs(out)) < 1e-12

    def test_against_brute_force_quadrature(self):
        # independent symmetric-exclusion PV oracle at a handful of points
        s = offset_grid(256)
        f_samples = np.cos(3 * s) + 0.5 * np.sin(7 * s) - 0.2 * np.cos(s)
        f = lambda x: np.cos(3 * x) + 0.5 * np.sin(7 * x) - 0.2 * np.cos(x)
        out = periodic_hilbert(f_samples, "series")
        for j in (10, 77, 133, 201):
            assert abs(out[j] - pv_hilbert_oracle(f, s[j])) < 1e-6

    def test_method_agreement_band_limited(self, rng):
        m = 512
        s = offset_grid(m)
        f = np.zeros(m)
        for n in range(m // 4 + 1):
            an, bn = rng.standard_normal(2) / (n + 1.0)
            f += an * np.cos(n * s) + bn * np.sin(n * s)
        assert np.max(np.abs(periodic_hilbert(f, "series")
                             - periodic_hilbert(f, "quadrature"))) < 1e-8

    @pytest.mark.parametrize("method", METHODS)
    def test_anti_involution(self, method):
        s = offset_grid(1024)
        f = 1.3 + np.cos(2 * s) - 0.4 * np.sin(5 * s)
        twice = periodic_hilbert(periodic_hilbert(f, method), method)
        assert np.max(np.abs(twice + np.pi ** 2 * (f - f.mean()))) < 1e-8

    def test_parity_swap(self, rng):
        # even input maps to odd output and vice versa
        m = 512
        s = offset_grid(m)
        even = np.cos(3 * s) + 0.2 * np.cos(8 * s)
        odd = periodic_hilbert(even, "series")
        assert np.max(np.abs(odd + odd[::-1])) < 1e-10  # odd: f(-s) = -f(s)
        back = periodic_hilbert(odd, "series")
        assert np.max(np.abs(back - back[::-1])) < 1e-10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            periodic_hilbert(np.array([1.0, np.nan, 0.0, 0.0]))
        with pytest.raises(ValueError):
            periodic_hilbert(np.ones(256), method="simpson")
        with pytest.raises(ValueError, match="series"):
            periodic_hilbert(np.ones(256), method="quadrature", fejer_order=8)


class TestReciprocalPair:
    @pytest.mark.parametrize("method", METHODS)
    def test_exponential_control(self, method, grid_4096):
        # chi = exp(e^{is}): log chi = cos s + i sin s, zero-free everywhere
        s = grid_4096
        assert np.max(np.abs(phase_from_modulus(np.cos(s), method) - np.sin(s))) < 1e-10
        assert np.max(np.abs(modulus_from_phase(np.sin(s), method) - np.cos(s))) < 1e-10

    def test_zero_maps_to_zero(self):
        z = np.zeros(64)
        assert np.allclose(phase_from_modulus(z), 0.0)
        assert np.allclose(modulus_from_phase(z), 0.0)

    def test_round_trip_smooth(self, rng):
        s = offset_grid(1024)
        x = 0.3 * np.cos(2 * s) + 0.1 * np.sin(5 * s) + 0.7
        back = modulus_from_phase(phase_from_modulus(x))
        assert np.max(np.abs(back - (x - x.mean()))) < 1e-6

    def test_k1_model_reconstruction_vs_root_oracle(self):
        params = model.derive_params(np.sqrt(3.0))
        signals = model.evaluate_model(params, 32768)
        s = signals.grid
        lm_oracle, ph_oracle = conjugate_pair_from_roots(signals.helicity.c, s)
        # the direct signals themselves agree with the factorisation oracle
        # (unwrap accumulates round-off over the grid, hence the looser phase bound)
        assert np.max(np.abs(signals.log_modulus - lm_oracle)) < 1e-9
        assert np.max(np.abs(signals.phase_chi - ph_oracle)) < 1e-7
        mask = (np.abs(s - np.pi / 2) >= 0.05) & (np.abs(s + np.pi / 2) >= 0.05)
        ph_rec = phase_from_modulus(signals.log_modulus)
        d = (ph_rec - ph_oracle)[mask]
        assert np.sqrt(np.mean((d - d.mean()) ** 2)) < 1e-3
        lm_rec = modulus_from_phase(signals.phase_chi)
        d = (lm_rec - lm_oracle)[mask]
        assert np.sqrt(np.mean((d - d.mean()) ** 2)) < 1e-3

    def test_mean_bound_rejection(self):
        with pytest.raises(ValueError, match="c_0"):
            phase_from_modulus(np.cos(offset_grid(64)) + 0.5, mean_bound=0.1)

    def test_reported_mean(self):
        s = offset_grid(64)
        _, mean = phase_from_modulus(np.cos(s) + 0.25, return_mean=True)
        assert np.isclose(mean, 0.25, atol=1e-12)

    def test_trend_rejection(self):
        s = offset_grid(256)
        with pytest.raises(ValueError, match="trend"):
            modulus_from_phase(3.0 * s)
        # explicit opt-out proceeds
        out = modulus_from_phase(3.0 * s, trend_tolerance=None)
        assert np.all(np.isfinite(out))


class TestPhaseModulusPair:
    def _model_pair(self, m=4096):
        params = model.derive_params(np.sqrt(3.0))
        signals = model.evaluate_model(params, m)
        return PhaseModulusPair.from_samples(signals.grid, signals.log_modulus,
                                             signals.phase_chi)

    def test_zero_mean_and_recorded_means(self):
        pair = self._model_pair()
        assert abs(pair.log_modulus.mean()) < 1e-12
        assert abs(pair.phase.mean()) < 1e-12
        # the direct log-modulus mean is the (small) sampled A_0 alias
        assert abs(pair.log_modulus_mean) < 5e-3

    def test_even_odd_symmetry(self):
        # log-modulus even, phase odd, to discretisation tolerance
        lm_dev, ph_dev = self._model_pair().symmetry_residuals()
        assert lm_dev < 1e-10
        assert ph_dev < 1e-8

    def test_reconstruction_delegates(self):
        pair = self._model_pair()
        assert np.allclose(pair.reconstruct_phase(),
                           phase_from_modulus(pair.log_modulus), atol=1e-14)
        assert np.allclose(pair.reconstruct_modulus(),
                           modulus_from_phase(pair.phase), atol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PhaseModulusPair.from_samples(np.zeros(8), np.zeros(8), np.zeros(7))


class TestUnwrap:
    def test_pure_winding(self):
        s = offset_grid(128)
        wrapped = np.angle(np.exp(3j * s))
        res = unwrap(wrapped)
        assert np.allclose(np.diff(res.phase), np.diff(3 * s), atol=1e-12)
        offset = res.phase[0] - 3 * s[0]
        assert np.isclose(offset / (2 * np.pi), round(offset / (2 * np.pi)), atol=1e-12)
        assert res.jumps == []

    def test_constant(self):
        res = unwrap(np.full(32, 0.4))
        assert np.allclose(res.phase, 0.4)
        assert res.jumps == []

    def test_k1_double_zero_jumps(self):
        # arg(chi/c0) for k = 1 genuinely drops by 2 pi at each double zero
        params = model.derive_params(np.sqrt(3.0))
        signals = model.evaluate_model(params, 4096)
        s = signals.grid
        res = unwrap(np.angle(signals.chi / signals.c0),
                     zeros=signals.zeros, grid=s)
        assert len(res.jumps) == 2
        for (idx, size), loc in zip(res.jumps, (-np.pi / 2, np.pi / 2)):
            assert abs(s[idx] - loc) < (s[1] - s[0])
            assert abs(size + 2 * np.pi) < 0.05

    def test_zeros_require_grid(self):
        with pytest.raises(ValueError, match="grid"):
            unwrap(np.zeros(8), zeros=[(0.0, 2)])


class TestLogCoefficients:
    def test_geometric_control(self):
        # chi/c0 = 1/(1 - e^{is}/2): A_m = B_m = (1/2)^m / m
        s = offset_grid(4096)
        samples = 1.0 / (1.0 - 0.5 * np.exp(1j * s))
        coeffs = log_coefficients(samples, 12, 4096)
        m = np.arange(1, 13)
        expected = 0.5 ** m / m
        assert np.max(np.abs(coeffs.A[1:] - expected)) < 1e-8
        assert np.max(np.abs(coeffs.B[1:] - expected)) < 1e-8

    def test_exponential_control(self):
        s = offset_grid(4096)
        coeffs = log_coefficients(np.exp(np.exp(1j * s)), 10, 4096)
        assert np.isclose(coeffs.A[1], 1.0, atol=1e-12)
        assert np.isclose(coeffs.B[1], 1.0, atol=1e-12)
        assert np.max(np.abs(coeffs.A[2:])) < 1e-12
        assert np.max(np.abs(coeffs.B[2:])) < 1e-12
        assert abs(coeffs.A[0]) < 1e-8

    @pytest.mark.parametrize("k", [1, 17, 50])
    def test_model_vs_newton_oracle(self, k):
        params = model.params_from_k(k)
        signals = model.evaluate_model(params, 512)
        coeffs = log_coefficients(signals.helicity, 50, 16384)
        expected = log_series_coefficients_newton(signals.helicity.c, 50)
        assert np.max(np.abs(coeffs.A - expected)) < 1e-12
        assert np.max(np.abs(coeffs.B[1:] - expected[1:])) < 1e-12

    def test_analysis_memory_is_linear_in_grid(self):
        # a few complex m-vectors (1 MB each) fit; one (n_max+1) x m matrix is 27 MB
        signals = model.evaluate_model(model.params_from_k(17), 512)
        signals.helicity.roots  # root finding is not part of the measurement
        tracemalloc.start()
        try:
            log_coefficients(signals.helicity, 50, 65536)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_a0_vanishes(self):
        params = model.derive_params(np.sqrt(1155.0))
        signals = model.evaluate_model(params, 16384)
        coeffs = log_coefficients(signals.helicity, 50, 16384)
        assert abs(coeffs.A[0]) < 1e-8

    def test_c0_must_be_positive(self):
        with pytest.raises(ValueError, match="c_0"):
            log_coefficients(HelicitySeries(np.array([-1.0, 0.0, 0.5])), 5, 64)

    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="grid_size"):
            log_coefficients(np.ones(64, dtype=complex), 50, 64)


class TestEqualityCheck:
    def test_k1_model(self):
        params = model.derive_params(np.sqrt(3.0))
        signals = model.evaluate_model(params, 64)
        coeffs = log_coefficients(signals.helicity, 50, 16384)
        report = coefficient_equality_check(coeffs)
        assert report.max_relative < 1e-6

    def test_exponential_control_at_round_off(self):
        s = offset_grid(4096)
        coeffs = log_coefficients(np.exp(np.exp(1j * s)), 10, 4096)
        report = coefficient_equality_check(coeffs)
        assert np.max(report.abs_diff) < 1e-12

    def test_negative_control_fails(self):
        # zero inside the unit disk: P(z) = 1/2 + z has root z = -1/2
        s = offset_grid(4096)
        samples = 0.5 + np.exp(1j * s)
        coeffs = log_coefficients(samples, 12, 4096)
        report = coefficient_equality_check(coeffs)
        assert report.max_relative > 1e-2

    def test_nmax_bound(self):
        s = offset_grid(256)
        coeffs = log_coefficients(np.exp(np.exp(1j * s)), 5, 256)
        with pytest.raises(ValueError):
            coefficient_equality_check(coeffs, n_max=9)
