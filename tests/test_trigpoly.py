"""Series machinery: analysis, synthesis, helicity conversion, zero locations."""

import warnings

import numpy as np
import pytest

from cyclicphase import model
from cyclicphase.trigpoly import (
    HelicitySeries,
    SampledSignal,
    TrigSeries,
    _companion_eigenvalues,
    _refine_root_clusters,
    analyze,
    offset_grid,
    polynomial_roots,
    polynomial_values,
    root_check,
    synthesize,
    to_helicity,
)

SQ3 = np.sqrt(3.0)

# closed-form k=1 expansion of the model amplitude
K1_A = np.array([0.0, 0.75, 0.0, 0.25])
K1_B = np.array([0.0, -SQ3 / 4, 0.0, -SQ3 / 4])
K1_C = np.array([(1 + SQ3) / 8, 0.0, (3 + SQ3) / 8, 0.0,
                 (3 - SQ3) / 8, 0.0, (1 - SQ3) / 8])


class TestGrid:
    def test_offset_avoids_special_points(self):
        for m in (8, 64, 4096):
            s = offset_grid(m)
            for special in (-np.pi, -np.pi / 2, np.pi / 2, np.pi):
                assert np.min(np.abs(s - special)) > 1e-12

    def test_rejects_non_multiple_of_four(self):
        # m = 4j + 2 would place a sample exactly at s = pi/2
        for m in (6, 10, 4098, 0, -4):
            with pytest.raises(ValueError):
                offset_grid(m)

    def test_sampled_signal_validation(self):
        with pytest.raises(ValueError):
            SampledSignal(8, np.ones(7))
        with pytest.raises(ValueError):
            SampledSignal(8, np.full(8, np.nan))


class TestAnalyze:
    def test_single_tone(self):
        s = offset_grid(16)
        series = analyze(np.cos(s) + 0j, 1)
        assert np.allclose(series.a, [0.0, 1.0], atol=1e-14)
        assert np.allclose(series.b, 0.0, atol=1e-14)

    def test_constant(self):
        series = analyze(np.ones(8, dtype=complex), 0)
        assert np.allclose(series.a, [1.0], atol=1e-14)

    def test_k1_model_coefficients(self):
        params = model.derive_params(SQ3)
        s = offset_grid(64)
        series = analyze(model.phi1_values(params, s), 3)
        assert np.allclose(series.a, K1_A, atol=1e-13)
        assert np.allclose(series.b, K1_B, atol=1e-13)

    def test_reality_violation_raises(self):
        s = offset_grid(16)
        with pytest.raises(ValueError, match="reality"):
            analyze(np.cos(s) + 0.3j * np.cos(s), 1)

    def test_grid_too_coarse_raises(self):
        with pytest.raises(ValueError, match="aliasing"):
            analyze(np.ones(16, dtype=complex), 4)


class TestSynthesize:
    def test_constant_series(self):
        series = TrigSeries(0, np.array([2.5]), np.array([0.0]))
        out = synthesize(series, 8)
        assert np.allclose(out.values, 2.5)

    def test_fejer_arithmetic_mean(self):
        # partial sums S0 = 0, S1 = cos s; their mean is cos(s)/2
        series = TrigSeries(1, np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        out = synthesize(series, 16, fejer_order=1)
        s = offset_grid(16)
        assert np.allclose(out.values, 0.5 * np.cos(s), atol=1e-14)

    def test_round_trip_random(self, rng):
        for _ in range(5):
            n_max = 8
            a = rng.standard_normal(n_max + 1)
            b = rng.standard_normal(n_max + 1)
            b[0] = 0.0
            series = TrigSeries(n_max, a, b)
            back = analyze(synthesize(series, 64), n_max)
            assert np.allclose(back.a, a, atol=1e-12)
            assert np.allclose(back.b, b, atol=1e-12)


class TestToHelicity:
    def test_k1_model(self):
        series = TrigSeries(3, K1_A, K1_B)
        hel = to_helicity(series)
        assert np.allclose(hel.c, K1_C, atol=1e-14)
        # sum rule: coefficients sum to the amplitude at s = 0
        assert np.isclose(np.sum(hel.c), 1.0, atol=1e-14)

    def test_constant(self):
        hel = to_helicity(TrigSeries(0, np.array([1.0]), np.array([0.0])))
        assert np.allclose(hel.c, [1.0])

    @staticmethod
    def _random_series(rng, n_max):
        a = rng.standard_normal(n_max + 1)
        b = rng.standard_normal(n_max + 1)
        b[0] = 0.0
        if a[n_max] - b[n_max] < 0:
            a, b = -a, -b  # keep c_0 > 0 so no sign normalisation kicks in
        return TrigSeries(n_max, a, b)

    def test_sum_rule_random(self, rng):
        for _ in range(5):
            series = self._random_series(rng, 5)
            hel = to_helicity(series)
            phi0 = np.sum(series.a)  # phi(0): cosines all 1, sines all 0
            assert np.isclose(np.sum(hel.c), phi0, atol=1e-12)

    def test_synthesis_identity(self, rng):
        series = self._random_series(rng, 6)
        hel = to_helicity(series)
        m = 64
        s = offset_grid(m)
        direct = np.exp(1j * 6 * s) * synthesize(series, m).values
        assert np.max(np.abs(hel.values(m) - direct)) < 1e-10

    def test_parseval(self, rng):
        hel = to_helicity(self._random_series(rng, 5))
        m = 64
        assert np.isclose(np.sum(hel.c ** 2), np.mean(np.abs(hel.values(m)) ** 2),
                          atol=1e-12)


class TestPolynomialValues:
    @pytest.mark.parametrize("degree", [5, 8, 30])
    def test_matches_direct_sum(self, rng, degree):
        # at m = 8, degrees 8 and above fold onto the grid's 8 bins
        c = rng.standard_normal(degree + 1)
        s = offset_grid(8)
        direct = np.exp(1j * np.outer(s, np.arange(degree + 1))) @ c
        assert np.max(np.abs(polynomial_values(c, 8) - direct)) < 1e-12

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="multiple of 4"):
            polynomial_values(np.ones(3), 6)


class TestRootCheck:
    def test_k1_model_roots(self):
        result = root_check(HelicitySeries(K1_C))
        assert result.passed
        expected = [1j, 1j, -1j, -1j, np.sqrt(2 + SQ3), -np.sqrt(2 + SQ3)]
        roots = sorted(result.roots, key=lambda z: (np.round(z.real, 6), z.imag))
        expected = sorted(expected, key=lambda z: (np.round(z.real, 6), z.imag))
        for got, want in zip(roots, expected):
            assert abs(got - want) < 1e-9
        # exactly the double +-i pairs sit on the unit circle
        on_circle = np.abs(np.abs(result.roots) - 1.0) < 1e-9
        assert np.count_nonzero(on_circle) == 4

    def test_linear_pass(self):
        result = root_check(np.array([1.0, 0.5]))
        assert result.passed
        assert np.isclose(result.roots[0], -2.0)

    def test_linear_fail(self):
        result = root_check(np.array([1.0, 2.0]))
        assert not result.passed
        assert np.isclose(result.roots[0], -0.5)

    def test_degenerate_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            polynomial_roots(np.zeros(5))

    @pytest.mark.parametrize("k", [2, 3, 17])
    def test_integer_k_models_pass(self, k):
        params = model.params_from_k(k)
        signals = model.evaluate_model(params, 4 * params.n_harmonic + 4)
        result = root_check(signals.helicity)
        assert result.passed
        # unit-circle roots are exactly the double zeros at z = +-i
        on_circle = result.roots[np.abs(np.abs(result.roots) - 1.0) < 1e-9]
        assert len(on_circle) == 4
        assert np.all(np.min(np.abs(on_circle[:, None] - np.array([1j, -1j])), axis=1) < 1e-9)

    def test_k100_roots_raise_no_runtime_warning(self):
        params = model.params_from_k(100)
        signals = model.evaluate_model(params, 4 * params.n_harmonic + 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = polynomial_roots(signals.helicity.c)
        assert len(roots) == 2 * params.n_harmonic
        assert np.min(np.abs(roots)) >= 1.0 - 1e-9

    def test_small_leading_coefficient_is_kept(self):
        # c_400 / c_0 ~ 3e-17: a relative trim dropped every root of this one
        c = np.zeros(401)
        c[0], c[400] = -1.1 ** 400, 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = polynomial_roots(c)
        assert len(roots) == 400
        assert np.max(np.abs(np.abs(roots) - 1.1)) <= 1e-9

    @pytest.mark.parametrize("c0, c2", [(1.0, 1e-320), (1e-300, 1e300)])
    def test_extreme_coefficient_ratio(self, c0, c2):
        # |c0 / c2| overflows or underflows; the roots +-i sqrt(c0 / c2) do not
        roots = polynomial_roots(np.array([c0, 0.0, c2]))
        modulus = np.sqrt(c0) / np.sqrt(c2)
        assert np.allclose(np.sort_complex(roots / modulus), [-1j, 1j], atol=1e-12)

    def test_leading_zero_coefficients_are_roots_at_zero(self):
        roots = polynomial_roots(np.array([0.0, 0.0, 2.0, 1.0, 0.0]))
        assert np.array_equal(np.sort_complex(roots), [-2.0, 0.0, 0.0])

    @pytest.mark.parametrize("k", [1, 17, 50, 100])
    def test_scaling_keeps_model_roots(self, k):
        # the unscaled companion eigensolve, polished the same way, as reference
        params = model.params_from_k(k)
        c = model.evaluate_model(params, 4 * params.n_harmonic + 4).helicity.c
        unscaled = _refine_root_clusters(c, _companion_eigenvalues(c))
        roots = polynomial_roots(c)
        dist = np.abs(roots[:, None] - unscaled[None, :])
        assert len(roots) == len(unscaled) == 2 * params.n_harmonic
        assert np.max(np.min(dist, axis=1)) <= 1e-13
        assert np.max(np.min(dist, axis=0)) <= 1e-13

    def test_recovers_prescribed_roots_at_degree_400(self, rng):
        # P(z) = (z^2 + 1)^2 prod_r (z - z_r)(z - conj z_r), |z_r| > 1, multiplied
        # out independently: sampled at 1024 roots of unity, coefficients by FFT
        theta = np.pi * (np.arange(198) + 0.5 + 0.3 * rng.uniform(-1, 1, 198)) / 198
        upper = rng.uniform(1.02, 1.05, 198) * np.exp(1j * theta)
        simple = np.concatenate((upper, upper.conj()))
        w = np.exp(2j * np.pi * np.arange(1024) / 1024)
        values = (w * w + 1.0) ** 2 * np.prod(w[:, None] - simple[None, :], axis=1)
        c = np.fft.fft(values) / 1024
        assert np.max(np.abs(c[401:])) < 1e-8 * np.max(np.abs(c))
        roots = polynomial_roots(c[:401].real)
        assert len(roots) == 400
        for unit in (1j, -1j):  # double roots, polished to full accuracy
            assert np.count_nonzero(np.abs(roots - unit) <= 1e-12) == 2
        rest = roots[np.minimum(np.abs(roots - 1j), np.abs(roots + 1j)) > 1e-12]
        dist = np.abs(rest[:, None] - simple[None, :])
        assert sorted(np.argmin(dist, axis=1)) == list(range(len(simple)))
        assert np.max(np.min(dist, axis=1)) < 1e-9
