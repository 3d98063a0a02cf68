"""Series machinery: the offset grid, the helicity series read from the
spectrum of samples (analysis), its evaluation back on the grid (synthesis),
its layout against a cos/sin series, and the zero locations."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import companion_roots
from cyclicphase import hilbert, model, trigpoly
from cyclicphase.trigpoly import (
    HelicitySeries,
    frequencies,
    offset_grid,
    polynomial_roots,
    polynomial_values,
    root_check,
    spectrum,
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

    # every function that takes a grid size without being handed the grid
    GRID_SIZE_TAKERS = {
        "polynomial_values": lambda m: polynomial_values(np.ones(3), m),
        "from_samples": lambda m: HelicitySeries.from_samples(np.ones(m), 1),
        "periodic_hilbert": lambda m: hilbert.periodic_hilbert(np.ones(m)),
        "log_coefficients": lambda m: hilbert.log_coefficients(
            HelicitySeries(np.array([1.0, 0.5, 0.0])), 1, m),
    }

    @pytest.mark.parametrize("name", sorted(GRID_SIZE_TAKERS))
    def test_grid_size_rejected_with_offset_grid_message(self, name):
        message = ("m_samples must be a positive multiple of 4 so the offset grid "
                   "avoids s = +-pi/2; got 10")
        with pytest.raises(ValueError, match=re.escape(message)):
            self.GRID_SIZE_TAKERS[name](10)

    @pytest.mark.parametrize("name", sorted(GRID_SIZE_TAKERS))
    def test_grid_size_checked_without_building_the_grid(self, monkeypatch, name):
        def no_grid(m):
            raise AssertionError("offset grid built to validate its size")

        for module in (trigpoly, hilbert):  # every binding a caller may hold
            monkeypatch.setattr(module, "offset_grid", no_grid, raising=False)
        self.GRID_SIZE_TAKERS[name](16)

    def test_sampled_signal_validation(self):
        for values, match in ((np.ones(10), "multiple of 4"),
                              (np.ones((2, 8)), "1-d"),
                              (np.full(8, np.nan), "finite"),
                              (np.r_[np.ones(7), np.inf], "finite")):
            with pytest.raises(ValueError, match=match):
                HelicitySeries.from_samples(values, 0)


def _samples(fhat: dict, m: int) -> np.ndarray:
    """sum_n fhat[n] e^{ins} on the offset grid, summed term by term."""
    s = offset_grid(m)
    return sum(v * np.exp(1j * n * s) for n, v in fhat.items())


def _cos_sin_samples(a, b, m):
    """sum_n a_n cos(ns) + i sum_n b_n sin(ns) on the offset grid, dense synthesis."""
    ns = np.outer(np.arange(len(a)), offset_grid(m))
    return a @ np.cos(ns) + 1j * (b @ np.sin(ns))


def _helicity_by_hand(a, b):
    """c = ((a - b)/2 reversed, a_0, (a + b)/2) of phi = sum a_n cos + i b_n sin."""
    return np.concatenate((0.5 * (a[:0:-1] - b[:0:-1]), a[:1], 0.5 * (a[1:] + b[1:])))


def _random_cos_sin(rng, n_max):
    """Random real a_n, b_n (b_0 = 0) whose helicity series has c_0 > 0."""
    a = rng.standard_normal(n_max + 1)
    b = rng.standard_normal(n_max + 1)
    b[0] = 0.0
    if a[n_max] - b[n_max] < 0:
        a, b = -a, -b  # keep c_0 > 0 so no sign normalisation kicks in
    return a, b


class TestAnalyze:
    """Samples of phi -> helicity coefficients, by HelicitySeries.from_samples."""

    def test_single_tone(self):
        hel = HelicitySeries.from_samples(np.cos(offset_grid(16)), 1)
        assert np.allclose(hel.c, [0.5, 0.0, 0.5], atol=1e-14)

    def test_constant(self):
        hel = HelicitySeries.from_samples(np.ones(8), 0)
        assert np.allclose(hel.c, [1.0], atol=1e-14)

    def test_k1_model_coefficients(self):
        params = model.derive_params(SQ3)
        hel = HelicitySeries.from_samples(model.phi1_values(params, offset_grid(64)), 3)
        assert np.allclose(hel.c, K1_C, atol=1e-13)

    def test_sign_normalised(self, rng):
        a, b = _random_cos_sin(rng, 5)
        values = _cos_sin_samples(a, b, 64)
        plus = HelicitySeries.from_samples(values, 5)
        minus = HelicitySeries.from_samples(-values, 5)
        assert plus.c[0] > 0.0
        assert np.array_equal(plus.c, minus.c)

    def test_reality_violation_raises(self):
        s = offset_grid(16)
        with pytest.raises(ValueError, match="reality"):
            HelicitySeries.from_samples(np.cos(s) + 0.3j * np.cos(s), 1)

    @pytest.mark.parametrize("fhat, passes", [
        ({1: 0.6e-10j, -1: 0.6e-10j}, False),   # Im a_1 = 1.2e-10
        ({1: 0.6e-10j, -1: -0.6e-10j}, False),  # Im b_1 = 1.2e-10
        ({1: 0.4e-10j, -1: -0.4e-10j}, True),
        ({0: 0.9e-10j}, True),                  # Im a_0 = Im fhat[0], counted once
        ({0: 1.1e-10j}, False),
    ])
    def test_reality_residue_sums_plus_and_minus_n(self, fhat, passes):
        # the residue of the pair +-n is |Im fhat[n]| + |Im fhat[-n]|, which is
        # max(|Im a_n|, |Im b_n|) for a_n = fhat[n] + fhat[-n], b_n = fhat[n] - fhat[-n]
        values = 1.0 + _samples(fhat, 16)
        if passes:
            assert HelicitySeries.from_samples(values, 2).c[2] == pytest.approx(1.0)
        else:
            with pytest.raises(ValueError, match="reality"):
                HelicitySeries.from_samples(values, 2)

    def test_grid_too_coarse_raises(self):
        with pytest.raises(ValueError, match="aliasing"):
            HelicitySeries.from_samples(np.ones(16), 4)


class TestSpectrum:
    """The windowed readout against the full-grid readout it replaced."""

    @staticmethod
    def _full_grid_bins(values, n_max):
        # every bin scaled and twiddled, then the band read out
        m = len(values)
        n = frequencies(m)
        fhat = np.fft.fft(values) / m * ((-1.0) ** n * np.exp(-1j * np.pi * n / m))
        return fhat[np.arange(-n_max, n_max + 1)]

    @staticmethod
    def assert_same_bytes(values, n_max):
        window, full = spectrum(values, n_max), TestSpectrum._full_grid_bins(values, n_max)
        assert np.array_equal(window, full)
        assert window.tobytes() == full.tobytes()  # signed zeros included

    @pytest.mark.parametrize("m, n_max", [(8, 0), (8, 3), (64, 31), (1172, 50),
                                          (4096, 35), (4096, 2047), (262144, 35)])
    def test_window_equals_full_grid_bins(self, rng, m, n_max):
        self.assert_same_bytes(rng.standard_normal(m) + 1j * rng.standard_normal(m), n_max)

    def test_model_samples(self):
        phi1 = model.phi1_values(model.params_from_k(17), offset_grid(65536))
        self.assert_same_bytes(phi1, 35)

    @pytest.mark.parametrize("n_max", [-1, 4, 100])
    def test_band_wider_than_grid_raises(self, n_max):
        with pytest.raises(ValueError, match="does not fit"):
            spectrum(np.ones(8), n_max)


class TestSynthesize:
    """Helicity coefficients -> samples of chi, by polynomial_values."""

    def test_constant_series(self):
        assert np.allclose(polynomial_values(np.array([2.5]), 8), 2.5, atol=1e-14)

    def test_round_trip_random(self, rng):
        # c -> chi on the grid -> phi = e^{-iNs} chi -> c
        for _ in range(5):
            n_max, m = 8, 64
            c = rng.standard_normal(2 * n_max + 1)
            c[0] = abs(c[0])
            phi = np.exp(-1j * n_max * offset_grid(m)) * polynomial_values(c, m)
            back = HelicitySeries.from_samples(phi, n_max).c
            assert np.allclose(back, c, atol=1e-12)


class TestToHelicity:
    """The layout c_m = fhat[m - N] against c built by hand from a_n, b_n."""

    def test_k1_model(self):
        assert np.allclose(_helicity_by_hand(K1_A, K1_B), K1_C, atol=1e-15)
        hel = HelicitySeries.from_samples(_cos_sin_samples(K1_A, K1_B, 64), 3)
        assert np.allclose(hel.c, K1_C, atol=1e-14)
        # sum rule: coefficients sum to the amplitude at s = 0
        assert np.isclose(np.sum(hel.c), 1.0, atol=1e-14)

    def test_constant(self):
        hel = HelicitySeries.from_samples(np.full(8, 2.5), 0)
        assert np.allclose(hel.c, [2.5])

    def test_sum_rule_random(self, rng):
        for _ in range(5):
            a, b = _random_cos_sin(rng, 5)
            hel = HelicitySeries.from_samples(_cos_sin_samples(a, b, 64), 5)
            assert np.allclose(hel.c, _helicity_by_hand(a, b), atol=1e-12)
            phi0 = np.sum(a)  # phi(0): cosines all 1, sines all 0
            assert np.isclose(np.sum(hel.c), phi0, atol=1e-12)

    def test_synthesis_identity(self, rng):
        a, b = _random_cos_sin(rng, 6)
        m = 64
        values = _cos_sin_samples(a, b, m)
        hel = HelicitySeries.from_samples(values, 6)
        direct = np.exp(1j * 6 * offset_grid(m)) * values
        assert np.max(np.abs(polynomial_values(hel.c, m) - direct)) < 1e-10

    @pytest.mark.parametrize("k", [1, 17, 100])
    def test_model_series_reproduces_chi(self, k):
        # chi = e^{iNs} phi1 up to the flip that makes c_0 >= 0
        params = model.params_from_k(k)
        for m in (4 * params.n_harmonic + 4, 16384):
            signals = model.evaluate_model(params, m)
            c = signals.helicity.c
            sign = np.sign(np.sum(c))  # sum(c) = +-phi1(0) = +-1
            assert np.isclose(abs(np.sum(c)), 1.0, atol=1e-12)
            assert np.max(np.abs(polynomial_values(c, m) - sign * signals.chi)) <= 1e-10

    def test_parseval(self, rng):
        a, b = _random_cos_sin(rng, 5)
        hel = HelicitySeries.from_samples(_cos_sin_samples(a, b, 64), 5)
        m = 64
        assert np.isclose(np.sum(hel.c ** 2),
                          np.mean(np.abs(polynomial_values(hel.c, m)) ** 2), atol=1e-12)


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


def backward_error(c, z):
    """|P(z)| / sum_m |c_m| |z|^m by Horner in long double, reversed where |z| > 1."""
    c = np.asarray(c, dtype=np.longdouble)
    z = np.asarray(z, dtype=np.clongdouble)
    outside = np.abs(z) > 1
    z = np.where(outside, 1 / z, z)
    value = np.zeros(len(z), dtype=np.clongdouble)
    bound = np.zeros(len(z), dtype=np.longdouble)
    for cm, cm_rev in zip(c[::-1], c):  # P(z) z^-d = sum_m c_m (1/z)^(d-m)
        value = value * z + np.where(outside, cm_rev, cm)
        bound = bound * np.abs(z) + np.abs(np.where(outside, cm_rev, cm))
    return np.abs(value) / bound


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
        # the unscaled companion eigensolve with its own polish as reference
        params = model.params_from_k(k)
        c = model.evaluate_model(params, 4 * params.n_harmonic + 4).helicity.c
        unscaled = companion_roots(c)
        roots = polynomial_roots(c)
        dist = np.abs(roots[:, None] - unscaled[None, :])
        assert len(roots) == len(unscaled) == 2 * params.n_harmonic
        assert np.max(np.min(dist, axis=1)) <= 1e-13
        assert np.max(np.min(dist, axis=0)) <= 1e-13

    def test_unconverged_roots_raise_naming_the_degree(self, monkeypatch):
        monkeypatch.setattr(trigpoly, "MAX_SWEEPS", 1)
        params = model.params_from_k(17)
        c = model.evaluate_model(params, 4 * params.n_harmonic + 4).helicity.c
        with pytest.raises(ValueError, match=r"^root finder did not converge for the "
                                             r"degree-70 polynomial in 1 sweeps$"):
            polynomial_roots(c)

    def test_start_on_a_double_root_raises_no_warning(self):
        # the first start point sits on the double root e^{0.7i}, where p = p' = 0
        pair = np.array([1.0, -2.0 * np.cos(0.7), 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = polynomial_roots(np.convolve(pair, pair))
        for root in (np.exp(0.7j), np.exp(-0.7j)):
            assert np.count_nonzero(np.abs(roots - root) <= 1e-12) == 2

    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(st.tuples(st.floats(1.02, 3.0), st.floats(-0.4, 0.4)),
                          min_size=1, max_size=55),
           double=st.booleans(), inside=st.sampled_from([None, -0.9, -0.5, 0.3, 0.8]))
    def test_prescribed_roots_property(self, pairs, double, inside):
        # conjugate pairs outside the disk at spread angles, optionally times
        # (z^2 + 1)^2 and one real root inside the disk; degree <= 115.  The
        # pairs keep 0.25 rad off +-i: a simple root next to a double root at
        # +-i leaves it so ill-conditioned that rounding the multiplied-out
        # coefficients alone moves it by ~1e-12
        modulus, jitter = np.array(pairs).T
        theta = (np.pi - 0.5) * (np.arange(len(pairs)) + 0.5 + jitter) / len(pairs)
        theta = np.where(theta > np.pi / 2 - 0.25, theta + 0.5, theta)
        upper = modulus * np.exp(1j * theta)
        prescribed = np.concatenate((upper, upper.conj(), [] if inside is None else [inside]))
        c = np.polynomial.polynomial.polyfromroots(prescribed).real
        if double:
            c = np.convolve(c, [1.0, 0.0, 2.0, 0.0, 1.0])
        roots = polynomial_roots(c)
        d = len(c) - 1
        assert len(roots) == d
        assert np.max(backward_error(c, roots)) <= 4 * d * np.finfo(float).eps
        if double:
            for unit in (1j, -1j):
                assert np.count_nonzero(np.abs(roots - unit) <= 1e-12) == 2
        assert root_check(c).passed == (inside is None)

    @settings(max_examples=30, deadline=None)
    @given(degree=st.integers(1, 120), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_coefficients_vs_companion_oracle(self, degree, seed):
        # judged by backward error: the roots of such polynomials can be too
        # ill-conditioned for either solver to fix them to a distance
        c = np.random.default_rng(seed).standard_normal(degree + 1)
        roots, oracle = polynomial_roots(c), companion_roots(c)
        assert len(roots) == len(oracle) == degree
        assert np.max(backward_error(c, roots)) <= 4 * degree * np.finfo(float).eps
        # the root set as a whole: coefficients rebuilt from it, against c
        rebuilt = [np.max(np.abs(c[-1] * np.polynomial.polynomial.polyfromroots(r) - c))
                   for r in (roots, oracle)]
        scale = np.max(np.abs(c)) * degree * np.finfo(float).eps
        assert rebuilt[0] <= 100 * max(rebuilt[1], scale)

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
