"""Series machinery: the offset grid, the helicity series read from the
spectrum of samples (analysis), its evaluation back on the grid (synthesis),
its layout against a cos/sin series, and the zero locations."""

import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import companion_roots, frequencies, grid_phi1
from cyclicphase import hilbert, model, trigpoly
from cyclicphase.trigpoly import (
    HelicitySeries,
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


class TestFromSamples:
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


class TestPolynomialValuesRoundTrip:
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


class TestHelicityLayout:
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
            chi = np.exp(1j * params.n_harmonic * signals.grid) * grid_phi1(params, m)
            assert np.max(np.abs(polynomial_values(c, m) - sign * chi)) <= 1e-10

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
        # a cap of 0 leaves every eigenvalue short of the gate
        monkeypatch.setattr(trigpoly, "MAX_SWEEPS", 0)
        params = model.params_from_k(17)
        c = model.evaluate_model(params, 4 * params.n_harmonic + 4).helicity.c
        with pytest.raises(ValueError, match=r"^root finder did not converge for the "
                                             r"degree-70 polynomial in 0 sweeps$"):
            polynomial_roots(c)

    def test_start_on_a_double_root_raises_no_warning(self):
        # a double root e^{0.7i} on the circle, where p = p' = 0: Newton near it
        # divides by ~0.  Its two copies are left where the gate stops, about
        # sqrt(eps) off (measured 1.7e-8), and not joined
        pair = np.array([1.0, -2.0 * np.cos(0.7), 1.0])
        c = np.convolve(pair, pair)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = polynomial_roots(c)
        assert np.max(backward_error(c, roots)) <= 4 * (len(c) - 1) * np.finfo(float).eps
        for root in (np.exp(0.7j), np.exp(-0.7j)):
            assert np.count_nonzero(np.abs(roots - root) <= 1e-7) == 2

    @pytest.mark.parametrize("prescribed", [[0.53] * 4 + [2.0],
                                            [0.6599999999999999] * 5 + [-1.5]])
    def test_newton_never_steps_onto_zero(self, prescribed):
        # next to the multiple root p and z p' are both round-off; where they
        # are equal a Newton step lands on z = 0, where z p' = 0 holds it
        c = np.polynomial.polynomial.polyfromroots(prescribed).real
        d = len(c) - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = root_check(c)
        assert len(result.roots) == d
        assert np.max(backward_error(c, result.roots)) <= 4 * d * np.finfo(float).eps
        assert not result.passed

    @pytest.mark.parametrize("extra", [[], [2.0], [-1.5], [1.5 + 0.5j, 1.5 - 0.5j]],
                             ids=["1", "z-2", "z+1.5", "(z-1.5)^2+0.25"])
    @pytest.mark.parametrize("mu", [2, 3, 4, 5])
    def test_multiple_real_root_keeps_conjugate_pairs(self, mu, extra):
        # (z - a)^mu e(z): next to the multiple real root a greedy cluster walk
        # could take a complex root's partner and leave the set unpaired
        for a in np.linspace(0.3, 2.5, 23):
            c = np.polynomial.polynomial.polyfromroots([a] * mu + extra).real
            d = len(c) - 1
            roots = polynomial_roots(c)
            assert len(roots) == d
            assert np.array_equal(np.sort_complex(roots), np.sort_complex(roots.conj())), a
            assert np.max(backward_error(c, roots)) <= 4 * d * np.finfo(float).eps

    @pytest.mark.parametrize("a, mu, extra", [(0.5, 4, [2.0]), (1.49, 3, [-1.5]),
                                              (2.11, 5, [])],
                             ids=["(z-0.5)^4(z-2)", "(z-1.49)^3(z+1.5)", "(z-2.11)^5"])
    def test_multiple_real_root_left_where_the_gate_stops(self, a, mu, extra):
        # the general path's one limit: the mu copies of a root of multiplicity
        # mu come back about eps^(1/mu) off it (measured 1.6 to 2.3 a eps^(1/mu))
        c = np.polynomial.polynomial.polyfromroots([a] * mu + extra).real
        roots = polynomial_roots(c)
        assert np.array_equal(np.sort_complex(roots), np.sort_complex(roots.conj()))
        assert np.max(backward_error(c, roots)) <= 4 * (len(c) - 1) * np.finfo(float).eps
        reach = 8 * a * np.finfo(float).eps ** (1 / mu)
        assert np.count_nonzero(np.abs(roots - a) <= reach) == mu

    def test_fifty_pairs_spanning_1e26_converge(self):
        # 50 conjugate pairs, moduli 0.5-3, coefficients spanning 1e26: the
        # polish takes every eigenvalue of the balanced companion matrix to
        # the gate within MAX_SWEEPS
        rng = np.random.default_rng(217)
        upper = rng.uniform(0.5, 3.0, 50) * np.exp(1j * rng.uniform(0.05, np.pi - 0.05, 50))
        c = np.polynomial.polynomial.polyfromroots(np.concatenate((upper, upper.conj()))).real
        roots = polynomial_roots(c)
        assert len(roots) == 100
        assert np.max(backward_error(c, roots)) <= 4 * 100 * np.finfo(float).eps
        assert np.array_equal(np.sort_complex(roots), np.sort_complex(roots.conj()))

    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(st.tuples(st.floats(1.02, 3.0), st.floats(-0.4, 0.4)),
                          min_size=1, max_size=55),
           double=st.booleans(), inside=st.sampled_from([None, -0.9, -0.5, 0.3, 0.8]))
    def test_prescribed_roots_property(self, pairs, double, inside):
        # conjugate pairs outside the disk at spread angles, optionally times
        # (z^2 + 1)^2 and one real root inside the disk; degree <= 115.  The
        # pairs keep 0.25 rad off +-i: a simple root next to a double root at
        # +-i leaves it so ill-conditioned that rounding the multiplied-out
        # coefficients alone moves it by ~1e-12.  The double roots at +-i come
        # back about sqrt(eps) off, a copy possibly inside the circle, so the
        # verdict is asserted on the draws without them
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
        assert np.array_equal(np.sort_complex(roots), np.sort_complex(roots.conj()))
        if not double:
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
        assert np.array_equal(np.sort_complex(roots), np.sort_complex(roots.conj()))
        # the root set as a whole: coefficients rebuilt from it, against c.  The
        # oracle is an eigensolve like the package's general path, so mpmath's
        # Durand-Kerner iteration gives a second opinion where it is fast
        references = [oracle]
        if degree <= 30:
            references.append(np.array(mpmath.polyroots(c[::-1].tolist(), maxsteps=200),
                                       dtype=complex))
        rebuilt = [np.max(np.abs(c[-1] * np.polynomial.polynomial.polyfromroots(r) - c))
                   for r in [roots] + references]
        scale = np.max(np.abs(c)) * degree * np.finfo(float).eps
        for reference in rebuilt[1:]:
            assert rebuilt[0] <= 100 * max(reference, scale)

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
        for unit in (1j, -1j):  # double roots, about sqrt(eps) off (measured 9.2e-8)
            assert np.count_nonzero(np.abs(roots - unit) <= 1e-6) == 2
        rest = roots[np.minimum(np.abs(roots - 1j), np.abs(roots + 1j)) > 1e-6]
        dist = np.abs(rest[:, None] - simple[None, :])
        assert sorted(np.argmin(dist, axis=1)) == list(range(len(simple)))
        assert np.max(np.min(dist, axis=1)) < 1e-9


def matched_distances(roots, reference):
    """|roots[i] - reference[j]| over a matching that uses each reference root once.

    Roots take their nearest unused reference root, the closest first, so a
    root set that holds one root twice and misses another shows a distance
    to the missing one.
    """
    dist = np.abs(roots[:, None] - reference[None, :])
    out = np.empty(len(roots))
    for i in np.argsort(dist.min(axis=1)):
        j = np.argmin(dist[i])
        out[i] = dist[i, j]
        dist[:, j] = np.inf
    return out


def model_series(k):
    params = model.params_from_k(k)
    return model.evaluate_model(params, 4 * params.n_harmonic + 4).helicity.c


def eigensolve_roots(monkeypatch, c):
    """polynomial_roots(c) with the four-term path switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(trigpoly, "_model_roots", lambda c: None)
        return polynomial_roots(c)


@pytest.fixture
def eigensolve_calls(monkeypatch):
    """Degrees of the polynomials sent to the general path, the companion eigensolve."""
    calls = []
    original = trigpoly._eig_roots

    def counting(q):
        calls.append(len(q) - 1)
        return original(q)

    monkeypatch.setattr(trigpoly, "_eig_roots", counting)
    return calls


def modulus_of_40_digit_root(c, start):
    """|z| of the root of sum_m c[m] z^m that Newton reaches from start in 40 digits."""
    with mpmath.workdps(40):
        coefficients = [mpmath.mpf(float(cm)) for cm in c[::-1]]
        z = mpmath.mpc(start)
        for _ in range(8):  # quadratic from a double-precision root: past 40 digits in 2
            p, dp = mpmath.polyval(coefficients, z, derivative=True)
            z -= p / dp
        return float(abs(z))


def off_circle_nearest(roots):
    """The root off the unit circle nearest the origin: its modulus is rho."""
    off = roots[np.abs(roots) > 1.0 + hilbert.UNIT_ROOT_TOL]
    return off[np.argmin(np.abs(off))]


class TestModelRoots:
    """The four-term branch solver that polynomial_roots runs on model series."""

    def check_model_roots(self, c, roots):
        d = len(c) - 1
        assert len(roots) == d
        for unit in (1j, -1j):  # exact double roots
            assert np.count_nonzero(roots == unit) == 2
        assert np.array_equal(np.sort_complex(roots), np.sort_complex(roots.conj()))
        if d <= 602:  # k <= 150
            oracle = companion_roots(c)
            assert np.max(matched_distances(roots, oracle)
                          / np.maximum(1.0, np.abs(roots))) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 17, 32, 100, 400])
    def test_matches_the_oracle_and_the_eigensolve(self, monkeypatch, eigensolve_calls, k):
        c = model_series(k)
        roots = polynomial_roots(c)
        assert eigensolve_calls == []  # the branch solver took the series
        self.check_model_roots(c, roots)
        assert np.min(np.abs(roots)) == 1.0
        if k <= 100:
            # the eigensolve leaves the double roots at +-i about sqrt(eps) off
            # (measured <= 1.5e-8); rho, from its simple roots, agrees
            general = eigensolve_roots(monkeypatch, c)
            unit = np.min(np.abs(general[:, None] - np.array([1j, -1j])), axis=1) <= 1e-7
            assert np.count_nonzero(unit) == 4
            rho = np.min(np.abs(general[~unit]))
            assert abs(abs(off_circle_nearest(roots)) - rho) <= 1e-14
        else:  # the eigensolve takes seconds here and misses rho by 2e-14 itself
            nearest = off_circle_nearest(roots)
            assert abs(abs(nearest) - modulus_of_40_digit_root(c, nearest)) <= 1e-14

    @settings(max_examples=6, deadline=None)
    @given(k=st.integers(1, 150))
    def test_integer_k_property(self, k):
        c = model_series(k)
        self.check_model_roots(c, polynomial_roots(c))

    @pytest.mark.parametrize("k", [1, 17, 400])
    def test_never_builds_the_power_block(self, monkeypatch, eigensolve_calls, k):
        c = model_series(k)

        def refuse(z, d):
            raise AssertionError("power block built")

        monkeypatch.setattr(trigpoly, "_powers", refuse)
        self.check_model_roots(c, polynomial_roots(c))
        assert eigensolve_calls == []

    @pytest.mark.parametrize("k", [1, 2, 3, 17, 100, 136, 392, 1000])
    def test_branch_roots_meet_the_gate(self, monkeypatch, k):
        # the branch roots as they are, no polish: measured <= 2.01 d eps (k = 136)
        def refuse(c, x):
            raise AssertionError("polished")

        monkeypatch.setattr(trigpoly, "_polish", refuse)
        c = model_series(k)
        roots = polynomial_roots(c)
        d = len(c) - 1
        assert len(roots) == d
        assert np.max(backward_error(c, roots)) <= 4 * d * np.finfo(float).eps

    def test_near_four_term_series_takes_the_eigensolve(self, eigensolve_calls):
        # the FFT readout of k = 17's samples leaves ~0.1 eps on other degrees
        params = model.params_from_k(17)
        n = params.n_harmonic
        c = HelicitySeries.from_samples(grid_phi1(params, 4 * n + 4), n).c
        assert np.count_nonzero(c) > 4
        roots = polynomial_roots(c)
        assert eigensolve_calls == [70]
        reference = polynomial_roots(model_series(17))
        distance = matched_distances(roots, reference) / np.maximum(1.0, np.abs(roots))
        unit = np.min(np.abs(roots[:, None] - np.array([1j, -1j])), axis=1) <= 1e-7
        assert np.count_nonzero(unit) == 4  # the double roots, about sqrt(eps) off
        assert np.max(distance[~unit]) <= 1e-12

    @staticmethod
    def boundary_cases():
        c = model_series(17)
        d = len(c) - 1
        kept = [0, 2, d - 2, d]
        four_term = np.zeros_like(c)
        four_term[kept] = c[kept]
        four_term[0] *= 1.001  # P(-1) != 0: no double root at z = +-i
        extra = c.copy()
        extra[35] = 1e-8 * np.max(np.abs(c))
        degree_68 = np.zeros(69)  # d = 0 (mod 4)
        degree_68[[0, 2, 66, 68]] = c[kept]
        return {"four_term_without_double_root": four_term,
                "extra_coefficient": extra, "degree_0_mod_4": degree_68}

    @pytest.mark.parametrize("case", ["four_term_without_double_root",
                                      "extra_coefficient", "degree_0_mod_4"])
    def test_other_series_take_the_eigensolve_path(self, eigensolve_calls, case):
        c = self.boundary_cases()[case]
        roots = polynomial_roots(c)
        assert eigensolve_calls == [len(c) - 1]
        assert len(roots) == len(c) - 1
        # the extra coefficient splits each double root at +-i into two roots
        # 2.4e-5 apart, which the gate leaves 1.7e-12 off the oracle
        tol = 1e-11 if case == "extra_coefficient" else 1e-12
        assert np.max(matched_distances(roots, companion_roots(c))
                      / np.maximum(1.0, np.abs(roots))) <= tol

    def test_branch_solver_capped_at_one_sweep_raises(self, monkeypatch, eigensolve_calls):
        monkeypatch.setattr(trigpoly, "MAX_SWEEPS", 2)
        c = model_series(17)
        assert trigpoly._model_roots(c) is None  # gives up; the general path then
        assert len(polynomial_roots(c)) == 70     # needs two gated sweeps from the eigenvalues
        assert eigensolve_calls == [70]
        monkeypatch.setattr(trigpoly, "MAX_SWEEPS", 1)
        with pytest.raises(ValueError, match=r"^root finder did not converge for the "
                                             r"degree-70 polynomial in 1 sweeps$"):
            polynomial_roots(c)
