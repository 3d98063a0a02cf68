"""Hilbert transform, reciprocal reconstructions, log-series coefficients."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    conjugate_pair_from_roots,
    frequencies,
    log_series_coefficients_newton,
    log_series_oracle,
    pv_hilbert_oracle,
)
from cyclicphase import model
from cyclicphase.hilbert import (
    MAX_ANALYSIS_GRID,
    HalfPeriod,
    _half_length_hilbert,
    _quadrature_kernel_fft,
    coefficient_equality_check,
    log_coefficients,
    modulus_from_phase,
    periodic_hilbert,
    phase_from_modulus,
    unwrap,
)
from cyclicphase.trigpoly import HelicitySeries, offset_grid, root_check

METHODS = ("series", "quadrature")


def complex_fft_reference(f, method, fejer_order):
    """ifft(fft(f) * multiplier).real on all m bins: series with i pi sign(n)
    (times the Fejer weight of |n|), quadrature with the conjugate full DFT
    of the cot kernel.  The kernel takes cot(pi d/m) at the angle folded
    below pi/2, -cot(pi (m - d)/m) past it, so that its own round-off stays
    at eps, as the package's does: at angles next to pi, cot would amplify
    the rounding of the angle to O(m eps)."""
    m = len(f)
    n = frequencies(m)
    if method == "series":
        multiplier = 1j * np.pi * np.sign(n)
        if fejer_order is not None:
            multiplier *= np.maximum(0.0, 1.0 - np.abs(n) / (fejer_order + 1.0))
    else:
        h, d = 2.0 * np.pi / m, np.arange(1, m, 2)
        kernel = np.zeros(m)
        kernel[1::2] = np.sign(m - 2 * d) * h / np.tan(np.pi * np.minimum(d, m - d) / m)
        multiplier = np.conj(np.fft.fft(kernel))
    return np.fft.ifft(np.fft.fft(f) * multiplier).real


class TestPeriodicHilbert:
    @pytest.mark.parametrize("method", METHODS)
    def test_cos_sin_pairs(self, method, grid_4096):
        s = grid_4096
        for n in range(1, 6):
            assert np.max(np.abs(periodic_hilbert(np.cos(n * s), method)
                                 + np.pi * np.sin(n * s))) < 1e-10
            assert np.max(np.abs(periodic_hilbert(np.sin(n * s), method)
                                 - np.pi * np.cos(n * s))) < 1e-10

    @pytest.mark.parametrize("fejer_order", [0, 3, 10, 40])
    def test_fejer_weighted_pairs(self, fejer_order, grid_4096):
        # harmonic n is weighted by max(0, 1 - n/(K+1)); n > K is removed
        s = grid_4096
        for n in (1, 2, 5, 11):
            w = max(0.0, 1.0 - n / (fejer_order + 1.0))
            h_cos = periodic_hilbert(np.cos(n * s), "series", fejer_order=fejer_order)
            h_sin = periodic_hilbert(np.sin(n * s), "series", fejer_order=fejer_order)
            assert np.max(np.abs(h_cos + np.pi * w * np.sin(n * s))) < 1e-12
            assert np.max(np.abs(h_sin - np.pi * w * np.cos(n * s))) < 1e-12

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

    @pytest.mark.parametrize("m", [4, 8, 12, 36, 512, 4100, 65536])
    @pytest.mark.parametrize("method, fejer_order", [
        ("series", None), ("series", 3), ("series", "m/2"), ("quadrature", None)])
    def test_exact_parity_swap(self, m, method, fejer_order, rng):
        # an exactly even input takes the half-length route and gives an
        # exactly odd output, and the reverse, byte for byte: the route writes
        # the result's first half and its mirror (m = 12, 36 and 4100: m/4 odd)
        fejer_order = m // 2 if fejer_order == "m/2" else fejer_order
        g = rng.standard_normal(m)
        odd = periodic_hilbert(g + g[::-1], method, fejer_order)
        assert odd[::-1].tobytes() == (-odd).tobytes()
        even = periodic_hilbert(g - g[::-1], method, fejer_order)
        assert even[::-1].tobytes() == even.tobytes()

    def test_parity_swap(self, rng):
        # even input maps to odd output and vice versa
        m = 512
        s = offset_grid(m)
        even = np.cos(3 * s) + 0.2 * np.cos(8 * s)
        odd = periodic_hilbert(even, "series")
        assert np.max(np.abs(odd + odd[::-1])) < 1e-10  # odd: f(-s) = -f(s)
        back = periodic_hilbert(odd, "series")
        assert np.max(np.abs(back - back[::-1])) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 1024).map(lambda q: 4 * q),
           fejer_order=st.none() | st.integers(0, 5000),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(m=4, fejer_order=0, seed=16149)
    def test_series_multiplier_bit_for_bit(self, m, fejer_order, seed):
        # the transform against the explicit multiplier on the rfft bins
        # n = 0..m/2, byte for byte.  At fejer_order 0 every bin n > 0 is
        # weighted 0, and the signs of the zeros follow the multiply: scaling
        # by the real mu and then by i gave [0, -0, 0, 0] here, the one
        # complex multiply by i mu [0, 0, 0, -0]
        f = np.random.default_rng(seed).standard_normal(m)
        n = np.arange(m // 2 + 1)
        multiplier = 1j * np.pi * np.sign(n)
        multiplier[m // 2] = 0.0
        if fejer_order is not None:
            multiplier *= np.maximum(0.0, 1.0 - n / (fejer_order + 1.0))
        expected = np.fft.irfft(np.fft.rfft(f) * multiplier, m)
        out = periodic_hilbert(f, "series", fejer_order)
        assert np.array_equal(out, expected)
        assert out.tobytes() == expected.tobytes()  # signed zeros included

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 1024).map(lambda q: 4 * q),
           method=st.sampled_from(METHODS),
           fejer_order=st.none() | st.integers(0, 5000),
           kind=st.sampled_from(["normal", "spike", "decades", "even", "odd"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_real_fft_agrees_with_complex_fft(self, m, method, fejer_order, kind, seed):
        # against complex_fft_reference.  Both are one forward and one
        # inverse FFT, so they agree to c log2(m) eps max|f|; measured
        # c <= 2.3 over 3000 inputs of these kinds up to m = 262144.  An
        # exactly even or odd input (f[j] = +-f[m-1-j]) takes the half-length
        # route, two real FFTs of length m/2, and is held to the same bound
        # (measured c <= 2.6 on every m = 4..4096).
        if method == "quadrature":
            fejer_order = None  # Fejer weights apply to the series method only
        rng = np.random.default_rng(seed)
        if kind == "normal":
            f = rng.standard_normal(m)
        elif kind == "spike":
            f = np.zeros(m)
            f[rng.integers(m)] = 1.0
        elif kind == "decades":
            f = rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.integers(-5, 5, m)
        else:
            f = rng.standard_normal(m)
            f = f + f[::-1] if kind == "even" else f - f[::-1]
        expected = complex_fft_reference(f, method, fejer_order)
        out = periodic_hilbert(f, method, fejer_order)
        bound = 8 * np.log2(m) * np.finfo(float).eps * np.max(np.abs(f))
        assert np.max(np.abs(out - expected)) <= bound

    @staticmethod
    def pi_periodic(rng, m, parity):
        # g(2s) with random even or odd harmonics: a random period of m/2
        # samples (the offset grid of m/2 points in t = 2s + pi) made exactly
        # even or odd, written twice
        g = rng.standard_normal(m // 2)
        return np.tile(g + parity * g[::-1], 2)

    @pytest.mark.parametrize("m", [8, 16, 24, 144, 4104, 65536])
    @pytest.mark.parametrize("method, fejer_order", [
        ("series", None), ("series", 3), ("series", "m/2"), ("quadrature", None)])
    @pytest.mark.parametrize("parity", [1, -1])
    def test_pi_periodic_input_agrees_with_complex_fft(self, m, method, fejer_order,
                                                       parity, rng):
        # an input that repeats after pi with exact parity is transformed as
        # one period of m/2 samples, at FFT length m/4 and the multiplier of
        # harmonic 2n, and written twice (so the result repeats bit for bit);
        # held to test_real_fft_agrees_with_complex_fft's bound (measured c <= 1.7)
        fejer_order = m // 2 if fejer_order == "m/2" else fejer_order
        f = self.pi_periodic(rng, m, parity)
        out = periodic_hilbert(f, method, fejer_order)
        assert out[m // 2:].tobytes() == out[:m // 2].tobytes()
        bound = 8 * np.log2(m) * np.finfo(float).eps * np.max(np.abs(f))
        assert np.max(np.abs(out - complex_fft_reference(f, method, fejer_order))) <= bound

    @pytest.mark.parametrize("m", [12, 4100])
    @pytest.mark.parametrize("method, fejer_order", [
        ("series", None), ("series", 3), ("quadrature", None)])
    @pytest.mark.parametrize("parity", [1, -1])
    def test_pi_periodic_input_with_m_over_4_odd_keeps_its_route(self, m, method,
                                                                 fejer_order, parity, rng):
        # with m/2 not a multiple of 4 the period has no half-length route:
        # the input takes the m-point one, byte for byte
        f = self.pi_periodic(rng, m, parity)
        if method == "quadrature":
            mu = _quadrature_kernel_fft(m)
        else:
            mu = np.full(m // 2 + 1, np.pi)
            mu[::m // 2] = 0.0
            if fejer_order is not None:
                mu *= np.maximum(0.0, 1.0 - np.arange(m // 2 + 1) / (fejer_order + 1.0))
        expected = HalfPeriod(_half_length_hilbert(f[:m // 2], mu, float(parity)),
                              -float(parity), m).full()
        assert periodic_hilbert(f, method, fejer_order).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [8, 4096, 262144])
    def test_quadrature_kernel_folds_to_half_the_grid(self, m):
        # K_m[d] + K_m[d + m/2] = 2h cot(d h) = K_{m/2}[d], so the even bins
        # of the m-point kernel are the m/2-point kernel: a pi-periodic input
        # takes the m-point rule exactly.  Measured <= 4.0e-15 (18 eps)
        folded = _quadrature_kernel_fft(m)[::2]
        assert np.max(np.abs(folded - _quadrature_kernel_fft(m // 2))) <= 32 * np.finfo(float).eps

    @pytest.mark.parametrize("m", [16, 4096, 262144])
    def test_quadrature_kernel_is_the_series_multiplier(self, m):
        # The DFT of the interleaved cot kernel is exactly i pi sign(n), 0 at
        # the Nyquist bin (Kak, Proc. IEEE 58, 1970), so the quadrature is the
        # series transform up to the kernel's round-off.  The kernel takes
        # its angles exactly (first octant, reflected), so that round-off is
        # the FFT's alone; it read O(m eps) (1.9e-11 at m = 262144) while
        # cot(d h / 2) amplified the rounding of d h / 2 next to pi.
        # Measured 4.4e-16, 1.8e-15 and 2.9e-15 (<= 13 eps).  The kernel
        # holds the real mu_n on the rfft bins n = 0..m/2 only.
        exact = np.zeros(m // 2 + 1)
        exact[1:-1] = np.pi
        kernel = _quadrature_kernel_fft(m)
        assert kernel.shape == exact.shape and kernel.dtype == np.float64
        assert np.max(np.abs(kernel - exact)) <= 32 * np.finfo(float).eps

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            periodic_hilbert(np.array([1.0, np.nan, 0.0, 0.0]))
        with pytest.raises(ValueError):
            periodic_hilbert(np.ones(256), method="simpson")
        with pytest.raises(ValueError, match="series"):
            periodic_hilbert(np.ones(256), method="quadrature", fejer_order=8)

    @pytest.mark.parametrize("fejer_order", [-1, -2, np.nan])
    def test_rejects_a_negative_fejer_order(self, fejer_order):
        # -1 would divide by zero, -2 weight harmonics above 1 and nan give nan
        with pytest.raises(ValueError, match="fejer_order must be >= 0"):
            periodic_hilbert(np.ones(256), fejer_order=fejer_order)


class TestHalfPeriod:
    @staticmethod
    def head(rng, m, pi_period):
        return rng.standard_normal(m // 4 if pi_period else m // 2)

    @pytest.mark.parametrize("m, pi_period", [(4, False), (8, True), (8, False),
                                              (12, False), (4100, False), (4096, True)])
    @pytest.mark.parametrize("parity", [1.0, -1.0])
    def test_layout_and_reads(self, m, pi_period, parity, rng):
        # full() is [head, parity head reversed], repeated; indexing and read()
        # return the same samples from the head
        head = self.head(rng, m, pi_period)
        wave = HalfPeriod(head, parity, m)
        period = np.concatenate((head, parity * head[::-1]))
        full = wave.full()
        assert len(wave) == m
        assert full.tobytes() == np.tile(period, m // len(period)).tobytes()
        j = np.arange(-m, m)
        assert wave[j].tobytes() == full[j].tobytes()
        assert float(wave[-1]) == parity * head[0]
        for start, stop in [(0, m), (1, m - 1), (len(head) - 1, len(head) + 2), (m - 3, m)]:
            out = np.empty(stop - start)
            wave.read(start, out)
            assert out.tobytes() == full[start:stop].tobytes()

    @pytest.mark.parametrize("m", [8, 12, 4096, 4100])
    @pytest.mark.parametrize("parity", [1.0, -1.0])
    def test_from_quarter_takes_the_period_when_m_over_4_is_odd(self, m, parity, rng):
        q = rng.standard_normal(m // 4)
        wave = HalfPeriod.from_quarter(q, parity, m)
        assert len(wave.head) == (m // 4 if m % 8 == 0 else m // 2)
        assert wave.full().tobytes() == np.tile(
            np.concatenate((q, parity * q[::-1])), 2).tobytes()

    @pytest.mark.parametrize("head, parity, m", [
        (np.zeros(3), 1.0, 12),    # m/4 points with m/4 odd
        (np.zeros(4), 1.0, 12),    # neither m/2 nor m/4 points
        (np.zeros(4), 0.0, 8),     # no parity
        (np.zeros(3), 1.0, 6)])    # m not a multiple of 4
    def test_rejects_what_is_no_half_period(self, head, parity, m):
        with pytest.raises(ValueError):
            HalfPeriod(head, parity, m)

    @pytest.mark.parametrize("m, pi_period", [(8, True), (12, False), (144, True),
                                              (4100, False), (65536, True)])
    @pytest.mark.parametrize("method, fejer_order", [
        ("series", None), ("series", 3), ("series", "m/2"), ("quadrature", None)])
    @pytest.mark.parametrize("parity", [1.0, -1.0])
    def test_transform_is_the_array_route(self, m, pi_period, method, fejer_order,
                                          parity, rng):
        # one core: the held transform, laid out, is the array's, byte for byte
        fejer_order = m // 2 if fejer_order == "m/2" else fejer_order
        wave = HalfPeriod(self.head(rng, m, pi_period), parity, m)
        out = periodic_hilbert(wave, method, fejer_order)
        assert isinstance(out, HalfPeriod) and out.parity == -parity and out.m == m
        expected = periodic_hilbert(wave.full(), method, fejer_order)
        assert out.full().tobytes() == expected.tobytes()
        for held, array in [(phase_from_modulus(wave, method, fejer_order),
                             phase_from_modulus(wave.full(), method, fejer_order)),
                            (modulus_from_phase(wave, method, fejer_order),
                             modulus_from_phase(wave.full(), method, fejer_order))]:
            assert held.full().tobytes() == array.tobytes()

    def test_rejects_an_odd_trend_and_non_finite_heads(self):
        # f[-1] - f[0] = -2 head[0] for an odd curve
        with pytest.raises(ValueError, match="endpoint mismatch"):
            modulus_from_phase(HalfPeriod(np.array([2.0, 0.0]), -1.0, 8))
        with pytest.raises(ValueError, match="non-finite"):
            periodic_hilbert(HalfPeriod(np.array([np.nan, 0.0]), 1.0, 8))


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

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("kind", ["even", "odd", "general"])
    def test_input_mean_never_reaches_the_result(self, method, kind):
        # no centred copy is formed: the multiplier is 0 at n = 0 on both
        # routes, so a constant added to the input moves the result by
        # round-off only (an odd curve plus a constant takes the full route)
        m = 4100
        s = offset_grid(m)
        f = {"even": np.cos(3 * s) + 0.2 * np.cos(8 * s) - 0.6,
             "odd": np.sin(3 * s) - 0.4 * np.sin(5 * s),
             "general": 0.3 + np.cos(2 * s) - 0.4 * np.sin(5 * s)}[kind]
        for reconstruct in (phase_from_modulus, modulus_from_phase):
            plain = reconstruct(f, method)
            for c in (-3.7, 1e-3, 2.5, 1e3):
                bound = 8 * np.log2(m) * np.finfo(float).eps * np.max(np.abs(f + c))
                assert np.max(np.abs(reconstruct(f + c, method) - plain)) <= bound

    def test_empty_input_names_the_grid_size(self):
        # both directions refuse an empty input with the same one-line message
        with pytest.raises(ValueError) as expected:
            phase_from_modulus([])
        with pytest.raises(ValueError) as refused:
            modulus_from_phase([])
        assert "positive multiple of 4" in str(refused.value)
        assert str(refused.value) == str(expected.value)

    def test_trend_rejection(self):
        s = offset_grid(256)
        with pytest.raises(ValueError, match="trend"):
            modulus_from_phase(3.0 * s)


class TestDirectPair:
    """The direct curves of a cyclic run, as run_reciprocity_case reads them."""

    def _model_signals(self, m=4096):
        return model.evaluate_model(model.derive_params(np.sqrt(3.0)), m)

    def test_even_odd_symmetry(self):
        # phi*(s) = phi(-s): log-modulus even, phase odd, to discretisation tolerance
        signals = self._model_signals()
        lm = signals.log_modulus - signals.log_modulus.mean()
        ph = signals.phase_chi - signals.phase_chi.mean()
        assert np.max(np.abs(lm - lm[::-1])) < 1e-10
        assert np.max(np.abs(ph + ph[::-1])) < 1e-8

    def test_log_modulus_mean(self):
        # the direct log-modulus mean is the (small) sampled A_0 alias
        assert abs(self._model_signals().log_modulus.mean()) < 5e-3


def _unwrap_every_difference(raw):
    # unwrap with (d + pi) % 2pi - pi taken on every difference: the form
    # the masked remainder in hilbert.unwrap must reproduce byte for byte
    d = (np.diff(raw) + np.pi) % (2.0 * np.pi) - np.pi
    jumps = [(int(j), float(d[j])) for j in np.where(np.abs(d) > np.pi / 2)[0]]
    return raw[0] + np.concatenate(([0.0], np.cumsum(d))), jumps


#: samples whose differences hit the wrap's edges: exactly +-pi, +-2pi, +-3pi
EDGE_SAMPLES = (0.0, np.pi, -np.pi, 2 * np.pi, 3 * np.pi, -3 * np.pi, np.pi / 2)


class TestUnwrap:
    @settings(max_examples=300, deadline=None)
    @given(raw=st.lists(st.sampled_from(EDGE_SAMPLES) | st.floats(-20.0, 20.0)
                        | st.floats(-1e6, 1e6), min_size=2, max_size=64))
    def test_masked_remainder_bit_for_bit(self, raw):
        raw = np.array(raw)
        phase, jumps = _unwrap_every_difference(raw)
        res = unwrap(raw)
        assert res.phase.tobytes() == phase.tobytes()
        assert repr(res.jumps) == repr(jumps)  # signed zeros included

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
        # arg(chi/c0) for k = 1 genuinely drops by 2 pi at each double zero:
        # evaluate_model lays the drops between the quarters of the grid.
        # unwrap steers no zero, so on that curve it smooths both drops over
        # and records none
        params = model.derive_params(np.sqrt(3.0))
        signals = model.evaluate_model(params, 4096)
        s, phase = signals.grid, signals.phase_chi
        d = np.diff(phase)
        drops = np.flatnonzero(np.abs(d) > np.pi / 2)
        assert len(drops) == 2
        for idx, loc in zip(drops, (-np.pi / 2, np.pi / 2)):
            assert abs(s[idx] - loc) < (s[1] - s[0])
            assert abs(d[idx] + 2 * np.pi) < 0.05
        res = unwrap(phase)
        assert res.jumps == []
        branch = np.repeat([0.0, 2 * np.pi, 4 * np.pi],
                           np.diff([0, drops[0] + 1, drops[1] + 1, len(s)]))
        assert np.allclose(res.phase - phase, branch, rtol=0.0, atol=1e-12)

    def test_empty_input(self):
        # as np.unwrap: an empty phase and nothing recorded
        res = unwrap([])
        assert res.phase.shape == (0,) and res.phase.dtype == float
        assert res.jumps == []


class TestInputsUntouched:
    """The in-place steps work on arrays each call forms itself: every input
    stays bit for bit, and no result is a view of it."""

    @pytest.mark.parametrize("call", [
        lambda f: unwrap(f).phase,
        lambda f: periodic_hilbert(f, "series"),
        lambda f: periodic_hilbert(f, "series", 100),
        lambda f: periodic_hilbert(f, "quadrature"),
        *(lambda f, method=method: phase_from_modulus(f, method) for method in METHODS),
        *(lambda f, method=method: modulus_from_phase(f, method) for method in METHODS),
    ], ids=["unwrap", "series", "fejer", "quadrature",
            "phase_from_modulus-series", "phase_from_modulus-quadrature",
            "modulus_from_phase-series", "modulus_from_phase-quadrature"])
    def test_input_bit_for_bit(self, call):
        s = offset_grid(256)
        # a wrapped ramp with a bump: unwrap has jumps to remove, and the
        # endpoint mismatch stays below pi for modulus_from_phase
        f = np.angle(np.exp(1j * (5 * s + 0.5 * np.cos(3 * s))))
        before = f.tobytes()
        out = call(f)
        assert f.tobytes() == before
        assert not np.shares_memory(out, f)


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

    @pytest.mark.parametrize("k", [1, 17, 50, 100])
    def test_model_vs_newton_oracle(self, k):
        params = model.params_from_k(k)
        signals = model.evaluate_model(params, 1024 if k == 100 else 512)  # m >= 4N + 4
        coeffs = log_coefficients(signals.helicity, 50, 16384)
        expected = log_series_coefficients_newton(signals.helicity.c, 50)
        assert np.max(np.abs(coeffs.A - expected)) < 1e-12
        assert np.max(np.abs(coeffs.B[1:] - expected[1:])) < 1e-12

    @pytest.mark.parametrize("k", [17, 50, 400])
    def test_model_vs_40_digit_log_series(self, k):
        # the table of coeffs --n-max 200: measured <= 4.8e-15 (A) and
        # 9.6e-15 (B); with polydiv's remainder dropped and phi1 from libm
        # samples, A_n read 2.3e-13 off at k = 400
        helicity = model.helicity_series(model.params_from_k(k))
        coeffs = log_coefficients(helicity, 200, 16384)
        expected = log_series_oracle(helicity.c, 200)
        assert np.max(np.abs(coeffs.A - expected)) <= 3e-14
        assert np.max(np.abs(coeffs.B[1:] - expected[1:])) <= 3e-14

    @pytest.mark.parametrize("k", [17, 100, 1000, 10_000])
    def test_contour_vs_40_digit_log_series(self, k):
        # reciprocity's check: 2048 points on |z| = e^{-1/50} for every k,
        # though the degree-(4k + 2) series has roots 1e-4 off the circle at
        # k = 10^4 and the unit circle would need ~10^6 points to resolve them
        helicity = model.helicity_series(model.params_from_k(k))
        coeffs = log_coefficients(helicity, 50, 4 * 50 + 4)
        expected = log_series_oracle(helicity.c, 50)
        assert coeffs.grid_size == 2048
        assert np.max(np.abs(coeffs.A - expected)) <= 3e-14
        assert np.max(np.abs(coeffs.B[1:] - expected[1:])) <= 3e-14

    def test_zeros_inside_the_disk_are_enclosed(self):
        # zeros 0.99 e^{+-i} lie outside |z| = e^{-1/50} = 0.980: read there,
        # log chi would be analytic and A_n = B_n (to 1.3e-11); the contour
        # is raised to |z| = 0.995 around them, and arg w winds (175)
        poly = np.polynomial.polynomial
        roots = [0.99 * np.exp(1j), 0.99 * np.exp(-1j), 1.5, -2.0, 1.3 + 0.4j, 1.3 - 0.4j]
        c = poly.polyfromroots(roots).real
        helicity = HelicitySeries(c * np.sign(c[0]))
        assert not root_check(helicity).passed
        coeffs = log_coefficients(helicity, 50, 204)
        assert coeffs.grid_size == 8192  # 36 / ln(1 / 0.995) = 7181 points, rounded up
        assert coefficient_equality_check(coeffs).max_relative > 1e-2
        # with double zeros at +-i as well, the general root path leaves a copy
        # of each about 1e-8 inside the circle, past UNIT_ROOT_TOL: the contour
        # enclosing it would need 2^32 points, and is refused
        c = poly.polyfromroots(roots + [1j, 1j, -1j, -1j]).real
        with pytest.raises(ValueError, match=r"^analysis grid of \d+ points \(n_max 50, r = "
                                             r"[0-9.]+\) is above the ceiling \d+$"):
            log_coefficients(HelicitySeries(c * np.sign(c[0])), 50, 204)

    @pytest.mark.parametrize("mu", [8, 10])
    def test_exact_zero_on_the_contour_is_refused(self, mu):
        # (z^2 + 1)^mu (z - 1.5)(z + 1.7): its copies of +-i land up to 0.026
        # inside the circle, the contour passes next to them, and the values
        # there round to exactly 0; one line, no nan and no RuntimeWarning
        c = np.polynomial.polynomial.polyfromroots([1j] * mu + [-1j] * mu + [1.5, -1.7]).real
        helicity = HelicitySeries(c * np.sign(c[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"^chi/c_0 is exactly 0 at \d+ of the \d+ "
                                                 r"analysis points: its log is undefined there$"):
                log_coefficients(helicity, 50, 4096)

    def test_largest_n_max_fits_the_ceiling(self):
        # n_max = 2^18 - 1 would need 36 n_max points at alpha = 1; alpha is
        # raised to 9.0 and the contour takes MAX_ANALYSIS_GRID = 2^20 points.
        # log(1 + z^2) = sum_j (-1)^(j+1) z^(2j) / j, with its zeros on the circle
        n_max = 2 ** 18 - 1
        coeffs = log_coefficients(HelicitySeries(np.array([1.0, 0.0, 1.0])), n_max, 64)
        j = np.arange(1, n_max // 2 + 1)
        expected = np.zeros(n_max + 1)
        expected[2 * j] = (-1.0) ** (j + 1) / j
        assert coeffs.grid_size == MAX_ANALYSIS_GRID
        assert np.max(np.abs(coeffs.A - expected)) <= 1e-12
        assert np.max(np.abs(coeffs.B[1:] - expected[1:])) <= 1e-12

    @pytest.mark.parametrize("roots", [
        [1.0, -1.0, 1.5, -2.0, 1.2 + 0.5j, 1.2 - 0.5j],  # simple unit roots z = +-1
        [1.0, 1.5, -2.0, 1.2 + 0.5j, 1.2 - 0.5j, -3.0],  # quotient of even length
    ])
    def test_simple_unit_roots_vs_newton_oracle(self, roots):
        c = np.polynomial.polynomial.polyfromroots(roots).real
        coeffs = log_coefficients(HelicitySeries(c), 50, 4096)
        expected = log_series_coefficients_newton(c, 50)
        assert np.max(np.abs(coeffs.A - expected)) < 1e-12
        assert np.max(np.abs(coeffs.B[1:] - expected[1:])) < 1e-12

    @pytest.mark.parametrize("k, dataset_grid, own_grid", [
        (1, 32768, 2048), (17, 16384, 2048), (100, 16384, 2048)])
    def test_own_grid_against_dataset_grid(self, k, dataset_grid, own_grid):
        # reciprocity's A_n = B_n check runs on the contour's 2^11 >= 36 n_max
        # points for every k, whatever the dataset grid
        helicity = model.evaluate_model(model.params_from_k(k), dataset_grid).helicity
        own = log_coefficients(helicity, 50, 4 * 50 + 4)
        on_dataset_grid = log_coefficients(helicity, 50, dataset_grid)
        assert own.grid_size == own_grid
        assert np.max(np.abs(own.A[1:] - own.B[1:])) <= 1e-13
        assert np.max(np.abs(own.A - on_dataset_grid.A)) <= 1e-14

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

    def test_negative_n_max(self):
        with pytest.raises(ValueError, match="n_max"):
            log_coefficients(HelicitySeries(np.array([1.0, 0.0, 0.5])), -1, 64)

    def test_coarse_grid_raised_to_resolve_chi(self):
        # k = 100, n_max = 10: the contour |z| = e^{-1/10} takes 512 >= 360
        # points, whatever the caller's 64, and none of the degree-402 series'
        # root moduli (the nearest off the circle 1.005236) enter the rule
        helicity = model.evaluate_model(model.params_from_k(100), 1024).helicity
        coeffs = log_coefficients(helicity, 10, 64)
        on_512 = log_coefficients(helicity, 10, 512)
        assert np.array_equal(coeffs.A, on_512.A) and np.array_equal(coeffs.B, on_512.B)
        assert coeffs.grid_size == on_512.grid_size == 512
        report = coefficient_equality_check(coeffs)
        assert report.max_relative == 0.0
        assert abs(report.a0) < 1e-15
        expected = log_series_coefficients_newton(helicity.c, 10)
        assert np.max(np.abs(coeffs.A - expected)) < 1e-12

    def test_grid_raised_to_n_max(self):
        # a polynomial can be sampled anywhere: 64 points serve n_max = 50
        helicity = model.evaluate_model(model.params_from_k(1), 64).helicity
        coeffs = log_coefficients(helicity, 50, 64)
        on_204 = log_coefficients(helicity, 50, 204)
        assert np.array_equal(coeffs.A, on_204.A) and np.array_equal(coeffs.B, on_204.B)

    @pytest.mark.parametrize("radius, n_max", [
        (1.0 - 1e-6, 5),     # the contour |z| = 1 - 5e-7 around the root needs 2^27 points
        (2.0, 2 ** 18),      # n_max would need 4 n_max + 4 = 2^20 + 4 points
    ])
    def test_analysis_grid_ceiling(self, radius, n_max):
        # roots radius * e^{+-i}: refused before anything is allocated
        r = radius
        helicity = HelicitySeries(np.array([r * r, -2.0 * r * np.cos(1.0), 1.0]))
        helicity.roots  # root finding is not part of the measurement
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="ceiling"):
                log_coefficients(helicity, n_max, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


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
