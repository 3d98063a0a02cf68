"""Driven two-level model: parameters, amplitude, ODE, residuals, phases."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import conftest as oracle
from conftest import eliminated_partner, itoh_unwrap, rk4_reference
from cyclicphase import experiments, model, trigpoly
from cyclicphase.cli import MAX_RK4_STEPS
from cyclicphase.trigpoly import offset_grid, spectrum


class TestDeriveParams:
    def test_fig1_parameters(self):
        p = model.derive_params(np.sqrt(3.0))
        assert np.isclose(p.k, 1.0, atol=1e-12)
        assert p.cyclic and p.n_harmonic == 3
        assert p.regime == "non-adiabatic"

    def test_fig2_parameters(self):
        p = model.derive_params(np.sqrt(1155.0))
        assert np.isclose(p.k, 17.0, atol=1e-12)
        assert p.cyclic and p.n_harmonic == 35
        assert p.regime == "adiabatic"

    def test_fig3_parameters(self):
        p = model.derive_params(np.sqrt(1100.0))
        # k = sqrt(1101)/2 by the defining relation
        assert np.isclose(p.k, 0.5 * np.sqrt(1101.0), atol=1e-12)
        assert not p.cyclic and p.n_harmonic is None

    def test_from_k_round_trip(self):
        p = model.params_from_k(17.0)
        assert np.isclose(p.g, np.sqrt(1155.0), atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            model.derive_params(-1.0)
        with pytest.raises(ValueError):
            model.derive_params(1.0, omega=0.0)
        with pytest.raises(ValueError):
            model.params_from_k(0.5)

    @pytest.mark.parametrize("omega", [np.inf, -np.inf, np.nan, 1e-320])
    def test_non_finite_omega_rejected(self, omega):
        # omega = inf would give t = 2 s / omega = 0 on the whole grid, and
        # omega = 1e-320 a period 2 pi / omega (and t) that overflows to inf
        with pytest.raises(ValueError, match="omega"):
            model.derive_params(1.0, omega)


class TestAmplitude:
    def test_unit_value_at_origin(self):
        for g in (np.sqrt(3.0), 2.3, np.sqrt(1155.0)):
            p = model.derive_params(g)
            assert np.isclose(model.phi1_values(p, 0.0), 1.0, atol=1e-15)

    def test_quarter_period_value_k1(self):
        p = model.derive_params(np.sqrt(3.0))
        got = model.phi1_values(p, np.pi / 4)
        assert np.isclose(got, np.sqrt(2.0) / 4 - 1j * np.sqrt(6.0) / 4, atol=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 17])
    def test_edge_zeros_integer_k(self, k):
        p = model.params_from_k(k)
        edge = model.phi1_values(p, np.array([-np.pi / 2, np.pi / 2]))
        assert np.max(np.abs(edge)) < 1e-12

    def test_time_inversion_symmetry(self, rng):
        p = model.derive_params(np.sqrt(1100.0))
        s = rng.uniform(-np.pi, np.pi, size=64)
        assert np.allclose(model.phi1_values(p, -s),
                           np.conj(model.phi1_values(p, s)), atol=1e-14)

    def test_derivative_matches_finite_difference(self):
        p = model.derive_params(np.sqrt(1155.0))
        s = np.linspace(-2.0, 2.0, 11)
        eps = 1e-6
        fd = (model.analytic_state_pair(p, s + eps)
              - model.analytic_state_pair(p, s - eps)) / (2 * eps)
        assert fd.shape == (11, 2)  # both components
        assert np.max(np.abs(fd - model.state_pair_derivative(p, s))) < 1e-6

    def test_highest_harmonic_is_n(self):
        p = model.derive_params(np.sqrt(3.0))
        fhat = spectrum(model.phi1_values(p, offset_grid(128)), 63)  # widest band
        assert np.max(np.abs(fhat[np.abs(np.arange(-63, 64)) > 3])) < 1e-10


class TestEvaluateModel:
    def test_cyclic_fields(self):
        p = model.derive_params(np.sqrt(3.0))
        signals = model.evaluate_model(p, 4096)
        assert signals.phase_chi is not None and signals.helicity is not None
        assert np.isclose(signals.helicity.c[0], (1 + np.sqrt(3.0)) / 8, atol=1e-12)

    def test_phase_difference_identity(self):
        # the cyclic dataset's phase_direct is the physical phase phase_chi + (g - N) s
        p = model.derive_params(np.sqrt(1155.0))
        signals = model.evaluate_model(p, 16384)
        _, dataset = experiments.run_reciprocity_case(p, 16384)
        expected = (p.g - p.n_harmonic) * signals.grid
        assert np.max(np.abs(dataset.data["phase_direct"] - signals.phase_chi
                             - expected)) < 1e-12

    def test_refuses_a_non_cyclic_drive(self):
        with pytest.raises(ValueError, match="cyclic"):
            model.evaluate_model(model.derive_params(np.sqrt(1100.0)), 4096)
        with pytest.raises(ValueError, match="cyclic"):
            model.half_period_signals(model.derive_params(np.sqrt(1100.0)), 4096)

    @pytest.mark.parametrize("k, m", [(1, 16), (3, 4100), (17, 144), (17, 4096)])
    def test_is_the_half_period_signals_laid_out(self, k, m):
        # the heads are the first m/4 points (m/2 when m/4 is odd) of the
        # curves, and evaluate_model their layout, byte for byte
        p = model.params_from_k(k)
        held, full = model.half_period_signals(p, m), model.evaluate_model(p, m)
        assert held.grid.tobytes() == full.grid.tobytes()
        assert held.helicity.c.tobytes() == full.helicity.c.tobytes()
        for wave, curve, parity in [(held.log_modulus, full.log_modulus, 1.0),
                                    (held.phase_chi, full.phase_chi, -1.0)]:
            assert wave.parity == parity and len(wave) == m
            assert len(wave.head) == (m // 4 if m % 8 == 0 else m // 2)
            assert wave.full().tobytes() == curve.tobytes()

    def test_grid_too_small(self):
        p = model.derive_params(np.sqrt(1155.0))
        with pytest.raises(ValueError):
            model.evaluate_model(p, 64)

    @pytest.mark.parametrize("m", [4096, 65536])
    @pytest.mark.parametrize("k", [1, 17, 100, 400])
    def test_curves_match_the_chi_readout(self, k, m):
        # arg phi1 + Ns is arg chi up to round-off in N s and in the unwrap's
        # running sum (measured <= 6.8e-13 at k = 400); |phi1|/c_0 and
        # |chi/c_0| differ by an ulp or two (<= 1.8e-15)
        p = model.params_from_k(k)
        signals = model.evaluate_model(p, m)
        log_modulus, phase_chi = oracle.chi_curves(
            p, signals.grid, oracle.grid_phi1(p, m), signals.helicity.c[0])
        assert np.max(np.abs(signals.log_modulus - log_modulus)) <= 1e-14
        assert np.max(np.abs(signals.phase_chi - phase_chi)) <= 2e-12

    @pytest.mark.parametrize("k, m", [(k, m) for k in (1, 3, 17, 100, 1000)
                                      for m in (8 * k + 8, 4100, 16384) if m >= 8 * k + 8])
    def test_curves_have_exact_parity(self, k, m):
        # log|chi| is even and arg chi odd under s -> -s, and s_{m-1-j} = -s_j:
        # both curves are mirrored from the first half, byte for byte, on
        # m = 4N + 4, m/4 odd and a power of two.  The phase crosses s = 0 on
        # the branch of arg chi(0) = 0.  A full-grid unwrap read the odd
        # phase to 2.3e-13 only (k = 100, m = 16384)
        p = model.params_from_k(k)
        signals = model.evaluate_model(p, m)
        assert signals.log_modulus[::-1].tobytes() == signals.log_modulus.tobytes()
        assert signals.phase_chi[::-1].tobytes() == (-signals.phase_chi).tobytes()
        assert abs(signals.phase_chi[m // 2 - 1]) < np.pi / 2

    @pytest.mark.parametrize("k, m", [(k, m) for k in (1, 3, 17, 100, 1000)
                                      for m in (8 * k + 8, 4100, 16384) if m >= 8 * k + 8])
    def test_curves_repeat_after_half_the_grid(self, k, m):
        # chi is a polynomial in z^2, so phi1(s + pi) = -phi1(s) and both
        # curves repeat after pi, s_{j+m/2} = s_j + pi: bit for bit, as the
        # other three quarters are written from the first
        p = model.params_from_k(k)
        signals = model.evaluate_model(p, m)
        half = m // 2
        assert signals.log_modulus[half:].tobytes() == signals.log_modulus[:half].tobytes()
        assert signals.phase_chi[half:].tobytes() == signals.phase_chi[:half].tobytes()

    @pytest.mark.parametrize("k", [1, 17, 400])
    def test_series_does_not_depend_on_the_grid(self, k):
        p = model.params_from_k(k)
        series = model.helicity_series(p)
        for m in (4 * p.n_harmonic + 4, 4096, 65536):
            signals = model.evaluate_model(p, m)
            assert signals.helicity.c.tobytes() == series.c.tobytes()

    def test_helicity_series_requires_a_cyclic_drive(self):
        with pytest.raises(ValueError, match="cyclic"):
            model.helicity_series(model.derive_params(np.sqrt(1100.0)))

    @pytest.mark.parametrize("m", [4, 64, 4 * 35])
    def test_grid_below_4n_plus_4_names_the_aliasing(self, m):
        # k = 17: N = 35 needs 144 points, whatever grid the series is read from
        with pytest.raises(ValueError, match=rf"m_samples = {m} too small for "
                                             r"n_max = 35: need at least 144 \(aliasing\)"):
            model.evaluate_model(model.params_from_k(17), m)


class TestGridPath:
    """phi1 on the offset grid of a cyclic drive, from exact roots of unity."""

    @staticmethod
    def oracle_points(m):
        # the two samples on each side of each zero, s = -pi/2 and pi/2, the
        # ends of the grid, and ~64 spread over it
        next_to_zeros = [i + d for i in (m // 4, 3 * m // 4) for d in (-2, -1, 0, 1)]
        spread = np.arange(3, m, m // 64 + 1)
        return np.unique(np.concatenate((next_to_zeros, [0, m - 1], spread)))

    @pytest.mark.parametrize("m", ["4N+4", 4096, 4100, 65536])
    @pytest.mark.parametrize("k", [1, 17, 100, 400, 17.0000000005])
    def test_matches_the_40_digit_closed_form(self, k, m):
        # measured <= 1.2 eps (the libm path reads 10, 160, 910 and 4700 eps
        # at k = 1, 17, 100 and 400 on these grids); k = 17.0000000005 is
        # cyclic, and its angles take round(k) = 17.  The points lie in all
        # four quarters, laid out from the first by the oracle's symmetries
        p = model.params_from_k(k)
        m = 4 * p.n_harmonic + 4 if m == "4N+4" else m
        j = self.oracle_points(m)
        assert set(j * 4 // m) == {0, 1, 2, 3}
        error = oracle.grid_phi1(p, m)[j] - oracle.phi1_grid_oracle(p, m, j)
        assert np.max(np.abs(error)) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("m", [16, 4100, 65536])
    @pytest.mark.parametrize("k", [1, 17, 400])
    def test_second_half_is_the_mirror(self, k, m):
        # phi1(s_{m-1-j}) = conj phi1(s_j): the curves read the second half of
        # the grid from the first quarter through this mirror, so the
        # quarter's conjugate matches the 40-digit closed form at the mirrored
        # points of the last quarter, next to s = pi/2 too
        p = model.params_from_k(k)
        if m < 4 * p.n_harmonic + 4:
            m = 4 * p.n_harmonic + 4
        q = model._grid_phi1(p, m)
        assert len(q) == m // 4
        j = self.oracle_points(m)
        j = j[j < m // 4]
        error = np.conj(q[j]) - oracle.phi1_grid_oracle(p, m, m - 1 - j)
        assert np.max(np.abs(error)) <= 8 * np.finfo(float).eps

    def test_series_is_four_terms_up_to_round_off(self):
        # the helicity series of every k <= 1000 holds only its four terms,
        # 0, 2, d - 2 and d: every other coefficient is exactly zero, and the
        # branch solver answers on a spread of them
        for k in range(1, 1001):
            c = model.helicity_series(model.params_from_k(k)).c
            d = len(c) - 1
            assert not np.any(np.delete(c, [0, 2, d - 2, d])), k
            if k in (1, 2, 3, 17, 100, 392, 1000):
                scaled = np.ldexp(c, -np.frexp(np.max(np.abs(c)))[1])
                assert trigpoly._model_roots(scaled) is not None, k

    def test_memory_peak_per_point(self):
        # measured 32 B per point: s, log_modulus, and phi1 on a quarter of
        # the grid with its factors (44 with phi1 kept at full size, 72 with
        # it from phi1_values)
        p, m = model.params_from_k(17), 262144
        model.evaluate_model(p, 4096)  # imports and caches outside the window
        tracemalloc.start()
        try:
            model.evaluate_model(p, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / m <= 36


class TestHelicitySeries:
    """The closed-form four-term series against a 40-digit readout of phi1."""

    def test_never_samples_or_transforms(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("phi1 sampled or transformed")

        monkeypatch.setattr(model, "_grid_phi1", refuse)
        monkeypatch.setattr(trigpoly, "spectrum", refuse)
        c = model.helicity_series(model.params_from_k(17)).c
        assert len(c) == 71 and np.count_nonzero(c) == 4

    def test_refuses_harmonics_above_the_ceiling_before_allocating(self):
        # 2N + 1 = 4e10 coefficients would be 298 GiB: refused, not allocated
        with pytest.raises(ValueError, match="ceiling"):
            model.helicity_series(model.params_from_k(1e10))
        with pytest.raises(ValueError, match="ceiling"):
            model.helicity_series(model.params_from_k(model.MAX_HARMONIC // 2 + 1))
        top = model.params_from_k(model.MAX_HARMONIC // 2)
        assert top.n_harmonic == model.MAX_HARMONIC
        assert len(model.helicity_series(top).c) == 2 * model.MAX_HARMONIC + 1

    @pytest.mark.parametrize("k", [1, 8, 17, 100, 17.0000000005])
    def test_matches_the_40_digit_dft(self, k):
        # the four terms read <= 0.99 eps max|c| off the oracle, whose other
        # coefficients are ~1e-40; the package's FFT readout of its own 4N + 4
        # samples reads <= 0.99 eps max|c| off it, at k = 8 on the other side
        # of it: 1.94 eps max|c| from the closed form.  The series takes
        # round(k) and the drive's g, so oracle and samples are read there:
        # k = 17.0000000005 at 17, where the samples at k itself read
        # 1.5e-11 max|c| off the series
        p = model.params_from_k(k)
        at_round_k = replace(p, k=float(round(p.k)))
        n, eps = p.n_harmonic, np.finfo(float).eps
        c, reference = model.helicity_series(p).c, oracle.helicity_series_oracle(at_round_k)
        kept, scale = [0, 2, 2 * n - 2, 2 * n], eps * np.max(np.abs(c))
        assert np.max(np.abs(c[kept] - reference[kept])) <= 2 * scale
        assert np.max(np.abs(np.delete(reference, kept))) <= 1e-30
        assert np.max(np.abs(reference.imag)) <= 1e-30
        sampled = trigpoly.HelicitySeries.from_samples(
            oracle.grid_phi1(at_round_k, 4 * n + 4), n).c
        assert np.max(np.abs(sampled - c)) <= 4 * scale


class TestIntegrateOde:
    def test_norm_conservation(self):
        p = model.derive_params(np.sqrt(3.0))
        traj = model.integrate_ode(p, np.array([0.0, 1.0], dtype=complex))
        assert traj.norm_drift < 1e-8

    def test_frozen_hamiltonian_matches_exponential(self):
        # H held at t = 0 is diag(-g/2, g/2): exact flow diag(e^{igs}, e^{-igs})
        p = model.derive_params(2.0)
        psi0 = np.array([0.6, 0.8j])
        traj = model.integrate_ode(p, psi0, (0.0, 3.0), step=3.0 / 4096,
                                   freeze_s=0.0)
        exact = np.stack([psi0[0] * np.exp(1j * p.g * traj.s),
                          psi0[1] * np.exp(-1j * p.g * traj.s)], axis=-1)
        assert np.max(np.abs(traj.states - exact)) < 1e-8

    def test_matches_analytic_pair_k1(self):
        p = model.derive_params(np.sqrt(3.0))
        s = offset_grid(256)
        traj = model.integrate_ode(p, model.analytic_state_pair(p, s[0]),
                                   (s[0], s[-1]))
        ref = model.analytic_state_pair(p, traj.s)
        assert np.max(np.abs(traj.states - ref)) < 1e-6

    def test_analytic_pair_is_normalised(self):
        for g in (np.sqrt(3.0), np.sqrt(1155.0), np.sqrt(1100.0)):
            p = model.derive_params(g)
            pair = model.analytic_state_pair(p, offset_grid(256))
            assert np.max(np.abs(np.sum(np.abs(pair) ** 2, axis=-1) - 1.0)) < 1e-12

    def test_analytic_pair_at_s0(self):
        # sin 2s = 0 only at s = 0 among doubles: the row is silent, the state is (0, 1)
        for g in (np.sqrt(3.0), np.sqrt(1155.0), np.sqrt(1100.0)):
            p = model.derive_params(g)
            assert np.array_equal(model.analytic_state_pair(p, np.array([0.0, -0.0])),
                                  [[0.0, 1.0], [0.0, 1.0]])
            assert np.array_equal(model.analytic_state_pair(p, 0.0), [0.0, 1.0])

    @pytest.mark.parametrize("g", [np.sqrt(3.0), np.sqrt(1155.0), np.sqrt(1100.0), 2.0])
    def test_closed_form_partner_solves_the_row(self, g):
        # away from sin 2s = 0, where the eliminated partner divides by it
        p = model.derive_params(g)
        s = offset_grid(4096)
        s = s[np.abs(np.sin(2 * s)) >= 0.05]
        partner = model.analytic_state_pair(p, s)[:, 0]
        assert np.max(np.abs(partner - eliminated_partner(g, s))) <= 1e-12

    def test_large_step_reports_drift_and_returns(self):
        p = model.derive_params(np.sqrt(1155.0))
        traj = model.integrate_ode(p, np.array([0.0, 1.0], dtype=complex),
                                   step=2 * np.pi / 40)
        assert traj.norm_drift > 1e-6
        assert traj.states.shape[0] == 41

    def test_zero_span_keeps_the_state(self):
        # h = 0 takes one step of the identity map, whose K terms would be 0/0
        p = model.params_from_k(1)
        psi0 = model.analytic_state_pair(p, 0.3)
        traj = model.integrate_ode(p, psi0, (0.3, 0.3))
        assert np.array_equal(traj.states, [psi0, psi0])
        assert traj.norm_drift <= 1e-15

    def test_rejects_unnormalised_state(self):
        p = model.derive_params(2.0)
        with pytest.raises(ValueError, match="normalised"):
            model.integrate_ode(p, np.array([1.0, 1.0], dtype=complex))

    @pytest.mark.parametrize("m", [64, 4096])
    def test_step_dividing_the_span_takes_that_many_steps(self, m):
        # verify passes step = span/steps; span/step then rounds up past steps
        # for some counts (91 on the 64-point grid), which adds no step
        p, s = model.params_from_k(1), offset_grid(m)
        psi0 = model.analytic_state_pair(p, s[0])
        for steps in range(1, 1001):
            traj = model.integrate_ode(p, psi0, (s[0], s[-1]), step=(s[-1] - s[0]) / steps)
            assert len(traj.s) - 1 == steps

    @pytest.mark.parametrize("steps", [10**6, MAX_RK4_STEPS])
    def test_step_count_ceiling(self, steps):
        # verify --k 1000 --grid-size 36 --rk4-steps N takes N steps, not one
        # more: N is the last step index that ``at`` accepts
        p, s = model.params_from_k(1000), offset_grid(36)
        psi0, span = model.analytic_state_pair(p, s[0]), (s[0], s[-1])
        model.integrate_ode(p, psi0, span, step=(s[-1] - s[0]) / steps, at=[steps])
        with pytest.raises(ValueError, match=f"from 0 to {steps}$"):
            model.integrate_ode(p, psi0, span, step=(s[-1] - s[0]) / steps, at=[steps + 1])


class TestIntegrateOdeAt:
    """States at chosen step indices against the full trajectory's rows."""

    @pytest.mark.parametrize("span, nsteps, freeze_s", [
        ((-np.pi, np.pi), 20_000, None),       # forward, verify's fig1 steps
        ((2.0, -1.5), 5_000, None),            # backward
        ((0.0, 3.0), 4_096, 0.4),              # Hamiltonian frozen
        ((-0.7, 0.2), 1, None),                # one step
        ((-np.pi, np.pi), 4_097, None),        # one state past RK4_CHUNK
    ])
    def test_rows_match_the_trajectory(self, span, nsteps, freeze_s):
        p = model.params_from_k(17)
        psi0 = model.analytic_state_pair(p, span[0])
        step = abs(span[1] - span[0]) / nsteps
        full = model.integrate_ode(p, psi0, span, step=step, freeze_s=freeze_s)
        at = np.unique(np.r_[0, nsteps, np.random.default_rng(nsteps).integers(
            0, nsteps + 1, 300)])
        sampled = model.integrate_ode(p, psi0, span, step=step, freeze_s=freeze_s, at=at)
        assert len(full.s) == nsteps + 1
        assert np.array_equal(sampled.s, full.s[at])
        assert np.max(np.abs(sampled.states - full.states[at])) <= 1e-12
        assert sampled.norm_drift == pytest.approx(
            model._norm_drift(full.states[at]), rel=1e-6, abs=1e-14)

    def test_order_and_repeats_are_kept(self):
        p = model.params_from_k(2)
        psi0 = model.analytic_state_pair(p, -np.pi)
        at = np.array([7, 0, 7, 10_000, 3])
        sampled = model.integrate_ode(p, psi0, at=at)
        assert np.array_equal(sampled.states[0], sampled.states[2])
        assert np.array_equal(sampled.states[1], psi0)
        full = model.integrate_ode(p, psi0)
        assert np.max(np.abs(sampled.states - full.states[at])) <= 1e-12

    @pytest.mark.parametrize("at", [[-1], [10_001], [0, 10_001], [0.5], [True],
                                    [], [[0, 1]]])
    def test_rejects_indices_off_the_run(self, at):
        p = model.params_from_k(2)
        psi0 = model.analytic_state_pair(p, -np.pi)
        with pytest.raises(ValueError, match="integer step indices from 0 to 10000"):
            model.integrate_ode(p, psi0, at=at)


def assert_drift_matches(drift, oracle_drift, nsteps):
    """The closed form's norm drift against the per-step oracle's.

    Above 1e-12 the two agree to 1e-3 relative; below it both are round-off
    and need only stay under 100 nsteps eps, as a per-step loop's rounding
    grows with the steps.
    """
    if oracle_drift > 1e-12:
        assert drift == pytest.approx(oracle_drift, rel=1e-3, abs=0.0)
    else:
        bound = 100 * nsteps * np.finfo(float).eps
        assert drift <= bound and oracle_drift <= bound


class TestIntegrateOdeMatchesLoop:
    """The closed-form powers of the step map against the per-step RK4 oracle."""

    @staticmethod
    def assert_matches(g, psi0, s_span, nsteps, freeze_s=None):
        p = model.derive_params(g)
        traj = model.integrate_ode(p, psi0, s_span,
                                   step=(s_span[1] - s_span[0]) / nsteps,
                                   freeze_s=freeze_s)
        states, drift = rk4_reference(p.g, psi0, *s_span, nsteps, freeze_s)
        assert traj.states.shape == (nsteps + 1, 2)
        # coarse steps grow the state far beyond unit norm: compare relative to it
        scale = np.maximum(1.0, np.abs(states))
        assert np.max(np.abs(traj.states - states) / scale) <= 1e-12
        assert_drift_matches(traj.norm_drift, drift, nsteps)
        return traj

    @pytest.mark.parametrize("g", [np.sqrt(3.0), np.sqrt(1155.0),
                                   np.sqrt(39999.0), np.sqrt(1100.0)],
                             ids=["k1", "k17", "k100", "fig3"])
    def test_drives(self, g):
        p = model.derive_params(g)
        s = offset_grid(4096)
        self.assert_matches(g, model.analytic_state_pair(p, s[0]), (s[0], s[-1]), 3000)

    @pytest.mark.parametrize("nsteps, g, freeze_s", [
        *(pytest.param(n, np.sqrt(1155.0), None, id=str(n))
          for n in (1, 15, 16, 17, model.RK4_CHUNK - 1, model.RK4_CHUNK + 1, 20_000)),
        pytest.param(8201, np.sqrt(1100.0), None, id="fig3-8201"),
        # n theta reaches ~1,260 rad: the closed-form powers keep their phase
        pytest.param(20_000, np.sqrt(39999.0), None, id="k100-20000"),
        pytest.param(53, 2.0, 0.3, id="frozen-53"),
    ])
    def test_step_counts(self, nsteps, g, freeze_s):
        s_span = (-np.pi, np.pi) if freeze_s is None else (0.0, 3.0)
        self.assert_matches(g, np.array([0.6, 0.8j]), s_span, nsteps, freeze_s)

    def test_frozen_hamiltonian(self):
        self.assert_matches(2.0, np.array([0.6, 0.8j]), (0.0, 3.0),
                            model.RK4_CHUNK + 1, freeze_s=0.3)

    def test_large_drift(self):
        traj = self.assert_matches(np.sqrt(1155.0), np.array([0.0, 1.0], dtype=complex),
                                   (-np.pi, np.pi), 40)
        assert traj.norm_drift > 1e-6

    def test_reversed_span(self):
        # a step of 2^-9 divides the span exactly: 3072 steps from s = 3 down to -3
        g, psi0 = np.sqrt(1155.0), np.array([0.6, 0.8j])
        traj = model.integrate_ode(model.derive_params(g), psi0, (3.0, -3.0), step=2.0 ** -9)
        states, drift = rk4_reference(g, psi0, 3.0, -3.0, 3072)
        assert traj.s[0] == 3.0 and traj.s[-1] == -3.0
        assert np.max(np.abs(traj.states - states)) <= 1e-12
        assert_drift_matches(traj.norm_drift, drift, 3072)

    def test_reversed_span_keeps_the_default_step(self):
        # the step count is ceil(|s1 - s0|/step) backward too, not a single step of -1
        p, psi0 = model.params_from_k(1), np.array([0.0, 1.0], dtype=complex)
        traj = model.integrate_ode(p, psi0, (1.0, 0.0))
        nsteps = int(np.ceil(1.0 / (2.0 * np.pi / 10_000)))
        states, _ = rk4_reference(p.g, psi0, 1.0, 0.0, nsteps)
        assert traj.states.shape == (nsteps + 1, 2)
        assert np.max(np.abs(traj.states - states)) <= 1e-12
        assert traj.norm_drift < 1e-13

    @pytest.mark.parametrize("s_span", [(0.0, np.inf), (np.nan, 1.0), (-np.inf, np.inf),
                                        (-1e308, 1e308)])
    def test_non_finite_span_rejected(self, s_span):
        with pytest.raises(ValueError, match="s_span must be a finite interval"):
            model.integrate_ode(model.params_from_k(1), np.array([0.0, 1.0]), s_span)

    def test_blow_up_is_quiet(self):
        # 2000 steps at g = 1e4 are far outside RK4's stability region
        traj = model.integrate_ode(model.params_from_k(5000), np.array([0.0, 1.0]),
                                   step=2.0 * np.pi / 2000)
        assert not np.isfinite(traj.norm_drift)

    def test_fig1_accuracy(self):
        # verify's fig1 run: mu and theta are read from E = M - I in increment
        # form, so mu^n and e^{i n theta} hold round-off over 20,000 steps
        p = model.derive_params(np.sqrt(3.0))
        s = offset_grid(4096)
        traj = model.integrate_ode(p, model.analytic_state_pair(p, s[0]), (s[0], s[-1]),
                                   step=(s[-1] - s[0]) / 20_000)
        assert traj.states.shape == (20_001, 2)
        assert traj.norm_drift <= 1e-14
        assert np.max(np.abs(traj.states - model.analytic_state_pair(p, traj.s))) <= 1e-14

    @pytest.mark.parametrize("frozen", [False, True])
    def test_increments_match_the_rk4_stages(self, frozen):
        # D_n from the K stages as full 2x2 matrix products equals
        # [[alpha, beta], [-conj(beta), conj(alpha)]] to round-off
        g, h = np.sqrt(1155.0), 0.01
        s = np.linspace(-np.pi, np.pi, 257)
        phase = 2.0 * (s + np.array([[0.0], [h / 2], [h]]))
        if frozen:
            phase[:] = phase[1]
        alpha, beta = model._rk4_increments(g, phase[1], h, 0.0 if frozen else h)
        c, sn = np.cos(phase), np.sin(phase)
        a = -1j * g * np.stack([np.stack([-c, sn], -1), np.stack([sn, c], -1)], -2)
        eye = np.eye(2)
        k1 = a[0]
        k2 = a[1] @ (eye + (h / 2) * k1)
        k3 = a[1] @ (eye + (h / 2) * k2)
        k4 = a[2] @ (eye + h * k3)
        full = (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        two_entry = np.stack([np.stack([alpha, beta], -1),
                              np.stack([-np.conj(beta), np.conj(alpha)], -1)], -2)
        assert np.max(np.abs(two_entry - full)) <= 4 * np.finfo(float).eps * np.max(np.abs(full))


class TestSolutionResidual:
    @pytest.mark.parametrize("k", [1, 17])
    def test_closed_form_solves_the_equation(self, k):
        res = model.solution_residual(model.params_from_k(k))
        assert res.max_residual < 1e-8

    def test_non_cyclic_path(self):
        res = model.solution_residual(model.derive_params(np.sqrt(1100.0)))
        assert res.max_residual < 1e-8

    @pytest.mark.parametrize("params, m", [
        (model.derive_params(np.sqrt(1100.0)), 64),
        (model.params_from_k(64.59), 256),
        (model.params_from_k(200.3), 16384),
        (model.params_from_k(17), 64),
    ], ids=["fig3-m64", "k64.59-m256", "k200.3-m16384", "k17-m64"])
    def test_coarse_grids_and_large_k(self, params, m):
        # nothing is differentiated numerically, so neither a coarse grid nor
        # a fast drive moves the residual off round-off
        assert model.solution_residual(params, m).max_residual < 1e-8

    @staticmethod
    def scaled_state(monkeypatch, scale, dscale):
        """Replace the doublet Psi by scale(s) Psi, with its exact derivative."""
        doublet = model._doublet

        def scaled(p, s, derivative=False):
            psi, dpsi = doublet(p, s, derivative=True)
            return (scale(s)[:, None] * psi,
                    scale(s)[:, None] * dpsi + dscale(s)[:, None] * psi)

        monkeypatch.setattr(model, "_doublet", scaled)

    def test_perturbed_amplitude_fails(self, monkeypatch):
        # a non-uniform perturbation leaves the solution space of the linear
        # equation (a constant rescaling would not, and must keep residual 0)
        self.scaled_state(monkeypatch, lambda s: 1.0 + 0.01 * np.cos(s),
                          lambda s: -0.01 * np.sin(s))
        res = model.solution_residual(model.derive_params(np.sqrt(3.0)))
        assert res.max_residual > 1e-3

    def test_uniform_scaling_keeps_residual_zero(self, monkeypatch):
        # documents why the negative control above must be non-uniform
        self.scaled_state(monkeypatch, lambda s: np.full(s.shape, 1.01),
                          lambda s: np.zeros(s.shape))
        res = model.solution_residual(model.derive_params(np.sqrt(3.0)), 4096)
        assert res.max_residual < 1e-10


    def test_residual_covers_every_grid_point(self, monkeypatch):
        # the residual is taken RK4_CHUNK points at a time; no point may be skipped
        seen, max_residual = [], model._max_residual
        monkeypatch.setattr(model, "_max_residual",
                            lambda p, s: seen.append(s) or max_residual(p, s))
        m = 3 * model.RK4_CHUNK + 4
        model.solution_residual(model.params_from_k(17), m)
        assert np.array_equal(np.concatenate(seen), offset_grid(m))


#: drives of the byte-for-byte checks: fig1, fig2, k = 100, fig3 and the 1e6-step k
KERNEL_DRIVES = (1, 17, 100, 16.59, 1000)
#: points of the byte-for-byte checks; the RK4 grid is verify's at fig2's 20,000 steps
_s = offset_grid(4096)
KERNEL_POINTS = {
    "0.0": 0.0,
    "-0.0": -0.0,
    "signed-zeros": [0.0, -0.0],
    "one-point": np.array([0.7]),
    "offset-grid": _s,
    "rk4-grid": _s[0] + (_s[-1] - _s[0]) / 20_000 * np.arange(20_001),
    "2d-transposed": offset_grid(16384).reshape(128, 128).T,  # not C-contiguous
}


class TestDoubletKernel:
    """The real-arithmetic kernel against the complex expressions it replaced."""

    @staticmethod
    def assert_same_bytes(got, want):
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("name", KERNEL_POINTS)
    @pytest.mark.parametrize("k", KERNEL_DRIVES)
    def test_matches_the_complex_oracle(self, k, name):
        p, s = model.params_from_k(k), KERNEL_POINTS[name]
        for f in ("analytic_state_pair", "state_pair_derivative", "phi1_values"):
            self.assert_same_bytes(getattr(model, f)(p, s), getattr(oracle, f)(p, s))

    @pytest.mark.parametrize("name", KERNEL_POINTS)
    @pytest.mark.parametrize("k", KERNEL_DRIVES)
    def test_phi1_is_the_lower_slot(self, k, name):
        p, s = model.params_from_k(k), KERNEL_POINTS[name]
        self.assert_same_bytes(model.phi1_values(p, s), model.analytic_state_pair(p, s)[..., 1])

    @pytest.mark.parametrize("k", KERNEL_DRIVES)
    def test_residual_matches_the_oracle(self, k):
        p = model.params_from_k(k)
        for m in (8, 64, 4096, model.RK4_CHUNK + 4, 16384):
            assert model.solution_residual(p, m).max_residual == oracle.solution_residual_oracle(p, m)


class TestBerryPrediction:
    def test_k1(self):
        p = model.derive_params(np.sqrt(3.0))
        assert np.isclose(model.berry_phase_predicted(p),
                          (np.sqrt(3.0) - 1.0) * np.pi, atol=1e-12)

    def test_k17(self):
        p = model.params_from_k(17)
        expected = (1.0 - (34.0 - np.sqrt(1155.0))) * np.pi
        assert np.isclose(model.berry_phase_predicted(p), expected, atol=1e-12)
        assert np.isclose(expected, 3.0953827659, atol=1e-9)

    def test_adiabatic_limit(self):
        # 2k - g = 2k - sqrt(4k^2 - 1) -> 0, so the phase tends to pi from below
        p = model.params_from_k(500_000)
        assert abs(model.berry_phase_predicted(p) - np.pi) < 1e-5
        assert model.berry_phase_predicted(p) < np.pi

    def test_non_cyclic_rejected(self):
        with pytest.raises(ValueError, match="cyclic"):
            model.berry_phase_predicted(model.derive_params(np.sqrt(1100.0)))


class TestNearEdgePhase:
    def test_matches_physical_phase_k17(self):
        p = model.params_from_k(17)
        s = offset_grid(16384)
        window = np.abs(s - np.pi / 2) <= 3.0 / (2 * p.k)
        sw = s[window]
        approx = itoh_unwrap(model.near_edge_phase(p, sw))
        exact = itoh_unwrap(np.angle(np.exp(1j * p.g * sw)
                                     * model.phi1_values(p, sw)))
        dev = approx - exact
        dev -= dev.mean()
        assert np.max(np.abs(dev)) < 0.1

    def test_degrades_away_from_edge(self):
        p = model.params_from_k(17)
        s = offset_grid(16384)
        wide = np.abs(s - np.pi / 2) <= 9.0 / (2 * p.k)
        sw = s[wide]
        approx = itoh_unwrap(model.near_edge_phase(p, sw))
        exact = itoh_unwrap(np.angle(np.exp(1j * p.g * sw)
                                     * model.phi1_values(p, sw)))
        dev = approx - exact
        core = np.abs(sw - np.pi / 2) <= 3.0 / (2 * p.k)
        dev -= dev[core].mean()
        assert np.max(np.abs(dev[core])) < np.max(np.abs(dev))
