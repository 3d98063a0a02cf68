"""Driven two-level model: parameters, amplitude, ODE, residuals, phases."""

import numpy as np
import pytest

from conftest import itoh_unwrap, rk4_reference
from cyclicphase import model
from cyclicphase.trigpoly import analyze, offset_grid


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

    @pytest.mark.parametrize("omega", [np.inf, -np.inf, np.nan])
    def test_non_finite_omega_rejected(self, omega):
        # omega = inf would give t = 2 s / omega = 0 on the whole grid
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
        fd = (model.phi1_values(p, s + eps) - model.phi1_values(p, s - eps)) / (2 * eps)
        assert np.max(np.abs(fd - model.phi1_derivative(p, s))) < 1e-6

    def test_highest_harmonic_is_n(self):
        p = model.derive_params(np.sqrt(3.0))
        s = offset_grid(128)
        series = analyze(model.phi1_values(p, s), 10)
        assert np.max(np.abs(series.a[4:])) < 1e-10
        assert np.max(np.abs(series.b[4:])) < 1e-10


class TestEvaluateModel:
    def test_cyclic_fields(self):
        p = model.derive_params(np.sqrt(3.0))
        signals = model.evaluate_model(p, 4096)
        assert signals.chi is not None and signals.helicity is not None
        assert np.allclose(np.abs(signals.chi), np.abs(signals.phi1), atol=1e-14)
        assert np.isclose(signals.c0, (1 + np.sqrt(3.0)) / 8, atol=1e-12)

    def test_phase_difference_identity(self):
        p = model.derive_params(np.sqrt(1155.0))
        signals = model.evaluate_model(p, 16384)
        expected = (p.g - p.n_harmonic) * signals.grid
        assert np.max(np.abs(signals.phase_physical - signals.phase_chi
                             - expected)) < 1e-12

    def test_non_cyclic_has_no_chi(self):
        p = model.derive_params(np.sqrt(1100.0))
        signals = model.evaluate_model(p, 4096)
        assert signals.chi is None and signals.phase_chi is None
        assert signals.helicity is None

    def test_grid_too_small(self):
        p = model.derive_params(np.sqrt(1155.0))
        with pytest.raises(ValueError):
            model.evaluate_model(p, 64)


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

    def test_large_step_reports_drift_and_returns(self):
        p = model.derive_params(np.sqrt(1155.0))
        traj = model.integrate_ode(p, np.array([0.0, 1.0], dtype=complex),
                                   step=2 * np.pi / 40)
        assert traj.norm_drift > 1e-6
        assert traj.states.shape[0] == 41

    def test_rejects_unnormalised_state(self):
        p = model.derive_params(2.0)
        with pytest.raises(ValueError, match="normalised"):
            model.integrate_ode(p, np.array([1.0, 1.0], dtype=complex))


class TestIntegrateOdeMatchesLoop:
    """The chunked increment form against the per-step RK4 oracle."""

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
        assert traj.norm_drift == pytest.approx(drift, rel=1e-3)
        return traj

    @pytest.mark.parametrize("g", [np.sqrt(3.0), np.sqrt(1155.0),
                                   np.sqrt(39999.0), np.sqrt(1100.0)],
                             ids=["k1", "k17", "k100", "fig3"])
    def test_drives(self, g):
        p = model.derive_params(g)
        s = offset_grid(4096)
        self.assert_matches(g, model.analytic_state_pair(p, s[0]), (s[0], s[-1]), 3000)

    @pytest.mark.parametrize("nsteps", [1, model.RK4_CHUNK - 1, model.RK4_CHUNK + 1,
                                        20_000])
    def test_step_counts(self, nsteps):
        self.assert_matches(np.sqrt(1155.0), np.array([0.6, 0.8j]),
                            (-np.pi, np.pi), nsteps)

    def test_frozen_hamiltonian(self):
        self.assert_matches(2.0, np.array([0.6, 0.8j]), (0.0, 3.0),
                            model.RK4_CHUNK + 1, freeze_s=0.3)

    def test_large_drift(self):
        traj = self.assert_matches(np.sqrt(1155.0), np.array([0.0, 1.0], dtype=complex),
                                   (-np.pi, np.pi), 40)
        assert traj.norm_drift > 1e-6


class TestSolutionResidual:
    @pytest.mark.parametrize("k", [1, 17])
    def test_closed_form_solves_the_equation(self, k):
        res = model.solution_residual(model.params_from_k(k))
        assert res.max_residual < 1e-8

    def test_non_cyclic_path(self):
        res = model.solution_residual(model.derive_params(np.sqrt(1100.0)))
        assert res.max_residual < 1e-6

    def test_perturbed_amplitude_fails(self):
        # a non-uniform perturbation leaves the solution space of the linear
        # equation (a constant rescaling would not, and must keep residual 0)
        p = model.derive_params(np.sqrt(3.0))
        m = 16384
        grid = offset_grid(m)
        pert = 1.0 + 0.01 * np.cos(grid)
        dpert = -0.01 * np.sin(grid)
        phi1 = model.phi1_values(p, grid) * pert
        dphi1 = (model.phi1_derivative(p, grid) * pert
                 + model.phi1_values(p, grid) * dpert)
        partner = model.companion_amplitude(p, grid, phi1, dphi1)
        from cyclicphase.trigpoly import from_spectrum, spectrum
        fhat, n = spectrum(partner)
        fhat[np.abs(n) > p.n_harmonic + 6] = 0.0
        dpartner = from_spectrum(1j * n * fhat, n)
        h11 = -0.5 * p.g * np.cos(2 * grid)
        h12 = 0.5 * p.g * np.sin(2 * grid)
        residual = np.max(np.abs(0.5j * dpartner - h11 * partner - h12 * phi1))
        assert residual > 1e-3

    def test_uniform_scaling_keeps_residual_zero(self):
        # documents why the negative control above must be non-uniform
        p = model.derive_params(np.sqrt(3.0))
        grid = offset_grid(4096)
        phi1 = 1.01 * model.phi1_values(p, grid)
        dphi1 = 1.01 * model.phi1_derivative(p, grid)
        partner = model.companion_amplitude(p, grid, phi1, dphi1)
        dpartner_exact = 1.01 * model.companion_amplitude(
            p, grid, model.phi1_values(p, grid), model.phi1_derivative(p, grid))
        assert np.max(np.abs(partner - dpartner_exact)) < 1e-10


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
