"""Exactly solvable driven two-level model.

The Hamiltonian, in units with hbar = 1,

    H(t) = (G/2) [[-cos(w t), sin(w t)], [sin(w t), cos(w t)]],   G > 0,

has eigenvalues -G/2 (eigenvector (1, 0) at t = 0) and +G/2 (eigenvector
(0, 1)).  The amplitude of the +G/2 branch, with the dynamic phase factor
e^{-iGt/2} removed, is known in closed form.  In the dimensionless time
s = w t / 2 (so one state period is exactly 2 pi) and with g = G/w,
k = K/w = sqrt(g^2 + 1)/2:

    phi1(s) = cos(2ks) cos(s) + sin(2ks) sin(s)/(2k) - i (g/2k) sin(2ks) cos(s)

phi1 occupies the *second* slot of the doublet: phi1(0) = 1 and the +G/2
eigenvector of H(0) is (0, 1).  For integer k the state is cyclic with
highest harmonic N = 2k + 1 and amplitude zeros of order two at s = +-pi/2
(t = +-pi/w).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hilbert, trigpoly

#: |k - round(k)| below this counts as an integer (cyclic drive)
CYCLIC_TOL = 1e-9

#: k at or above this is reported as the near-adiabatic regime
ADIABATIC_K = 10.0

#: (location, multiplicity) of the drive's amplitude zeros, s = +-pi/2 (t = +-pi/w);
#: exact and of order two for cyclic drives, near-zeros otherwise
DRIVE_ZEROS = ((-np.pi / 2, 2), (np.pi / 2, 2))


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless drive parameters; k = sqrt(g^2 + 1)/2 always holds."""

    g: float
    omega: float
    k: float
    n_harmonic: int | None
    cyclic: bool

    @property
    def regime(self) -> str:
        return "adiabatic" if self.k >= ADIABATIC_K else "non-adiabatic"


def derive_params(g: float, omega: float = 1.0) -> ModelParams:
    """Build ModelParams from the coupling ratio g = G/omega."""
    if not (g > 0.0):
        raise ValueError(f"g must be positive, got {g}")
    if not (0.0 < omega < np.inf):
        raise ValueError(f"omega must be positive and finite, got {omega}")
    k = float(0.5 * np.sqrt(g * g + 1.0))
    if not np.isfinite(k):
        raise ValueError(f"g = {g} is too large: k = sqrt(g^2 + 1)/2 is not finite")
    cyclic = bool(abs(k - round(k)) < CYCLIC_TOL)
    n_harmonic = 2 * int(round(k)) + 1 if cyclic else None
    return ModelParams(float(g), float(omega), k, n_harmonic, cyclic)


def params_from_k(k: float, omega: float = 1.0) -> ModelParams:
    """Build ModelParams from k = K/omega (requires k > 1/2 so that g > 0)."""
    if not (k > 0.5):
        raise ValueError(f"k must exceed 1/2, got {k}")
    return derive_params(float(np.sqrt(4.0 * k * k - 1.0)), omega)


def phi1_values(params: ModelParams, s) -> np.ndarray:
    """The closed-form amplitude (dynamic phase removed) at time s = omega t / 2."""
    s = np.asarray(s, dtype=float)
    k, g = params.k, params.g
    return (np.cos(2 * k * s) * np.cos(s)
            + np.sin(2 * k * s) * np.sin(s) / (2 * k)
            - 1j * (g / (2 * k)) * np.sin(2 * k * s) * np.cos(s))


def phi1_derivative(params: ModelParams, s) -> np.ndarray:
    """d phi1 / ds, differentiated analytically."""
    s = np.asarray(s, dtype=float)
    k, g = params.k, params.g
    return ((1.0 / (2 * k) - 2 * k) * np.sin(2 * k * s) * np.cos(s)
            - 1j * g * (np.cos(2 * k * s) * np.cos(s)
                        - np.sin(2 * k * s) * np.sin(s) / (2 * k)))


@dataclass(frozen=True)
class ModelSignals:
    """Model amplitudes and derived phase/log-modulus arrays on the offset grid."""

    params: ModelParams
    grid: np.ndarray = field(repr=False)
    phi1: np.ndarray = field(repr=False)
    log_modulus: np.ndarray = field(repr=False)
    phase_physical: np.ndarray = field(repr=False)
    chi: np.ndarray | None = field(repr=False, default=None)
    phase_chi: np.ndarray | None = field(repr=False, default=None)
    c0: float | None = None
    helicity: trigpoly.HelicitySeries | None = None
    zeros: tuple = ()


def evaluate_model(params: ModelParams, m_samples: int) -> ModelSignals:
    """Sample phi1 (and, when cyclic, chi = e^{iNs} phi1) on the offset grid.

    For cyclic drives the returned log_modulus is log|chi/c_0| and phase_chi
    is the unwrapped boundary phase of chi/c_0, with the genuine -2pi jumps at
    the second-order amplitude zeros s = +-pi/2 preserved rather than
    smoothed.  phase_physical = phase_chi + (g - N) s is the phase of
    phi' = e^{igs} phi1 (the dynamic phase removed); the identity holds
    pointwise by construction.

    Non-cyclic drives carry no helicity series: log_modulus is log|phi1| and
    phase_physical is the plainly unwrapped arg(phi') on the 2 pi window.
    """
    grid = trigpoly.offset_grid(m_samples)
    phi1 = phi1_values(params, grid)
    if not params.cyclic:
        phase_phys = hilbert.unwrap(np.angle(phi1)).phase + params.g * grid
        return ModelSignals(params, grid, phi1,
                            np.log(np.abs(phi1)), phase_phys)
    n = params.n_harmonic
    if m_samples < 4 * n + 4:
        raise ValueError(f"m_samples = {m_samples} too small for N = {n}")
    series = trigpoly.analyze(phi1, n)
    hel = trigpoly.to_helicity(series)
    c0 = float(hel.c[0])
    chi = np.exp(1j * n * grid) * phi1
    res = hilbert.unwrap(np.angle(chi / c0), zeros=DRIVE_ZEROS, grid=grid)
    phase_chi = hilbert._anchor_unwrapped(res.phase)
    phase_phys = phase_chi + (params.g - n) * grid
    return ModelSignals(params, grid, phi1,
                        np.log(np.abs(chi / c0)), phase_phys,
                        chi=chi, phase_chi=phase_chi, c0=c0, helicity=hel,
                        zeros=DRIVE_ZEROS)


@dataclass(frozen=True)
class Trajectory:
    s: np.ndarray
    states: np.ndarray  # shape (len(s), 2); columns follow the H rows
    norm_drift: float


#: steps whose increment matrices are built together; bounds the temporaries
RK4_CHUNK = 256


def _times_one_plus(a, k, f):
    """A (I + f K) for stacks of 2x2 matrices held as entry tuples (a, b, c, d)."""
    p, q, r, t = 1 + f * k[0], f * k[1], f * k[2], 1 + f * k[3]
    return (a[0] * p + a[1] * r, a[0] * q + a[1] * t,
            a[2] * p + a[3] * r, a[2] * q + a[3] * t)


def _rk4_increments(g: float, phase: np.ndarray, h: float):
    """Entries (a, b, c, d) of D_n = (h/6)(K1 + 2 K2 + 2 K3 + K4), one per step.

    ``phase`` has shape (3, n): the drive phase 2s at the start, midpoint and
    end of each step, where A = -ig(-cos 2s sigma_z + sin 2s sigma_x).
    """
    igc, igs = 1j * g * np.cos(phase), -1j * g * np.sin(phase)
    a1, a2, a3 = ((c, sn, sn, -c) for c, sn in zip(igc, igs))
    k2 = _times_one_plus(a2, a1, h / 2)
    k3 = _times_one_plus(a2, k2, h / 2)
    k4 = _times_one_plus(a3, k3, h)
    return tuple((h / 6) * (e1 + 2 * e2 + 2 * e3 + e4)
                 for e1, e2, e3, e4 in zip(a1, k2, k3, k4))


def integrate_ode(params: ModelParams, initial, s_span=(-np.pi, np.pi),
                  step: float | None = None,
                  freeze_s: float | None = None) -> Trajectory:
    """Classic fixed-step RK4 for i dPsi/dt = H(t) Psi, driven in s units.

    dt = 2 ds (omega = 1 internally), so the right-hand side is
    dPsi/ds = A(s) Psi with A(s) = -2i H(2s).  ``freeze_s`` holds the
    Hamiltonian at a fixed time (useful for checking against the constant-H
    matrix exponential).  The norm drift over the run is reported in
    ``norm_drift`` for the caller to judge; a large drift does not stop the
    run.

    The equation is linear, so one RK4 step is exactly Psi <- Psi + D_n Psi
    with D_n = (h/6)(K1 + 2 K2 + 2 K3 + K4), K1 = A(s_n),
    K2 = A(s_n + h/2)(I + (h/2) K1), K3 = A(s_n + h/2)(I + (h/2) K2) and
    K4 = A(s_n + h)(I + h K3).  The entries of D_n are built with numpy,
    RK4_CHUNK steps at a time, and applied in step order by one scalar loop.
    The increment is added to Psi rather than applying S_n = I + D_n: the
    O(1) diagonal of S_n rounds away the low bits of the O(h) increment, which
    raised the fig1 norm drift from 9.1e-15 to 8.3e-13 in trials, and a
    prefix-product scan of the S_n (1.0e-12) did the same.  The increment form
    reproduces the per-step loop to round-off.
    """
    psi = np.asarray(initial, dtype=complex)
    if psi.shape != (2,):
        raise ValueError("initial state must be a 2-component complex vector")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"initial state must be normalised, |Psi| = {nrm:.6f}")
    s0, s1 = map(float, s_span)
    if step is None:
        step = 2.0 * np.pi / 10_000
    if not (step > 0.0):
        raise ValueError("step must be positive")
    nsteps = max(1, int(np.ceil((s1 - s0) / step)))
    h = (s1 - s0) / nsteps

    s_out = s0 + h * np.arange(nsteps + 1)
    states = np.empty((nsteps + 1, 2), dtype=complex)
    states[0] = psi
    u, v = complex(psi[0]), complex(psi[1])
    offsets = np.array([[0.0], [h / 2], [h]])
    for i0 in range(0, nsteps, RK4_CHUNK):
        i1 = min(i0 + RK4_CHUNK, nsteps)
        if freeze_s is None:
            phase = 2.0 * (s_out[i0:i1] + offsets)
        else:
            phase = np.full((3, i1 - i0), 2.0 * freeze_s)
        us, vs = [], []
        for a, b, c, d in zip(*(e.tolist() for e in _rk4_increments(params.g, phase, h))):
            u, v = u + (a * u + b * v), v + (c * u + d * v)
            us.append(u)
            vs.append(v)
        states[i0 + 1:i1 + 1, 0] = us
        states[i0 + 1:i1 + 1, 1] = vs
    drift = float(np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)))
    return Trajectory(s_out, states, drift)


def companion_amplitude(params: ModelParams, s,
                        phi1: np.ndarray | None = None,
                        dphi1: np.ndarray | None = None) -> np.ndarray:
    """The partner amplitude eliminated from the row of H that couples to phi1.

    phi1 is the lower doublet component, so row two of the Schrodinger
    equation gives psi_upper = (i dphi1/dt - H22 phi1) / H21 with
    d/dt = (1/2) d/ds.  Valid off the zeros of sin(2s); the offset grid
    avoids them.
    """
    s = np.asarray(s, dtype=float)
    if phi1 is None:
        phi1 = phi1_values(params, s)
    if dphi1 is None:
        dphi1 = phi1_derivative(params, s)
    g = params.g
    h21 = 0.5 * g * np.sin(2 * s)
    h22 = 0.5 * g * np.cos(2 * s)
    return (0.5j * dphi1 - h22 * phi1) / h21


def analytic_state_pair(params: ModelParams, s) -> np.ndarray:
    """Full doublet state (upper, lower) = (companion, phi1); unit norm."""
    s = np.asarray(s, dtype=float)
    phi1 = phi1_values(params, s)
    return np.stack([companion_amplitude(params, s, phi1), phi1], axis=-1)


_FD8 = np.array([3.0, -32.0, 168.0, -672.0, 0.0, 672.0, -168.0, 32.0, -3.0]) / 840.0


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    m_samples: int


def solution_residual(params: ModelParams, m_samples: int = 16384) -> ResidualReport:
    """Verify that the closed-form amplitude solves the Schrodinger equation.

    The partner component is reconstructed algebraically from the row of the
    equation containing d phi1/dt (with the analytic derivative), then the
    other row's residual |i dpsi/dt - (H Psi)_row| is evaluated on the grid.
    The partner derivative is spectral for cyclic drives (band-limited to the
    known harmonic content, which keeps round-off from the near-singular
    columns out of the spectrum) and an 8th-order central difference on the
    interior for non-cyclic ones.
    """
    grid = trigpoly.offset_grid(m_samples)
    phi1 = phi1_values(params, grid)
    partner = companion_amplitude(params, grid, phi1)
    g = params.g
    h11 = -0.5 * g * np.cos(2 * grid)
    h12 = 0.5 * g * np.sin(2 * grid)
    if params.cyclic:
        fhat, n = trigpoly.spectrum(partner)
        fhat[np.abs(n) > params.n_harmonic + 4] = 0.0
        dpartner = trigpoly.from_spectrum(1j * n * fhat, n)
        residual = np.abs(0.5j * dpartner - h11 * partner - h12 * phi1)
        return ResidualReport(float(np.max(residual)), m_samples)
    h = grid[1] - grid[0]
    interior = slice(4, m_samples - 4)
    dpartner = np.convolve(partner, _FD8[::-1], mode="valid") / h
    residual = np.abs(0.5j * dpartner
                      - h11[interior] * partner[interior]
                      - h12[interior] * phi1[interior])
    return ResidualReport(float(np.max(residual)), m_samples)


def berry_phase_predicted(params: ModelParams) -> float:
    """Geometric phase over one Hamiltonian revolution: [1 - (2k - g)] pi."""
    if not params.cyclic:
        raise ValueError("the closed-form geometric phase requires a cyclic drive "
                         "(integer K/omega)")
    return (1.0 - (2.0 * params.k - params.g)) * np.pi


def near_edge_phase(params: ModelParams, s):
    """First-order phase approximation near the revolution edge t = pi/w.

    Im ln[2(s - pi/2) - sin(2ks) e^{2iks} / k], valid for |s - pi/2| of order
    3/(2k).  The sign of the oscillatory term follows from expanding the
    closed-form amplitude to first order in s - pi/2 with g/(2k) -> 1:
    phi1 = -(e^{-2iks}/2) [2(s - pi/2) - e^{2iks} sin(2ks)/k] + O((s - pi/2)^2).
    Returns the principal value per point and NaN exactly at a zero of the
    bracket; callers compare unwrapped, window-mean-adjusted curves.
    """
    s = np.asarray(s, dtype=float)
    k = params.k
    bracket = 2.0 * (s - np.pi / 2) - np.sin(2 * k * s) * np.exp(2j * k * s) / k
    out = np.angle(bracket)
    return np.where(np.abs(bracket) == 0.0, np.nan, out)
