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
(t = +-pi/w).  The first slot is written out in closed form as well
(``analytic_state_pair``), and so is the doublet's derivative
(``state_pair_derivative``); ``solution_residual`` checks the Schrodinger
equation with both, on both rows.
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
    # Python float division: an overflowing period is inf, not a numpy warning
    if not (0.0 < omega < np.inf and np.isfinite(2.0 * np.pi / float(omega))):
        raise ValueError(f"omega must be positive with a finite period 2 pi/omega, "
                         f"got {omega}")
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
    two_ks, cos_s = 2 * k * s, np.cos(s)
    sin_2ks = np.sin(two_ks)
    return (np.cos(two_ks) * cos_s
            + sin_2ks * np.sin(s) / (2 * k)
            - 1j * (g / (2 * k)) * sin_2ks * cos_s)


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
    hel = trigpoly.HelicitySeries.from_samples(phi1, n)
    c0 = float(hel.c[0])
    chi = np.exp(1j * n * grid) * phi1
    w = chi / c0
    res = hilbert.unwrap(np.angle(w), zeros=DRIVE_ZEROS, grid=grid)
    phase_chi = hilbert._anchor_unwrapped(res.phase)
    phase_phys = phase_chi + (params.g - n) * grid
    return ModelSignals(params, grid, phi1,
                        np.log(np.abs(w)), phase_phys,
                        chi=chi, phase_chi=phase_chi, c0=c0, helicity=hel)


@dataclass(frozen=True)
class Trajectory:
    s: np.ndarray
    states: np.ndarray  # shape (len(s), 2); columns follow the H rows
    norm_drift: float


#: steps whose increments are built and scanned together; bounds the temporaries
RK4_CHUNK = 4096

#: steps per block of the scan (RK4_CHUNK is a multiple): one scalar step per block
RK4_BLOCK = 16


def _rk4_increments(g: float, phase: np.ndarray, h: float, d: float):
    """(alpha, beta) of D_n = (h/6)(K1 + 2 K2 + 2 K3 + K4), one per step.

    ``phase`` is the drive phase 2s at the midpoint of each step and ``d`` its
    advance over half a step (h, or 0 with the Hamiltonian frozen).  With
    A(s) = -ig(-cos 2s sigma_z + sin 2s sigma_x), every A(s)^2 = -g^2 I and
    A(s) A(s') = -g^2 (cos(2s - 2s') I + sin(2s - 2s') J), J = i sigma_y, so
    the RK4 stages collapse to

        D_n = (h/6) [4 + (2 - g^2 h^2) cos d] A(s_n + h/2)
              - (g^2 h^2/6) [(1 + 2 cos d) I + 2 sin d J]
              + (g^4 h^4/24) [cos 2d I + sin 2d J].

    A, I and J are all [[alpha, beta], [-conj(beta), conj(alpha)]]: two
    entries hold D_n, and each step costs one cosine and one sine.
    """
    gh2, cos_d = (g * h) ** 2, np.cos(d)
    p = (g * h / 6) * (4 + (2 - gh2) * cos_d)
    c_i = -(gh2 / 6) * (1 + 2 * cos_d) + (gh2 * gh2 / 24) * np.cos(2 * d)
    c_j = -(gh2 / 3) * np.sin(d) + (gh2 * gh2 / 24) * np.sin(2 * d)
    return c_i + 1j * p * np.cos(phase), c_j - 1j * p * np.sin(phase)


def _scan_chunk(da: np.ndarray, db: np.ndarray, u: complex, v: complex):
    """States after each step Psi <- Psi + D_n Psi of one chunk, from Psi = (u, v).

    Returns the upper and lower components, one per step.  The steps are cut
    into blocks of RK4_BLOCK; the last is padded with zero increments.
    """
    n = da.size
    nb = -(-n // RK4_BLOCK)
    # column j becomes E_j = S_j ... S_0 - I of its block, S = I + D, formed as
    # (I + D_j)(I + E_{j-1}) - I = D_j + D_j E_{j-1} + E_{j-1}; each matrix is
    # [[a, b], [-conj(b), conj(a)]], held as its pair (a, b)
    blocks = np.zeros((2, nb * RK4_BLOCK), dtype=complex)
    blocks[:, :n] = da, db
    ea, eb = blocks.reshape(2, nb, RK4_BLOCK)
    for j in range(1, RK4_BLOCK):
        xa, xb, ya, yb = ea[:, j], eb[:, j], ea[:, j - 1], eb[:, j - 1]
        pa, pb = xa * ya - xb * np.conj(yb), xa * yb + xb * np.conj(ya)
        ea[:, j], eb[:, j] = xa + pa + ya, xb + pb + yb
    # one step per block carries the block's start state: Psi <- Psi + E Psi
    us, vs = [], []
    for a, b in zip(ea[:, -1].tolist(), eb[:, -1].tolist()):
        us.append(u)
        vs.append(v)
        u, v = u + (a * u + b * v), v + (a.conjugate() * v - b.conjugate() * u)
    u0, v0 = np.array(us)[:, None], np.array(vs)[:, None]
    upper = u0 + (ea * u0 + eb * v0)
    lower = v0 + (np.conj(ea) * v0 - np.conj(eb) * u0)
    return upper.ravel()[:n], lower.ravel()[:n]


def integrate_ode(params: ModelParams, initial, s_span=(-np.pi, np.pi),
                  step: float | None = None,
                  freeze_s: float | None = None) -> Trajectory:
    """Classic fixed-step RK4 for i dPsi/dt = H(t) Psi, driven in s units.

    dt = 2 ds (omega = 1 internally), so the right-hand side is
    dPsi/ds = A(s) Psi with A(s) = -2i H(2s).  ``freeze_s`` holds the
    Hamiltonian at a fixed time (useful for checking against the constant-H
    matrix exponential).  The norm drift over the run is reported in
    ``norm_drift`` for the caller to judge; a large drift does not stop the
    run.  The span may run backward (s1 < s0); the step count is
    ceil(|s1 - s0|/step).

    The equation is linear, so one RK4 step is exactly Psi <- Psi + D_n Psi
    with D_n = (h/6)(K1 + 2 K2 + 2 K3 + K4), K1 = A(s_n),
    K2 = A(s_n + h/2)(I + (h/2) K1), K3 = A(s_n + h/2)(I + (h/2) K2) and
    K4 = A(s_n + h)(I + h K3); ``_rk4_increments`` writes D_n in closed form.
    The steps then compose like a prefix scan, RK4_CHUNK steps at a time:
    numpy forms the prefixes E_j = S_j ... S_0 - I (S_n = I + D_n) of every
    RK4_BLOCK-step block at once, one scalar step Psi <- Psi + E Psi per
    block carries the state to the next block, and one multiply expands each
    block's states from its start state.  Maps compose in increment form,
    (I + X)(I + Y) = I + (X + Y + XY), never as products of the S_n: the O(1)
    diagonal of S_n rounds away the low bits of the O(h) increment, and a
    prefix product of the S_n raised the fig1 norm drift from 9.1e-15 to
    1.0e-12 in trials.  The increment form reproduces the per-step loop to
    round-off.
    """
    psi = np.asarray(initial, dtype=complex)
    if psi.shape != (2,):
        raise ValueError("initial state must be a 2-component complex vector")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"initial state must be normalised, |Psi| = {nrm:.6f}")
    s0, s1 = map(float, s_span)
    if not np.isfinite(s1 - s0):
        raise ValueError(f"s_span must be a finite interval, got ({s0}, {s1})")
    if step is None:
        step = 2.0 * np.pi / 10_000
    if not (step > 0.0):
        raise ValueError("step must be positive")
    nsteps = max(1, int(np.ceil(abs(s1 - s0) / step)))
    h = (s1 - s0) / nsteps

    s_out = s0 + h * np.arange(nsteps + 1)
    states = np.empty((nsteps + 1, 2), dtype=complex)
    states[0] = psi
    u, v = complex(psi[0]), complex(psi[1])
    d = h if freeze_s is None else 0.0
    # a step too coarse for g makes RK4 blow up: the states overflow quietly
    # and the drift reads inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, nsteps, RK4_CHUNK):
            i1 = min(i0 + RK4_CHUNK, nsteps)
            if freeze_s is None:
                phase = 2.0 * (s_out[i0:i1] + h / 2)
            else:
                phase = np.full(i1 - i0, 2.0 * freeze_s)
            upper, lower = _scan_chunk(*_rk4_increments(params.g, phase, h, d), u, v)
            states[i0 + 1:i1 + 1, 0] = upper
            states[i0 + 1:i1 + 1, 1] = lower
            u, v = complex(upper[-1]), complex(lower[-1])
        drift = float(np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)))
    return Trajectory(s_out, states, drift)


def _doublet_factors(params: ModelParams, s):
    """C = cos 2ks, S = sin 2ks and the slot factors u, v of the closed-form doublet.

    Each slot of the doublet is C u + S v/(2k) - i (g/2k) S u, with
    (u, v) = (sin s, -cos s) in the upper slot and (cos s, sin s) in the lower
    (phi1); the slots run along a new last axis, which C and S broadcast over.
    """
    s = np.asarray(s, dtype=float)[..., None]
    two_ks, sin_s, cos_s = 2 * params.k * s, np.sin(s), np.cos(s)
    u = np.concatenate([sin_s, cos_s], axis=-1)
    v = np.concatenate([-cos_s, sin_s], axis=-1)
    return np.cos(two_ks), np.sin(two_ks), u, v


def analytic_state_pair(params: ModelParams, s) -> np.ndarray:
    """Full doublet state (upper, lower) = (partner, phi1) in closed form; unit norm.

    The partner cos(2ks) sin(s) - sin(2ks) cos(s)/(2k) - i (g/2k) sin(2ks) sin(s)
    is written out, not eliminated from the Schrodinger equation through a
    division by sin(2s).
    """
    k, g = params.k, params.g
    cos_2ks, sin_2ks, u, v = _doublet_factors(params, s)
    return cos_2ks * u + sin_2ks * v / (2 * k) - 1j * (g / (2 * k)) * sin_2ks * u


def state_pair_derivative(params: ModelParams, s) -> np.ndarray:
    """d/ds of ``analytic_state_pair``, differentiated analytically.

    Per slot: (1/(2k) - 2k) S u - i g (C u - S v/(2k)), so the partner's is
    (1/(2k) - 2k) sin(2ks) sin(s) - i g (cos(2ks) sin(s) + sin(2ks) cos(s)/(2k)).
    """
    k, g = params.k, params.g
    cos_2ks, sin_2ks, u, v = _doublet_factors(params, s)
    return ((1.0 / (2 * k) - 2 * k) * sin_2ks * u
            - 1j * g * (cos_2ks * u - sin_2ks * v / (2 * k)))


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float


def solution_residual(params: ModelParams, m_samples: int = 16384) -> ResidualReport:
    """Verify that the closed-form doublet solves the Schrodinger equation.

    Returns the largest |(i/2) dPsi/ds - H(2s) Psi| over the offset grid and
    over both rows (i dPsi/dt = H Psi with t = 2s), with Psi and dPsi/ds both
    in closed form.  Nothing is differentiated numerically, so the residual is
    round-off, of order g times the machine epsilon, for every drive and grid.
    """
    grid = trigpoly.offset_grid(m_samples)
    psi = analytic_state_pair(params, grid)
    h_diag, h_off = 0.5 * params.g * np.cos(2 * grid), 0.5 * params.g * np.sin(2 * grid)
    h_psi = np.stack([-h_diag * psi[:, 0] + h_off * psi[:, 1],
                      h_off * psi[:, 0] + h_diag * psi[:, 1]], axis=-1)
    residual = np.abs(0.5j * state_pair_derivative(params, grid) - h_psi)
    return ResidualReport(float(np.max(residual)))


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
