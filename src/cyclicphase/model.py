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
(``state_pair_derivative``).  One per-slot kernel writes them all, in real
arithmetic; ``phi1_values`` is its lower slot alone, at any points.  On
the first quarter of the offset grid of a cyclic drive the same slot takes
factors that are exact roots of unity (``_grid_factors``), and the rest of
the grid follows by symmetry.  ``solution_residual`` checks the
Schrodinger equation with the state and its derivative, on both rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import hilbert, trigpoly

#: |k - round(k)| below this counts as an integer (cyclic drive)
CYCLIC_TOL = 1e-9

#: k at or above this is reported as the near-adiabatic regime
ADIABATIC_K = 10.0

#: ceiling on the highest harmonic N = 2k + 1 of a helicity series (k up to 2e6):
#: its 2N + 1 coefficients and their roots take ~370 MB at k = 1e6 and grow
#: linearly, so a larger k is refused before anything is allocated
MAX_HARMONIC = 4_000_001

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
    """The closed-form amplitude (dynamic phase removed) at time s = omega t / 2.

    The lower slot of the doublet, evaluated without its partner, at any
    points: four libm calls per point, on 2ks and s as rounded to doubles,
    so its round-off grows like k eps.  ``verify``, non-cyclic drives and the
    amplitude at the zeros take this path; the offset grid of a cyclic drive
    takes exact roots of unity instead (``evaluate_model``).  The factors are
    formed RK4_CHUNK points at a time, so that the result is the only
    full-size array.
    """
    points = np.asarray(s, dtype=float).reshape(-1)
    phi1 = np.empty(points.shape, dtype=complex)
    for i in range(0, len(points), RK4_CHUNK):
        block = slice(i, i + RK4_CHUNK)
        _doublet_slot(params, _doublet_factors(params, points[block]), 1, phi1[block])
    return phi1.reshape(np.shape(s))[()]  # a scalar for scalar s


@dataclass(frozen=True)
class ModelSignals:
    """The curves of chi = e^{iNs} phi1 of a cyclic drive on the offset grid.

    ``helicity`` is the closed-form ``helicity_series``, the same on every grid
    (c_0 is ``helicity.c[0]``); the log-modulus and phase fields come from the
    first quarter of phi1 on the grid, which is not kept.  They are arrays of
    m samples from ``evaluate_model``, and ``hilbert.HalfPeriod`` values,
    the first half-period of each curve, from ``half_period_signals``.
    """

    params: ModelParams
    grid: np.ndarray = field(repr=False)
    log_modulus: np.ndarray | hilbert.HalfPeriod = field(repr=False)
    phase_chi: np.ndarray | hilbert.HalfPeriod = field(repr=False)
    helicity: trigpoly.HelicitySeries


def helicity_series(params: ModelParams) -> trigpoly.HelicitySeries:
    """The degree-2N helicity series of a cyclic drive, in closed form.

    chi = e^{iNs} phi1 has four terms, c_0 + c_2 z^2 + z^{4k} (c_{4k} + c_{4k+2} z^2)
    with z = e^{is}: 8k c_0 = 2k - 1 + g, 8k c_2 = 2k + 1 + g,
    8k c_{4k} = 2k + 1 - g and 8k c_{4k+2} = 2k - 1 - g.  k is round(params.k),
    the integer that sets the degrees, N and the grid angles (``_grid_factors``),
    and g is params.g; every other coefficient is exactly zero.  With an
    integer k, P(i) = 0 and P'(i) = 0 hold for every g, so the series of a k
    within CYCLIC_TOL of an integer keeps the exact double zeros at z = +-i
    and its roots come from the four-term solver (``trigpoly._model_roots``).
    Every command takes its series here, whatever grid it samples its
    datasets on.  N above MAX_HARMONIC is refused (ValueError) before the
    series is formed.
    """
    if not params.cyclic:
        raise ValueError("the helicity series requires a cyclic drive (integer K/omega)")
    if params.n_harmonic > MAX_HARMONIC:
        raise ValueError(f"k = {params.k:.10g} needs N = {params.n_harmonic} harmonics, above "
                         f"the ceiling N = {MAX_HARMONIC} (k = {MAX_HARMONIC // 2})")
    k, g = round(params.k), params.g
    c = np.zeros(2 * params.n_harmonic + 1)
    terms = np.array([2 * k - 1 + g, 2 * k + 1 + g, 2 * k + 1 - g, 2 * k - 1 - g])
    c[[0, 2, -3, -1]] = terms / (8 * k)
    return trigpoly.HelicitySeries(c)


def evaluate_model(params: ModelParams, m_samples: int) -> ModelSignals:
    """The curves of chi = e^{iNs} phi1 of a cyclic drive on the offset grid.

    The returned log_modulus is log|chi/c_0| and phase_chi is the unwrapped
    boundary phase of chi/c_0, with the genuine -2pi jumps at the
    second-order amplitude zeros s = +-pi/2 preserved rather than smoothed.
    c_0 > 0, so both come from phi1 alone: arg chi = arg phi1 + Ns (up to 2pi,
    which the unwrapping absorbs) and |chi/c_0| = |phi1|/c_0; chi itself is
    never formed.  The helicity series, and with it c_0, is the closed-form
    ``helicity_series``; the grid must still hold 4N + 4 points, the fewest
    that resolve phi1 (ValueError otherwise).  A non-cyclic drive has no
    series and is refused (ValueError); sample it with ``phi1_values``.

    The curves are those of ``half_period_signals``, laid out on the m
    points (``hilbert.HalfPeriod.full``): [q, -+q~, q, -+q~], q the first
    quarter and q~ the quarter reversed.  The genuine -2 pi jumps at the
    second-order amplitude zeros s = +-pi/2 fall between the quarters.  So
    log_modulus is exactly even and phase_chi exactly odd, and both exactly
    pi-periodic, bit for bit, which is what sends both reconstructions down
    the pi-period route of ``hilbert.periodic_hilbert``.
    """
    signals = half_period_signals(params, m_samples)
    return replace(signals, log_modulus=signals.log_modulus.full(),
                   phase_chi=signals.phase_chi.full())


def half_period_signals(params: ModelParams, m_samples: int) -> ModelSignals:
    """``evaluate_model``'s curves, each held as its first half-period (``hilbert.HalfPeriod``).

    phi1 comes from exact roots of unity (``_grid_phi1``): k is taken as
    round(k), the integer that makes the drive cyclic (and N = 2 round(k) + 1),
    so that every trig factor on the grid is a 2m-th root of unity with an
    exact integer angle.  Its error is a few eps absolute, next to the zeros
    included, where ``phi1_values`` on the rounded grid points reads ~k eps.

    phi1(-s) = conj phi1(s) and phi1(s + pi) = -phi1(s) (chi is a polynomial
    in z^2), so log|chi| is even and arg chi odd under s -> -s, and both
    repeat after pi; on the grid s_{m-1-j} = -s_j and s_{j+m/2} = s_j + pi.
    phi1 is formed on the first quarter of the grid only, s in [-pi, -pi/2),
    which holds no drive zero: the log, the angle and the unwrap are taken on
    its m/4 points and the quarter is dropped.  The unwrapped quarter is
    shifted by a multiple of 2 pi onto the branch that runs continuously
    through arg chi(-pi) = arg chi(0) = 0.  The two quarters are the heads
    of the pi-periodic curves (``HalfPeriod.from_quarter``: the first m/2
    points when m/4 is odd), and the grid is the full offset grid.  No other
    array of m samples is formed.  ValueError as for ``evaluate_model``.
    """
    if not params.cyclic:
        raise ValueError("evaluate_model requires a cyclic drive (integer K/omega)")
    grid = trigpoly.offset_grid(m_samples)
    n = params.n_harmonic
    trigpoly.check_resolves(m_samples, n)
    hel = helicity_series(params)
    phi1 = _grid_phi1(params, m_samples)
    log_modulus = np.abs(phi1)
    log_modulus /= hel.c[0]
    np.log(log_modulus, out=log_modulus)
    raw = np.angle(phi1)
    del phi1
    raw += n * grid[:m_samples // 4]
    phase = hilbert.unwrap(raw).phase
    # arg chi(-pi) = arg chi(0) = 0 (phi1(0) = 1): the branch that runs
    # continuously through s = -pi
    phase -= 2.0 * np.pi * np.round(phase[0] / (2.0 * np.pi))
    return ModelSignals(params, grid,
                        hilbert.HalfPeriod.from_quarter(log_modulus, 1.0, m_samples),
                        hilbert.HalfPeriod.from_quarter(phase, -1.0, m_samples), hel)


@dataclass(frozen=True)
class Trajectory:
    s: np.ndarray
    states: np.ndarray  # shape (len(s), 2); columns follow the H rows
    norm_drift: float


#: RK4 states, or closed-form points, computed together; bounds the temporaries
RK4_CHUNK = 4096


def _rk4_increments(g: float, phase, h: float, d: float):
    """(alpha, beta) of D_n = (h/6)(K1 + 2 K2 + 2 K3 + K4), one per drive phase.

    ``phase`` is the drive phase 2s at the midpoint of a step and ``d`` its
    advance over half a step (h, or 0 with the Hamiltonian frozen).  With
    A(s) = -ig(-cos 2s sigma_z + sin 2s sigma_x), every A(s)^2 = -g^2 I and
    A(s) A(s') = -g^2 (cos(2s - 2s') I + sin(2s - 2s') J), J = i sigma_y, so
    the RK4 stages collapse to

        D_n = (h/6) [4 + (2 - g^2 h^2) cos d] A(s_n + h/2)
              - (g^2 h^2/6) [(1 + 2 cos d) I + 2 sin d J]
              + (g^4 h^4/24) [cos 2d I + sin 2d J].

    A, I and J are all [[alpha, beta], [-conj(beta), conj(alpha)]]: two
    entries hold D_n, at one cosine and one sine per phase.
    """
    gh2, cos_d = (g * h) ** 2, np.cos(d)
    p = (g * h / 6) * (4 + (2 - gh2) * cos_d)
    c_i = -(gh2 / 6) * (1 + 2 * cos_d) + (gh2 * gh2 / 24) * np.cos(2 * d)
    c_j = -(gh2 / 3) * np.sin(d) + (gh2 * gh2 / 24) * np.sin(2 * d)
    return c_i + 1j * p * np.cos(phase), c_j - 1j * p * np.sin(phase)


def integrate_ode(params: ModelParams, initial, s_span=(-np.pi, np.pi),
                  step: float | None = None,
                  freeze_s: float | None = None, at=None) -> Trajectory:
    """Classic fixed-step RK4 for i dPsi/dt = H(t) Psi, driven in s units.

    dt = 2 ds (omega = 1 internally), so the right-hand side is
    dPsi/ds = A(s) Psi with A(s) = -2i H(2s).  ``freeze_s`` holds the
    Hamiltonian at a fixed time (useful for checking against the constant-H
    matrix exponential).  The norm drift over the states returned is reported
    in ``norm_drift`` for the caller to judge; a large drift does not stop
    the run.  The span may run backward (s1 < s0); the step count is
    ceil(|s1 - s0|/step) up to rounding, so that step = span/n takes n steps.

    With ``at``, a 1-D integer array of step indices in [0, nsteps]
    (ValueError otherwise), only the states Psi_n at those n are formed, at
    s = s0 + h n: the cost follows len(at), whatever the step count.  Without
    it ``at`` is every index, and the trajectory holds nsteps + 1 states.

    The equation is linear, so one RK4 step is exactly Psi <- S_n Psi with
    S_n = I + D_n, D_n = (h/6)(K1 + 2 K2 + 2 K3 + K4), K1 = A(s_n),
    K2 = A(s_n + h/2)(I + (h/2) K1), K3 = A(s_n + h/2)(I + (h/2) K2) and
    K4 = A(s_n + h)(I + h K3); ``_rk4_increments`` writes D_n in closed form.
    The drive rotates uniformly: U A(s) U^-1 = A(s + d) for U = e^{i d sigma_y},
    so S_n = U^n S_0 U^-n with d = h (d = 0 frozen), and the states are
    Psi_n = U^n M^n Psi_0 for the one map M = U^-1 S_0.  M is
    [[a, b], [-conj(b), conj(a)]], that is mu (cos theta I + sin theta K) with
    K^2 = -I, so M^n = mu^n (cos n theta I + sin n theta K) and every state
    follows from mu^n e^{i n theta} and e^{i n d}, one exp per index,
    RK4_CHUNK states at a time.
    E = M - I is formed in increment form (cos d - 1 = -2 sin^2(d/2)) and
    mu, theta are read from E, so that n theta and mu^n keep the relative
    precision of the per-step loop's increments.
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
    nsteps = max(1, int(np.ceil(abs(s1 - s0) / step * (1.0 - 4.0 * np.finfo(float).eps))))
    h = (s1 - s0) / nsteps

    at = np.arange(nsteps + 1) if at is None else np.asarray(at)
    if (at.ndim != 1 or not len(at) or not np.issubdtype(at.dtype, np.integer)
            or at.min() < 0 or at.max() > nsteps):
        raise ValueError(f"at must be a non-empty 1-D array of integer step "
                         f"indices from 0 to {nsteps}")
    s_out = s0 + h * at
    states = np.empty((len(at), 2), dtype=complex)
    u, v = psi
    d = h if freeze_s is None else 0.0
    phase = 2.0 * (s0 + h / 2 if freeze_s is None else freeze_s)
    # a step too coarse for g makes RK4 blow up: the states overflow quietly
    # and the drift reads inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, beta = _rk4_increments(params.g, phase, h, d)
        # E = U^-1 (I + D_0) - I with U^-1 = cos d I - sin d J, as the pair (e, f)
        cos_d, sin_d = np.cos(d), np.sin(d)
        e = -2.0 * np.sin(d / 2) ** 2 + cos_d * alpha + sin_d * np.conj(beta)
        f = -sin_d + cos_d * beta - sin_d * np.conj(alpha)
        # M = (1 + Re e) I + nu K, where nu K = [[i Im e, f], [-conj(f), -i Im e]]
        nu = np.hypot(e.imag, np.abs(f))
        theta = np.arctan2(nu, 1.0 + e.real)
        log_mu = 0.5 * np.log1p(e.real * (2.0 + e.real) + nu * nu)
        # nu = 0 (a zero span, h = 0) leaves M = (1 + Re e) I: no K terms
        ku = kv = 0.0
        if nu:
            ku = (1j * e.imag * u + f * v) / nu
            kv = (-np.conj(f) * u - 1j * e.imag * v) / nu
        rates = np.array([[complex(log_mu, theta)], [1j * d]])
        # the drift is taken block by block, so that no temporary spans the
        # trajectory; np.maximum, not max, so that a nan state still reads nan
        drift = 0.0
        for i in range(0, len(at), RK4_CHUNK):
            # e^{n rate}: mu^n e^{i n theta}; e^{i n d}, U^n = cos nd I + sin nd J
            w, z = np.exp(rates * at[i:i + RK4_CHUNK])
            block = states[i:i + RK4_CHUNK]
            x0, x1 = w.real * u + w.imag * ku, w.real * v + w.imag * kv
            block[:, 0] = z.real * x0 + z.imag * x1
            block[:, 1] = z.real * x1 - z.imag * x0
            drift = np.maximum(drift, _norm_drift(block))
    return Trajectory(s_out, states, float(drift))


def _norm_drift(states: np.ndarray) -> float:
    """max | |Psi|^2 - 1 | over the rows of states."""
    return np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0))


def _doublet_factors(params: ModelParams, s):
    """cos 2ks, sin 2ks, sin s and cos s: the trig factors of the closed-form doublet.

    A scalar s is taken as one point, so that the factors are arrays.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    two_ks = 2 * params.k * s
    cos_2ks = np.cos(two_ks)
    # sin 2ks overwrites 2ks: one temporary less at the memory peak of a large grid
    return cos_2ks, np.sin(two_ks, out=two_ks), np.sin(s), np.cos(s)


def _unit_roots(q, m: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(pi q/m) and sin(pi q/m) for integers q, m a multiple of 4.

    libm sees first-octant angles pi r/m <= pi/4 only: q is reflected into
    [0, m/4] by q -> 2m - q (sin changes sign), q -> m - q (cos changes sign)
    and q -> m/2 - q (cos and sin swap).  The reflections are exact, so a
    small result keeps its relative accuracy.
    """
    q = np.asarray(q) % (2 * m)
    sin_sign = np.where(q > m, -1.0, 1.0)
    q = np.minimum(q, 2 * m - q)
    cos_sign = np.where(q > m // 2, -1.0, 1.0)
    q = np.minimum(q, m - q)
    swap = q > m // 4
    x = np.minimum(q, m // 2 - q) * (np.pi / m)
    c, s = np.cos(x), np.sin(x)
    return cos_sign * np.where(swap, s, c), sin_sign * np.where(swap, c, s)


def _odd_roots(m: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(pi d/m) and sin(pi d/m) on the odd d = 1, 3, ..., m/2 - 1, m a multiple of 4.

    e^{i s_j} = -e^{i pi (2j + 1)/m} on the offset grid, so these are the
    first quarter of the grid's cos s and sin s, negated.  libm sees only the
    first octant, the angles pi d/m <= pi/4; the rest of (0, pi/2) is that
    octant reflected, with cos and sin swapped (d -> m/2 - d).  The
    reflection is exact, so a small value keeps its relative accuracy.
    """
    quarter = m // 4
    octant = np.arange(1, quarter + 1, 2) * (np.pi / m)
    n, rest = len(octant), quarter - len(octant)
    cos, sin = np.empty(quarter), np.empty(quarter)
    np.cos(octant, out=cos[:n])
    np.sin(octant, out=sin[:n])
    cos[n:] = sin[:rest][::-1]
    sin[n:] = cos[:rest][::-1]
    return cos, sin


#: columns of the block in which ``_grid_factors`` forms e^{2iks}
_GRID_BLOCK = 512


def _grid_factors(params: ModelParams, m_samples: int):
    """cos 2ks, sin 2ks, sin s and cos s on the first quarter of the offset grid, k an integer.

    On s_j = -pi + pi (2j + 1)/m every factor is a root of unity with an
    exact integer angle: e^{i s_j} = -e^{i pi (2j + 1)/m}, and for integer k,
    counting i = m/4 - 1 - j back from the zero at s = -pi/2,
    e^{2iks_j} = e^{i pi n_i/m} with n_i = km - 2k (2i + 1) mod 2m.  sin s
    and cos s are ``_odd_roots`` negated: libm on the first octant only,
    so a small value keeps its relative accuracy.  For e^{2iks} the points
    i = B r + c (B = _GRID_BLOCK) split the angle into a row part -4kB r and
    a column part km - 2k (2c + 1), both reduced mod 2m in integers and taken
    by ``_unit_roots``; one angle addition per point forms the product as an
    outer product of the row and column factors.  Row 0 is the factor 1, so
    the B points next to the zero, where phi1 is small and its angle
    ill-conditioned, take e^{2iks} from libm alone, small values at full
    relative accuracy.  k is round(params.k).
    """
    cos_s, sin_s = _odd_roots(m_samples)
    np.negative(cos_s, out=cos_s)
    np.negative(sin_s, out=sin_s)
    quarter, period = m_samples // 4, 2 * m_samples
    width = min(_GRID_BLOCK, quarter)
    k = round(params.k)
    step = 2 * k % period
    cos, sin = _unit_roots(np.concatenate((
        k % 2 * m_samples - step * np.arange(1, 2 * width, 2),          # columns
        (-2 * width * step % period) * np.arange(-(-quarter // width)))),  # rows
        m_samples)
    col_c, row_c, col_s, row_s = cos[:width], cos[width:], sin[:width], sin[width:]
    # cos(a + b) = cos a cos b - sin a sin b, sin(a + b) = sin a cos b + cos a sin b
    cos_2ks, t = np.multiply.outer(row_c, col_c), np.multiply.outer(row_s, col_s)
    cos_2ks -= t
    sin_2ks = np.multiply.outer(row_s, col_c)
    sin_2ks += np.multiply.outer(row_c, col_s, out=t)
    # back from i to j = m/4 - 1 - i
    back = slice(quarter - 1, None, -1)
    return cos_2ks.reshape(-1)[back], sin_2ks.reshape(-1)[back], sin_s, cos_s


def _grid_phi1(params: ModelParams, m_samples: int) -> np.ndarray:
    """phi1 on the first quarter of the offset grid of a cyclic drive, s in [-pi, -pi/2).

    The lower slot of the doublet on ``_grid_factors``, m/4 points.  The rest
    of the grid follows from phi1(-s) = conj phi1(s) and
    phi1(s + pi) = -phi1(s), which ``half_period_signals`` applies to the curves.
    """
    phi1 = np.empty(m_samples // 4, dtype=complex)
    _doublet_slot(params, _grid_factors(params, m_samples), 1, phi1)
    return phi1


def _doublet_slot(params: ModelParams, factors, slot: int, psi, dpsi=None) -> None:
    """Write one slot of the closed-form doublet into psi, and its d/ds into dpsi.

    With C = cos 2ks, S = sin 2ks and (u, v) = (sin s, -cos s) in the upper
    slot (0), (cos s, sin s) in the lower slot (1, phi1):

        psi  = C u + S v/(2k) - i (g/2k) S u,
        dpsi = (1/(2k) - 2k) S u - i g (C u - S v/(2k)).

    psi and dpsi are complex arrays of the factors' shape (a column of a
    doublet array is one).  Their real and imaginary parts are formed in real
    arithmetic in the order of these complex expressions, so every value, down
    to the sign of a zero, is the one numpy's complex arithmetic gives; -cos s
    enters as a subtraction, which is exact: S (-cos s)/(2k) = -(S cos s/(2k)).
    """
    k, g = params.k, params.g
    cos_2ks, sin_2ks, sin_s, cos_s = factors
    u, v = (sin_s, cos_s) if slot == 0 else (cos_s, sin_s)
    t = (g / (2 * k)) * sin_2ks
    t *= u
    np.subtract(0.0, t, out=psi.imag)
    # C u + S v/(2k) and C u - S v/(2k): the upper slot's v = -cos s is
    # taken as cos s, with plus and minus swapped
    plus, minus = (np.subtract, np.add) if slot == 0 else (np.add, np.subtract)
    cu, sv = np.multiply(cos_2ks, u, out=t), sin_2ks * v
    sv /= 2 * k
    plus(cu, sv, out=psi.real)
    if dpsi is None:
        return
    q = minus(cu, sv, out=cu)
    a = (1.0 / (2 * k) - 2 * k) * sin_2ks
    a *= u
    # the real part of -i g q is 0 q, which keeps the sign of a zero in a
    np.subtract(a, np.multiply(0.0, q, out=sv), out=dpsi.real)
    q *= g
    np.subtract(0.0, q, out=dpsi.imag)


def _doublet(params: ModelParams, s, derivative: bool = False):
    """(Psi, dPsi/ds) of the closed-form doublet from one set of factors.

    Both have shape s.shape + (2,); dPsi/ds is None unless ``derivative``.
    """
    factors = _doublet_factors(params, s)
    psi = np.empty(factors[0].shape + (2,), dtype=complex)
    dpsi = np.empty_like(psi) if derivative else None
    for slot in (0, 1):
        _doublet_slot(params, factors, slot, psi[..., slot],
                      None if dpsi is None else dpsi[..., slot])
    shape = np.shape(s) + (2,)
    return psi.reshape(shape), None if dpsi is None else dpsi.reshape(shape)


def analytic_state_pair(params: ModelParams, s) -> np.ndarray:
    """Full doublet state (upper, lower) = (partner, phi1) in closed form; unit norm.

    The partner cos(2ks) sin(s) - sin(2ks) cos(s)/(2k) - i (g/2k) sin(2ks) sin(s)
    is written out, not eliminated from the Schrodinger equation through a
    division by sin(2s).
    """
    return _doublet(params, s)[0]


def state_pair_derivative(params: ModelParams, s) -> np.ndarray:
    """d/ds of ``analytic_state_pair``, differentiated analytically.

    The partner's is (1/(2k) - 2k) sin(2ks) sin(s)
    - i g (cos(2ks) sin(s) + sin(2ks) cos(s)/(2k)).
    """
    return _doublet(params, s, derivative=True)[1]


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
    return ResidualReport(float(np.max([_max_residual(params, grid[i:i + RK4_CHUNK])
                                        for i in range(0, m_samples, RK4_CHUNK)])))


def _max_residual(params: ModelParams, s) -> float:
    """The largest |(i/2) dPsi/ds - H(2s) Psi| over the points s and both rows."""
    psi, dpsi = _doublet(params, s, derivative=True)
    h_diag, h_off = 0.5 * params.g * np.cos(2 * s), 0.5 * params.g * np.sin(2 * s)
    residual = np.empty(psi.shape, dtype=complex)
    for row, other, sign in ((0, 1, np.subtract), (1, 0, np.add)):
        # (H Psi)_row = h_off Psi_other -+ h_diag Psi_row, and then
        # (i/2) dPsi/ds - H Psi = -(dPsi_im/2 + (H Psi)_re) + i (dPsi_re/2 - (H Psi)_im)
        h_re = sign(h_off * psi[:, other].real, h_diag * psi[:, row].real)
        h_im = sign(h_off * psi[:, other].imag, h_diag * psi[:, row].imag)
        np.add(0.5 * dpsi[:, row].imag, h_re, out=residual[:, row].real)
        np.subtract(0.5 * dpsi[:, row].real, h_im, out=residual[:, row].imag)
    return np.max(np.abs(residual))


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
