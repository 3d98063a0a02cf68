"""Trigonometric polynomials on the offset sample grid.

A signal here is a finite series

    phi(s) = sum_n a_n cos(n s) + i sum_n b_n sin(n s),   n = 0..n_max,

with real coefficients (which encodes phi*(s) = phi(-s)).  Multiplying by
e^{i n_max s} turns it into the positive-frequency ("helicity") polynomial
chi(s) = sum_m c_m e^{i m s}, m = 0..2 n_max, whose zero locations decide
whether log(chi/c_0) expands in positive frequencies only.  Its coefficients
are phi's two-sided spectrum read from -n_max to n_max: c_m = fhat[m - n_max].

All sampling happens on the half-sample-offset grid

    s_j = -pi + (j + 1/2) * 2 pi / m,   j = 0..m-1,

which never contains s = +-pi/2 or s = +-pi, so the driven-model amplitude
zeros are never sampled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: absolute tolerance for discarding imaginary residue of extracted coefficients
REALITY_TOL = 1e-10

#: |z| >= 1 - ROOT_TOL is the zero-location gate (boundary case Im t = 0 passes)
ROOT_TOL = 1e-9

#: cap on the sweeps of both iterations in polynomial_roots: the branch Newton
#: of a model series and the gated polish of the companion eigenvalues
MAX_SWEEPS = 100


def _check_grid_size(m_samples: int) -> None:
    """Raise ValueError unless m_samples is a positive multiple of 4."""
    if m_samples <= 0 or m_samples % 4 != 0:
        raise ValueError(
            f"m_samples must be a positive multiple of 4 so the offset grid "
            f"avoids s = +-pi/2; got {m_samples}"
        )


def check_resolves(m_samples: int, n_max: int) -> None:
    """Raise ValueError unless m_samples >= 4 n_max + 4.

    That is the smallest offset grid from which ``HelicitySeries.from_samples``
    reads the series of a degree-n_max signal without aliasing.
    """
    if m_samples < 4 * n_max + 4:
        raise ValueError(f"m_samples = {m_samples} too small for n_max = {n_max}: "
                         f"need at least {4 * n_max + 4} (aliasing)")


def offset_grid(m_samples: int) -> np.ndarray:
    """Return the offset grid s_j = -pi + (j + 1/2) h, h = 2 pi / m_samples.

    m_samples must be a positive multiple of 4; otherwise the grid would
    contain s = +-pi/2 exactly.
    """
    _check_grid_size(m_samples)
    s = np.arange(0.5, m_samples)  # j + 1/2, exactly, then scaled and shifted in place
    s *= 2.0 * np.pi / m_samples
    return np.subtract(s, np.pi, out=s)


def spectrum(values: np.ndarray, n_max: int) -> np.ndarray:
    """Fourier coefficients fhat[n], n = -n_max..n_max, of samples on the offset grid.

    Returns the 2 n_max + 1 coefficients in frequency order (fhat[n] at index
    n + n_max), with values(s_j) = sum_n fhat[n] e^{i n s_j} for content
    band-limited below m/2.  One FFT of the m samples is taken, but the
    offset-grid twiddle (-1)^n e^{-i pi n/m} and the 1/m scaling are formed on
    the returned bins only, so a narrow band costs O(m log m + n_max).  This is
    the coefficient readout.  An operator that is diagonal in frequency is
    applied to a plain FFT of a general input, where the twiddle would cancel;
    ``hilbert.periodic_hilbert`` forms the half-sample twiddle only for an
    exactly even or odd input, whose cosine or sine transform it takes at half
    the length.

    Raises
    ------
    ValueError
        If n_max < 0 or the band is wider than the grid (2 n_max + 1 > m).
    """
    m = len(values)
    if n_max < 0 or 2 * n_max + 1 > m:
        raise ValueError(f"the band -n_max..n_max (n_max = {n_max}) does not fit "
                         f"the {m} bins of the grid")
    n = np.arange(-n_max, n_max + 1)
    twiddle = (-1.0) ** n * np.exp(-1j * np.pi * n / m)
    return np.fft.fft(values)[n] / m * twiddle


def polynomial_values(c, m_samples: int) -> np.ndarray:
    """sum_d c[d] e^{i d s_j} (real c) on the offset grid, by one inverse FFT.

    e^{i d s_j} = (-1)^d e^{i pi d/m} e^{2 pi i d j/m}; as e^{i m s_j} = -1,
    degree d >= m folds exactly into bin d mod m with sign (-1)^(d // m).
    """
    _check_grid_size(m_samples)
    d = np.arange(len(c))
    folded = np.bincount(d % m_samples, (-1.0) ** (d + d // m_samples) * c)
    twiddle = np.exp(1j * np.pi * np.arange(len(folded)) / m_samples)
    return np.fft.ifft(folded * twiddle, m_samples, norm="forward")


@dataclass(frozen=True)
class HelicitySeries:
    """Real coefficients c_m, m = 0..2N, of the positive-frequency polynomial."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or len(c) % 2 == 0:
            raise ValueError("c must be a 1-d array of odd length 2N + 1")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "c", c)

    @classmethod
    def from_samples(cls, values, n_max: int) -> "HelicitySeries":
        """The series of chi = e^{i n_max s} phi from samples of phi on the offset grid.

        c_m = fhat[m - n_max], m = 0..2 n_max, from one :func:`spectrum`,
        sign-normalised so that c_0 >= 0 (chi/c_0 is unchanged by the flip).

        Raises
        ------
        ValueError
            If the samples are not finite values on an offset grid of at least
            4 n_max + 4 points (aliasing), or if phi*(s) = phi(-s) fails: the
            coefficients at +n and -n must be real to REALITY_TOL in the sum of
            their imaginary residues, the residue the cos/sin pair a_n, b_n of
            phi would carry.
        """
        values = np.asarray(values, dtype=complex)
        if values.ndim != 1:
            raise ValueError("samples must be a 1-d array")
        m = len(values)
        _check_grid_size(m)
        if not np.all(np.isfinite(values)):
            raise ValueError("signal values must be finite")
        check_resolves(m, n_max)
        c = spectrum(values, n_max)
        imag = np.abs(c.imag)
        paired = imag[n_max:] + imag[n_max::-1]  # frequencies n and -n, n = 0..n_max
        paired[0] = imag[n_max]
        residue = np.max(paired)
        if residue > REALITY_TOL:
            raise ValueError(
                f"coefficient-reality violation: imaginary residue {residue:.3e} "
                f"exceeds {REALITY_TOL:.0e}; input does not satisfy phi*(s) = phi(-s)"
            )
        c = c.real
        return cls(-c if c[0] < 0.0 else c.copy())

    @property
    def n_max(self) -> int:
        return (len(self.c) - 1) // 2

    @cached_property
    def roots(self) -> np.ndarray:
        """Roots of sum_m c_m z^m, found once per series and shared read-only."""
        roots = polynomial_roots(self.c)
        roots.flags.writeable = False
        return roots


def cos_sin_coefficients(values, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Complex a_n, b_n (n = 0..n_max, b_0 = 0) of samples on the offset grid.

    values(s) = sum_n a_n cos(n s) + i sum_n b_n sin(n s) up to n_max, with
    a_n = fhat[n] + fhat[-n] and b_n = fhat[n] - fhat[-n] from one
    :func:`spectrum`.  For values = u + i v with real u and v, Re a_n are the
    cosine coefficients of u and Re b_n the sine coefficients of v, whatever
    the symmetry of u and v.
    """
    fhat = spectrum(values, n_max)
    pos = fhat[n_max:]                        # frequencies 0..n_max
    neg = fhat[n_max::-1]                     # frequencies 0, -1, ..., -n_max
    a = pos + neg
    a[0] = fhat[n_max]
    b = pos - neg
    b[0] = 0.0
    return a, b


def _powers(z: np.ndarray, d: int) -> np.ndarray:
    """The block z[i]^j at row j, column i, j = 0..d, by doubling.

    Each entry is O(log d) products from z, and every product writes a
    contiguous run of rows.
    """
    out = np.empty((d + 1, len(z)), dtype=complex)
    out[0] = 1.0
    filled = 1
    while filled <= d:
        width = min(filled, d + 1 - filled)
        np.multiply(out[:width], out[filled - 1] * z, out=out[filled:filled + width])
        filled += width
    return out


def _weights(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns :func:`_scaled_values` reads for p = sum_j q[j] x^j.

    q, j q and both reversed (complex), and |q| and its reverse (real).
    """
    jq = np.arange(len(q)) * q
    return (np.stack((q, jq, q[::-1], jq[::-1]), axis=1).astype(complex),
            np.abs(np.stack((q, q[::-1]), axis=1)))


def _scaled_values(weights: tuple[np.ndarray, np.ndarray],
                   x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p(x), x p'(x) and sum_j |q_j| |x|^j, each times min(1, |x|^-d).

    A point with |x| > 1 is evaluated on the powers of 1/x against the
    reversed coefficients, so no power exceeds one in modulus and nothing
    overflows.  The common scale cancels in the Newton ratio p / p' =
    x P / G and in the backward error |P| / B.
    """
    values, bounds = weights
    outside = np.abs(x) > 1.0
    powers = _powers(np.divide(1.0, x, out=x.copy(), where=outside), len(values) - 1)
    p, g, p_rev, g_rev = values.T @ powers
    bound, bound_rev = bounds.T @ np.abs(powers)
    return (np.where(outside, p_rev, p), np.where(outside, g_rev, g),
            np.where(outside, bound_rev, bound))


def _converged(p: np.ndarray, bound: np.ndarray, d: int) -> np.ndarray:
    """Stopping rule: computed |p(x)| <= 2 d eps sum_j |q_j| |x|^j (scaled values).

    That is half the backward-error gate of 4 d eps; the other half covers
    the round-off of evaluating p, so the exact backward error meets the gate.
    """
    return np.abs(p) <= 2.0 * d * np.finfo(float).eps * bound


def _branch_roots(c0: float, c2: float, c_lo: float, c_hi: float, k: int) -> np.ndarray | None:
    """One root u_j on each branch j = 0..k-1 of c0 + c2 u + u^2k (c_lo + c_hi u) = 0.

    The roots solve u^2k = F(u), F(u) = -(c0 + c2 u) / (c_lo + c_hi u), so
    branch j is 2k v - Log F(e^v) = 2 pi i j in v = log u.  Three fixed-point
    steps v = (Log F(e^v) + 2 pi i j) / 2k from the unit circle start a
    vectorised Newton iteration in v; branch 0 is kept on the real axis.  A
    root stops once it meets :func:`_converged` on the four terms (degree
    d = 4k + 2 in z = sqrt(u)).  Returns the roots, or None if one is left
    moving after MAX_SWEEPS sweeps or lands on another branch (its residual
    a nonzero multiple of 2 pi i), so that distinct branches give distinct
    roots.
    """
    d, turn = 4 * k + 2, 2j * np.pi * np.arange(k)
    v = turn / (2 * k)
    with np.errstate(all="ignore"):  # a start on the pole or the zero of F fails below
        for _ in range(3):
            v = (np.log(-(c0 + c2 * np.exp(v)) / (c_lo + c_hi * np.exp(v))) + turn) / (2 * k)
            v[0] = v[0].real
        moving = np.ones(k, dtype=bool)
        for _ in range(MAX_SWEEPS):
            u, power = np.exp(v), np.exp(2 * k * v)
            num, den = c0 + c2 * u, c_lo + c_hi * u
            bound = abs(c0) + abs(c2) * abs(u) + abs(power) * (abs(c_lo) + abs(c_hi) * abs(u))
            moving &= ~_converged(num + power * den, bound, d)
            residual = 2 * k * v - np.log(-num / den) - turn
            if not moving.any():
                return u if np.all(np.abs(residual) < np.pi) else None
            step = residual / (2 * k - u * (c2 / num - c_hi / den))
            v = np.where(moving, v - step, v)
            v[0] = v[0].real
    return None


def _polish(c: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """Newton on sum_m c[m] z^m from every start in x, each stopping once it meets the gate.

    A start that meets :func:`_converged` stays where it is; the others take
    a Newton step and are evaluated again, all in one block.  Returns the
    polished roots, or None if one still misses the gate after MAX_SWEEPS
    sweeps.
    """
    weights, d = _weights(c), len(c) - 1
    x, active = x.copy(), np.arange(len(x))
    for _ in range(MAX_SWEEPS):
        p, g, bound = _scaled_values(weights, x[active])
        moving = ~_converged(p, bound, d)
        active = active[moving]
        if len(active) == 0:
            return x
        x[active] -= x[active] * p[moving] / g[moving]
    return None


def _model_roots(c: np.ndarray) -> np.ndarray | None:
    """The roots of a series with the driven model's four-term structure, or None.

    The helicity series of an integer-k drive (``model.helicity_series``) has
    degree d = 4k + 2 and only the coefficients at degrees 0, 2, d - 2 and d.
    With u = z^2 it is Q(u) = c0 + c2 u + u^2k (c_{d-2} + c_d u), which has
    a double root at u = -1.  The series qualifies when d = 4k + 2 >= 6,
    those four coefficients are nonzero, every other one is exactly zero,
    P(i) meets the gate of :func:`_converged` and |P'(i)| <= 2 d eta, with
    eta = d eps max|c|, the most an error of eta in the four coefficients can
    make of it.  Then z = +-i are returned exactly, each twice, and every
    other root comes from :func:`_branch_roots` as it is: its gate on the
    four terms is the gate on all of c, up to the rounding of z = sqrt(u)
    (backward error <= 2.01 d eps against 4 d eps, measured for k <= 10^5).
    Branches j = 0..k-1 give z = +-sqrt(u_j), branch 0 the real pair, and
    branches 1-k..-1 are their conjugates, so the set is exactly closed
    under conjugation.  None sends the series to the general path
    (:func:`_eig_roots`): a series without the structure, or one whose
    branches fail.
    """
    d = len(c) - 1
    if d < 6 or d % 4 != 2:
        return None
    k, kept = (d - 2) // 4, [0, 2, d - 2, d]
    if not np.all(c[kept]) or np.any(np.delete(c, kept)):
        return None
    eta = d * np.finfo(float).eps * np.max(np.abs(c))
    i_powers = np.array([1.0, 1j, -1.0, -1j])[np.arange(d + 1) % 4]
    if (not _converged(c @ i_powers, np.sum(np.abs(c)), d)
            or abs(np.arange(1, d + 1) * c[1:] @ i_powers[:-1]) > 2 * d * eta):
        return None
    u = _branch_roots(*c[kept], k)
    if u is None:
        return None
    z = np.sqrt(u)
    z[0] = z[0].real
    z = np.concatenate((z, -z))
    complex_pairs = np.delete(z, [0, k])
    return np.concatenate((z, complex_pairs.conj(), [1j, 1j, -1j, -1j]))


def _eig_roots(q: np.ndarray) -> np.ndarray:
    """All roots of sum_j q[j] w^j (q[0], q[-1] nonzero), each meeting :func:`_converged`.

    The eigenvalues of the companion matrix are backward stable for a
    balanced q (Edelman & Murakami, Math. Comp. 64, 1995), and :func:`_polish`
    holds each to the gate.  The eigensolve of a real matrix returns the
    roots off the real axis in exact conjugate pairs, and each Newton step
    does the same arithmetic on a root and on its conjugate, so the pairs
    stay exact.  A root of multiplicity m comes back as the gate leaves it,
    about eps^(1/m) from the exact root, its copies not joined.

    Raises
    ------
    ValueError
        If a root is left unconverged after MAX_SWEEPS sweeps.
    """
    d = len(q) - 1
    companion = np.eye(d, k=-1)
    companion[:, -1] = -q[:-1] / q[-1]
    with np.errstate(all="ignore"):  # a step from a double root is non-finite; the gate judges it
        w = _polish(q, np.linalg.eigvals(companion).astype(complex))
    if w is None:
        raise ValueError(f"root finder did not converge for the degree-{d} polynomial "
                         f"in {MAX_SWEEPS} sweeps")
    return w


def polynomial_roots(c: np.ndarray) -> np.ndarray:
    """All roots of P(z) = sum_m c[m] z^m, each meeting the backward-error gate.

    Only trailing coefficients that are exactly zero are trimmed: a small
    leading coefficient is genuine and carries roots far from the circle
    (z^400 - 1.1^400 has c_400 / c_0 ~ 3e-17); leading zero coefficients are
    roots at z = 0.  A series with the driven model's structure (degree
    4k + 2, only four nonzero terms at degrees 0, 2, 4k and 4k + 2, a double
    root at z = +-i) is solved branch by branch in O(k) (:func:`_model_roots`).
    Any other series, or one whose branches fail, goes to the eigenvalues
    of the companion matrix of P(rho w) with rho = |c_0 / c_d|^(1/d), the
    geometric mean of the root moduli, which balances the coefficients, and
    each is polished to the backward-error gate (:func:`_eig_roots`), in
    exact conjugate pairs.  Every command's series is a model series; the
    one limit of the general path is that a root of multiplicity m comes
    back about eps^(1/m) from the exact root, its copies not joined.

    Raises
    ------
    ValueError
        If c is all zero, or if a root misses the gate after MAX_SWEEPS
        sweeps.
    """
    c = np.asarray(c, dtype=float)
    nonzero = np.flatnonzero(c)
    if len(nonzero) == 0:
        raise ValueError("degenerate (all-zero) polynomial has no defined roots")
    at_zero = np.zeros(nonzero[0], dtype=complex)
    c = c[nonzero[0]:nonzero[-1] + 1]
    if len(c) == 1:
        return at_zero
    d = len(c) - 1
    scaled = np.ldexp(c, -np.frexp(np.max(np.abs(c)))[1])  # exactly, so that m c_m cannot overflow
    roots = _model_roots(scaled)
    if roots is None:
        # Q(w) = P(rho w) / |c_0|, formed in logs so that no power of rho overflows
        log_c = np.log(np.abs(c), out=np.full(d + 1, -np.inf), where=c != 0)
        log_rho = (log_c[0] - log_c[-1]) / d
        q = np.sign(c) * np.exp(log_c - log_c[0] + log_rho * np.arange(d + 1))
        roots = np.exp(log_rho) * _eig_roots(q)
    return np.concatenate((at_zero, roots))


@dataclass(frozen=True)
class RootCheckResult:
    """Zero-location gate: all roots of the helicity polynomial on/outside |z| = 1."""

    roots: np.ndarray
    passed: bool
    min_modulus: float


def root_check(series: HelicitySeries | np.ndarray) -> RootCheckResult:
    """Check that all zeros z of sum c_m z^m satisfy |z| >= 1 - ROOT_TOL.

    z = e^{is}, so |z| >= 1 is the condition that the zeros of phi(t) lie at
    Im t <= 0 (real-axis zeros sit on the unit circle and pass as the boundary
    case).
    """
    roots = (series.roots if isinstance(series, HelicitySeries)
             else polynomial_roots(series))
    if len(roots) == 0:
        return RootCheckResult(roots, True, np.inf)
    min_mod = float(np.min(np.abs(roots)))
    return RootCheckResult(roots, bool(min_mod >= 1.0 - ROOT_TOL), min_mod)
