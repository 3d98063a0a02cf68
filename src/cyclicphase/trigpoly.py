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

#: cap on the sweeps of the Aberth iteration in polynomial_roots
MAX_SWEEPS = 100

#: entries of the power block one chunk of an Aberth sweep may hold
_CHUNK_ELEMENTS = 2 ** 15

#: roots closer than this (balanced coordinates) are one multiple root; see
#: _refine_root_clusters for the wider reach of ill-conditioned ones
_CLUSTER_TOL = 1e-5


def _check_grid_size(m_samples: int) -> None:
    """Raise ValueError unless m_samples is a positive multiple of 4."""
    if m_samples <= 0 or m_samples % 4 != 0:
        raise ValueError(
            f"m_samples must be a positive multiple of 4 so the offset grid "
            f"avoids s = +-pi/2; got {m_samples}"
        )


def offset_grid(m_samples: int) -> np.ndarray:
    """Return the offset grid s_j = -pi + (j + 1/2) h, h = 2 pi / m_samples.

    m_samples must be a positive multiple of 4; otherwise the grid would
    contain s = +-pi/2 exactly.
    """
    _check_grid_size(m_samples)
    h = 2.0 * np.pi / m_samples
    return -np.pi + (np.arange(m_samples) + 0.5) * h


def frequencies(m: int) -> np.ndarray:
    """Signed integer frequency of each of m FFT bins, in [-m/2, m/2) (Nyquist: -m/2)."""
    return np.rint(np.fft.fftfreq(m, d=1.0 / m)).astype(int)


def spectrum(values: np.ndarray, n_max: int) -> np.ndarray:
    """Fourier coefficients fhat[n], n = -n_max..n_max, of samples on the offset grid.

    Returns the 2 n_max + 1 coefficients in frequency order (fhat[n] at index
    n + n_max), with values(s_j) = sum_n fhat[n] e^{i n s_j} for content
    band-limited below m/2.  One FFT of the m samples is taken, but the
    offset-grid twiddle (-1)^n e^{-i pi n/m} and the 1/m scaling are formed on
    the returned bins only, so a narrow band costs O(m log m + n_max).  This is
    the coefficient readout; an operator that is diagonal in frequency needs no
    twiddle and is applied to a plain FFT instead (see
    ``hilbert.periodic_hilbert``).

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
        if m < 4 * n_max + 4:
            raise ValueError(f"m_samples = {m} too small for n_max = {n_max}: "
                             f"need at least {4 * n_max + 4} (aliasing)")
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


def _start_points(q: np.ndarray) -> np.ndarray:
    """Bini's starting points for the Aberth iteration on sum_j q[j] w^j.

    Each edge of the upper convex hull of (j, log|q_j|) from vertex j0 to j1
    carries j1 - j0 starts on the circle of radius
    (|q_j0| / |q_j1|)^(1 / (j1 - j0)), the Newton-polygon estimate of that many
    root moduli.  A balanced polynomial with no wide modulus spread has one
    edge, the unit circle.  The angular offset keeps starts off the symmetric
    configurations (such as the roots of w^d + 1 for w^d - 1) on which the
    iteration cycles.
    """
    nonzero = np.flatnonzero(q)
    log_q = np.log(np.abs(q[nonzero]))
    hull = []  # upper hull by the monotone chain, left to right
    for j, lq in zip(nonzero.tolist(), log_q.tolist()):
        while len(hull) >= 2:
            (j0, l0), (j1, l1) = hull[-2], hull[-1]
            if (l1 - l0) * (j - j0) > (lq - l0) * (j1 - j0):
                break
            hull.pop()
        hull.append((j, lq))
    d = len(q) - 1
    starts = []
    for (j0, l0), (j1, l1) in zip(hull, hull[1:]):
        n = j1 - j0
        angle = 2.0 * np.pi * (np.arange(n) / n + j0 / d) + 0.7
        starts.append(np.exp((l0 - l1) / n + 1j * angle))
    return np.concatenate(starts)


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


def _aberth_sweep(weights: tuple[np.ndarray, np.ndarray], w: np.ndarray,
                  newton: np.ndarray, active: np.ndarray) -> np.ndarray:
    """One sweep of the Aberth iteration over the roots w[active], in place.

    The correction is x P / (G - x P S) (:func:`_scaled_values`), with S the
    sum of 1 / (x - w_k) over the other roots.  A root that meets
    :func:`_converged` stays where it is and leaves the active set, and
    newton records its |p / p'| there.  Rows go in chunks of about
    _CHUNK_ELEMENTS entries, which bounds the temporaries; each chunk
    already sees the roots the chunks before it moved.  Returns the indices
    that are still active.
    """
    d = len(w)
    rows_per_chunk = max(1, _CHUNK_ELEMENTS // (d + 1))
    still = []
    for lo in range(0, len(active), rows_per_chunk):
        rows = active[lo:lo + rows_per_chunk]
        x = w[rows]
        p, g, bound = _scaled_values(weights, x)
        moving = ~_converged(p, bound, d)
        newton[rows[~moving]] = np.abs(x * p / g)[~moving]
        rows, x, xp, g = rows[moving], x[moving], x[moving] * p[moving], g[moving]
        re = np.subtract.outer(x.real, w.real)
        im = np.subtract.outer(x.imag, w.imag)
        inv = re * re + im * im
        inv[np.arange(len(rows)), rows] = np.inf  # the root itself
        np.reciprocal(inv, out=inv)
        step = xp / (g - xp * ((re * inv).sum(axis=1) - 1j * (im * inv).sum(axis=1)))
        w[rows] = np.where(np.isfinite(step), x - step, x)
        still.append(rows)
    return np.concatenate(still)


def _aberth(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All roots of sum_j q[j] w^j (q[0], q[-1] nonzero), each meeting :func:`_converged`.

    Returns the roots and |p / p'| at each, the length of a Newton step
    there: about the root's distance to the exact root, or a 1/m part of it
    next to a root of multiplicity m.

    Raises
    ------
    ValueError
        If a root is left unconverged after MAX_SWEEPS sweeps.
    """
    weights = _weights(q)
    w = _start_points(q)
    newton = np.empty(len(w))
    active = np.arange(len(w))
    with np.errstate(all="ignore"):  # a coincident iterate's non-finite step is dropped
        for _ in range(MAX_SWEEPS):
            active = _aberth_sweep(weights, w, newton, active)
            if len(active) == 0:
                return w, newton
    raise ValueError(f"root finder did not converge for the degree-{len(w)} polynomial "
                     f"in {MAX_SWEEPS} sweeps")


def _newton(weights: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Newton from every start in x at once (:func:`_weights` of the polynomial).

    Each start stops on its own, once its step falls to round-off.
    """
    x = x.copy()
    active = np.arange(len(x))
    for _ in range(60):
        xa = x[active]
        p, g, _ = _scaled_values(weights, xa)
        moving = g != 0
        step = np.zeros_like(xa)
        step[moving] = xa[moving] * p[moving] / g[moving]
        x[active] = xa = xa - step
        active = active[moving & (np.abs(step) > 1e-15 * (1.0 + np.abs(xa)))]
        if len(active) == 0:
            break
    return x


def _clusters(roots: np.ndarray, reach: np.ndarray) -> list[np.ndarray]:
    """Index sets of two or more roots closer to the set's first member than both reaches.

    Roots i and j are close when |roots[i] - roots[j]| < reach[i] + reach[j].
    Sorted by real part, only neighbours that close in real part can be that
    close, so the offsets scanned stop at the widest run of such neighbours,
    usually a few.  Each set then grows from its first member in root order.
    """
    order = np.argsort(roots.real, kind="stable")
    ordered, reach_ordered = roots[order], reach[order]
    close_ordered = np.zeros(len(roots), dtype=bool)
    for offset in range(1, len(roots)):
        gap = ordered.real[offset:] - ordered.real[:-offset]
        if not np.any(gap < 2.0 * np.max(reach)):
            break
        near = (np.abs(ordered[offset:] - ordered[:-offset])
                < reach_ordered[offset:] + reach_ordered[:-offset])
        close_ordered[offset:] |= near
        close_ordered[:-offset] |= near
    close = np.empty_like(close_ordered)
    close[order] = close_ordered
    used = ~close
    clusters = []
    for i in np.flatnonzero(close).tolist():
        if not used[i]:
            members = ~used & (np.abs(roots - roots[i]) < reach + reach[i])
            used |= members
            clusters.append(np.flatnonzero(members))
    return clusters


def _refine_root_clusters(c: np.ndarray, roots: np.ndarray, newton: np.ndarray,
                          tol: float) -> np.ndarray:
    """Polish the multiple and the real roots of sum_m c[m] z^m.

    A cluster of m roots (:func:`_clusters`) is treated as one root of
    multiplicity m and refined by Newton iteration on the (m-1)-th
    derivative, where it is simple: the backward-error gate of the iteration
    leaves a double root with O(sqrt(eps)) errors, too coarse for the
    unit-circle gate.  Each root reaches tol / 2, or four Newton steps
    (newton, :func:`_aberth`) where that is more, up to 50 tol: the
    approximations of an m-fold root lie about m Newton steps from it, at
    most 2 m apart, and this holds them together for m <= 4 however far
    ill-conditioning leaves them.  A root in no cluster within its reach of
    the real axis is real, as its conjugate would be in its cluster; it and
    any cluster centred within tol / 2 of the axis are refined from their
    real part, so they stay real.  Other simple roots are kept as they are.
    Roots of one multiplicity are polished together; where Newton does not
    lower the backward error, or moves further than 100 tol, the start is
    kept.
    """
    reach = np.fmin(np.fmax(4.0 * newton, tol / 2), 50.0 * tol)
    clusters = _clusters(roots, reach)
    clustered = np.zeros(len(roots), dtype=bool)
    for members in clusters:
        clustered[members] = True
    real = ~clustered & (np.abs(roots.imag) < reach)
    clusters += np.flatnonzero(real)[:, None].tolist()
    if not clusters:
        return roots
    mult = np.array([len(members) for members in clusters])
    x0 = np.array([roots[members].mean() for members in clusters])
    x0 = np.where(np.abs(x0.imag) < tol / 2, x0.real, x0)
    poly = np.polynomial.polynomial  # loaded on first use, not at import
    roots = roots.copy()
    for mu in set(mult.tolist()):
        sel = np.flatnonzero(mult == mu)
        weights, start = _weights(poly.polyder(c, mu - 1)), x0[sel]
        polished = _newton(weights, start)
        p, _, bound = _scaled_values(weights, np.concatenate((polished, start)))
        p, n = np.abs(p), len(sel)  # polished first, then start
        worse = (p[:n] * bound[n:] > p[n:] * bound[:n]) | (np.abs(polished - start) > 100 * tol)
        for i, x in zip(sel.tolist(), np.where(worse, start, polished)):
            roots[clusters[i]] = x
    return roots


def _conjugate_closed(w: np.ndarray) -> np.ndarray:
    """The roots w of a real polynomial as a set closed under conjugation.

    If as many roots lie above the real axis as below, the lower ones are
    replaced by the conjugates of the upper ones, both taken in order of
    real part: the same roots up to the round-off of the iteration.
    Otherwise the roots are left as they are.
    """
    upper, lower = np.flatnonzero(w.imag > 0), np.flatnonzero(w.imag < 0)
    if len(upper) == len(lower):
        w = w.copy()
        w[lower[np.argsort(w[lower].real)]] = w[upper[np.argsort(w[upper].real)]].conj()
    return w


def polynomial_roots(c: np.ndarray) -> np.ndarray:
    """All roots of P(z) = sum_m c[m] z^m by the Aberth-Ehrlich iteration.

    Only trailing coefficients that are exactly zero are trimmed: a small
    leading coefficient is genuine and carries roots far from the circle
    (z^400 - 1.1^400 has c_400 / c_0 ~ 3e-17).  The iteration runs on
    P(rho w) with rho = |c_0 / c_d|^(1/d), the geometric mean of the root
    moduli, which balances the coefficients; leading zero coefficients are
    roots at z = 0.  Each root stops once it meets the backward-error gate
    (:func:`_converged`).  Multiple and real roots are then polished on the
    coefficients c themselves (:func:`_refine_root_clusters`): the balancing
    perturbs them by O(|log(c_m / c_0)| eps), which can move a double root
    by ~1e-12.  The roots off the real axis come in exact conjugate pairs
    where the count allows (:func:`_conjugate_closed`).

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
    # Q(w) = P(rho w) / |c_0|, formed in logs so that no power of rho overflows
    log_c = np.log(np.abs(c), out=np.full(d + 1, -np.inf), where=c != 0)
    log_rho = (log_c[0] - log_c[-1]) / d
    q = np.sign(c) * np.exp(log_c - log_c[0] + log_rho * np.arange(d + 1))
    rho = np.exp(log_rho)
    c = np.ldexp(c, -np.frexp(np.max(np.abs(c)))[1])  # exactly, so that m c_m cannot overflow
    w, newton = _aberth(q)
    roots = _refine_root_clusters(c, rho * w, rho * newton, rho * _CLUSTER_TOL)
    return np.concatenate((at_zero, _conjugate_closed(roots)))


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
