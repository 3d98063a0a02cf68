"""Trigonometric polynomials on the offset sample grid.

A signal here is a finite series

    phi(s) = sum_n a_n cos(n s) + i sum_n b_n sin(n s),   n = 0..n_max,

with real coefficients (which encodes phi*(s) = phi(-s)).  Multiplying by
e^{i n_max s} turns it into the positive-frequency ("helicity") polynomial
chi(s) = sum_m c_m e^{i m s}, m = 0..2 n_max, whose zero locations decide
whether log(chi/c_0) expands in positive frequencies only.

All sampling happens on the half-sample-offset grid

    s_j = -pi + (j + 1/2) * 2 pi / m,   j = 0..m-1,

which never contains s = +-pi/2 or s = +-pi, so the driven-model amplitude
zeros are never sampled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: absolute tolerance for discarding imaginary residue of extracted coefficients
REALITY_TOL = 1e-10

#: |z| >= 1 - ROOT_TOL is the zero-location gate (boundary case Im t = 0 passes)
ROOT_TOL = 1e-9


def offset_grid(m_samples: int) -> np.ndarray:
    """Return the offset grid s_j = -pi + (j + 1/2) h, h = 2 pi / m_samples.

    m_samples must be a positive multiple of 4; otherwise the grid would
    contain s = +-pi/2 exactly.
    """
    if m_samples <= 0 or m_samples % 4 != 0:
        raise ValueError(
            f"m_samples must be a positive multiple of 4 so the offset grid "
            f"avoids s = +-pi/2; got {m_samples}"
        )
    h = 2.0 * np.pi / m_samples
    return -np.pi + (np.arange(m_samples) + 0.5) * h


def frequencies(m: int) -> np.ndarray:
    """Signed integer frequency of each of m FFT bins, in [-m/2, m/2) (Nyquist: -m/2)."""
    return np.rint(np.fft.fftfreq(m, d=1.0 / m)).astype(int)


def spectrum(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided Fourier coefficients of samples on the offset grid.

    Returns (fhat, n) with values(s_j) = sum_n fhat[n] e^{i n s_j} for signed
    integer frequencies n in [-m/2, m/2).  Exact (to round-off) for content
    band-limited below m/2.  This is the coefficient readout; an operator
    that is diagonal in frequency needs no grid-offset twiddle and is applied
    to a plain FFT instead (see ``hilbert.periodic_hilbert``).
    """
    m = len(values)
    fft = np.fft.fft(values) / m
    n = frequencies(m)
    twiddle = (-1.0) ** n * np.exp(-1j * np.pi * n / m)
    return fft * twiddle, n


def polynomial_values(c, m_samples: int) -> np.ndarray:
    """sum_d c[d] e^{i d s_j} (real c) on the offset grid, by one inverse FFT.

    e^{i d s_j} = (-1)^d e^{i pi d/m} e^{2 pi i d j/m}; as e^{i m s_j} = -1,
    degree d >= m folds exactly into bin d mod m with sign (-1)^(d // m).
    """
    offset_grid(m_samples)  # validates the grid size
    d = np.arange(len(c))
    folded = np.bincount(d % m_samples, (-1.0) ** (d + d // m_samples) * c)
    twiddle = np.exp(1j * np.pi * np.arange(len(folded)) / m_samples)
    return np.fft.ifft(folded * twiddle, m_samples, norm="forward")


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples of a period-2pi function on the offset grid."""

    m_samples: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        offset_grid(self.m_samples)  # validates m_samples
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.m_samples,):
            raise ValueError("values length does not match m_samples")
        if not np.all(np.isfinite(values)):
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_values(cls, values) -> "SampledSignal":
        values = np.asarray(values, dtype=complex)
        return cls(len(values), values)

    @property
    def grid(self) -> np.ndarray:
        return offset_grid(self.m_samples)


@dataclass(frozen=True)
class TrigSeries:
    """Real cosine/sine coefficients a_n, b_n, n = 0..n_max (b_0 = 0)."""

    n_max: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if a.shape != (self.n_max + 1,) or b.shape != (self.n_max + 1,):
            raise ValueError("coefficient arrays must have length n_max + 1")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("coefficients must be finite")
        if b[0] != 0.0:
            raise ValueError("b[0] must be zero (sin(0 t) carries no coefficient)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


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

    @property
    def n_max(self) -> int:
        return (len(self.c) - 1) // 2

    @cached_property
    def roots(self) -> np.ndarray:
        """Roots of sum_m c_m z^m, found once per series and shared read-only."""
        roots = polynomial_roots(self.c)
        roots.flags.writeable = False
        return roots

    def values(self, m_samples: int) -> np.ndarray:
        """Evaluate sum_m c_m e^{i m s} on the offset grid of m_samples points."""
        return polynomial_values(self.c, m_samples)


def cos_sin_coefficients(values, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Complex a_n, b_n (n = 0..n_max, b_0 = 0) of samples on the offset grid.

    values(s) = sum_n a_n cos(n s) + i sum_n b_n sin(n s) up to n_max, with
    a_n = fhat[n] + fhat[-n] and b_n = fhat[n] - fhat[-n] from one
    :func:`spectrum`.  For values = u + i v with real u and v, Re a_n are the
    cosine coefficients of u and Re b_n the sine coefficients of v, whatever
    the symmetry of u and v.
    """
    fhat, _ = spectrum(values)
    pos = fhat[:n_max + 1]                    # frequencies 0..n_max
    neg = fhat[-np.arange(n_max + 1)]         # frequencies 0, -1, ..., -n_max
    a = pos + neg
    a[0] = fhat[0]
    b = pos - neg
    b[0] = 0.0
    return a, b


def _min_samples(n_max: int) -> int:
    return 4 * n_max + 4


def analyze(signal, n_max: int) -> TrigSeries:
    """Extract a_n, b_n from samples of a trigonometric polynomial.

    Parameters
    ----------
    signal : SampledSignal or array_like
        Samples on the offset grid of a function satisfying phi*(s) = phi(-s).
    n_max : int
        Highest harmonic to extract.  Requires m_samples >= 4 n_max + 4.

    Raises
    ------
    ValueError
        If the grid is too coarse for n_max, or the imaginary residue of an
        extracted coefficient exceeds REALITY_TOL (symmetry violation).
    """
    if not isinstance(signal, SampledSignal):
        signal = SampledSignal.from_values(signal)
    if signal.m_samples < _min_samples(n_max):
        raise ValueError(
            f"m_samples = {signal.m_samples} too small for n_max = {n_max}: "
            f"need at least {_min_samples(n_max)} (aliasing)"
        )
    a, b = cos_sin_coefficients(signal.values, n_max)
    residue = max(np.max(np.abs(a.imag)), np.max(np.abs(b.imag)))
    if residue > REALITY_TOL:
        raise ValueError(
            f"coefficient-reality violation: imaginary residue {residue:.3e} "
            f"exceeds {REALITY_TOL:.0e}; input does not satisfy phi*(s) = phi(-s)"
        )
    return TrigSeries(n_max, a.real.copy(), b.real.copy())


def synthesize(series: TrigSeries, m_samples: int) -> SampledSignal:
    """Evaluate the series on the offset grid."""
    if m_samples < _min_samples(series.n_max):
        raise ValueError(
            f"m_samples = {m_samples} too small for n_max = {series.n_max}"
        )
    ns = np.outer(np.arange(series.n_max + 1), offset_grid(m_samples))
    values = series.a @ np.cos(ns) + 1j * (series.b @ np.sin(ns))
    return SampledSignal(m_samples, values)


def to_helicity(series: TrigSeries) -> HelicitySeries:
    """Convert a_n, b_n to the positive-frequency coefficients c_m.

    c_m = (a_{N-m} - b_{N-m})/2 for m < N, c_N = a_0, and
    c_m = (a_{m-N} + b_{m-N})/2 for m > N.  The result is sign-normalised so
    that c_0 >= 0 and verified against the pointwise synthesis identity
    chi(s) = e^{iNs} phi(s).
    """
    nmax = series.n_max
    a, b = series.a, series.b
    c = np.concatenate((0.5 * (a[:0:-1] - b[:0:-1]), a[:1], 0.5 * (a[1:] + b[1:])))
    if c[0] < 0.0:
        c = -c  # chi/c_0 is unchanged under a global sign flip
        series = TrigSeries(nmax, -series.a, -series.b)
    out = HelicitySeries(c)
    m_check = max(64, _min_samples(nmax))
    direct = np.exp(1j * nmax * offset_grid(m_check)) * synthesize(series, m_check).values
    dev = np.max(np.abs(out.values(m_check) - direct))
    if dev > 1e-10:
        raise ValueError(f"helicity synthesis identity violated: max dev {dev:.3e}")
    return out


def _companion_eigenvalues(coeffs: np.ndarray) -> np.ndarray:
    """Eigenvalues of the real companion matrix of sum_m coeffs[m] z^m (monic-scaled)."""
    d = len(coeffs) - 1
    comp = np.zeros((d, d))
    comp[1:, :-1] = np.eye(d - 1)
    comp[:, -1] = -coeffs[:-1] / coeffs[-1]
    return np.linalg.eigvals(comp).astype(complex)


def _newton(p: np.ndarray, dp: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Newton on p from every start in x at once; each start stops on its own."""
    polyval = np.polynomial.polynomial.polyval
    x = x.copy()
    active = np.arange(len(x))
    for _ in range(60):
        xa = x[active]
        fx, dfx = polyval(xa, p), polyval(xa, dp)
        moving = dfx != 0
        step = np.zeros_like(xa)
        step[moving] = fx[moving] / dfx[moving]
        x[active] = xa = xa - step
        active = active[moving & (np.abs(step) > 1e-15 * (1.0 + np.abs(xa)))]
        if len(active) == 0:
            break
    return x


def _refine_root_clusters(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Polish companion eigenvalues; multiple roots via the derivative chain.

    A cluster of m eigenvalues within 1e-5 is treated as one root of
    multiplicity m and refined by Newton iteration on the (m-1)-th derivative,
    where it is simple.  Raw companion eigenvalues of a double root carry
    O(sqrt(eps)) ~ 1e-8 errors, too coarse for the unit-circle gate.  Clusters
    of one multiplicity are polished together.
    """
    used = np.zeros(len(roots), dtype=bool)
    clusters = []
    for i in range(len(roots)):
        if not used[i]:
            members = ~used & (np.abs(roots - roots[i]) < 1e-5)
            used |= members
            clusters.append(roots[members])
    mult = np.array([len(cl) for cl in clusters])
    x0 = np.array([cl.mean() for cl in clusters])
    poly = np.polynomial.polynomial  # loaded on first use, not at import
    derivs = [poly.polyder(coeffs, j) for j in range(mult.max() + 1)]
    x = np.empty_like(x0)
    for mu in set(mult.tolist()):
        sel = mult == mu
        p, start = derivs[mu - 1], x0[sel]
        polished = _newton(p, derivs[mu], start)
        # keep the eigenvalue cluster mean where refinement did not improve
        worse = ((np.abs(poly.polyval(polished, p)) > np.abs(poly.polyval(start, p)))
                 | (np.abs(polished - start) > 1e-3))
        x[sel] = np.where(worse, start, polished)
    return np.repeat(x, mult)


def polynomial_roots(c: np.ndarray) -> np.ndarray:
    """All roots of P(z) = sum_m c[m] z^m via companion-matrix eigenvalues.

    Only trailing coefficients that are exactly zero are trimmed: a small
    leading coefficient is genuine and carries roots far from the circle
    (z^400 - 1.1^400 has c_400 / c_0 ~ 3e-17).  The eigensolve runs on
    P(rho w) with rho = |c_0 / c_d|^(1/d), the geometric mean of the root
    moduli, which balances the coefficients; leading zero coefficients are
    roots at z = 0.  Clustered eigenvalues are polished to full accuracy.
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
    roots = np.exp(log_rho) * _refine_root_clusters(q, _companion_eigenvalues(q))
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
