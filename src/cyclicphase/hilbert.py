"""Periodic principal-value Hilbert transform and phase/log-modulus reciprocity.

The transform implemented here is

    H[f](s) = P int_{-inf}^{inf} f(s') / (s' - s) ds'

for the 2pi-periodic extension of f, so that

    H[cos(n s)] = -pi sin(n s),   H[sin(n s)] = pi cos(n s),   H[1] = 0.

Folding the whole-line kernel over periods gives the equivalent single-period
form with kernel (1/2) cot((s' - s)/2), which the quadrature method evaluates
on the interleaved half grid so the singular point is never a node.

H is diagonal in frequency and maps an even f to an odd H[f] and the
reverse.  The curves of a cyclic run have that parity exactly on the offset
grid (s_{m-1-j} = -s_j), and such an input is transformed from its first
half at half the FFT length.  They also repeat after pi (chi is a
polynomial in z^2), and such an input holds only the even harmonics: one
period of m/2 samples is transformed, at a quarter of the FFT length, and
written twice.  Such a curve can be held as a ``HalfPeriod``, the first
half of its period, and is then transformed into one with no full-size
array formed.  Any other input is transformed at full length.

For a function chi(s) = sum_{m>=0} c_m e^{ims} with c_0 > 0 whose polynomial
has no zeros inside the unit disk, log(chi/c_0) = sum_{n>0} C_n e^{ins} with
real C_n, so its real and imaginary boundary parts are the conjugate pair

    arg(chi/c_0)     = -(1/pi) H[log|chi/c_0|],
    log|chi/c_0|     = +(1/pi) H[arg(chi/c_0)],

and the cosine coefficients A_n of log|chi/c_0| equal the sine coefficients
B_n of arg(chi/c_0): both are the L_n of log(chi(z)/c_0) = sum_n L_n z^n.
(The reconstruction signs are fixed by the cos/sin pair identities above:
check them on chi = exp(e^{is}), whose log-modulus is cos s and whose phase
is sin s.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .trigpoly import (
    HelicitySeries,
    _check_grid_size,
    cos_sin_coefficients,
    polynomial_values,
)

#: roots within this distance of |z| = 1 are treated as unit-circle zeros
UNIT_ROOT_TOL = 1e-8

#: ceiling on the analysis grid that log_coefficients may choose for a HelicitySeries
MAX_ANALYSIS_GRID = 2 ** 20

#: log_coefficients' contour points per n_max / alpha: an aliased tail r^m <= e^{-36}
CONTOUR_POINTS = 36

#: |A_n - B_n| below this is reported as zero discrepancy (double-precision equality)
EQUALITY_ABS_TOL = 1e-10


def _check_real_finite(samples) -> np.ndarray:
    f = np.asarray(samples, dtype=float)
    if f.ndim != 1:
        raise ValueError("expected a 1-d real array")
    if not np.all(np.isfinite(f)):
        raise ValueError("non-finite input")
    return f


@lru_cache(maxsize=8)
def _quadrature_kernel_fft(m: int) -> np.ndarray:
    """mu_n = -Im rfft(K)_n, n = 0..m/2, of K[d] = h cot(d h / 2) on odd d, 0 on even d.

    K holds the interleaved-grid trapezoid weights of the folded kernel.
    Only the odd entries are built, and libm sees only the first octant,
    x = pi d/m <= pi/4, one tan each: h/tan x there, h tan x on the reflected
    offsets m/2 - d (cot(pi/2 - x) = tan x), and K[m - d] = -K[d] on the
    rest.  The angles are exact, so no rounding of d h / 2 next to pi is
    amplified by cot, and the kernel is antisymmetric bit for bit.
    The kernel is real, so its m/2 + 1 bins n = 0..m/2 carry its whole
    spectrum, and they are all that the rfft in periodic_hilbert multiplies.
    It is odd, so that spectrum is imaginary, -i mu_n, and its conjugate is
    the multiplier i mu_n; the real part is the FFT's round-off and is
    dropped.  Each cache entry is m/2 + 1 float64 bins.
    """
    h, quarter = 2.0 * np.pi / m, m // 4
    tan = np.tan(np.arange(1, quarter + 1, 2) * (np.pi / m))
    n = len(tan)
    kernel = np.zeros(m)
    odd = kernel[1::2]  # odd[j] = K[2j + 1]
    np.divide(h, tan, out=odd[:n])
    np.multiply(tan[:quarter - n][::-1], h, out=odd[n:quarter])
    np.negative(odd[:quarter][::-1], out=odd[quarter:])
    # mu is written over the kernel and copied once the spectrum is freed, so
    # that the cached copy reuses the spectrum's heap: over repeated k = 17
    # runs up to m = 262144 the peak RSS read 0.5 MB lower (glibc malloc)
    # than with the copy taken while the spectrum is held
    mu = np.negative(np.fft.rfft(kernel).imag, out=kernel[:m // 2 + 1])
    return mu.copy()


def _parity(f: np.ndarray) -> float:
    """1.0 if f[j] == f[m-1-j] for every j, -1.0 if f[j] == -f[m-1-j], else 0.0.

    s_{m-1-j} = -s_j on the offset grid, so these are the exactly even and
    odd samples under s -> -s.
    """
    half = len(f) // 2
    head, tail = f[:half], f[:half - 1:-1]
    # the first pair settles all but a zero first sample in O(1)
    if head[0] == tail[0] and np.array_equal(head, tail):
        return 1.0
    if head[0] == -tail[0] and np.array_equal(head, np.negative(tail)):
        return -1.0
    return 0.0


@dataclass(frozen=True)
class HalfPeriod:
    """A real curve on the offset grid of m points, held as the first half of its period.

    The curve is exactly even (parity 1) or odd (parity -1) under s -> -s,
    f[j] == parity f[m-1-j], and repeats after its period of 2 len(head)
    points: [head, parity head reversed], written m / (2 len(head)) times
    (``full``).  The head is m/4 points for a curve that also repeats after
    pi, m a multiple of 8, and m/2 points otherwise; ValueError for any
    other length, a parity other than +-1 or m not a positive multiple of 4.
    ``len`` is m, and an integer index (or an array of them, negative ones
    counted from the end) reads the curve's samples from the head.

    ``periodic_hilbert`` transforms such a value from its head alone and
    returns one, so a chain of transforms holds no full-size array.
    """

    head: np.ndarray
    parity: float
    m: int

    def __post_init__(self):
        _check_grid_size(self.m)
        if self.parity not in (1.0, -1.0):
            raise ValueError(f"parity must be 1 or -1, got {self.parity}")
        if not (2 * len(self.head) == self.m
                or (4 * len(self.head) == self.m and self.m % 8 == 0)):
            raise ValueError(f"a head of {len(self.head)} points is no half-period "
                             f"of {self.m} points")

    @classmethod
    def from_quarter(cls, quarter: np.ndarray, parity: float, m: int) -> "HalfPeriod":
        """The pi-periodic curve [q, parity q~, q, parity q~] of m points.

        q~ is the quarter q reversed.  The period is m/2 points, and q is its
        head when m is a multiple of 8; otherwise the head is the whole
        period, [q, parity q~].
        """
        if m % 8:
            quarter = np.concatenate((quarter, np.multiply(quarter[::-1], parity)))
        return cls(quarter, parity, m)

    def __len__(self) -> int:
        return self.m

    def __getitem__(self, j):
        half = len(self.head)
        p = np.asarray(j) % (2 * half)
        mirrored = p >= half
        values = self.head[np.where(mirrored, 2 * half - 1 - p, p)]
        return np.where(mirrored, np.multiply(values, self.parity), values)

    def read(self, start: int, out: np.ndarray) -> None:
        """Write the samples start, start + 1, ... of the curve into out, in order."""
        half, done = len(self.head), 0
        while done < len(out):
            run, p = divmod(start + done, half)
            n = min(half - p, len(out) - done)
            if run % 2:  # the reversed half: sample half + p is parity head[half - 1 - p]
                np.multiply(self.head[half - p - n:half - p][::-1], self.parity,
                            out=out[done:done + n])
            else:
                out[done:done + n] = self.head[p:p + n]
            done += n

    def full(self) -> np.ndarray:
        """The m samples of the curve."""
        out = np.empty(self.m)
        self.read(0, out)
        return out


def _half_period(f: np.ndarray) -> HalfPeriod | None:
    """f as a HalfPeriod (its head a view of f) if it is exactly even or odd, else None.

    The period is m/2 for an f that repeats after pi, m a multiple of 8; the
    first pair settles all but an f with f[0] == f[m/2] in O(1).
    """
    m, half = len(f), len(f) // 2
    period = half if (m % 8 == 0 and f[0] == f[half]
                      and np.array_equal(f[:half], f[half:])) else m
    parity = _parity(f[:period])
    return HalfPeriod(f[:period // 2], parity, m) if parity else None


def _half_length_hilbert(head: np.ndarray, mu: np.ndarray, parity: float) -> np.ndarray:
    """The head of H[f] from the head of an exactly even (parity 1) or odd (parity -1) f.

    mu holds the multiplier on the bins n = 0..L/2 of one period of L samples,
    L = 2 (len(mu) - 1), and head is the first half of that period, x.  Bin n
    of the rfft of the period is e^{i pi n/L} times a real cosine transform
    (even f) or sine transform (odd f) of x, and H multiplies it by i mu_n:
    the result has the opposite parity, and its half transform is mu_n times
    the input's.  Both are taken with one real FFT of length L/2 (Makhoul,
    IEEE Trans. ASSP 28, 1980).  x is gathered as x_0, x_2, ..., then ...,
    x_3, x_1, the even-indexed part negated for an odd f (a sine transform is
    the cosine transform of (-1)^j x at reversed frequencies).  After the
    twiddle e^{-i pi n/L}, n = 0..L/4, bin n of its rfft holds the transform
    at n in its real part and at L/2 - n in its imaginary part; each is
    scaled by its mu (read reversed for an odd f) and the two parts are
    swapped.  The conjugate twiddle and an irfft give the result's first
    half-period in the gathered order, its odd-indexed part negated for an
    odd result.  That half-period, L/2 points, is returned; the rest of the
    curve is its layout (``HalfPeriod.full``, parity -parity).
    """
    period = 2 * (len(mu) - 1)
    half, quarter = period // 2, period // 4
    v = np.empty(half)
    np.multiply(head[0::2], parity, out=v[:quarter])
    v[quarter:] = head[half - 1:0:-2]
    spectrum = np.fft.rfft(v)
    del v
    # e^{-i pi n/L} for n = width r + c: a row factor times a column factor
    width = int(np.sqrt(quarter)) + 1
    rows = np.exp(-1j * np.pi / period * width * np.arange(quarter // width + 1))
    columns = np.exp(-1j * np.pi / period * np.arange(width))
    twiddle = np.multiply.outer(rows, columns).reshape(-1)[:quarter + 1]
    spectrum *= twiddle
    if parity < 0:
        mu = mu[::-1]
    re = spectrum.real * mu[:quarter + 1]
    np.multiply(spectrum.imag, mu[:quarter - 1:-1], out=spectrum.real)
    spectrum.imag = re
    del re
    spectrum *= np.conjugate(twiddle, out=twiddle)
    del twiddle
    u = np.fft.irfft(spectrum, half)
    del spectrum
    out = np.empty(half)
    out[0::2] = u[:quarter]
    np.multiply(u[:quarter - 1:-1], -parity, out=out[1::2])
    return out


#: rfft bins multiplied by i mu_n at a time on the full-length route
_MULTIPLY_BLOCK = 4096


def periodic_hilbert(samples, method: str = "series",
                     fejer_order: int | None = None):
    """H[f](s_j) for real samples f(s_j) on the offset grid.

    Both methods are one real multiplier i mu_n on the frequencies
    n = 0..m/2 of the real input.  An input that is exactly even or odd
    under s -> -s (f[j] == +-f[m-1-j], as the cyclic curves are) is
    transformed from the first half of its period, with one rfft and one
    irfft of length m/2 (``_half_length_hilbert``).  If it also repeats
    after pi (f[:m/2] == f[m/2:], m a multiple of 8, as the cyclic curves
    do), it holds only the even harmonics 2n: its first m/2 samples are the
    offset grid of m/2 points in t = 2s + pi, and that period is transformed
    with FFTs of length m/4, at the multiplier of harmonic 2n.  Such an
    input may be passed as a :class:`HalfPeriod`, and then the result is the
    HalfPeriod of H[f], opposite parity, with no full-size array formed; an
    array input is wrapped as one (its head a view), transformed the same
    way and the result laid out (``HalfPeriod.full``).  Any other input
    takes an rfft of the m samples, the m/2 + 1 bins multiplied by i mu_n
    (one complex multiplier formed _MULTIPLY_BLOCK bins at a time, so the
    bits are those of the one complex multiply), and an irfft back to m real
    points.  Every method and route forms the one real array mu of the
    period's bins.  The routes differ by round-off only.

    Parameters
    ----------
    samples : array_like or HalfPeriod
        Real samples on the offset grid (length a multiple of 4).
    method : {"series", "quadrature"}
        "series" multiplies frequency n by i pi sign(n), which maps
        cos(ns) -> -pi sin(ns), sin(ns) -> pi cos(ns), constant -> 0; on the
        rfft bins that is mu_n = 0 at n = 0 and at the Nyquist bin, pi
        between.
        "quadrature" evaluates the folded principal-value integral with the
        (1/2) cot((s'-s)/2) kernel on the interleaved offset sub-grid
        (spacing 2h), which places every evaluation point halfway between
        integration nodes; its mu_n is minus the imaginary part of the half
        spectrum of the real, odd kernel (:func:`_quadrature_kernel_fft`),
        whose real part is round-off.  The conjugate of that DFT is
        exactly i pi sign(n) with 0 on the Nyquist bin (Kak, "The discrete
        Hilbert transform", Proc. IEEE 58, 1970), and the Nyquist bin of a
        real input adds nothing to the real output, so the quadrature is the
        series transform plus the round-off of the kernel and its FFT, not
        an independent check of it.  A pi-periodic input takes the kernel of
        m/2 points: the m-point kernel folded over half its period is
        K[d] + K[d + m/2] = 2h cot(d h), the kernel of m/2 points, so this
        is the m-point rule exactly, not an approximation of it.
    fejer_order : int, optional
        Cesaro resummation order for the series path (harmonic n weighted by
        max(0, 1 - n/(order+1))); used near singularities where the raw series
        converges non-uniformly.  ValueError unless it is >= 0.
    """
    held = isinstance(samples, HalfPeriod)
    if held:
        _check_real_finite(samples.head)
        wave, m = samples, samples.m
    else:
        f = _check_real_finite(samples)
        m = len(f)
        _check_grid_size(m)
    if method not in ("series", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "quadrature" and fejer_order is not None:
        raise ValueError("fejer_order applies to the series method only")
    if fejer_order is not None and not fejer_order >= 0:
        raise ValueError(f"fejer_order must be >= 0, got {fejer_order}")
    if not held:
        wave = _half_period(f)
    period = m if wave is None else 2 * len(wave.head)
    if method == "series":
        mu = np.full(period // 2 + 1, np.pi)
        mu[::period // 2] = 0.0
        if fejer_order is not None:
            # bin n of the period is harmonic (m / period) n; no name holds
            # the harmonics through the transform
            mu *= np.maximum(0.0, 1.0 - (m // period) * np.arange(period // 2 + 1)
                             / (fejer_order + 1.0))
    else:
        # circular cross-correlation g_i = sum_j f_j K[(j - i) mod m]; the
        # kernel is built before the spectrum of f is held, which bounds the peak
        mu = _quadrature_kernel_fft(period)
    if wave is not None:
        result = HalfPeriod(_half_length_hilbert(wave.head, mu, wave.parity),
                            -wave.parity, m)
        return result if held else result.full()
    spectrum = np.fft.rfft(f)
    for i in range(0, len(mu), _MULTIPLY_BLOCK):
        spectrum[i:i + _MULTIPLY_BLOCK] *= 1j * mu[i:i + _MULTIPLY_BLOCK]
    # released before the irfft allocates its output, which bounds the peak
    del mu
    return np.fft.irfft(spectrum, m)


def _values(curve) -> np.ndarray:
    """The array that holds the samples of curve: its head for a HalfPeriod."""
    return curve.head if isinstance(curve, HalfPeriod) else curve


def phase_from_modulus(log_modulus, method: str = "series",
                       fejer_order: int | None = None):
    """Reconstruct arg(chi/c_0) from samples of log|chi/c_0|.

    The input mean never reaches the result: the expansion of log(chi/c_0)
    has no constant term, and the transform's multiplier is 0 at n = 0, so
    no centred copy is formed.  The input is never modified: the transform's
    result is negated and divided by pi in place.  A :class:`HalfPeriod`
    input gives a HalfPeriod result, as in :func:`periodic_hilbert`.
    """
    phase = periodic_hilbert(log_modulus, method, fejer_order)
    values = _values(phase)
    np.negative(values, out=values)
    values /= np.pi
    return phase


def modulus_from_phase(phase, method: str = "series",
                       fejer_order: int | None = None):
    """Reconstruct log|chi/c_0| from samples of the unwrapped arg(chi/c_0).

    The input must be of bounded variation over the period: a linear trend
    makes the underlying infinite-range principal-value integral diverge.
    A trend is detected from the endpoint mismatch f[-1] - f[0] and rejected
    above pi (a HalfPeriod reads f[-1] = parity head[0]); remove it before
    calling (the non-cyclic pipeline detrends its phase, which leaves a
    round-off mismatch).  As in :func:`phase_from_modulus`, the input mean
    never reaches the result, the input is never modified and a HalfPeriod
    input gives a HalfPeriod result; the transform's result is divided by
    pi in place.
    """
    f = phase if isinstance(phase, HalfPeriod) else _check_real_finite(phase)
    _check_grid_size(len(f))
    mismatch = float(f[-1] - f[0])
    if abs(mismatch) > np.pi:
        raise ValueError(
            f"phase endpoint mismatch {mismatch:.3f} rad exceeds {np.pi:.3f}: "
            f"linear trend detected; remove it before applying the reciprocal relation"
        )
    modulus = periodic_hilbert(f, method, fejer_order)
    values = _values(modulus)
    values /= np.pi
    return modulus


@dataclass(frozen=True)
class UnwrapResult:
    phase: np.ndarray
    jumps: list  # (index, size) pairs; jump sits between index and index + 1


def unwrap(phase_raw) -> UnwrapResult:
    """One-dimensional phase unwrapping that records its large steps.

    Adjacent differences are wrapped into [-pi, pi) and accumulated (Itoh,
    Appl. Opt. 21, 1982), and every wrapped difference larger than pi/2 in
    magnitude is recorded as a jump, in index order.  Genuine jumps at known
    zeros are not steered here: ``model.evaluate_model`` unwraps a quarter of
    the grid that holds no zero.  An empty input gives an empty phase.

    The result is the one array formed at the input's size: the wrapped
    differences are written into it after a leading 0 and summed there in
    place.  The input is never modified.
    """
    raw = _check_real_finite(phase_raw)
    phase = np.empty_like(raw)
    # [:1], not [0]: an empty input passes through every step
    phase[:1] = 0.0
    # (d + pi) % 2pi - pi, with the remainder taken only where it moves
    # d + pi: in [0, 2pi) np.remainder returns its argument exactly
    d = np.subtract(raw[1:], raw[:-1], out=phase[1:])
    d += np.pi
    wrap = d < 0.0
    wrap |= d >= 2.0 * np.pi
    np.remainder(d, 2.0 * np.pi, out=d, where=wrap)
    d -= np.pi
    jumps = [(j, float(d[j])) for j in
             np.flatnonzero((d > np.pi / 2) | (d < -np.pi / 2)).tolist()]
    np.cumsum(phase, out=phase)
    phase += raw[:1]
    return UnwrapResult(phase, jumps)


@dataclass(frozen=True)
class ConjugateCoefficients:
    """A_n (cosine series of log|chi/c_0|) and B_n (sine series of arg(chi/c_0)).

    Both arrays are indexed 0..n_max; B[0] is a zero placeholder.  A[0] must
    vanish: the log expansion contains only positive frequencies.  grid_size
    is the number of offset-grid points analysed.
    """

    A: np.ndarray
    B: np.ndarray
    grid_size: int

    @property
    def n_max(self) -> int:
        return len(self.A) - 1


def _nearest_off_circle(moduli: np.ndarray) -> float:
    """rho, the smallest root modulus above 1 + UNIT_ROOT_TOL (inf without one)."""
    return np.min(moduli[moduli > 1.0 + UNIT_ROOT_TOL], initial=np.inf)


def _anchor_unwrapped(phase: np.ndarray) -> np.ndarray:
    # remove the global 2 pi k branch ambiguity of the starting sample, in
    # place: every caller passes the fresh phase of an unwrap
    phase -= 2.0 * np.pi * np.round(phase.mean() / (2.0 * np.pi))
    return phase


def _contour(moduli: np.ndarray, n_max: int) -> tuple[float, int]:
    """(ln r, m): the circle |z| = r < 1 and the points log_coefficients reads a series on.

    r = e^{-alpha/n_max}, m the smallest power of two >= CONTOUR_POINTS n_max /
    alpha, alpha = 1, raised where that m would pass MAX_ANALYSIS_GRID (to 9.0
    at n_max = 2^18 - 1).  A zero with r <= |z| < 1 - UNIT_ROOT_TOL raises r to
    (1 + |z|)/2 and m to match.  ValueError, before any allocation, when m or
    4 n_max + 4 is above MAX_ANALYSIS_GRID.
    """
    n = max(n_max, 1)
    m = min(1 << (CONTOUR_POINTS * n - 1).bit_length(), MAX_ANALYSIS_GRID)
    log_r = -max(1.0, CONTOUR_POINTS * n / m) / n
    inside = moduli[(moduli >= np.exp(log_r)) & (moduli < 1.0 - UNIT_ROOT_TOL)]
    if len(inside):
        log_r = np.log1p((np.max(inside) - 1.0) / 2.0)
        m = 1 << int(np.ceil(np.log2(CONTOUR_POINTS / -log_r)))
    if max(m, 4 * n_max + 4) > MAX_ANALYSIS_GRID:
        raise ValueError(f"analysis grid of {max(m, 4 * n_max + 4)} points (n_max {n_max}, r = "
                         f"{np.exp(log_r):.9f}) is above the ceiling {MAX_ANALYSIS_GRID}")
    return float(log_r), m


def log_coefficients(chi, n_max: int, grid_size: int) -> ConjugateCoefficients:
    """Fourier coefficients of the real and imaginary parts of log(chi/c_0).

    ``chi`` is either a :class:`HelicitySeries` or complex samples on the
    offset grid.  The real part (log-modulus) is cosine-analyzed into A_n, the
    imaginary part (unwrapped phase) sine-analyzed into B_n, both from one
    :func:`~cyclicphase.trigpoly.cos_sin_coefficients` of log|w| + i arg w.

    A HelicitySeries is read on the contour |z| = r < 1 of :func:`_contour`,
    not on the unit circle: log(chi/c_0) = sum_n L_n z^n is analytic inside
    every zero, so on |z| = r its cosine and sine coefficients are A_n r^n
    and B_n r^n, and coefficient n is divided by r^n (the Cauchy contour of
    Lyness & Moler, SIAM J. Numer. Anal. 4, 1967; Bornemann, Found. Comput.
    Math. 11, 2011).  The scaled c_d r^d / c_0 are evaluated by one
    :func:`~cyclicphase.trigpoly.polynomial_values` on m points.  With
    r = e^{-alpha/n_max} the zeros on the unit circle sit alpha/n_max off
    the contour, the aliased tail decays like r^m <= e^{-36}, and dividing
    by r^n_max = e^{-alpha} costs at most a factor e^alpha in round-off; r
    and m do not depend on the degree of chi.  The contour is raised to
    enclose every zero inside the unit disk, so such a zero still winds
    arg w and A_n != B_n reports it; a zero within UNIT_ROOT_TOL of the
    circle counts as on it.

    ``grid_size`` is only a lower bound on m for a HelicitySeries, unrelated
    to the grid the series was read from: reciprocity runs pass 4 n_max + 4,
    so their A_n = B_n check runs on the contour's own m, whatever the
    dataset grid; ``coeffs`` passes its ``--grid-size``.  Raw-sample inputs
    are analyzed directly on their own grid, the unit circle, and should be
    zero-free.  A value of chi/c_0 that is exactly 0, on the contour or
    among the samples, is refused (ValueError): its log is undefined.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    _check_grid_size(grid_size)

    if isinstance(chi, HelicitySeries):
        c0 = chi.c[0]
        if c0 <= 0.0:
            raise ValueError(f"c_0 = {c0:.3e} must be positive for the log expansion")
        log_r, m = _contour(np.abs(chi.roots), n_max)
        grid_size = max(grid_size, m)
        w = polynomial_values(chi.c / c0 * np.exp(log_r * np.arange(len(chi.c))), grid_size)
        growth = np.exp(-log_r * np.arange(n_max + 1))  # r^-n
    else:
        if grid_size < 4 * n_max + 4:
            raise ValueError(f"grid_size {grid_size} too small for n_max {n_max}")
        samples = np.asarray(chi, dtype=complex)
        if samples.shape != (grid_size,):
            raise ValueError("sample array length must equal grid_size")
        c0 = samples.mean()
        if abs(c0) == 0.0:
            raise ValueError("c_0 (sample mean) vanishes; log expansion undefined")
        w = samples / c0
        growth = 1.0
    zeros = len(w) - np.count_nonzero(w)
    if zeros:
        raise ValueError(f"chi/c_0 is exactly 0 at {zeros} of the {len(w)} analysis points: "
                         f"its log is undefined there")

    phase = _anchor_unwrapped(unwrap(np.angle(w)).phase)
    a, b = cos_sin_coefficients(np.log(np.abs(w)) + 1j * phase, n_max)
    return ConjugateCoefficients(a.real * growth, b.real * growth, grid_size)


@dataclass(frozen=True)
class EqualityReport:
    """Per-harmonic comparison of A_n against B_n."""

    n: np.ndarray
    A: np.ndarray
    B: np.ndarray
    abs_diff: np.ndarray
    max_relative: float
    a0: float


def coefficient_equality_check(coeffs: ConjugateCoefficients) -> EqualityReport:
    """Relative discrepancy |A_n - B_n| / max(|A_n|, 1e-12) for n = 1..n_max.

    Differences at or below ``EQUALITY_ABS_TOL`` count as equal (zero discrepancy):
    they are double-precision round-off, and dividing them by the floor would
    report noise where both coefficients vanish.
    """
    n = np.arange(1, coeffs.n_max + 1)
    a = coeffs.A[1:]
    b = coeffs.B[1:]
    diff = np.abs(a - b)
    rel = np.where(diff <= EQUALITY_ABS_TOL, 0.0, diff / np.maximum(np.abs(a), 1e-12))
    return EqualityReport(n, a, b, diff, float(np.max(rel)) if len(rel) else 0.0,
                          float(coeffs.A[0]))
