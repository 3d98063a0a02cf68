"""Periodic principal-value Hilbert transform and phase/log-modulus reciprocity.

The transform implemented here is

    H[f](s) = P int_{-inf}^{inf} f(s') / (s' - s) ds'

for the 2pi-periodic extension of f, so that

    H[cos(n s)] = -pi sin(n s),   H[sin(n s)] = pi cos(n s),   H[1] = 0.

Folding the whole-line kernel over periods gives the equivalent single-period
form with kernel (1/2) cot((s' - s)/2), which the quadrature method evaluates
on the interleaved half grid so the singular point is never a node.

For a function chi(s) = sum_{m>=0} c_m e^{ims} with c_0 > 0 whose polynomial
has no zeros inside the unit disk, log(chi/c_0) = sum_{n>0} C_n e^{ins} with
real C_n, so its real and imaginary boundary parts are the conjugate pair

    arg(chi/c_0)     = -(1/pi) H[log|chi/c_0|],
    log|chi/c_0|     = +(1/pi) H[arg(chi/c_0)],

and the cosine coefficients A_n of log|chi/c_0| equal the sine coefficients
B_n of arg(chi/c_0).  (The reconstruction signs are fixed by the cos/sin pair
identities above: check them on chi = exp(e^{is}), whose log-modulus is cos s
and whose phase is sin s.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .trigpoly import (
    HelicitySeries,
    cos_sin_coefficients,
    from_spectrum,
    offset_grid,
    spectrum,
)

#: roots within this distance of |z| = 1 are treated as unit-circle zeros
UNIT_ROOT_TOL = 1e-8

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
    # K[d] = h cot(d h / 2) on odd offsets d; interleaved-grid trapezoid weights.
    h = 2.0 * np.pi / m
    d = np.arange(m)
    with np.errstate(divide="ignore"):
        kernel = np.where(d % 2 == 1, h / np.tan(d * h / 2.0), 0.0)
    kernel[0] = 0.0
    return np.conj(np.fft.fft(kernel))


def periodic_hilbert(samples, method: str = "series",
                     fejer_order: int | None = None) -> np.ndarray:
    """H[f](s_j) for real samples f(s_j) on the offset grid.

    Parameters
    ----------
    samples : array_like
        Real samples on the offset grid (length a multiple of 4).
    method : {"series", "quadrature"}
        "series" Fourier-analyzes and maps cos(ns) -> -pi sin(ns),
        sin(ns) -> pi cos(ns), constant -> 0.  "quadrature" evaluates the
        folded principal-value integral with the (1/2) cot((s'-s)/2) kernel on
        the interleaved offset sub-grid (spacing 2h), which places every
        evaluation point halfway between integration nodes.
    fejer_order : int, optional
        Cesaro resummation order for the series path (harmonic n weighted by
        max(0, 1 - n/(order+1))); used near singularities where the raw series
        converges non-uniformly.
    """
    f = _check_real_finite(samples)
    m = len(f)
    offset_grid(m)  # validates the grid size
    if method == "series":
        fhat, n = spectrum(f)
        mult = 1j * np.pi * np.sign(n)
        if fejer_order is not None:
            mult = mult * np.maximum(0.0, 1.0 - np.abs(n) / (fejer_order + 1.0))
        return from_spectrum(fhat * mult, n).real
    if method == "quadrature":
        if fejer_order is not None:
            raise ValueError("fejer_order applies to the series method only")
        # circular cross-correlation g_i = sum_j f_j K[(j - i) mod m]
        return np.fft.ifft(np.fft.fft(f) * _quadrature_kernel_fft(m)).real
    raise ValueError(f"unknown method {method!r}")


def phase_from_modulus(log_modulus, method: str = "series",
                       fejer_order: int | None = None,
                       mean_bound: float | None = None,
                       return_mean: bool = False):
    """Reconstruct arg(chi/c_0) from samples of log|chi/c_0|.

    The input mean is subtracted first (the expansion of log(chi/c_0) has no
    constant term); the subtracted value estimates any residual log c_0
    normalisation error and is returned when ``return_mean`` is set.

    Raises
    ------
    ValueError
        If ``mean_bound`` is given and the subtracted mean exceeds it
        (signals an inconsistent c_0 normalisation).
    """
    f = _check_real_finite(log_modulus)
    mean = float(f.mean())
    if mean_bound is not None and abs(mean) > mean_bound:
        raise ValueError(
            f"log-modulus mean {mean:.3e} exceeds bound {mean_bound:.3e}: "
            f"inconsistent c_0 normalisation"
        )
    phase = -periodic_hilbert(f - mean, method, fejer_order) / np.pi
    return (phase, mean) if return_mean else phase


def modulus_from_phase(phase, method: str = "series",
                       fejer_order: int | None = None,
                       trend_tolerance: float | None = np.pi) -> np.ndarray:
    """Reconstruct log|chi/c_0| from samples of the unwrapped arg(chi/c_0).

    The input must be of bounded variation over the period: a linear trend
    makes the underlying infinite-range principal-value integral diverge.
    Trends are detected from the endpoint mismatch and rejected; pass
    ``trend_tolerance=None`` to proceed anyway (non-cyclic pipelines do, and
    must flag the violation themselves).
    """
    f = _check_real_finite(phase)
    mismatch = float(f[-1] - f[0])
    if trend_tolerance is not None and abs(mismatch) > trend_tolerance:
        raise ValueError(
            f"phase endpoint mismatch {mismatch:.3f} rad exceeds "
            f"{trend_tolerance:.3f}: linear trend detected; remove it before "
            f"applying the reciprocal relation"
        )
    return periodic_hilbert(f - f.mean(), method, fejer_order) / np.pi


@dataclass(frozen=True)
class PhaseModulusPair:
    """Matched zero-mean samples of log|chi/c_0| and unwrapped arg(chi/c_0).

    Construction removes the means and records them: the log-modulus mean
    estimates any residual log c_0 normalisation error, and the true pair has
    no constant terms (A_0 = 0; the phase is a pure sine series).  For
    amplitudes satisfying phi*(s) = phi(-s) the log-modulus is even and the
    phase odd in s, which :meth:`symmetry_residuals` quantifies.
    """

    grid: np.ndarray
    log_modulus: np.ndarray
    phase: np.ndarray
    log_modulus_mean: float
    phase_mean: float

    @classmethod
    def from_samples(cls, grid, log_modulus, phase) -> "PhaseModulusPair":
        grid = np.asarray(grid, dtype=float)
        lm = _check_real_finite(log_modulus)
        ph = _check_real_finite(phase)
        if not (len(grid) == len(lm) == len(ph)):
            raise ValueError("grid and sample arrays must share one length")
        return cls(grid, lm - lm.mean(), ph - ph.mean(),
                   float(lm.mean()), float(ph.mean()))

    def symmetry_residuals(self) -> tuple[float, float]:
        """(max even-symmetry defect of log-modulus, max odd defect of phase)."""
        return (float(np.max(np.abs(self.log_modulus - self.log_modulus[::-1]))),
                float(np.max(np.abs(self.phase + self.phase[::-1]))))

    def reconstruct_phase(self, method: str = "series",
                          fejer_order: int | None = None) -> np.ndarray:
        return phase_from_modulus(self.log_modulus, method, fejer_order)

    def reconstruct_modulus(self, method: str = "series",
                            fejer_order: int | None = None,
                            trend_tolerance: float | None = np.pi) -> np.ndarray:
        return modulus_from_phase(self.phase, method, fejer_order,
                                  trend_tolerance=trend_tolerance)


@dataclass(frozen=True)
class UnwrapResult:
    phase: np.ndarray
    jumps: list  # (index, size) pairs; jump sits between index and index + 1


def unwrap(phase_raw, jump_tolerance: float = np.pi / 2,
           zeros=None, grid=None) -> UnwrapResult:
    """One-dimensional phase unwrapping with genuine-jump bookkeeping.

    Adjacent differences are wrapped into (-pi, pi] and accumulated.  Where a
    known amplitude zero lies between two samples (``zeros`` as a list of
    (location, multiplicity) pairs, with ``grid``), the boundary value of the
    conjugate phase genuinely jumps by -pi * multiplicity; the difference
    across that interval is steered to the branch nearest the jump and the
    jump is recorded instead of smoothed.  Any remaining difference larger
    than ``jump_tolerance`` is recorded as well.
    """
    raw = _check_real_finite(phase_raw)
    d = np.diff(raw)
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    jumps: list[tuple[int, float]] = []
    if zeros:
        if grid is None:
            raise ValueError("zero locations require the sample grid")
        grid = np.asarray(grid, dtype=float)
        for loc, mult in zeros:
            j = int(np.searchsorted(grid, loc)) - 1
            if 0 <= j < len(d):
                target = -np.pi * mult
                d[j] += 2.0 * np.pi * np.round((target - d[j]) / (2.0 * np.pi))
                jumps.append((j, float(d[j])))
    marked = {j for j, _ in jumps}
    for j in np.where(np.abs(d) > jump_tolerance)[0]:
        if int(j) not in marked:
            jumps.append((int(j), float(d[j])))
    jumps.sort()
    phase = raw[0] + np.concatenate(([0.0], np.cumsum(d)))
    return UnwrapResult(phase, jumps)


@dataclass(frozen=True)
class ConjugateCoefficients:
    """A_n (cosine series of log|chi/c_0|) and B_n (sine series of arg(chi/c_0)).

    Both arrays are indexed 0..n_max; B[0] is a zero placeholder.  A[0] must
    vanish: the log expansion contains only positive frequencies.
    """

    A: np.ndarray
    B: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.A) - 1


def _anchor_unwrapped(phase: np.ndarray) -> np.ndarray:
    # remove the global 2 pi k branch ambiguity of the starting sample
    return phase - 2.0 * np.pi * np.round(phase.mean() / (2.0 * np.pi))


def log_coefficients(chi, n_max: int, grid_size: int,
                     unit_tol: float = UNIT_ROOT_TOL) -> ConjugateCoefficients:
    """Fourier coefficients of the real and imaginary parts of log(chi/c_0).

    ``chi`` is either a :class:`HelicitySeries` or complex samples on the
    offset grid.  The real part (log-modulus) is cosine-analyzed into A_n, the
    imaginary part (unwrapped phase) sine-analyzed into B_n, both from one
    :func:`~cyclicphase.trigpoly.cos_sin_coefficients` of log|w| + i arg w.

    For a HelicitySeries input the zeros on the unit circle are handled
    exactly: each unit root e^{i s_r} of multiplicity mu contributes the
    classical conjugate pair log|2 sin((s - s_r)/2)| and the periodised
    sawtooth ((s - s_r) mod 2pi - pi)/2, both with coefficients
    -mu cos(n s_r)/n, while the deflated (zero-free near the circle) factor is
    sampled and analyzed on the grid.  Plain sampling across the log
    singularities would lose ~3 decades of accuracy.  Raw-sample inputs are
    analyzed directly and should be zero-free.
    """
    grid = offset_grid(grid_size)
    if grid_size < 4 * n_max + 4:
        raise ValueError(f"grid_size {grid_size} too small for n_max {n_max}")

    if isinstance(chi, HelicitySeries):
        c0 = chi.c[0]
        if c0 <= 0.0:
            raise ValueError(f"c_0 = {c0:.3e} must be positive for the log expansion")
        roots = chi.roots
        on_circle = roots[np.abs(np.abs(roots) - 1.0) <= unit_tol]
        off_circle = roots[np.abs(np.abs(roots) - 1.0) > unit_tol]
        z = np.exp(1j * grid)
        # deflated factor R(z)/R(0); unit roots divided out, value 1 at z = 0
        w = np.ones(grid_size, dtype=complex)
        for zr in off_circle:
            w *= (z - zr) / (0.0 - zr)
        n = np.arange(1, n_max + 1)
        unit_terms = np.zeros(n_max + 1)
        for zr in on_circle:
            unit_terms[1:] -= np.cos(n * np.angle(zr)) / n
    else:
        samples = np.asarray(chi, dtype=complex)
        if samples.shape != (grid_size,):
            raise ValueError("sample array length must equal grid_size")
        c0 = samples.mean()
        if abs(c0) == 0.0:
            raise ValueError("c_0 (sample mean) vanishes; log expansion undefined")
        w = samples / c0
        unit_terms = 0.0

    phase = _anchor_unwrapped(unwrap(np.angle(w)).phase)
    a, b = cos_sin_coefficients(np.log(np.abs(w)) + 1j * phase, n_max)
    return ConjugateCoefficients(a.real + unit_terms, b.real + unit_terms)


@dataclass(frozen=True)
class EqualityReport:
    """Per-harmonic comparison of A_n against B_n."""

    n: np.ndarray
    A: np.ndarray
    B: np.ndarray
    abs_diff: np.ndarray
    relative: np.ndarray
    max_relative: float
    a0: float


def coefficient_equality_check(coeffs: ConjugateCoefficients,
                               n_max: int | None = None,
                               floor: float = 1e-12,
                               abs_tol: float = EQUALITY_ABS_TOL) -> EqualityReport:
    """Relative discrepancy |A_n - B_n| / max(|A_n|, floor) for n = 1..n_max.

    Differences at or below ``abs_tol`` count as equal (zero discrepancy):
    they are double-precision round-off, and dividing them by the floor would
    report noise where both coefficients vanish.
    """
    if n_max is None:
        n_max = coeffs.n_max
    if n_max > coeffs.n_max:
        raise ValueError("n_max exceeds the computed coefficient range")
    n = np.arange(1, n_max + 1)
    a = coeffs.A[1:n_max + 1]
    b = coeffs.B[1:n_max + 1]
    diff = np.abs(a - b)
    rel = np.where(diff <= abs_tol, 0.0, diff / np.maximum(np.abs(a), floor))
    return EqualityReport(n, a, b, diff, rel, float(np.max(rel)) if len(rel) else 0.0,
                          float(coeffs.A[0]))
