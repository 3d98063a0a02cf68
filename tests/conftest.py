"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to check:

* ``pv_hilbert_oracle``   brute-force principal-value quadrature on a dense
  grid with symmetric singularity exclusion (no FFT, no interleaving trick).
* ``companion_roots``   polynomial roots as eigenvalues of the companion
  matrix, multiple roots polished by Newton on a derivative (no balancing,
  no backward-error gate, no code from the package).  The package's general
  path is an eigensolve too, so its tests add mpmath's Durand-Kerner roots
  where the degree is small.
* ``conjugate_pair_from_roots``   boundary log-modulus and conjugate phase of
  a helicity polynomial assembled factor by factor from its ``companion_roots``
  (no Hilbert transform, no phase unwrapping).
* ``log_series_coefficients_newton``   the positive-frequency log expansion
  coefficients C_n = A_n = B_n from Newton power-sum identities applied to the
  reversed polynomial (no sampling, no Fourier analysis).
* ``rk4_reference``   classic RK4 for the driven two-level equation, one
  right-hand-side evaluation at a time (no precomputed step matrices).
* ``eliminated_partner``   the upper doublet component eliminated from row two
  of the Schrodinger equation through a division by sin 2s, with phi1 and its
  derivative written out here (no closed-form partner, no package code).
* ``_doublet_factors``, ``analytic_state_pair``, ``state_pair_derivative``,
  ``phi1_values`` and ``solution_residual_oracle``   the closed-form doublet,
  its derivative and phi1 as numpy complex expressions broadcast over a slot
  axis, and the Schrodinger residual from them (no real-arithmetic kernel);
  the package's values must equal these byte for byte.
* ``phi1_grid_oracle``   phi1 of an integer-k drive at exact offset-grid
  points s_j = -pi + pi (2j + 1)/m, in 40-digit mpmath (no libm, no roots of
  unity, no package code).
* ``helicity_series_oracle``   the helicity coefficients of an integer-k
  drive as the 40-digit DFT of those 40-digit samples on the 4N + 4 grid (no
  closed form, no FFT, no package code).
* ``log_series_oracle``   the coefficients of log(c(z)/c_0) as a power series,
  by the recursion n L_n = n p_n - sum_j j L_j p_{n-j} in 40-digit mpmath (no
  roots, no deflation, no sampling).
* ``grid_phi1``   phi1 on the whole offset grid of a cyclic drive, laid out
  from the package's first quarter by phi1(-s) = conj phi1(s) and
  phi1(s + pi) = -phi1(s).
* ``chi_curves``   the direct curves of a cyclic drive read through
  chi = e^{iNs} phi1 itself: chi/c_0 formed on the whole grid, then its angle,
  unwrapped here with the -2 pi jumps at the drive zeros steered in, and its
  log-modulus (no shortcut through arg phi1 + Ns or |phi1|/c_0, no package
  unwrap).
* ``frequencies``   the signed integer frequency of each FFT bin, from
  ``np.fft.fftfreq`` (for the oracles that build multipliers bin by bin).
* ``csv_oracle`` / ``json_oracle``   the dataset bytes written cell by cell:
  one ``f"{x:.17g}"`` per CSV cell, and ``json.dumps(..., indent=2)`` of the
  ``columns``/``rows`` payload (no row template, no token renaming).
"""

import json

import mpmath
import numpy as np
import pytest

from cyclicphase import model
from cyclicphase.model import DRIVE_ZEROS, ModelParams
from cyclicphase.trigpoly import offset_grid


def pv_hilbert_oracle(f, s0, m_dense=200_001):
    """P int f(s') (1/2) cot((s'-s0)/2) ds' by symmetric-exclusion midpoint rule.

    ``f`` is a callable; the dense grid is chosen so that s0 falls exactly
    between two nodes, which realises the symmetric principal-value limit.
    """
    h = 2.0 * np.pi / m_dense
    sp = s0 + h / 2 + h * np.arange(m_dense)  # nodes straddle s0 symmetrically
    kernel = 0.5 / np.tan((sp - s0) / 2.0)
    return float(np.sum(f(sp) * kernel) * h)


def companion_roots(c):
    """Roots of sum_m c[m] z^m (c[0], c[-1] nonzero) from the companion matrix.

    The eigenvalues are polished by Newton iteration: a group of mu
    eigenvalues within 1e-5 of its first member is one root of multiplicity
    mu, refined on the (mu-1)-th derivative, where it is simple; eigenvalues
    of a double root carry O(sqrt(eps)) errors.  A polish that does not lower
    the residual, or that overflows, keeps the eigenvalue (group mean).
    """
    c = np.asarray(c, dtype=float)
    poly = np.polynomial.polynomial
    d = len(c) - 1
    comp = np.zeros((d, d))
    comp[1:, :-1] = np.eye(d - 1)
    comp[:, -1] = -c[:-1] / c[-1]
    eig = np.linalg.eigvals(comp).astype(complex)
    roots = np.empty(d, dtype=complex)
    left = np.ones(d, dtype=bool)
    while left.any():
        group = left & (np.abs(eig - eig[np.argmax(left)]) < 1e-5)
        left &= ~group
        p = poly.polyder(c, np.count_nonzero(group) - 1)
        dp = poly.polyder(p)
        x = start = eig[group].mean()
        with np.errstate(all="ignore"):  # Horner overflows far out; such a polish is dropped
            for _ in range(50):
                step = poly.polyval(x, p) / poly.polyval(x, dp)
                if not np.isfinite(step):
                    break
                x -= step
                if abs(step) <= 1e-15 * (1.0 + abs(x)):
                    break
            better = abs(poly.polyval(x, p)) <= abs(poly.polyval(start, p))
        roots[group] = x if better and abs(x - start) < 1e-3 else start
    return roots


def conjugate_pair_from_roots(c, s, unit_tol=1e-8):
    """(log|chi/c0|, conjugate phase) on the grid, from the root factorisation."""
    roots = companion_roots(c)
    z = np.exp(1j * np.asarray(s))
    log_mod = np.zeros(len(s))
    phase = np.zeros(len(s))
    for zr in roots:
        if abs(abs(zr) - 1.0) <= unit_tol:
            u = np.mod(s - np.angle(zr), 2.0 * np.pi)
            log_mod += np.log(2.0 * np.abs(np.sin(u / 2.0)))
            phase += (u - np.pi) / 2.0
        elif abs(zr) > 1.0:
            w = np.log(1.0 - z / zr)
            log_mod += w.real
            phase += w.imag
        else:
            raise ValueError("oracle requires all zeros on or outside the unit circle")
    return log_mod, phase


def log_series_coefficients_newton(c, n_max):
    """C_n of log(chi/c_0) = sum_{n>0} C_n e^{ins} via Newton power sums.

    The inverse roots 1/z_r are the roots of the reversed monic polynomial
    w^d + (c_1/c_0) w^{d-1} + ... + c_d/c_0; their power sums p_n obey
    p_n + sum_{i<n} a_i p_{n-i} + n a_n = 0 (a_i = 0 beyond the degree), and
    C_n = -p_n / n.
    """
    c = np.asarray(c, dtype=float)
    if c[0] == 0.0:
        raise ValueError("c_0 must not vanish")
    a = c / c[0]
    d = len(c) - 1
    p = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        acc = -n * (a[n] if n <= d else 0.0)
        for i in range(1, n):
            acc -= (a[i] if i <= d else 0.0) * p[n - i]
        p[n] = acc
    out = np.zeros(n_max + 1)
    out[1:] = -p[1:] / np.arange(1, n_max + 1)
    return out


def rk4_reference(g, psi, s0, s1, nsteps, freeze_s=None):
    """(states, norm drift) of nsteps classic RK4 steps of dPsi/ds = -2i H(2s) Psi."""
    psi = np.asarray(psi, dtype=complex)
    h = (s1 - s0) / nsteps

    def rhs(s, y):
        se = 2.0 * (freeze_s if freeze_s is not None else s)
        c, sn = np.cos(se), np.sin(se)
        return -1j * g * np.array([-c * y[0] + sn * y[1], sn * y[0] + c * y[1]])

    states = np.empty((nsteps + 1, 2), dtype=complex)
    states[0] = psi
    s = s0
    for i in range(nsteps):
        k1 = rhs(s, psi)
        k2 = rhs(s + h / 2, psi + (h / 2) * k1)
        k3 = rhs(s + h / 2, psi + (h / 2) * k2)
        k4 = rhs(s + h, psi + h * k3)
        psi = psi + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        s = s0 + (i + 1) * h
        states[i + 1] = psi
    drift = float(np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)))
    return states, drift


def eliminated_partner(g, s):
    """(i dphi1/dt - H22 phi1) / H21 with d/dt = (1/2) d/ds; valid off sin 2s = 0."""
    k = 0.5 * np.sqrt(g * g + 1.0)
    c2k, s2k, c, sn = np.cos(2 * k * s), np.sin(2 * k * s), np.cos(s), np.sin(s)
    phi1 = c2k * c + s2k * sn / (2 * k) - 1j * (g / (2 * k)) * s2k * c
    dphi1 = ((1 / (2 * k) - 2 * k) * s2k * c
             - 1j * g * (c2k * c - s2k * sn / (2 * k)))
    return (0.5j * dphi1 - 0.5 * g * np.cos(2 * s) * phi1) / (0.5 * g * np.sin(2 * s))


def phi1_values(params: ModelParams, s) -> np.ndarray:
    """The closed-form amplitude (dynamic phase removed) at time s = omega t / 2."""
    s = np.asarray(s, dtype=float)
    k, g = params.k, params.g
    two_ks, cos_s = 2 * k * s, np.cos(s)
    sin_2ks = np.sin(two_ks)
    return (np.cos(two_ks) * cos_s
            + sin_2ks * np.sin(s) / (2 * k)
            - 1j * (g / (2 * k)) * sin_2ks * cos_s)


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


def solution_residual_oracle(params: ModelParams, m_samples: int) -> float:
    """The largest |(i/2) dPsi/ds - H(2s) Psi| over the offset grid and both rows."""
    grid = offset_grid(m_samples)
    psi = analytic_state_pair(params, grid)
    h_diag, h_off = 0.5 * params.g * np.cos(2 * grid), 0.5 * params.g * np.sin(2 * grid)
    h_psi = np.stack([-h_diag * psi[:, 0] + h_off * psi[:, 1],
                      h_off * psi[:, 0] + h_diag * psi[:, 1]], axis=-1)
    residual = np.abs(0.5j * state_pair_derivative(params, grid) - h_psi)
    return float(np.max(residual))


def _phi1_40_digit(k, g, big_k: int, s):
    """phi1 at s in the working precision, K = big_k in the angles."""
    c2, s2 = mpmath.cos(2 * big_k * s), mpmath.sin(2 * big_k * s)
    c, sn = mpmath.cos(s), mpmath.sin(s)
    return c2 * c + s2 * sn / (2 * k) - 1j * (g / (2 * k)) * s2 * c


def phi1_grid_oracle(params: ModelParams, m: int, indices) -> np.ndarray:
    """phi1 at the exact offset-grid points s_j = -pi + pi (2j + 1)/m, j in indices.

    cos(2Ks) cos(s) + sin(2Ks) sin(s)/(2k) - i (g/2k) sin(2Ks) cos(s) with
    K = round(k), the integer that makes the drive cyclic, and the double
    values of k and g; evaluated in 40-digit arithmetic and rounded once.
    """
    with mpmath.workdps(40):
        k, g = mpmath.mpf(params.k), mpmath.mpf(params.g)
        return np.array([complex(_phi1_40_digit(k, g, round(params.k),
                                                mpmath.pi * (2 * int(j) + 1 - m) / m))
                         for j in indices])


def helicity_series_oracle(params: ModelParams) -> np.ndarray:
    """c_m, m = 0..2N, of chi = e^{iNs} phi1 for an integer-k drive, complex.

    The DFT c_m = fhat[m - N] = (1/M) sum_j phi1(s_j) e^{-i (m - N) s_j} of
    ``phi1_grid_oracle``'s samples on the M = 4N + 4 offset grid, which
    resolves degree N; samples, powers and sums all in 40-digit arithmetic,
    rounded once at the end.
    """
    n = params.n_harmonic
    m = 4 * n + 4
    with mpmath.workdps(40):
        k, g = mpmath.mpf(params.k), mpmath.mpf(params.g)
        c = [mpmath.mpc(0)] * (2 * n + 1)
        for j in range(m):
            s = mpmath.pi * (2 * j + 1 - m) / m
            term = _phi1_40_digit(k, g, round(params.k), s) * mpmath.expj(n * s) / m
            step = mpmath.expj(-s)
            for i in range(2 * n + 1):
                c[i] += term
                term *= step
        return np.array([complex(x) for x in c])


def log_series_oracle(c, n_max: int) -> np.ndarray:
    """L_n, n = 0..n_max, of log(c(z)/c_0) = sum_n L_n z^n, in 40-digit arithmetic.

    With p = c/c_0 - 1, d/dz log(1 + p) = p'/(1 + p) gives
    n L_n = n p_n - sum_{j=1}^{n-1} j L_j p_{n-j}.  For a polynomial with no
    zeros inside the unit disk these are the A_n = B_n of the log expansion,
    the zeros on the circle included.
    """
    with mpmath.workdps(40):
        p = [mpmath.mpf(float(x)) / mpmath.mpf(float(c[0])) for x in c[:n_max + 1]]
        p += [mpmath.mpf(0)] * (n_max + 1 - len(p))
        terms = [(i, x) for i, x in enumerate(p) if i > 0 and x != 0]
        log = [mpmath.mpf(0)] * (n_max + 1)
        for n in range(1, n_max + 1):
            acc = n * p[n]
            for i, x in terms:
                if i >= n:
                    break
                acc -= (n - i) * log[n - i] * x
            log[n] = acc / n
        return np.array([float(x) for x in log])


def grid_phi1(params: ModelParams, m: int) -> np.ndarray:
    """phi1 on the whole offset grid of a cyclic drive, from ``model._grid_phi1``.

    The package forms the first quarter q only.  s_{m/2-1-j} = -pi - s_j and
    s_{j+m/2} = s_j + pi, so phi1(-s) = conj phi1(s) and
    phi1(s + pi) = -phi1(s) give [q, -conj q~, -q, conj q~], q~ the quarter
    reversed.
    """
    q = model._grid_phi1(params, m)
    half = np.concatenate((q, -np.conj(q[::-1])))
    return np.concatenate((half, -half))


def chi_curves(params: ModelParams, grid, phi1, c0):
    """(log|chi/c_0|, phase_chi) of a cyclic drive from chi itself.

    chi = e^{iNs} phi1 and w = chi/c_0 are formed on the whole grid.  Each
    difference of arg w is wrapped into [-pi, pi), the difference across
    each drive zero of multiplicity mu (s = +-pi/2, mu = 2) is moved onto
    the 2 pi branch nearest -pi mu, and the sum is anchored to the 2 pi
    branch nearest its mean.
    """
    w = np.exp(1j * params.n_harmonic * grid) * phi1 / c0
    raw = np.angle(w)
    d = (np.diff(raw) + np.pi) % (2.0 * np.pi) - np.pi
    for loc, mult in DRIVE_ZEROS:
        j = np.searchsorted(grid, loc) - 1
        d[j] += 2.0 * np.pi * np.round((-np.pi * mult - d[j]) / (2.0 * np.pi))
    phase = raw[0] + np.concatenate(([0.0], np.cumsum(d)))
    phase -= 2.0 * np.pi * np.round(phase.mean() / (2.0 * np.pi))
    return np.log(np.abs(w)), phase


def frequencies(m: int) -> np.ndarray:
    """Signed integer frequency of each of m FFT bins, in [-m/2, m/2) (Nyquist: -m/2)."""
    return np.rint(np.fft.fftfreq(m, d=1.0 / m)).astype(int)


def rows_oracle(table):
    """Iterate the rows as tuples of Python floats (one conversion per column)."""
    with np.errstate(invalid="ignore"):  # a float32 signalling NaN widens to a quiet one
        columns = [np.asarray(table.data[c], dtype=float).tolist() for c in table.columns]
    return zip(*columns)


def csv_oracle(table):
    """A header line, then one row per line with every cell as %.17g."""
    lines = [",".join(table.columns)]
    lines.extend(",".join(f"{x:.17g}" for x in row) for row in rows_oracle(table))
    return "\n".join(lines) + "\n"


def json_oracle(table):
    """The columns/rows JSON dataset, pretty-printed by the json module."""
    payload = {"columns": list(table.columns), "rows": list(rows_oracle(table))}
    return json.dumps(payload, indent=2) + "\n"


def itoh_unwrap(raw):
    d = np.diff(raw)
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return raw[0] + np.concatenate(([0.0], np.cumsum(d)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def grid_4096():
    return offset_grid(4096)
