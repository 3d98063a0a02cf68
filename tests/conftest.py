"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to check:

* ``pv_hilbert_oracle``   brute-force principal-value quadrature on a dense
  grid with symmetric singularity exclusion (no FFT, no interleaving trick).
* ``companion_roots``   polynomial roots as eigenvalues of the companion
  matrix, multiple roots polished by Newton on a derivative (no Aberth
  iteration, no balancing, no code from the package).
* ``conjugate_pair_from_roots``   boundary log-modulus and conjugate phase of
  a helicity polynomial assembled factor by factor from its ``companion_roots``
  (no Hilbert transform, no phase unwrapping).
* ``log_series_coefficients_newton``   the positive-frequency log expansion
  coefficients C_n = A_n = B_n from Newton power-sum identities applied to the
  reversed polynomial (no sampling, no Fourier analysis).
* ``rk4_reference``   classic RK4 for the driven two-level equation, one
  right-hand-side evaluation at a time (no precomputed step matrices).
* ``csv_oracle`` / ``json_oracle``   the dataset bytes written cell by cell:
  one ``f"{x:.17g}"`` per CSV cell, and ``json.dumps(..., indent=2)`` of the
  ``columns``/``rows`` payload (no row template, no token renaming).
"""

import json

import numpy as np
import pytest

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


def rows_oracle(table):
    """Iterate the rows as tuples of Python floats (one conversion per column)."""
    return zip(*(np.asarray(table.data[c], dtype=float).tolist() for c in table.columns))


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
