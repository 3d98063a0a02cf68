"""Compare the general root path of two source trees over a fixed sweep of real polynomials.

    python tools/root_sweep.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  Each
tree runs ``trigpoly.polynomial_roots`` on every polynomial of the sweep in its
own subprocess (``PYTHONPATH`` set to that tree).  The five families, 7,076
polynomials in all, are drawn from fixed seeds:

- random: 1,500 with standard normal coefficients, degree 1-158;
- pairs: 1,500 from 1-55 prescribed conjugate pairs (moduli 0.5-3, angles
  0.05-pi-0.05) and 0-2 real roots, every other one times (z^2 + 1)^2;
- repeated: 500 with complex roots of multiplicity 2-3 and real roots of
  multiplicity 1-3 among simple ones;
- power: the 3,536 (z - a)^mu e(z), mu = 2..5, a in linspace(0.3, 2.5, 221),
  e in {1, z - 2, z + 1.5, (z - 1.5)^2 + 0.25};
- large: 40 of degree 181-400, random coefficients and prescribed pairs near
  the unit circle times (z^2 + 1)^2.

Per family it prints the root arrays that differ between the trees (bit for
bit, or a raise on one side only) and the ``root_check`` verdicts (min |z| >=
1 - ROOT_TOL) that differ; per family and tree, the root sets not exactly
closed under conjugation, the worst backward error |P(z)| / sum |c_m| |z|^m
in long double in units of d eps, and the raises and RuntimeWarnings.  It
takes under a minute per tree.  Exits 1 if the change returns a set not closed under
conjugation, raises, or leaves a root above the 4 d eps gate; 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
import tempfile
import warnings

import numpy as np

P = np.polynomial.polynomial
GATE = 4.0  # the backward-error gate of polynomial_roots, in units of d eps
ROOT_TOL = 1e-9  # root_check passes when every |z| >= 1 - ROOT_TOL


def _pairs(rng, n, low, high):
    modulus = rng.uniform(low, high, n)
    return modulus * np.exp(1j * rng.uniform(0.05, np.pi - 0.05, n))


def _from_roots(upper, real=()):
    return P.polyfromroots(np.concatenate((upper, upper.conj(), real))).real


def families() -> dict[str, list[np.ndarray]]:
    """The sweep's coefficient arrays, lowest degree first, by family."""
    unit_double = np.array([1.0, 0.0, 2.0, 0.0, 1.0])  # (z^2 + 1)^2
    random, pairs, repeated = [], [], []
    for seed in range(1500):
        rng = np.random.default_rng(seed)
        random.append(rng.standard_normal(rng.integers(1, 159) + 1))
        rng = np.random.default_rng(10_000 + seed)
        c = _from_roots(_pairs(rng, rng.integers(1, 56), 0.5, 3.0),
                        rng.uniform(-3.0, 3.0, rng.integers(0, 3)))
        pairs.append(np.convolve(c, unit_double) if seed % 2 else c)
    for seed in range(500):
        rng = np.random.default_rng(20_000 + seed)
        upper = _pairs(rng, rng.integers(1, 4), 0.5, 3.0)
        real = rng.uniform(-3.0, 3.0, rng.integers(1, 3))
        upper = np.concatenate([np.repeat(upper, rng.integers(2, 4, len(upper))),
                                _pairs(rng, rng.integers(0, 6), 0.5, 3.0)])
        real = np.concatenate([np.repeat(real, rng.integers(1, 4, len(real))),
                               rng.uniform(-3.0, 3.0, rng.integers(0, 4))])
        repeated.append(_from_roots(upper, real))
    extras = ([], [2.0], [-1.5], [1.5 + 0.5j, 1.5 - 0.5j])
    power = [P.polyfromroots([a] * mu + extra).real
             for mu in range(2, 6) for a in np.linspace(0.3, 2.5, 221) for extra in extras]
    large = []
    for seed in range(20):
        rng = np.random.default_rng(30_000 + seed)
        large.append(rng.standard_normal(rng.integers(181, 401) + 1))
        upper = _pairs(rng, rng.integers(89, 199), 1.01, 1.1)
        large.append(np.convolve(_from_roots(upper), unit_double))
    return {"random": random, "pairs": pairs, "repeated": repeated,
            "power": power, "large": large}


def _worker(out_path: str) -> None:
    """Roots of every sweep polynomial (or the raise's message) and the RuntimeWarnings."""
    from cyclicphase.trigpoly import polynomial_roots

    results = {}
    for name, polys in families().items():
        results[name] = rows = []
        for c in polys:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                try:
                    roots = polynomial_roots(c)
                except ValueError as exc:  # LinAlgError included
                    roots = str(exc)
            rows.append((roots, sum(issubclass(w.category, RuntimeWarning) for w in caught)))
    with open(out_path, "wb") as fh:
        pickle.dump(results, fh)


def backward_error(c, z):
    """|P(z)| / sum_m |c_m| |z|^m by Horner in long double, reversed where |z| > 1."""
    c = np.asarray(c, dtype=np.longdouble)
    z = np.asarray(z, dtype=np.clongdouble)
    outside = np.abs(z) > 1
    z = np.where(outside, 1 / z, z)
    value = np.zeros(len(z), dtype=np.clongdouble)
    bound = np.zeros(len(z), dtype=np.longdouble)
    for cm, cm_rev in zip(c[::-1], c):  # P(z) z^-d = sum_m c_m (1/z)^(d-m)
        value = value * z + np.where(outside, cm_rev, cm)
        bound = bound * np.abs(z) + np.abs(np.where(outside, cm_rev, cm))
    return np.abs(value) / bound


def _run_tree(src: str, workdir: str, tag: str) -> dict:
    out_path = os.path.join(workdir, f"{tag}.pkl")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", out_path],
                   env=env, check=True)
    with open(out_path, "rb") as fh:
        return pickle.load(fh)


def _same(a, b) -> bool:
    """Bit-equal roots, or the same message raised on both sides."""
    if isinstance(a, str) or isinstance(b, str):
        return isinstance(a, str) and isinstance(b, str) and a == b
    return np.array_equal(a, b)


def _verdict(roots) -> bool | None:
    """root_check's verdict on the roots, None for a raise."""
    if isinstance(roots, str):
        return None
    return bool(len(roots) == 0 or np.min(np.abs(roots)) >= 1.0 - ROOT_TOL)


def _summary(polys, rows) -> tuple[int, float, int, int]:
    """Unpaired sets, worst backward error in d eps, raises and RuntimeWarnings."""
    unpaired, worst, raises, warns = 0, 0.0, 0, 0
    eps = np.finfo(float).eps
    for c, (roots, n_warn) in zip(polys, rows):
        warns += n_warn
        if isinstance(roots, str):
            raises += 1
            continue
        if not np.array_equal(np.sort_complex(roots), np.sort_complex(roots.conj())):
            unpaired += 1
        d = len(c) - 1
        worst = max(worst, float(np.max(backward_error(c, roots))) / (d * eps))
    return unpaired, worst, raises, warns


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        parent = _run_tree(args.parent_src, workdir, "parent")
        change = _run_tree(args.change_src, workdir, "change")
    failed = False
    print(f"{'family':<10}{'count':>6}{'changed':>9}{'verdicts':>10}   {'tree':<7}"
          f"{'unpaired':>9}{'worst/deps':>12}{'raises':>8}{'warnings':>10}")
    for name, polys in families().items():
        pairs = list(zip(parent[name], change[name]))
        changed = sum(not _same(a[0], b[0]) for a, b in pairs)
        verdicts = sum(_verdict(a[0]) != _verdict(b[0]) for a, b in pairs)
        for tag, rows in (("parent", parent[name]), ("change", change[name])):
            unpaired, worst, raises, warns = _summary(polys, rows)
            head = (f"{name:<10}{len(polys):>6}{changed:>9}{verdicts:>10}" if tag == "parent"
                    else " " * 35)
            print(f"{head}   {tag:<7}{unpaired:>9}{worst:>12.3f}{raises:>8}{warns:>10}")
            if tag == "change":
                failed |= bool(unpaired or raises or worst > GATE)
                for c, (roots, _) in zip(polys, rows):
                    if isinstance(roots, str):
                        print(f"{'':<28}raised at degree {len(c) - 1}: {roots}")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(sys.argv[2])
    else:
        sys.exit(main())
