"""Run a fixed list of CLI commands against two source trees and diff what they produce.

    python tools/diff_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  Each
command runs as ``python -m cyclicphase.cli ...`` in its own subprocess, with
``PYTHONPATH`` set to one tree and ``--out`` files going to a fresh temporary
directory.  The exit code, stdout, stderr (the temporary directory replaced by
``$OUT``) and every written file are compared.

A command that wrote files then rewrites them: a decoy tail is appended to
each file of its first run, and it runs a second time into the same
directory.  That run's exit code and files are compared with the first run's
of the same tree, which a tail left behind or a failed rewrite breaks, and
with the parent's second run.  Prints one line per command and exits 1 if
anything differs, 0 if every command matched.

A difference is sized as well as shown.  For a dataset file (CSV, or JSON
with ``columns`` and ``rows``) the line gives the largest |change| of each
column.  For a JSON report file, and for the JSON documents in stdout, it
gives the largest relative change of each float field and flags every other
field (count, boolean, string, null) that changed.  Text outside the JSON
documents of a stream is shown as a unified diff when it differs.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

#: the benchmark's commands (harmonic-scan with its seed-0 k values), then
#: three more that write CSV from coeffs, sweep and an integer-k reciprocity
#: run, the Fejer-resummed and the non-cyclic quadrature reconstructions, and
#: the large JSON datasets of fig1 (32768 rows) and of coeffs, two
#: non-cyclic verify runs, on a coarse grid and at large k, and the k = 400
#: root pass (reciprocity and coeffs), verify runs whose RK4 steps scale
#: with g (k = 50, 100, 200.3 and 1000, whose 2,657,610 steps passed the
#: old 1e6-step ceiling), one at an odd step count and one of a single step;
#: then the parser's help and usage errors, a verify whose RK4 grid
#: passes through s = 0, and a grid below k = 17's 4N + 4 = 144 points:
#: reciprocity and berry refuse it (aliasing), coeffs takes its closed-form
#: series all the same; last, two verify runs whose step span/steps
#: divides the span only up to rounding (91 steps, and 1e6 steps at
#: k = 1000 on a 36-point grid, its default until the ceiling was raised;
#: its default 2,657,610 divides exactly), and a non-cyclic reciprocity run
#: at half-integer k;
#: then the edges of the exact-root grid path of a cyclic drive: m/4 odd and
#: m no multiple of 512 (k = 3 on 4100 points), m = 4N + 4 (k = 1 on 16), and
#: a cyclic k that is not an integer in floating point, whose angles take
#: round(k); then a non-cyclic run on a grid so coarse (m < 4k) that arg phi1
#: aliases in the unwrap unless the N_eff s ramp demodulates it; and at the
#: end the Berry phase on m = 4N + 4 = 16, the smallest grid on which its
#: four samples (indices 11, 4, 10 and 5) are read, and a verify at k = 3000,
#: whose note line (rho, the nearest root off the unit circle; its min |z|
#: reads 1 for every integer k) sizes a change to the large-k roots; last, two
#: k = 17 runs on 65536 points that write their datasets, the only ones above
#: 32768 rows, the second the only cyclic quadrature dataset (JSON); and two
#: large-k reads of A_n = B_n, whose roots lie 1.7e-5 and 5e-4 off the unit
#: circle (coeffs at k = 30000, reciprocity at k = 1000); last, the only run
#: of the quadrature multiplier on the half-length transform of a grid with
#: m/4 odd (k = 3 on 4100 points); and at the end three exclusion half-widths
#: other than the default: 0.3, 1.5 (which keeps only short runs at s = 0 and
#: at both grid ends) and a non-cyclic 0.01 that writes its CSV; last, the
#: pi-period route on the smallest grid of k = 17, m = 4N + 4 = 144, whose
#: first quarter holds N + 1 = 36 points (Fejer-resummed series, and the
#: quadrature as a JSON dataset), and the Berry phase at k = 1000 on 16384
#: points, whose four samples are copies of the first quarter; last, the
#: Fejer-resummed series of non-cyclic fig3, weighted on the bins of a
#: period of m points (heads of m/2 points); last, the
#: RK4 cross-check past the old 1e6-step ceiling (k = 10000 at its default
#: 42,120,284 steps), the 1e6 steps on 36 points named above, the RK4
#: cross-check on either side of the step count up to which verify compares
#: every state (4096 and 4097 steps at k = 17), and at the 1e12-step ceiling
#: (fig2); last, the runs that write no dataset on a grid with m/4 odd
#: (k = 3 on 4100 points), whose half-period heads are m/2 points: the
#: reciprocity report with each method and with Fejer weights, a sweep with
#: a cyclic k on each side of the adiabatic threshold, and the Berry phase;
#: last, a cyclic k within CYCLIC_TOL of 1 that is not 1, whose series and
#: roots take round(k) (coeffs, and verify with its root note); last, two
#: non-cyclic datasets, on a grid with m/4 odd (k = 16.59 on 4100 points)
#: and on a large grid (k = 64.59 on 65536 points, Fejer-resummed, JSON);
#: last, the refusals of a k above the harmonic ceiling by the commands that
#: sample the series on their grid (reciprocity, berry, sweep), and of a k
#: whose g = sqrt(4k^2 - 1) overflows (reciprocity, and sweep after a valid k);
#: last, sweep's refusals of a later k above the ceiling and of a later k whose
#: 4N + 4 points exceed the grid, and the ceiling line of a 154-digit N
COMMANDS = (
    ("reciprocity", "--preset", "fig1", "--out", "{out}/fig1"),
    ("reciprocity", "--preset", "fig2", "--format", "json", "--out", "{out}/fig2"),
    ("reciprocity", "--preset", "fig3", "--out", "{out}/fig3"),
    ("coeffs", "--preset", "fig2", "--n-max", "200", "--out", "{out}/coeffs-fig2"),
    ("sweep", "--k-values", "32,53,61,93", "--out", "{out}/sweep.csv"),
    ("berry", "--k", "100"),
    ("verify", "--preset", "fig1"),
    ("verify", "--preset", "fig2"),
    ("verify", "--preset", "fig3"),
    *(("reciprocity", "--k", "17", "--grid-size", str(m), "--method", method)
      for m in (4096, 65536, 262144) for method in ("series", "quadrature")),
    ("coeffs", "--k", "50", "--out", "{out}/coeffs-k50"),
    ("sweep", "--k-values", "1,2,3,16.59,17", "--out", "{out}/sweep-k.csv"),
    ("reciprocity", "--k", "100", "--out", "{out}/k100"),
    ("reciprocity", "--k", "17", "--grid-size", "4096", "--fejer", "--out", "{out}/k17-fejer"),
    ("reciprocity", "--preset", "fig3", "--grid-size", "4096", "--method", "quadrature",
     "--format", "json", "--out", "{out}/fig3-quadrature"),
    ("reciprocity", "--preset", "fig1", "--format", "json", "--out", "{out}/fig1-json"),
    ("coeffs", "--preset", "fig2", "--n-max", "200", "--format", "json",
     "--out", "{out}/coeffs-json"),
    ("verify", "--k", "16.59", "--grid-size", "64"),
    ("verify", "--k", "200.3"),
    ("reciprocity", "--k", "400", "--grid-size", "16384", "--out", "{out}/k400"),
    ("coeffs", "--k", "400", "--n-max", "200", "--out", "{out}/coeffs-k400"),
    ("verify", "--k", "50"),
    ("verify", "--k", "1000"),
    ("verify", "--preset", "fig2", "--rk4-steps", "20001"),
    ("verify", "--k", "100"),
    ("verify", "--preset", "fig1", "--rk4-steps", "1"),
    ("--help",),
    ("verify", "--help"),
    ("reciprocity", "--help"),
    ("nosuch",),
    ("verify", "--bogus"),
    ("verify", "--k", "1", "--grid-size", "64", "--rk4-steps", "50"),
    *((command, "--k", "17", "--grid-size", "64")
      for command in ("reciprocity", "berry", "coeffs")),
    ("verify", "--k", "1", "--grid-size", "64", "--rk4-steps", "91"),
    ("verify", "--k", "1000", "--grid-size", "36"),
    ("reciprocity", "--k", "16.5", "--grid-size", "4096"),
    ("reciprocity", "--k", "3", "--grid-size", "4100", "--out", "{out}/k3-4100"),
    ("reciprocity", "--k", "1", "--grid-size", "16", "--out", "{out}/k1-16"),
    ("reciprocity", "--k", "17.0000000005", "--grid-size", "4096",
     "--out", "{out}/k17-float"),
    ("reciprocity", "--k", "64.59", "--grid-size", "256", "--out", "{out}/k64-coarse"),
    ("berry", "--k", "1", "--grid-size", "16"),
    ("verify", "--k", "3000"),
    ("reciprocity", "--k", "17", "--grid-size", "65536", "--out", "{out}/k17-65536"),
    ("reciprocity", "--k", "17", "--grid-size", "65536", "--method", "quadrature",
     "--format", "json", "--out", "{out}/k17-65536-quad"),
    ("coeffs", "--k", "30000"),
    ("reciprocity", "--k", "1000", "--grid-size", "16384"),
    ("reciprocity", "--k", "3", "--grid-size", "4100", "--method", "quadrature",
     "--out", "{out}/k3-4100-quad"),
    *(("reciprocity", "--k", "17", "--grid-size", "4096", "--epsilon", epsilon)
      for epsilon in ("0.3", "1.5")),
    ("reciprocity", "--preset", "fig3", "--grid-size", "4096", "--epsilon", "0.01",
     "--out", "{out}/fig3-epsilon"),
    ("reciprocity", "--k", "17", "--grid-size", "144", "--fejer", "--out", "{out}/k17-144-fejer"),
    ("reciprocity", "--k", "17", "--grid-size", "144", "--method", "quadrature",
     "--format", "json", "--out", "{out}/k17-144-quad"),
    ("berry", "--k", "1000", "--grid-size", "16384"),
    ("reciprocity", "--preset", "fig3", "--grid-size", "4096", "--fejer",
     "--out", "{out}/fig3-fejer"),
    ("verify", "--k", "10000"),
    ("verify", "--k", "1000", "--grid-size", "36", "--rk4-steps", "1000000"),
    ("verify", "--k", "17", "--rk4-steps", "4096"),
    ("verify", "--k", "17", "--rk4-steps", "4097"),
    ("verify", "--preset", "fig2", "--rk4-steps", "1000000000000"),
    *(("reciprocity", "--k", "3", "--grid-size", "4100", *options)
      for options in (("--method", "series"), ("--method", "quadrature"), ("--fejer",))),
    ("sweep", "--k-values", "3,17", "--grid-size", "4100"),
    ("berry", "--k", "3", "--grid-size", "4100"),
    ("coeffs", "--k", "1.0000000001", "--n-max", "5"),
    ("verify", "--k", "1.0000000001"),
    ("reciprocity", "--k", "16.59", "--grid-size", "4100", "--out", "{out}/k16-4100"),
    ("reciprocity", "--k", "64.59", "--grid-size", "65536", "--fejer", "--format", "json",
     "--out", "{out}/k64-65536-fejer"),
    ("reciprocity", "--k", "1e10"),
    ("berry", "--k", "1e10"),
    ("sweep", "--k-values", "1e10"),
    ("reciprocity", "--k", "1e308"),
    ("sweep", "--k-values", "2,1e200"),
    ("sweep", "--k-values", "2,1e10", "--grid-size", "64", "--out", "{out}/sweep-ceiling.csv"),
    ("sweep", "--k-values", "2,3000"),
    ("reciprocity", "--k", "6.7e153"),
)


#: appended to every file of a first run before the rewrite: a rewrite that
#: leaves any of it behind differs from the first run
DECOY = b"\nDECOY TAIL: a rewrite that keeps this line did not cut the file\n" * 64


def run_in(src: Path, argv: tuple, out: str) -> dict:
    """Exit code, normalised stdout/stderr and the files in ``out`` after one command."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "cyclicphase.cli", *(a.format(out=out) for a in argv)],
        capture_output=True, text=True, env=env, check=False)
    files = {str(p.relative_to(out)): p.read_bytes()
             for p in sorted(Path(out).rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout.replace(out, "$OUT"),
            "stderr": proc.stderr.replace(out, "$OUT"), "files": files}


def run(src: Path, argv: tuple) -> dict:
    """One command's run in a fresh directory and, if it wrote files, its rewrite.

    The rewrite (exit code and files) is kept under ``"rewrite"``.
    """
    with tempfile.TemporaryDirectory() as out:
        result = run_in(src, argv, out)
        if result["files"]:
            for name in result["files"]:
                with open(Path(out, name), "ab") as f:
                    f.write(DECOY)
            again = run_in(src, argv, out)
            result["rewrite"] = {"exit code": again["exit code"], "files": again["files"]}
    return result


def json_documents(text: str) -> tuple[list, str]:
    """The top-level JSON objects in ``text``, and the text with each one replaced by {...}."""
    decoder = json.JSONDecoder()
    docs, rest, done = [], [], 0
    start = text.find("{")
    while start != -1:
        try:
            doc, end = decoder.raw_decode(text, start)
        except ValueError:
            start = text.find("{", start + 1)
            continue
        docs.append(doc)
        rest.append(text[done:start] + "{...}")
        done = end
        start = text.find("{", end)
    return docs, "".join(rest) + text[done:]


def leaves(doc, path=""):
    """(path, value) of every leaf of a JSON document; list indices become []."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for value in doc:
            yield from leaves(value, path + "[]")
    else:
        yield path, doc


def relative_change(a: float, b: float) -> float:
    if a == b or (a != a and b != b):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def field_sizes(parent_doc, change_doc) -> str:
    """Largest relative change of each float field and the other fields that changed."""
    parent, change = list(leaves(parent_doc)), list(leaves(change_doc))
    if [key for key, _ in parent] != [key for key, _ in change]:
        return "fields differ"
    largest, changed = {}, []
    for (key, a), (_, b) in zip(parent, change):
        if type(a) is float and type(b) is float:
            largest[key] = max(largest.get(key, 0.0), relative_change(a, b))
        elif (type(a), a) != (type(b), b) and key not in changed:
            changed.append(key)
    sizes = [f"{key} rel {r:.2g}" for key, r in largest.items() if r]
    sizes += [f"{key} CHANGED" for key in changed]
    return ", ".join(sizes) or "no field changed"


def dataset_columns(name: str, data: bytes) -> dict | None:
    """Column name -> float array of a CSV or JSON dataset file; None for other files."""
    if name.endswith(".csv"):
        header, *rows = data.decode().splitlines()
        names, cells = header.split(","), [row.split(",") for row in rows]
    elif name.endswith(".json"):
        doc = json.loads(data)
        if not (isinstance(doc, dict) and doc.keys() == {"columns", "rows"}):
            return None
        names, cells = doc["columns"], doc["rows"]
    else:
        return None
    return dict(zip(names, np.array(cells, dtype=float).reshape(len(cells), len(names)).T))


def column_sizes(parent: dict, change: dict) -> str:
    """Largest |change| of each column of two datasets."""
    if (list(parent) != list(change)
            or any(len(parent[key]) != len(change[key]) for key in parent)):
        return "columns or row counts differ"
    sizes = []
    for key, a in parent.items():
        b = change[key]
        with np.errstate(invalid="ignore"):
            delta = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, np.abs(a - b))
        sizes.append(f"{key} {np.max(delta, initial=0.0):.2g}")
    return "max |change| " + ", ".join(sizes)


def file_sizes(name: str, parent: bytes | None, change: bytes | None,
               sides=("parent", "change")) -> str:
    if parent is None or change is None:
        return "only in " + (sides[1] if parent is None else sides[0])
    try:
        columns = dataset_columns(name, parent), dataset_columns(name, change)
        if None not in columns:
            return column_sizes(*columns)
        if name.endswith(".json"):
            return field_sizes(json.loads(parent), json.loads(change))
    except ValueError:   # a file that a decoy tail or a cut write left unreadable
        return f"differs, and does not parse ({len(parent)} -> {len(change)} bytes)"
    return "differs"


def outcome_differences(a: dict, b: dict, label: str = "",
                        sides=("parent", "change")) -> list[str]:
    """Readable lines for the exit code and the files in which runs a and b differ."""
    lines = []
    if a["exit code"] != b["exit code"]:
        lines.append(f"  {label}exit code {a['exit code']} -> {b['exit code']}")
    for name in sorted(a["files"].keys() | b["files"].keys()):
        x, y = a["files"].get(name), b["files"].get(name)
        if x != y:
            lines.append(f"  {label}file {name}: {file_sizes(name, x, y, sides)}")
    return lines


def differences(parent: dict, change: dict) -> list[str]:
    """Readable lines for every field in which the two runs differ.

    Covers each tree's rewrite against its own first run, and the two rewrites.
    """
    lines = outcome_differences(parent, change)
    for stream in ("stdout", "stderr"):
        if parent[stream] == change[stream]:
            continue
        lines.append(f"  {stream}:")
        (parent_docs, parent_text), (change_docs, change_text) = (
            json_documents(parent[stream]), json_documents(change[stream]))
        if parent_text != change_text or len(parent_docs) != len(change_docs):
            lines.extend("    " + d for d in difflib.unified_diff(
                parent[stream].splitlines(), change[stream].splitlines(),
                "parent", "change", n=0, lineterm="") if d[:3] not in ("---", "+++"))
        else:
            lines.extend(f"    JSON document {i + 1}: {field_sizes(a, b)}"
                         for i, (a, b) in enumerate(zip(parent_docs, change_docs)) if a != b)
    for side, result in (("parent", parent), ("change", change)):
        if "rewrite" in result:
            lines += outcome_differences(result, result["rewrite"], f"{side} rewrite: ",
                                         ("first run", "rewrite"))
    if "rewrite" in parent and "rewrite" in change:   # else the first runs' files differ
        lines += outcome_differences(parent["rewrite"], change["rewrite"], "rewrite: ")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent_src", type=Path)
    p.add_argument("change_src", type=Path)
    args = p.parse_args(argv)
    failed = 0
    for command in COMMANDS:
        lines = differences(run(args.parent_src.resolve(), command),
                            run(args.change_src.resolve(), command))
        shown = " ".join(a.replace("{out}/", "") for a in command)
        print(f"{'DIFF' if lines else 'same'}  {shown}")
        for line in lines:
            print(line)
        failed += bool(lines)
    print(f"{failed} of {len(COMMANDS)} commands differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
