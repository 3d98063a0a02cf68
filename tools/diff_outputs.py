"""Run a fixed list of CLI commands against two source trees and diff what they produce.

    python tools/diff_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  Each
command runs as ``python -m cyclicphase.cli ...`` in its own subprocess, with
``PYTHONPATH`` set to one tree and ``--out`` files going to a fresh temporary
directory.  The exit code, stdout, stderr (the temporary directory replaced by
``$OUT``) and every written file are compared.  Prints one line per command
and exits 1 if anything differs, 0 if every command matched.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: the benchmark's commands (harmonic-scan with its seed-0 k values), then
#: three more that write CSV from coeffs, sweep and an integer-k reciprocity
#: run, the Fejer-resummed and the non-cyclic quadrature reconstructions, and
#: the large JSON datasets of fig1 (32768 rows) and of coeffs
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
)


def run(src: Path, argv: tuple) -> dict:
    """Exit code, normalised stdout/stderr and written files of one command."""
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "cyclicphase.cli", *(a.format(out=out) for a in argv)],
            capture_output=True, text=True, env=env, check=False)
        files = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(Path(out).rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout.replace(out, "$OUT"),
            "stderr": proc.stderr.replace(out, "$OUT"), "files": files}


def differences(parent: dict, change: dict) -> list[str]:
    """Readable lines for every field in which the two runs differ."""
    lines = []
    if parent["exit code"] != change["exit code"]:
        lines.append(f"  exit code {parent['exit code']} -> {change['exit code']}")
    for stream in ("stdout", "stderr"):
        if parent[stream] != change[stream]:
            lines.append(f"  {stream}:")
            lines.extend("    " + d for d in difflib.unified_diff(
                parent[stream].splitlines(), change[stream].splitlines(),
                "parent", "change", n=0, lineterm="") if d[:3] not in ("---", "+++"))
    for name in sorted(parent["files"].keys() | change["files"].keys()):
        if parent["files"].get(name) != change["files"].get(name):
            lines.append(f"  file {name} differs")
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
