"""Informational scaling tables: traced per-layer self time against k and m.

    python3 perfbench/scaling.py

Traces ``reciprocity --k K --grid-size M`` for k in 1..100 at m = 16384
and for m in 4096..262144 at k = 17, and writes
``.perfbench_results/scaling_k.csv`` and ``scaling_m.csv`` beside the
benchmark results: one row per (k, m, function) with calls and the median
self seconds over three repeats, each from cold caches.  Nothing here is
gated.
"""

from __future__ import annotations

import io
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import run
from tracer import Tracer

K_VALUES = (1, 2, 5, 10, 20, 50, 100)
K_GRID = 16384
M_VALUES = (4096, 8192, 16384, 32768, 65536, 131072, 262144)
M_K = 17
REPEATS = 3


def profile(cli, caches, argv, repeats: int = REPEATS):
    """(median wall seconds, {function: (calls, median self seconds)}) of one command."""
    walls, selfs, calls = [], {}, {}
    for _ in range(repeats):
        run.clear(caches)
        tracer = Tracer()
        with tracer, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            tracer.begin_command()
            t0 = perf_counter()
            code = cli.main(argv)
            walls.append(perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"cyclicphase {' '.join(argv)} exited {code}")
        for name, (n, s) in tracer.self_times().items():
            calls[name] = n
            selfs.setdefault(name, []).append(s)
    return statistics.median(walls), {
        name: (calls[name], statistics.median(v)) for name, v in selfs.items()}


def main() -> int:
    cli = run.import_cli()
    caches = run.module_caches()
    profile(cli, caches, ["reciprocity", "--k", "2", "--grid-size", "4096"], 1)  # warm-up
    run.RESULTS_DIR.mkdir(exist_ok=True)
    cases = (("scaling_k.csv", [(k, K_GRID) for k in K_VALUES]),
             ("scaling_m.csv", [(M_K, m) for m in M_VALUES]))
    for filename, points in cases:
        lines = ["k,m,wall_s,function,calls,self_s"]
        for k, m in points:
            wall, table = profile(cli, caches,
                                  ["reciprocity", "--k", str(k), "--grid-size", str(m)])
            print(f"k={k:<4} m={m:<7} wall {wall:.3f} s", flush=True)
            for name, (calls, s) in sorted(table.items(), key=lambda kv: -kv[1][1]):
                lines.append(f"{k},{m},{wall:.6g},{name},{calls},{s:.6g}")
        path = run.RESULTS_DIR / filename
        path.write_text("\n".join(lines) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
