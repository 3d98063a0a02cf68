"""Time the dataset kernel stage by stage on the three figure datasets, parent against change.

    python tools/emit_stages.py [PARENT_SRC]

Loads ``cyclicphase/_tabletext.py`` by file path, under its own module name,
from this checkout's ``src`` as "change" and from PARENT_SRC, another tree's
``src``, as "parent" (without it the same file twice: an A/A run, the noise
floor).  Both write the fig1 CSV, fig2 JSON and fig3 CSV tables, built once
with this checkout's package, 15 passes each, alternating which goes first.
In a pass, wrappers that read the clock and the minor page faults replace
``_digits_and_exponents``, ``_shortest``, ``_rows``, ``_fallback`` and
``_block_text`` in the kernel's namespace.  The stages are digits, shortest, rows, fallback, "block rest"
(``_block_text`` less those four: the mask, separators, ``tobytes`` and
``translate``) and "between blocks" (the pass less ``_block_text``: the column
gather, JSON's ``replace`` and the headers).

Prints, per dataset, tree and stage, the best of the 15 passes in ms and the
median minor faults a pass, then change/parent of the best totals and the
passes whose total the change won; the last line is the same as JSON.  Exits 1
if the two kernels' bytes differ on any dataset.
"""

from __future__ import annotations

import importlib.util
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
PASSES = 15
#: the kernel functions a pass wraps, and the stage each one's calls add to
WRAPPED = {"_digits_and_exponents": "digits", "_shortest": "shortest", "_rows": "rows",
           "_fallback": "fallback", "_block_text": "block"}
STAGES = ("digits", "shortest", "rows", "fallback", "block rest", "between blocks", "total")
TREES = ("parent", "change")
#: (preset, shortest): the format each figure is written in by the benchmark
FIGURES = (("fig1", False), ("fig2", True), ("fig3", False))


def load_kernel(src, tree):
    """``cyclicphase/_tabletext.py`` of the tree ``src``, loaded as ``_tabletext_<tree>``."""
    spec = importlib.util.spec_from_file_location(
        f"_tabletext_{tree}", Path(src) / "cyclicphase" / "_tabletext.py")
    kernel = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernel)
    return kernel


def _now():
    return perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed_pass(kernel, names, columns, shortest):
    """(bytes, {stage: seconds}, {stage: minor faults}) of kernel writing the columns once."""
    spent = {key: [0.0, 0] for key in WRAPPED.values()}

    def wrap(fn, sums):
        def timed(*args):
            t0, f0 = _now()
            result = fn(*args)
            t1, f1 = _now()
            sums[0] += t1 - t0
            sums[1] += f1 - f0
            return result
        return timed

    originals = {name: getattr(kernel, name) for name in WRAPPED}
    try:
        for name, key in WRAPPED.items():
            setattr(kernel, name, wrap(originals[name], spent[key]))
        t0, f0 = _now()
        chunks = list((kernel.json_text if shortest else kernel.csv_text)(names, columns))
        t1, f1 = _now()
    finally:
        for name, fn in originals.items():
            setattr(kernel, name, fn)
    spent["total"] = [t1 - t0, f1 - f0]

    def stages(i):
        s = {key: sums[i] for key, sums in spent.items()}
        s["block rest"] = s["block"] - sum(s[key] for key in STAGES[:4])
        s["between blocks"] = s["total"] - s.pop("block")
        return {key: s[key] for key in STAGES}

    return b"".join(chunks), stages(0), stages(1)


def figure_tables():
    """[(preset, shortest, column names, columns)] of the figure datasets, from this checkout."""
    sys.path.insert(0, str(SRC))
    from cyclicphase import experiments, model

    tables = []
    for name, shortest in FIGURES:
        preset = experiments.PRESETS[name]
        _, table = experiments.run_reciprocity_case(model.derive_params(g=preset["g"]),
                                                    preset["grid_size"])
        tables.append((name, shortest, table.columns, [table.data[c] for c in table.columns]))
    return tables


def main(argv):
    if len(argv) > 1:
        sys.exit(__doc__.split("\n\n")[1])
    kernels = {"parent": load_kernel(argv[0] if argv else SRC, "parent"),
               "change": load_kernel(SRC, "change")}
    results, differ = {}, []
    for name, shortest, names, columns in figure_tables():
        passes = {tree: [] for tree in TREES}
        for i in range(PASSES):
            texts = {}
            for tree in TREES if i % 2 else TREES[::-1]:
                texts[tree], *counts = timed_pass(kernels[tree], names, columns, shortest)
                passes[tree].append(counts)
            if texts["parent"] != texts["change"] and name not in differ:
                differ.append(name)
        result = results[f"{name} {'json' if shortest else 'csv'}"] = {
            tree: {"best_ms": {s: min(p[0][s] for p in passes[tree]) * 1e3 for s in STAGES},
                   "median_minor_faults": {s: statistics.median(p[1][s] for p in passes[tree])
                                           for s in STAGES}}
            for tree in TREES}
        result["change/parent"] = (result["change"]["best_ms"]["total"]
                                   / result["parent"]["best_ms"]["total"])
        result["change won"] = sum(c[0]["total"] < p[0]["total"]
                                   for p, c in zip(passes["parent"], passes["change"]))

    for title, key, spec in (("best of 15 passes, ms", "best_ms", "15.3f"),
                             ("median minor page faults a pass", "median_minor_faults", "15.0f")):
        print(f"{title}:\n{'dataset':16s}" + "".join(f"{s:>15s}" for s in STAGES))
        for dataset, result in results.items():
            for tree in TREES:
                print(f"{dataset + ' ' + tree:16s}"
                      + "".join(f"{result[tree][key][s]:{spec}}" for s in STAGES))
        print()
    for dataset, result in results.items():
        print(f"{dataset}: change/parent {result['change/parent']:.3f}, "
              f"change won {result['change won']} of {PASSES} passes")
    print(json.dumps(results))
    if differ:
        print(f"the two kernels' bytes differ on {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
