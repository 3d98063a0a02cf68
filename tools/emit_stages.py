"""Time each stage of the dataset kernel on the paper's three figure datasets.

    python tools/emit_stages.py

Builds the fig1, fig2 and fig3 datasets in-process, with the package in
``src/`` of the checkout that holds this file, and writes each in the format
``reciprocity --preset`` writes it in the benchmark's figures workload: fig1
and fig3 as CSV, fig2 as JSON.  Every block goes through a staged copy of
``_tabletext._block_text`` that makes the same calls in the same order and
reads the clock and ``resource.getrusage`` between them; for JSON the two
``replace`` passes of ``json_text`` follow.  Every cell outside the fast
range, zeros included, is timed under ``fallback``.  The staged text is
checked against the kernel's own, block for block, before anything is timed.

Each dataset is written 15 times.  For every stage the table gives the best
of the 15 passes (the stage's time summed over the dataset's blocks, in ms)
and the median of its minor page faults per pass.  The last line of standard
output is the same numbers as one JSON object.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cyclicphase import _tabletext as T  # noqa: E402
from cyclicphase import experiments, model  # noqa: E402

PASSES = 15
STAGES = ("mask", "digits", "shortest", "rows", "fallback", "translate", "replace")
#: (preset, shortest): the format each figure is written in by the benchmark
FIGURES = (("fig1", False), ("fig2", True), ("fig3", False))


class Clock:
    """Per-stage seconds and minor page faults of one pass."""

    def __init__(self):
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self.faults = dict.fromkeys(STAGES, 0)
        self.start()

    def start(self):
        self.t = perf_counter()
        self.f = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def stop(self, stage):
        t = perf_counter()
        f = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        self.seconds[stage] += t - self.t
        self.faults[stage] += f - self.f
        self.start()


def staged_block_text(clock, cells, separators, shortest, *rows):
    """``_tabletext._block_text``, stage by stage.

    rows is the row buffer ``_blocks`` hands the kernel, or nothing for a
    kernel that builds each block's rows in a fresh array.
    """
    clock.start()
    a = np.abs(cells)
    fast = (a > 1e-6) & (a < 1e16)
    if not fast.all():
        a[~fast] = 1.0
    clock.stop("mask")
    d, x, r = T._digits_and_exponents(a)
    clock.stop("digits")
    if shortest:
        d, kept = T._shortest(a, d, x, r)
        fast &= kept
    clock.stop("shortest")
    text = T._rows(cells, d, x, *(buf[:len(cells)] for buf in rows)).view(np.uint8)
    clock.stop("rows")
    if not fast.all():
        slow = ~fast
        text[slow, :T._SEP] = T._fallback(cells[slow].tolist(), shortest)
    clock.stop("fallback")
    text[:, T._SEP] = separators
    text = text.tobytes().translate(None, b"\0 ")
    clock.stop("translate")
    return text


def block_texts(columns, shortest, clock=None):
    """The dataset's block texts as csv_text or json_text yields them after the header."""
    row_end, table_end = (ord(";"), 0) if shortest else (ord("\n"), ord("\n"))
    kernel = T._block_text
    if clock is not None:
        T._block_text = lambda *args: staged_block_text(clock, *args)
    try:
        texts = []
        for text in T._blocks(columns, row_end, table_end, shortest):
            if shortest:
                text = text.replace(b",", T._CELL_BREAK).replace(b";", T._ROW_BREAK)
                if clock is not None:
                    clock.stop("replace")
            texts.append(text)
        return texts
    finally:
        T._block_text = kernel


def main():
    results = {}
    for name, shortest in FIGURES:
        preset = experiments.PRESETS[name]
        _, table = experiments.run_reciprocity_case(model.derive_params(g=preset["g"]),
                                                    preset["grid_size"])
        columns = [table.data[c] for c in table.columns]
        if block_texts(columns, shortest, Clock()) != block_texts(columns, shortest):
            sys.exit(f"{name}: the staged kernel's text differs from _tabletext's")
        passes = []
        for _ in range(PASSES):
            clock = Clock()
            block_texts(columns, shortest, clock)
            passes.append(clock)
        results[name] = {
            "format": "json" if shortest else "csv",
            "cells": len(columns) * len(columns[0]),
            "best_ms": {s: min(c.seconds[s] for c in passes) * 1e3 for s in STAGES},
            "median_minor_faults": {s: statistics.median(c.faults[s] for c in passes)
                                    for s in STAGES},
        }
        results[name]["best_ms"]["total"] = min(sum(c.seconds.values()) for c in passes) * 1e3
        results[name]["median_minor_faults"]["total"] = statistics.median(
            sum(c.faults.values()) for c in passes)

    for title, key, spec in (("best of 15 passes, ms", "best_ms", "10.3f"),
                             ("median minor page faults per pass", "median_minor_faults",
                              "10.0f")):
        print(f"{title}:")
        print(f"{'dataset':14s}" + "".join(f"{s:>10s}" for s in (*STAGES, "total")))
        for name, r in results.items():
            print(f"{name + ' ' + r['format']:14s}"
                  + "".join(f"{r[key][s]:{spec}}" for s in (*STAGES, "total")))
        print()
    print(json.dumps(results))


if __name__ == "__main__":
    main()
