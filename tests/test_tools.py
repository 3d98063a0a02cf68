"""The tools in ``tools/`` that load package code, against the package."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cyclicphase import _tabletext

_spec = importlib.util.spec_from_file_location(
    "emit_stages", Path(__file__).resolve().parents[1] / "tools" / "emit_stages.py")
emit_stages = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(emit_stages)


def staged_table():
    """Three columns over three blocks and a part: fast cells among zeros of both
    signs, nan and +-inf, then a block with no fast cell."""
    rng = np.random.default_rng(5)
    block = _tabletext.BLOCK_CELLS // 3 * 3
    mixed = rng.standard_normal(2 * block + 300)
    mixed[rng.integers(0, len(mixed), 60)] = [0.0, -0.0, np.nan, np.inf, -np.inf] * 12
    slow = np.resize([0.0, -0.0, np.nan, np.inf, -np.inf, 1e20, 5e-324, -1e-7], block)
    values = np.concatenate([mixed[:block], slow, mixed[block:]])
    return [values[j::3].copy() for j in range(3)]


@pytest.mark.parametrize("shortest", [False, True], ids=["csv", "json"])
def test_staged_kernel_writes_the_kernel_text(shortest):
    columns = staged_table()
    names = ("a", "b", "c")
    expected = b"".join((_tabletext.json_text if shortest else _tabletext.csv_text)(names, columns))
    for tree in emit_stages.TREES:
        kernel = emit_stages.load_kernel(emit_stages.SRC, tree)
        originals = {name: getattr(kernel, name) for name in emit_stages.WRAPPED}
        text, seconds, _ = emit_stages.timed_pass(kernel, names, columns, shortest)
        assert text == expected
        # every stage runs on this table but CSV's shortest-digit search
        assert list(seconds) == list(emit_stages.STAGES)
        assert all(t > 0 for stage, t in seconds.items() if shortest or stage != "shortest")
        assert shortest or seconds["shortest"] == 0
        assert all(getattr(kernel, name) is fn for name, fn in originals.items())
