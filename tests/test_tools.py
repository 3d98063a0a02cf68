"""The copies of package code kept in ``tools/``, against the package."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cyclicphase import _tabletext
from cyclicphase._tabletext import BLOCK_CELLS


def load_tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


emit_stages = load_tool("emit_stages")


def staged_table():
    """Three columns over three blocks and a part: fast cells among zeros of both
    signs, nan and +-inf, then a block with no fast cell."""
    rng = np.random.default_rng(5)
    block = BLOCK_CELLS // 3 * 3
    mixed = rng.standard_normal(2 * block + 300)
    mixed[rng.integers(0, len(mixed), 60)] = [0.0, -0.0, np.nan, np.inf, -np.inf] * 12
    slow = np.resize([0.0, -0.0, np.nan, np.inf, -np.inf, 1e20, 5e-324, -1e-7], block)
    values = np.concatenate([mixed[:block], slow, mixed[block:]])
    return [values[j::3].copy() for j in range(3)]


@pytest.mark.parametrize("shortest", [False, True], ids=["csv", "json"])
def test_staged_kernel_writes_the_kernel_text(shortest):
    columns = staged_table()
    names = ("a", "b", "c")
    staged = emit_stages.block_texts(columns, shortest, emit_stages.Clock())
    if shortest:
        assert staged == list(_tabletext.json_text(names, columns))[2:-2]
    else:
        assert staged == list(_tabletext.csv_text(names, columns))[1:]
    assert len(staged) == 4
