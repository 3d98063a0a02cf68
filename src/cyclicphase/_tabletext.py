"""The dataset file of a float table, CSV or JSON, computed a block of cells at a time.

A cell prints from its decimal digits D·10^(X-16), D a 17-digit integer:
CSV prints ``%.17g``, |x| rounded to 17 significant digits half to even, and
JSON prints ``repr``, the shortest digits that read back to x, padded with
zeros to 17.  Both are exact arithmetic that numpy can do on whole arrays:

* for |x| in (1e-6, 1e16) the decimal exponent X lies in [-6, 15], so 10^P
  with P = 16 - X is an exact double (P <= 22) and Dekker's two-product
  gives v = |x|·10^P exactly as p + e (Dekker, Numer. Math. 18, 1971).  X
  starts from ``floor(log10|x|)`` (at least -6) and moves by one where p + e
  falls outside [10^16, 10^17);
* p >= 10^16 > 2^53 is an even integer, so D17 = p + rint(e) rounds half to
  even and v = D17 + r exactly, with r = e - rint(e) in [-1/2, 1/2].  D17
  never rounds up to 10^17: that needs |x| within 5e-18 (relative) below a
  power of ten 10^-5..10^16, and the doubles nearest below them all lie
  farther off;
* the 16-, 15- and 14-digit roundings of v need only the trailing digits of
  D17 and the sign of r.  A candidate D reads back to x when |D - v| <= h =
  ulp(x)/2·10^P, an exact double (< h for an odd mantissa).  The doubles
  decide this exactly: D - v ± h is 0 or a multiple of min(1, 2^(P-1)·ulp(x)),
  which exceeds the rounding error of D - v near h, 2^-52·h, since
  5^P < 2^52.  It is 0 only where P = 1 and ulp(x) >= 1, for integer cells,
  which fall back, so the odd-mantissa rule never decides.  The nearest
  candidate of a length reads back if any of that length does, so the
  shortest length is the first that passes (Steele & White, PLDI 1990;
  Adams, PLDI 2018), and the nearest candidate is the one ``repr`` prints.

This is the fixed-precision digit method of Ryū printf (Adams, OOPSLA 2019)
for CSV's one precision and a three-test shortest search for JSON, which runs
as one pass over a (3, n) array, a row per length.  Each cell then becomes a
fixed-width byte row holding every character it could need: sign, ``0.000``
prefix, the 17 digits with a slot for the point after each, ``e-0X`` and the
separator.  The digits are one lead digit and four 4-digit groups, split off
D17 by int64 floor division and a multiply-subtract (numpy's int64 ``%`` and
``divmod`` cost four times a ``//``); each group is one ``uint64`` word from
a 10,000-entry table.  A keep-table indexed by (X, trailing zeros of D17,
sign) places the prefix, point and exponent and blanks the unused slots to
NUL; its rows are taken straight into one row buffer that all blocks of a
table share, and the digit words are ANDed into it.  The trailing zeros come
from the last group alone, and from the groups before it only for the cells
(about 1 in 10^4) whose last group is 0000.  ``bytes.translate`` deletes the
NULs, one call per block.  The row of every other cell is overwritten with
its text from one ``%`` call per block, ``%.17g`` or ``%r``, padded with
spaces that ``translate`` deletes too: zeros of both signs, nan, ±inf,
subnormals, |x| <= 1e-6 and |x| >= 1e16, and for JSON also cells of 14 or
fewer shortest digits, cells that ``repr`` prints as integers
(``123456789012345.0``) and exact ties of the 16- or 15-digit rounding.  A
block with no fast cell takes the same path: all its rows are overwritten.

JSON's ``indent=2`` layout comes from one-byte separators: ``,`` between the
cells of a row and ``;`` after each row, replaced in each block's bytes.
"""

from __future__ import annotations

import json

import numpy as np

#: cells per block: the row buffer (48 bytes a cell) stays near 0.4 MB, so
#: writing a dataset adds nothing to a run's peak memory
BLOCK_CELLS = 1 << 13

#: bytes per cell row, a multiple of 8 for the uint64 view
_WIDTH = 48
_SIGN = 0         # "-"
_PREFIX = 1       # "0.000", slots 1..5
_DIGITS = 6       # digit i at slot 6 + 2i, the point after it at slot 7 + 2i
_EXP = 40         # "e-0X", slots 40..43
_SEP = 44         # the separator after the cell

_X_MIN, _X_MAX = -6, 15   # decimal exponents of the fast cells
_N_X = _X_MAX - _X_MIN + 1


def _tables():
    """(lead-digit words, 4-digit group words, trailing-zero counts, keep-table).

    A word is the uint64 of eight row slots: a digit or group word holds
    0xFF in its point slots, so the keep-table's AND leaves there the point
    or NUL it holds.
    """
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    groups = np.full((10, 10, 10, 10, 8), 0xFF, np.uint8)
    for j in range(4):
        groups[..., 2 * j] = ascii_digits.reshape([10 if i == j else 1 for i in range(4)])
    leads = np.full((10, 8), 0xFF, np.uint8)
    leads[:, _DIGITS] = ascii_digits
    trailing = np.zeros(10_000, np.uint8)
    for step in (10, 100, 1000, 10_000):
        trailing[::step] += 1

    x = np.arange(_X_MIN, _X_MAX + 1)[:, None]
    nz = np.arange(1, 18)                      # significant digits, 1..17
    slot = np.arange(_WIDTH)
    fixed = x >= -4
    # digits 0..last print; the point follows digit `point` when more follow it
    last = np.where(x >= 0, np.maximum(x, nz - 1), nz - 1)
    point = np.where(x >= 0, x, np.where(fixed, 17, 0))
    chars = np.zeros((_N_X, _WIDTH), np.uint8)   # per exponent: prefix and "e-0X"
    prefix = (x < 0) & fixed & (slot >= _PREFIX) & (slot <= _PREFIX - x)
    chars[prefix] = ord("0")
    chars[prefix & (slot == _PREFIX + 1)] = ord(".")
    chars[~fixed[:, 0], _EXP:_SEP] = [ord("e"), ord("-"), ord("0"), 0]
    chars[~fixed[:, 0], _SEP - 1] = 48 - x[~fixed]

    digit = (slot - _DIGITS) // 2
    in_digits = (slot >= _DIGITS) & (slot < _EXP)
    keep = np.where(in_digits & (slot % 2 == 0) & (digit <= last[..., None]), 0xFF,
                    chars[:, None, :]).astype(np.uint8)
    keep[in_digits & (slot % 2 == 1) & (digit == point[..., None])
         & (point < nz - 1)[..., None]] = ord(".")
    keep = keep[:, ::-1]                         # by trailing zeros, 17 - digits
    keep = np.stack([keep, keep], axis=2)        # (X, trailing zeros, sign, slot)
    keep[:, :, 1, _SIGN] = ord("-")
    return (leads.view(np.uint64)[:, 0], groups.reshape(-1, 8).view(np.uint64)[:, 0],
            trailing, keep.reshape(-1, _WIDTH).view(np.uint64))


_LEADS, _GROUPS, _TRAILING, _KEEP = _tables()
#: a group's part of the keep-table row: 2 × its trailing zeros, plus the
#: offset of X = _X_MIN; a row is 34 X + 2 zeros + sign past that offset
_KEY_ZEROS = 2 * _TRAILING.astype(np.int64) - 34 * _X_MIN
_EXPONENT = np.uint64(0x7FF << 52)


def _split(a):
    """Veltkamp's split of doubles into two 26-bit halves."""
    t = 134217729.0 * a   # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10 = np.array([10.0 ** p for p in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)
#: the rounding steps of D17 to 16, 15 and 14 digits, one row each
_STEPS = np.array([[10.0], [100.0], [1000.0]])


def _scaled(a, x):
    """a·10^(16 - x) as the exact sum p + e of two doubles (Dekker)."""
    p_index = 16 - x
    b_hi, b_lo = _POW10_HI.take(p_index), _POW10_LO.take(p_index)
    p = a * _POW10.take(p_index)
    a_hi, a_lo = _split(a)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def _digits_and_exponents(a):
    """(D17, X, r) with a·10^(16-X) = D17 + r exactly, D17 in [1e16, 1e17), |r| <= 1/2.

    For 1e-6 < a < 1e16; D17 is a rounded to 17 digits, half to even.
    """
    x = np.maximum(np.floor(np.log10(a)), -6).astype(np.int64)
    p, e = _scaled(a, x)
    # p + e can leave [10^16, 10^17) only where p is on or past an end
    edge = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if len(edge):
        pe, ee = p[edge], e[edge]
        low = (pe < 1e16) | ((pe == 1e16) & (ee < 0))
        high = (pe > 1e17) | ((pe == 1e17) & (ee >= 0))
        outside = low | high
        moved = edge[outside]
        x[moved] += high[outside].astype(np.int64) - low[outside]
        p[moved], e[moved] = _scaled(a[moved], x[moved])
    rounded = np.rint(e)
    return p.astype(np.int64) + rounded.astype(np.int64), x, e - rounded


def _shortest(a, d, x, r):
    """(digits, kept): repr's shortest digits of a, padded to 17 digits.

    d, x and r are those of ``_digits_and_exponents``.  Cells that are not
    kept keep d and fall back to ``repr``: 14 or fewer digits, an integer
    (repr appends ``.0``), or an exact tie of a rounding whose candidates read
    back (such as 600000000000000.25; left to repr's own tie rule).  A power
    of two, whose rounding interval is narrower below it, is in this range a
    decimal of at most 14 digits (5^19 < 10^14) or an integer.
    """
    # ulp(a)/2·10^P: a power of two times 10^P, exact
    half_ulp = ((a.view(np.uint64) & _EXPONENT).view(np.float64) * 2.0 ** -53
                * _POW10.take(16 - x))
    last3 = (d - d // 1000 * 1000).astype(np.float64)
    # one row per length, 16, 15 and 14 digits: rest and the candidate are exact
    rest = last3 / _STEPS
    np.floor(rest, out=rest)
    rest *= -_STEPS
    rest += last3
    tie = rest == _STEPS / 2
    candidate = ((rest > _STEPS / 2) | (tie & (r > 0))) * _STEPS
    candidate -= rest
    np.subtract(candidate, r, out=rest)
    inside = np.abs(rest, out=rest) <= half_ulp
    # a shorter candidate is a candidate of each longer length too, so the
    # rows that read back are a prefix, and the shortest is the last of them
    count = 17 - inside.sum(axis=0)
    candidate[2] -= candidate[1]
    candidate[1] -= candidate[0]
    candidate *= inside
    delta = candidate.sum(axis=0)
    kept = ~(inside & tie & (r == 0)).any(axis=0) & (count >= 15) & (count > x + 1)
    return d + (delta * kept).astype(np.int64), kept


def _rows(cells, d, x, out):
    """The rows of cells with digits d·10^(x-16), written into out, an (n, 6) uint64 array."""
    high = d // 10 ** 8             # the lead digit and the first two groups
    low = d - high * 10 ** 8        # the last two groups
    lead = high // 10 ** 8
    high -= lead * 10 ** 8
    g1, g3 = high // 10 ** 4, low // 10 ** 4
    groups = g1, high - g1 * 10 ** 4, g3, low - g3 * 10 ** 4
    # the keep-table row: the trailing zeros of the last group, and of the
    # groups before it where the last is 0000, then X and the sign
    key = _KEY_ZEROS.take(groups[3])
    full = np.flatnonzero(groups[3] == 0)
    if len(full):
        f1, f2, f3 = (g[full] for g in groups[:3])
        t1, t2, t3 = (_TRAILING.take(f) for f in (f1, f2, f3))
        key[full] += 2 * (t3 + (f3 == 0) * (t2 + (f2 == 0) * t1))
    key += x * 34
    key += np.signbit(cells)

    # mode="clip" writes into out directly (every key is in range); the
    # default mode would fill a copy first
    words = _KEEP.take(key, axis=0, out=out, mode="clip")
    words[:, 0] &= _LEADS.take(lead)
    for j, group in enumerate(groups):
        words[:, 1 + j] &= _GROUPS.take(group)
    return words


def _fallback(values, shortest):
    """The rows of the floats values as %.17g or, if shortest, json's repr.

    One % call formats them all, each padded with spaces to _SEP bytes (no
    text is longer than 24: "-2.2250738585072014e-308").
    """
    text = (f"%-{_SEP}r" if shortest else f"%-{_SEP}.17g") * len(values) % tuple(values)
    if shortest:   # json's names of the non-finite values, in the same width
        text = text.replace("nan", "NaN").replace("inf     ", "Infinity")
    return np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _SEP)


def _block_text(cells, separators, shortest, rows):
    """One block of cells (row-major) as %.17g text, or as repr text if shortest.

    rows is the (n, 6) uint64 buffer its rows are built in, n >= len(cells).
    """
    a = np.abs(cells)
    fast = (a > 1e-6) & (a < 1e16)
    # every cell gets a row; the other cells' rows are then overwritten
    if not fast.all():
        a[~fast] = 1.0
    d, x, r = _digits_and_exponents(a)
    if shortest:
        d, kept = _shortest(a, d, x, r)
        fast &= kept
    text = _rows(cells, d, x, rows[:len(cells)]).view(np.uint8)
    if not fast.all():
        slow = ~fast
        text[slow, :_SEP] = _fallback(cells[slow].tolist(), shortest)
    text[:, _SEP] = separators
    return text.tobytes().translate(None, b"\0 ")


def _blocks(columns, row_end, table_end, shortest):
    """The text of the equal-length float64 columns, block by block.

    Cells are ``,``-separated, every row ends in the byte row_end, except the
    last row of the table, which ends in table_end (0 for none).
    """
    n_cols, n_rows = len(columns), len(columns[0])
    block = max(1, BLOCK_CELLS // n_cols)
    separators = np.full((block, n_cols), ord(","), np.uint8)
    separators[:, -1] = row_end
    # one row buffer for every block: a fresh one per block would be
    # returned to the system and faulted in again
    rows = np.empty((min(block, n_rows) * n_cols, _WIDTH // 8), np.uint64)
    for r0 in range(0, n_rows, block):
        cells = np.column_stack([c[r0:r0 + block] for c in columns]).reshape(-1)
        ends = separators.reshape(-1)[:len(cells)]
        if r0 + block >= n_rows:
            ends = ends.copy()
            ends[-1] = table_end
        yield _block_text(cells, ends, shortest, rows)


def csv_text(names, columns):
    """Yield the CSV file of the equal-length float64 ``columns`` in chunks of bytes.

    A header line of the names joined by ``,``, then one line per row: every
    cell as ``%.17g``, ``,``-separated, each line ending in ``\\n``.
    """
    yield (",".join(names) + "\n").encode("ascii")
    yield from _blocks(columns, ord("\n"), ord("\n"), shortest=False)


#: what the one-byte separators of a JSON block become in the indent=2 layout
_CELL_BREAK = b",\n      "
_ROW_BREAK = b"\n    ],\n    [\n      "


def json_text(names, columns):
    """Yield the JSON file of the equal-length float64 ``columns`` in chunks of bytes.

    The bytes of ``json.dumps({"columns": names, "rows": rows}, indent=2)``
    and a final ``\\n``, every cell a float as ``repr`` prints it and a
    non-finite one as json's ``NaN``, ``Infinity`` or ``-Infinity``.
    """
    yield ('{\n  "columns": [\n    ' + ",\n    ".join(json.dumps(c) for c in names)
           + '\n  ],\n  "rows": [').encode("ascii")
    if len(columns[0]):
        yield b"\n    [\n      "
        for text in _blocks(columns, ord(";"), 0, shortest=True):
            yield text.replace(b",", _CELL_BREAK).replace(b";", _ROW_BREAK)
        yield b"\n    ]\n  "
    yield b"]\n}\n"
