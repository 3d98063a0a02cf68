"""The CSV body of a float table as ``%.17g`` text, computed a block of cells at a time.

``%.17g`` rounds a double to 17 significant digits D·10^(X-16), half to even,
then prints it in fixed notation when -4 <= X < 17 and in exponential
notation otherwise, with trailing zeros (and a bare point) dropped.  That
rounding is exact arithmetic that numpy can do on whole arrays:

* for |x| in (1e-6, 1e16) the decimal exponent X lies in [-6, 15], so 10^P
  with P = 16 - X is an exact double (P <= 22) and Dekker's two-product
  gives |x|·10^P exactly as p + e (Dekker, Numer. Math. 18, 1971).  X starts
  from ``floor(log10|x|)`` and moves by one where p + e falls outside
  [10^16, 10^17);
* p >= 10^16 > 2^53 is an even integer, so D = p + rint(e) rounds half to
  even.  D never rounds up to 10^17: that needs |x| within 5e-18 (relative)
  below a power of ten 10^-5..10^16, and the doubles nearest below them all
  lie farther off.

This is the fixed-precision digit method of Ryū printf (Adams, OOPSLA 2019)
for the one precision the writer uses.  Each cell then becomes a fixed-width
byte row holding every character it could need: sign, ``0.000`` prefix, the
17 digits with a slot for the point after each, ``e-0X`` and the separator.
The digits are one lead digit and four 4-digit groups, each group one
``uint64`` from a 10,000-entry table.  A keep-table indexed by (X, digit
count, sign) blanks the unused slots to NUL and ``bytes.translate`` deletes
them.  ``0`` and ``-0`` are written into their rows directly.  Every other
cell (nan, ±inf, subnormal, |x| <= 1e-6, |x| >= 1e16) is formatted by one
``%`` call per block: its row holds ``%.17g``, and the block's text is the
format.
"""

from __future__ import annotations

import numpy as np

#: cells per block: a block's row arrays (48 bytes a cell) stay near 0.4 MB, so
#: writing a dataset adds nothing to a run's peak memory
BLOCK_CELLS = 1 << 13

#: bytes per cell row, a multiple of 8 for the uint64 view
_WIDTH = 48
_SIGN = 0         # "-"
_PREFIX = 1       # "0.000", slots 1..5
_DIGITS = 6       # digit i at slot 6 + 2i, the point after it at slot 7 + 2i
_EXP = 40         # "e-0X", slots 40..43
_SEP = 44         # "," or "\n"

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
    keep = np.stack([keep, keep], axis=2)        # (X, digit count, sign, slot)
    keep[:, :, 1, _SIGN] = ord("-")
    return (leads.view(np.uint64)[:, 0], groups.reshape(-1, 8).view(np.uint64)[:, 0],
            trailing, keep.reshape(-1, _WIDTH).view(np.uint64))


_LEADS, _GROUPS, _TRAILING, _KEEP = _tables()
_ALL_ONES = np.uint64(2 ** 64 - 1)
_PERCENT_17G = np.frombuffer(b"%.17g\0\0\0", np.uint64)[0]   # a row's first word


def _split(a):
    """Veltkamp's split of doubles into two 26-bit halves."""
    t = 134217729.0 * a   # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10 = np.array([10.0 ** p for p in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a, x):
    """a·10^(16 - x) as the exact sum p + e of two doubles (Dekker)."""
    p_index = 16 - x
    b_hi, b_lo = _POW10_HI.take(p_index), _POW10_LO.take(p_index)
    p = a * _POW10.take(p_index)
    a_hi, a_lo = _split(a)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def _digits_and_exponents(a):
    """(D, X) with a = D·10^(X-16) to 17 digits, D in [1e16, 1e17), for 1e-6 < a < 1e16."""
    x = np.clip(np.floor(np.log10(a)), -6, 15).astype(np.int64)
    p, e = _scaled(a, x)
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    moved = low | high
    if moved.any():
        moved = np.flatnonzero(moved)
        x[moved] += high[moved].astype(np.int64) - low[moved]
        p[moved], e[moved] = _scaled(a[moved], x[moved])
    return p.astype(np.int64) + np.rint(e).astype(np.int64), x


def _fast_rows(cells, a):
    """The rows of cells with 1e-6 < a = |cells| < 1e16, as (n, 6) uint64."""
    d, x = _digits_and_exponents(a)
    lead, rest = np.divmod(d, 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    groups = np.divmod(high, 10 ** 4) + np.divmod(low, 10 ** 4)
    t1, t2, t3, t4 = (_TRAILING.take(g) for g in groups)
    g1, g2, g3, g4 = groups
    zeros = t4 + (g4 == 0) * (t3 + (g3 == 0) * (t2 + (g2 == 0) * t1))
    key = ((x - _X_MIN) * 17 + 16 - zeros) * 2 + np.signbit(cells)

    words = np.empty((len(cells), _WIDTH // 8), np.uint64)
    words[:, 0] = _LEADS.take(lead)
    for j, group in enumerate(groups):
        words[:, 1 + j] = _GROUPS.take(group)
    words[:, 5] = _ALL_ONES
    words &= _KEEP.take(key, axis=0)
    return words


def _block_text(cells, separators):
    """One block of cells (row-major) as CSV bytes."""
    a = np.abs(cells)
    fast = (a > 1e-6) & (a < 1e16)
    if fast.all():
        text = _fast_rows(cells, a).view(np.uint8)
        text[:, _SEP] = separators
        return text.tobytes().translate(None, b"\0")
    text = np.zeros((len(cells), _WIDTH), np.uint8)
    if fast.any():
        text[fast] = _fast_rows(cells[fast], a[fast]).view(np.uint8)
    zero = a == 0.0       # "0" and "-0"
    text[zero, _DIGITS] = ord("0")
    text[zero & np.signbit(cells), _SIGN] = ord("-")
    # the other rows hold "%.17g", so the text is the format of one % call
    other = ~(fast | zero)
    text.view(np.uint64)[other, 0] = _PERCENT_17G
    text[:, _SEP] = separators
    template = text.tobytes().translate(None, b"\0").decode("ascii")
    return (template % tuple(cells[other].tolist())).encode("ascii")


def csv_body(columns):
    """Yield the rows of the equal-length float64 ``columns`` as ``%.17g`` CSV bytes.

    Cells are ``,``-separated and every row ends in ``\\n``; each yielded
    chunk holds whole rows.
    """
    n_cols = len(columns)
    block = max(1, BLOCK_CELLS // n_cols)
    separators = np.full((block, n_cols), ord(","), np.uint8)
    separators[:, -1] = ord("\n")
    for r0 in range(0, len(columns[0]), block):
        cells = np.column_stack([c[r0:r0 + block] for c in columns]).reshape(-1)
        yield _block_text(cells, separators.reshape(-1)[:len(cells)])
