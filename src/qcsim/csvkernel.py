"""The CSV writer's numpy kernel, for tables of float64 buffers.

`sweeps.write_csv` hands this module a table whose columns are all
`array("d")` or `Tiled`, at least one an `array("d")` (leakage's
populations beside its axes and channel); no other table reaches it,
and nothing else imports it.  It writes the bytes the per-cell path
writes, `format_float` of each float64 cell and `format_cell` of each
`Tiled` value, a block of rows at a time.

A block is one matrix of 8-byte words, a row per CSV row: each cell
gets a field of whole words, its text and then its comma (the row's
newline in the last cell) at fixed offsets.  Unused bytes hold PAD,
0xFF, a byte no UTF-8 text contains, and are deleted when the block is
written.  Each word of a field is a table lookup, or a bitwise AND or
OR of lookups, done for the whole block at once.  A float64 cell x
becomes:

* e = floor(log10|x|) and m = |x| * 10**(8 - e), a multiplication by
  an exact power of ten up to 10**22 and a division for 8 - e < 0;
* the 9 digits of rint(m), four at a time from a lookup table, each
  digit followed by a slot that holds PAD or the '.';
* for 1e-4 <= |x| < 1e7, the digits laid out positionally, after a
  "0.000" prefix of the right length where e < 0, with the trailing
  zeros of the fraction (and a bare '.') turned to PAD; otherwise the
  `.8e` layout, the '.' after the first digit and an "e-05"-style
  exponent after the last.

m carries at most about 3e-7 of rounding error, so rint(m) is the
correctly rounded 9-digit mantissa wherever frac(m) is more than 1e-5
from one half.  Any cell this does not prove is printed by
`format_float` itself: 0, -0, NaN and +-inf, |x| outside
[1e-280, 1e280), |frac(m) - 1/2| <= 1e-5 (exact ties included), and
rint(m) outside [1e8, 1e9), where e was misestimated or the mantissa
rounds up to 10.
"""

from __future__ import annotations

from typing import BinaryIO, List, Sequence

import numpy as np

from .sweeps import Tiled, format_cell, format_float

# Rows per block: large enough that numpy's per-call cost is spread over
# many rows, small enough that a block's arrays stay a few hundred KB.
_BLOCK_ROWS = 4096

PAD = 0xFF
_PAD = bytes([PAD])


def _words(rows: bytes, width: int) -> np.ndarray:
    """Rows of `width` bytes, laid end to end in `rows`, as rows of
    uint64 words: a view of `rows`, read-only."""
    return np.frombuffer(rows, np.uint8).reshape(-1, width).view(np.uint64)


# A float field is four words, by byte:
#   0 sign, 1-5 "0.000" prefix, 6 digit 0, 7 slot 0;
#   8-15 digits 1-4, each followed by its slot;
#   16-23 digits 5-8, each but the last followed by its slot, PAD;
#   24-28 'e', exponent sign and 2 or 3 exponent digits, 29 separator, PAD.
_FIELD_WORDS = 4

# Word 1 or 2 of each 4-digit group 0-9999: its digits, each followed
# by a PAD slot; and the number of trailing zero digits of each (four
# for 0).  They are built by repeats and strided adds on uint8: built
# with int64 arithmetic, importing this module left about 1.2 MB more
# resident, numpy code that the kernel does not run and freed
# temporaries.
_DIGITS = np.frombuffer(b"0123456789", np.uint8)
_SPREAD = np.full((10000, 8), PAD, dtype=np.uint8)
_TRAILING_ZEROS = np.zeros(10000, dtype=np.uint8)
for _k in range(4):
    _SPREAD[:, 6 - 2 * _k] = np.tile(np.repeat(_DIGITS, 10**_k), 1000 // 10**_k)
    _TRAILING_ZEROS[:: 10 ** (_k + 1)] += 1
_SPREAD = _SPREAD.view(np.uint64)[:, 0]
# Each correctly rounded, as Python parses it.
_POW10 = np.array([float(f"1e{k}") for k in range(309)])

# Word 0 of digit d (row d) and of digit d after a minus sign (row 10 + d).
_FIRST = _words(b"".join(sign + _PAD * 5 + b"%d" % d + _PAD for sign in (_PAD, b"-") for d in range(10)), 8)[:, 0]

# Words 1 and 2 when the last digit printed is digit 0-8 (the row): PAD
# at each later digit, to be ORed in.
_STRIP = _words(b"".join(b"\0\0" * last + (_PAD + b"\0") * (8 - last) for last in range(9)), 16).T.copy()


def _layout(prefix: bytes = b"", dot: int = -1, exponent: bytes = b"") -> bytes:
    """A field with PAD at the sign, the digits and the separator, to be
    ANDed with them: the "0.000" `prefix`, the '.' after digit `dot`,
    and the `exponent`."""
    field = bytearray(_PAD * 8 * _FIELD_WORDS)
    field[1 : 1 + len(prefix)] = prefix
    if dot >= 0:
        field[7 + 2 * dot] = ord(".")
    field[24 : 24 + len(exponent)] = exponent
    return bytes(field)


# Each cell's layout.  Row e + 300 is the `.8e` layout of exponent e in
# [-300, 300]; row _FIXED + 2 * (e + 4) + dot is the positional layout
# of exponent e in [-4, 7], with the '.' after digit e kept if `dot`.
# An exponent estimated one too high at a power of ten still finds its
# row.
_FIXED = 601
_LAYOUTS = _words(
    b"".join(_layout(dot=0, exponent=b"e%+03d" % e) for e in range(-300, 301))
    + b"".join(_layout(b"0.000"[: 1 - e] if e < 0 else b"", e if dot and e >= 0 else -1)
               for e in range(-4, 8) for dot in (0, 1)),  # fmt: skip
    8 * _FIELD_WORDS,
).T.copy()
del _DIGITS, _k


def _separator(sep: bytes) -> np.uint64:
    """Ones but for `sep` at the separator's byte of word 3."""
    return _words(_PAD * 5 + sep + _PAD * 2, 8)[0, 0]


def _float_fields(x: np.ndarray, sep: bytes, out: np.ndarray) -> None:
    """Write the field of each cell of float64 `x`, followed by `sep`,
    into the rows of `out` (len(x) x _FIELD_WORDS uint64 words)."""
    a = np.abs(x)
    ok = (a >= 1e-280) & (a < 1e280)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    k = 8 - e
    m = a * _POW10.take(k, mode="clip") / _POW10.take(-k, mode="clip")
    r = np.rint(m)
    bad = ~ok | (np.abs(m - r) >= 0.5 - 1e-5) | (r < 1e8) | (r >= 1e9)
    r[bad] = 1e8
    r = r.astype(np.int64)
    head = r // 10000
    low = r - head * 10000  # digits 5-8
    first = head // 10000  # digit 0
    mid = head - first * 10000  # digits 1-4
    # The last digit printed: all nine in the `.8e` layout; positionally,
    # the last nonzero one or the units digit, whichever is later.
    fixed = (a >= 1e-4) & (a < 1e7)
    zeros = _TRAILING_ZEROS.take(low) + (low == 0) * _TRAILING_ZEROS.take(mid)
    last = np.where(fixed, np.maximum(e, 8 - zeros), 8)
    layout = np.where(fixed, _FIXED + 2 * (e + 4) + (last > e), e + 300)
    layout[bad] = 0
    out[:, 0] = _LAYOUTS[0].take(layout) & _FIRST.take(first + 10 * (x < 0))
    out[:, 1] = _LAYOUTS[1].take(layout) & _SPREAD.take(mid) | _STRIP[0].take(last)
    out[:, 2] = _LAYOUTS[2].take(layout) & _SPREAD.take(low) | _STRIP[1].take(last)
    out[:, 3] = _LAYOUTS[3].take(layout) & _separator(sep)
    rows = np.flatnonzero(bad)
    if len(rows):
        texts = b"".join((format_float(v).encode() + sep).ljust(8 * _FIELD_WORDS, _PAD) for v in x[rows].tolist())
        out[rows] = _words(texts, 8 * _FIELD_WORDS)


def _tiled_words(column: Tiled, sep: bytes) -> np.ndarray:
    """The UTF-8 text of each of a Tiled column's values followed by
    `sep`, PAD-padded to whole words: row j holds word j of each."""
    texts = [format_cell(value).encode("utf-8") + sep for value in column.values]
    width = -(-max(map(len, texts)) // 8) * 8
    return _words(b"".join(t.ljust(width, _PAD) for t in texts), width).T.copy()


def write_rows(handle: BinaryIO, columns: Sequence) -> None:
    """Write the CSV rows of equally long, nonempty `columns`, each an
    `array("d")` or a `Tiled` column, to the binary `handle`."""
    n = len(columns[0])
    seps = [b","] * (len(columns) - 1) + [b"\n"]
    fields: List[tuple] = []  # (first word, float64 view or Tiled column, its words, separator)
    start = 0
    for column, sep in zip(columns, seps):
        if isinstance(column, Tiled):
            words = _tiled_words(column, sep)
            fields.append((start, column, words, sep))
            start += len(words)
        else:
            fields.append((start, np.frombuffer(column, dtype=np.float64), None, sep))
            start += _FIELD_WORDS
    block = np.empty((min(n, _BLOCK_ROWS), start), dtype=np.uint64)
    for first in range(0, n, _BLOCK_ROWS):
        rows = block[: min(n - first, _BLOCK_ROWS)]
        index = np.arange(first, first + len(rows))
        for word, column, words, sep in fields:
            if words is None:
                _float_fields(column[first : first + len(rows)], sep, rows[:, word : word + _FIELD_WORDS])
            elif words.shape[1] == 1:
                rows[:, word : word + len(words)] = words[:, 0]
            else:
                values = index // column.inner % words.shape[1]
                for j, value_words in enumerate(words, word):
                    rows[:, j] = value_words.take(values)
        handle.write(rows.tobytes().translate(None, _PAD))
