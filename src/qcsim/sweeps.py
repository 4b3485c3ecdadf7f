"""Sweep plumbing: grids, result containers, deterministic file output.

Data files carry no timestamps and print floats with 9 significant
digits (lowercase scientific outside [1e-4, 1e7)), so identical inputs
produce byte-identical CSVs.  Run metadata (device hash, tool version,
timestamp, per-point errors) lives in a JSON sidecar next to each CSV,
and a manifest is written atomically after every run.

The CSV and sidecar writers take a table as a header plus one sequence
per column.  They format a column at a time, with the same result as
`format_cell` (CSV) and `json.dumps` (sidecar) per cell: a float column
longer than one block in one array pass over its distinct values, a
str column longer than one block once per distinct string, any other
column cell by cell.  Rows are joined and written a block at a
time.  numpy is imported only for the array passes, so writing a short
table or a JSON document does not load it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class SweepResult:
    """Named coordinate vectors plus equally long observable columns in
    row-major order over the axes."""

    axes: Dict[str, Tuple[float, ...]]
    columns: Dict[str, tuple]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = 1
        for values in self.axes.values():
            expected *= len(values)
        for name, column in self.columns.items():
            if len(column) != expected:
                raise ValueError(
                    f"column '{name}' has {len(column)} entries, expected {expected}"
                )

    @property
    def n_points(self) -> int:
        out = 1
        for values in self.axes.values():
            out *= len(values)
        return out


@dataclass(frozen=True)
class AxisSpec:
    """Inclusive linear grid parsed from a start:stop:count flag."""

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValueError(f"axis count must be >= 2, got {self.count}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"axis start and stop must be finite, got {self.start}:{self.stop}")

    def values(self) -> Tuple[float, ...]:
        step = (self.stop - self.start) / (self.count - 1)
        return tuple(self.start + i * step for i in range(self.count))

    def int_values(self) -> Tuple[int, ...]:
        vals = self.values()
        out = tuple(int(round(v)) for v in vals)
        if any(abs(v - i) > 1e-9 for v, i in zip(vals, out)):
            raise ValueError(f"axis {self.start}:{self.stop}:{self.count} is not integral")
        return out


def parse_axis(text: str) -> AxisSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"axis spec must be start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ValueError(f"axis spec must be numeric start:stop:count, got {text!r}") from None
    return AxisSpec(start=start, stop=stop, count=count)


def format_float(x: float) -> str:
    """9 significant digits; lowercase scientific where |x| < 1e-4 or >= 1e7."""
    if x != x:
        return "nan"
    if x == 0.0:
        return "0"  # also for -0.0
    mag = abs(x)
    if mag < 1e-4 or mag >= 1e7:
        return f"{x:.8e}"
    return f"{x:.9g}"


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format_float(float(value))


def _float_csv_texts(values: List[float]) -> List[str]:
    """format_float of each value: one `.9g` pass, then format_float
    again for only the cells it prints otherwise (zero, NaN, |x| < 1e-4
    or >= 1e7)."""
    import numpy as np

    texts = list(map("%.9g".__mod__, values))
    mag = np.abs(np.array(values))
    for i in np.flatnonzero(~((mag >= 1e-4) & (mag < 1e7))).tolist():
        texts[i] = format_float(values[i])
    return texts


# A newline between items, and `indent` left at None, so that `encode`
# runs the C encoder.  A scalar's JSON never holds a raw newline (strings
# escape it), so splitting the output at newlines yields exactly
# json.dumps of each item.
_CELLS_ENCODER = json.JSONEncoder(separators=("\n", ": "))


def _json_texts(values: list) -> List[str]:
    """json.dumps of each scalar value."""
    return _CELLS_ENCODER.encode(values)[1:-1].split("\n") if values else []


# Rows formatted and written at a time, so that no text is held for a
# whole large table: multi-megabyte strings made anew on every large
# sweep fragmented the heap and raised the process's peak RSS, and a
# string per cell of the table doubled the writers' peak memory.
_BLOCK_ROWS = 1000


def _text_blocks(
    column: Sequence,
    float_texts: Callable[[List[float]], List[str]],
    cell_texts: Callable[[list], List[str]],
) -> Iterator[List[str]]:
    """The text of each cell of a column, _BLOCK_ROWS cells at a time.

    A column of floats longer than one block goes through `float_texts`,
    once per distinct bit pattern where values repeat: an axis value
    repeated down the column is formatted once, while 0.0 and -0.0 stay
    apart.  A column of str longer than one block, such as a constant
    label column, goes through `cell_texts` once per distinct string.
    The distinct values must all be of type str exactly: 1, 1.0 and
    True compare equal but print apart, while a str compares equal only
    to a str.  Any other column goes through `cell_texts` cell by cell;
    for a block or less, numpy's fixed cost per call outweighs the
    saving.
    """
    size = _BLOCK_ROWS
    if len(column) > size and type(column[0]) is str:
        distinct = list(dict.fromkeys(column))
        if all(type(value) is str for value in distinct):
            text = dict(zip(distinct, cell_texts(distinct))).__getitem__
            for start in range(0, len(column), size):
                yield list(map(text, column[start : start + size]))
            return
    elif len(column) > size and set(map(type, column)) == {float}:
        import numpy as np

        bits, index = np.unique(np.array(column).view(np.uint64), return_inverse=True)
        if len(bits) < len(column):
            texts = np.array(float_texts(bits.view(np.float64).tolist()), dtype=object)
            for start in range(0, len(column), size):
                yield texts[index[start : start + size]].tolist()
            return
        cell_texts = float_texts  # all distinct: the array pass, block by block
    for start in range(0, len(column), size):
        yield cell_texts(list(column[start : start + size]))


def _csv_blocks(column: Sequence) -> Iterator[List[str]]:
    """format_cell of each cell of a column, in blocks."""
    return _text_blocks(column, _float_csv_texts, lambda cells: list(map(format_cell, cells)))


def _json_blocks(column: Sequence) -> Iterator[List[str]]:
    """json.dumps of each scalar cell of a column, in blocks."""
    return _text_blocks(column, _json_texts, _json_texts)


def _row_count(header: Sequence[str], columns: Sequence[Sequence]) -> int:
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for a {len(header)}-name header")
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    return lengths.pop() if lengths else 0


def _write_rows(handle, column_blocks: List[Iterator[List[str]]], cell_sep: str, row_sep: str) -> None:
    """Write the rows across the columns' text blocks, cells joined by
    `cell_sep` and rows by `row_sep`."""
    for i, block in enumerate(zip(*column_blocks)):
        if i:
            handle.write(row_sep)
        handle.write(row_sep.join(map(cell_sep.join, zip(*block))))


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """UTF-8, LF line endings, exactly the given header, then one line per
    row of the equally long `columns` (one per header name)."""
    n_rows = _row_count(header, columns)
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        if n_rows:
            _write_rows(handle, [_csv_blocks(column) for column in columns], ",", "\n")
            handle.write("\n")


def write_sidecar(path: Path, header: Sequence[str], columns: Sequence[Sequence], metadata: dict) -> None:
    """JSON mirror of a CSV plus run metadata (timestamps allowed here).

    The bytes are those of json.dumps(doc, indent=2, sort_keys=True) for
    doc = {"header", "metadata", "rows"}, where the rows run across the
    equally long `columns` of scalars.  The cells are encoded a column
    at a time by the C encoder and laid out as the indenting encoder
    would.
    """
    n_rows = _row_count(header, columns)
    text = json.dumps(
        {"header": list(header), "metadata": metadata, "rows": []}, indent=2, sort_keys=True
    )
    with path.open("w", encoding="utf-8") as handle:
        if not n_rows:
            handle.write(text + "\n")
            return
        # "rows" sorts last, so the document ends with its empty list.
        handle.write(text[: -len("[]\n}")] + "[\n    [\n      ")
        blocks = [_json_blocks(column) for column in columns]
        _write_rows(handle, blocks, ",\n      ", "\n    ],\n    [\n      ")
        handle.write("\n    ]\n  ]\n}\n")


def write_json_atomic(path: Path, document: dict) -> None:
    """Write JSON via a temp file and rename, so readers never see a
    partial document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def device_hash(device_dict: dict) -> str:
    """Stable short hash of a serialized device config."""
    canonical = json.dumps(device_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def map_points(fn: Callable, points: Sequence) -> List:
    """Apply `fn` to each grid point, preserving order."""
    return [fn(point) for point in points]
