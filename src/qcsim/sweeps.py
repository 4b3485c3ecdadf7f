"""Sweep plumbing: grids, result containers, deterministic file output.

Data files carry no timestamps and print floats with 9 significant
digits (lowercase scientific outside [1e-4, 1e7)), so identical inputs
produce byte-identical files.  A run's metadata (device hash, tool
version, timestamp, flags, per-point errors) goes into one
`<subcommand>.meta.json` next to them, written by `write_sidecar`; it,
like every JSON file, is written atomically.

The CSV writer takes a table as a header plus one sequence per column,
and writes the bytes that `format_cell` gives cell by cell.  A `Tiled`
column, such as a grid axis or a constant label, has each of its values
formatted once and those texts repeated down it.  Any other column is
formatted a block of rows at a time, by `format_float` for a cell of
type float and `format_cell` for any other cell.  Rows are joined and
written a block at a time.  A nonempty table of `Tiled` and
`array("d")` columns, at least one of the latter, goes instead to the
numpy kernel in `csvkernel`, which writes the same bytes; this module
imports it on that branch only, so every other table is written with
the standard library alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from array import array
from collections import abc
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class SweepResult:
    """Named coordinate vectors plus equally long observable columns in
    row-major order over the axes."""

    axes: Dict[str, Tuple[float, ...]]
    columns: Dict[str, Sequence]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.n_points
        for name, column in self.columns.items():
            if len(column) != n:
                raise ValueError(f"column '{name}' has {len(column)} entries, expected {n}")

    @property
    def n_points(self) -> int:
        return math.prod(map(len, self.axes.values()))


class Tiled(abc.Sequence):
    """A column of `length` cells that repeats a few values in grid
    order: cell i is values[(i // inner) % len(values)].  An axis of a
    row-major grid repeats each value `inner` times, the product of the
    lengths of the axes inside it; a constant column is one value
    repeated `length` times.  The writers format each value once."""

    __slots__ = ("values", "inner", "length")

    def __init__(self, values: Sequence, inner: int, length: int) -> None:
        self.values, self.inner, self.length = tuple(values), inner, length

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int):
        i = range(self.length)[i]
        return self.values[i // self.inner % len(self.values)]

    def __iter__(self) -> Iterator:
        # One period of the column, then that period over and over: C
        # iterators throughout, and no per-cell object where inner is 1.
        period = tuple(chain.from_iterable(map(repeat, self.values, repeat(self.inner))))
        return islice(chain.from_iterable(repeat(period, self.length)), self.length)


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


# Rows formatted and written at a time, so that no text is held for a
# whole large table: multi-megabyte strings made anew on every large
# sweep fragmented the heap and raised the process's peak RSS, and a
# string per cell of the table doubled the writer's peak memory.
_BLOCK_ROWS = 1000


def _csv_texts(cells: Sequence) -> List[str]:
    """format_cell of each cell, with a float handed to format_float
    directly."""
    return [format_float(x) if type(x) is float else format_cell(x) for x in cells]


def _csv_blocks(column: Sequence) -> Iterator[List[str]]:
    """format_cell of each cell of a column, _BLOCK_ROWS cells at a time.

    A `Tiled` column has its values formatted once and those texts tiled
    down the column; any other column is formatted a block at a time.
    """
    starts = range(0, len(column), _BLOCK_ROWS)
    if isinstance(column, Tiled):
        cells = iter(Tiled(_csv_texts(column.values), column.inner, len(column)))
        return (list(islice(cells, _BLOCK_ROWS)) for _ in starts)
    return (_csv_texts(column[start : start + _BLOCK_ROWS]) for start in starts)


def _float64_table(columns: Sequence[Sequence]) -> bool:
    """Whether every column is a `Tiled` or an `array("d")` column, and
    at least one the latter: the tables the numpy kernel writes."""
    floats = [type(column) is array and column.typecode == "d" for column in columns]
    return any(floats) and all(f or isinstance(c, Tiled) for f, c in zip(floats, columns))


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """UTF-8, LF line endings, exactly the given header, then one line per
    row of the equally long `columns` (one per header name)."""
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for a {len(header)}-name header")
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    if lengths != {0} and _float64_table(columns):
        from .csvkernel import write_rows

        with path.open("wb") as handle:
            handle.write((",".join(header) + "\n").encode("utf-8"))
            write_rows(handle, columns)
        return
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for block in zip(*map(_csv_blocks, columns)):
            handle.write("\n".join(map(",".join, zip(*block))))
            handle.write("\n")


def write_sidecar(path: Path, metadata: dict) -> None:
    """A run's metadata file: `metadata` as one flat JSON object
    (timestamps allowed here), written by `write_json_atomic`."""
    write_json_atomic(path, metadata)


def write_json_atomic(path: Path, document: dict) -> None:
    """Write JSON via a sibling `.{name}.{pid}.tmp` file and rename, so
    readers never see a partial document.  The file gets the same
    umask mode as the CSVs."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def device_hash(device_dict: dict) -> str:
    """Stable short hash of a serialized device config."""
    canonical = json.dumps(device_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def map_points(fn: Callable, points: Sequence) -> List:
    """Apply `fn` to each grid point, preserving order."""
    return [fn(point) for point in points]
