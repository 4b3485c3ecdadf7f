"""The CSV writer's column formatter, its numpy kernel, and the sweep CSV
written, against the per-cell oracle they replace, format_cell; and the
atomic JSON writer."""

import io
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcsim
from qcsim import csvkernel, sweeps
from qcsim.cli import _write_sweep
from qcsim.sweeps import SweepResult, Tiled, format_cell, format_float, write_csv, write_json_atomic

# The edges of format_float's fixed-point range and the values just
# inside it, signed zeros and the non-finite values.
EDGES = [
    1e-4, float(np.nextafter(1e-4, 0.0)), 1e7, float(np.nextafter(1e7, 0.0)), 9999999.99999,
    9999999.995, 0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
]
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EDGES + [-x for x in EDGES]),
)
CELLS = st.one_of(FLOATS, st.integers(-(2**70), 2**70), st.booleans(), st.none(), st.text(max_size=4))


@st.composite
def columns(draw, cells):
    """A column drawn from a few values, each cell possibly the same
    object as another, as an axis repeated down a table is: a plain
    list, or a `Tiled` column of a few values."""
    pool = draw(st.lists(cells, min_size=1, max_size=12))
    if draw(st.booleans()):
        values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
        return Tiled(values, draw(st.integers(1, 5)), draw(st.integers(0, 40)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    return [pool[i] for i in picks]


def _cells(column):
    """The cells of a column, a `Tiled` one by its definition."""
    if isinstance(column, Tiled):
        return [column.values[(i // column.inner) % len(column.values)] for i in range(len(column))]
    return column


def _joined(blocks):
    return [text for block in blocks for text in block]


SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(st.one_of(columns(FLOATS), columns(CELLS)))
def test_csv_column_matches_format_cell(column):
    with mock.patch.object(sweeps, "_BLOCK_ROWS", 7):
        assert _joined(sweeps._csv_blocks(column)) == [format_cell(v) for v in _cells(column)]


@st.composite
def sweep_tables(draw):
    """1-3 axes with repeated values, result columns over their grid
    (the last a `Tiled` constant, as leakage's channel is), and a few
    failed rows."""
    pool = draw(st.lists(FLOATS, min_size=1, max_size=4))
    axes = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=9), min_size=1, max_size=3))
    n = math.prod(map(len, axes))
    cells = draw(st.lists(CELLS, min_size=1, max_size=8))
    picks = st.lists(st.integers(0, len(cells) - 1), min_size=n, max_size=n)
    results = [[cells[i] for i in draw(picks)] for _ in range(2)] + [Tiled([draw(CELLS)], n, n)]
    failed = sorted(draw(st.sets(st.integers(0, n - 1), max_size=4)))
    return axes, results, failed


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sweep_tables())
def test_sweep_files_match_per_cell_oracles(table):
    # `_write_sweep`'s CSV across several write blocks, against the
    # grid's rows materialised in full and written cell by cell: every
    # grid point is one row, failed or not.  The entries it returns for
    # the meta file name each error's row and that row's outer-axis
    # value, and the CSV it wrote.
    axes, results, failed = table
    header = [f"a{k}" for k in range(len(axes))] + [f"r{j}" for j in range(len(results))]
    grid = list(itertools.product(*axes))
    result_cells = [_cells(column) for column in results]
    rows = [list(point) + [cells[r] for cells in result_cells] for r, point in enumerate(grid)]
    errors = [{"row": r, "a0": grid[r][0], "error": f"point {r}"} for r in failed]
    result = SweepResult(
        axes={f"a{k}": tuple(values) for k, values in enumerate(axes)},
        columns={f"r{j}": column for j, column in enumerate(results)},
        metadata={"errors": [{"row": r, "library_axis": r, "error": f"point {r}"} for r in failed]},
    )
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(sweeps, "_BLOCK_ROWS", 7):
        out = Path(tmp)
        units = dict.fromkeys(result.columns)
        entries = _write_sweep(out / "sweep.csv", header, axes, result, units)
        assert [p.name for p in out.iterdir()] == ["sweep.csv"]
        csv = (out / "sweep.csv").read_bytes()
    lines = [header] + [[format_cell(cell) for cell in row] for row in rows]
    assert csv == "".join(",".join(line) + "\n" for line in lines).encode("utf-8")
    assert entries == {"errors": errors, "outputs": ["sweep.csv"]}


def _kernel_lines(values):
    """The kernel's text of each float of `values`, one per line."""
    buffer = io.BytesIO()
    csvkernel.write_rows(buffer, [array("d", values)])
    return buffer.getvalue().decode("utf-8").split("\n")[:-1]


# The edges of format_float's fixed-point range with their neighbours,
# mantissas that round up to 10 at the tenth digit, exact binary ties at
# the tenth digit, doubles whose scaled mantissa rounds to a tie that
# the exact value is not at, and the extreme doubles.
KERNEL_EDGES = [
    *(float(np.nextafter(v, to)) for v in (1e-4, 1e7) for to in (0.0, v, math.inf)),
    9999999.995, 0.0000999999999995, 0.9999999995,
    1234567.125, 100000000.5, 100000001.5,
    34563156.45, 79744.48555, 3.254372595e-24,
    5e-324, 1.7976931348623157e308,
]  # fmt: skip


def test_kernel_prints_its_edge_cases_as_format_float():
    values = KERNEL_EDGES + [-v for v in KERNEL_EDGES]
    assert _kernel_lines(values) == [format_float(v) for v in values]


# Raw 64-bit patterns reach every exponent, subnormals and NaN payloads;
# the sampled ones are +-0, +-inf, a quiet and a signalling NaN.
BIT_PATTERNS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 2**63, 0x7FF0 << 48, 0xFFF0 << 48, (0x7FF8 << 48) + 1, (0x7FF0 << 48) + 1]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(BIT_PATTERNS, min_size=1, max_size=40))
def test_kernel_matches_format_float_on_raw_bit_patterns(bits):
    values = list(struct.unpack(f"<{len(bits)}d", struct.pack(f"<{len(bits)}Q", *bits)))
    with mock.patch.object(csvkernel, "_BLOCK_ROWS", 7):
        assert _kernel_lines(values) == [format_float(v) for v in values]


@st.composite
def float64_tables(draw):
    """Tables the kernel writes: `array("d")` and `Tiled` columns of any
    cells, at least one of the former."""
    n = draw(st.integers(1, 30))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            columns.append(array("d", draw(st.lists(FLOATS, min_size=n, max_size=n))))
        else:
            values = draw(st.lists(CELLS, min_size=1, max_size=5))
            columns.append(Tiled(values, draw(st.integers(1, 5)), n))
    columns.insert(draw(st.integers(0, len(columns))), array("d", draw(st.lists(FLOATS, min_size=n, max_size=n))))
    return columns


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(float64_tables())
def test_float64_tables_match_the_per_cell_path(columns):
    # The same table written by the kernel and, as lists, cell by cell.
    header = [f"c{j}" for j in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(csvkernel, "_BLOCK_ROWS", 7):
        kernel, cells = Path(tmp) / "kernel.csv", Path(tmp) / "cells.csv"
        with mock.patch.object(csvkernel, "write_rows", wraps=csvkernel.write_rows) as spy:
            write_csv(kernel, header, columns)
            write_csv(cells, header, [list(column) for column in columns])
        assert spy.call_count == 1
        assert kernel.read_bytes() == cells.read_bytes()


# Tables that take the per-cell path, and the cells it prints.
_PER_CELL_TABLES = {
    "array_beside_none": [array("d", [0.5, 1e-9, -3.0]), [None, 2.5, "x"]],
    "array_beside_str": [array("d", [0.5, 1e-9, -3.0]), "abc"],
    "zero_rows": [array("d"), Tiled([1.0], 1, 0)],
    "tiled_only": [Tiled([0.25, "a"], 2, 5), Tiled([None], 5, 5)],
}
_PER_CELL_SCRIPT = """
import sys
from array import array
from pathlib import Path
from qcsim.sweeps import Tiled, write_csv
numpy_loaded = "numpy" in sys.modules
for name, columns in {tables}.items():
    write_csv(Path(sys.argv[1]) / f"{{name}}.csv", [f"c{{j}}" for j in range(len(columns))], columns)
assert numpy_loaded or "numpy" not in sys.modules, "numpy was imported"
"""


def _column_source(column) -> str:
    """Python source that rebuilds a column of _PER_CELL_TABLES."""
    if isinstance(column, Tiled):
        return f"Tiled({list(column.values)!r}, {column.inner}, {len(column)})"
    if isinstance(column, array):
        return f"array('d', {list(column)!r})"
    return repr(column)


def test_other_tables_take_the_per_cell_path(tmp_path):
    # In a fresh process, which has not loaded numpy: its bytes, and
    # numpy still not loaded.
    tables = "{" + ", ".join(
        f"{name!r}: [{', '.join(_column_source(c) for c in columns)}]" for name, columns in _PER_CELL_TABLES.items()
    ) + "}"
    src = str(Path(qcsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", _PER_CELL_SCRIPT.format(tables=tables), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    for name, columns in _PER_CELL_TABLES.items():
        rows = [[f"c{j}" for j in range(len(columns))]] + [
            [format_cell(cell) for cell in row] for row in zip(*map(_cells, columns))
        ]
        want = "".join(",".join(row) + "\n" for row in rows).encode("utf-8")
        assert (tmp_path / f"{name}.csv").read_bytes() == want, name


def test_write_json_atomic_leaves_nothing_on_failure(tmp_path):
    # A document that cannot be encoded leaves neither the target nor
    # its temporary file; a good one replaces the target whole.
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        write_json_atomic(path, {"x": object()})
    assert list(tmp_path.iterdir()) == []
    write_json_atomic(path, {"x": 1})
    write_json_atomic(path, {"y": [2]})
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
    assert json.loads(path.read_text()) == {"y": [2]}
