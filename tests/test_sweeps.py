"""The CSV writer's column formatter, and the sweep CSV written, against
the per-cell oracle they replace, format_cell; and the atomic JSON
writer."""

import itertools
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsim import sweeps
from qcsim.cli import _write_sweep
from qcsim.sweeps import SweepResult, Tiled, format_cell, write_json_atomic

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
