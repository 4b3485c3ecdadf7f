"""Column formatters of the CSV and sidecar writers against the per-cell
oracles they replace: format_cell for the CSV, json.dumps for the JSON."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsim import sweeps
from qcsim.sweeps import format_cell, write_json_atomic

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
    object as another, as an axis repeated down a table is."""
    pool = draw(st.lists(cells, min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    return [pool[i] for i in picks]


def _joined(blocks):
    return [text for block in blocks for text in block]


SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(st.one_of(columns(FLOATS), columns(CELLS)))
def test_csv_column_matches_format_cell(column):
    with mock.patch.object(sweeps, "_BLOCK_ROWS", 7):
        assert _joined(sweeps._csv_blocks(column)) == [format_cell(v) for v in column]


@SETTINGS
@given(st.one_of(columns(FLOATS), columns(CELLS)))
def test_json_column_matches_json_dumps(column):
    with mock.patch.object(sweeps, "_BLOCK_ROWS", 7):
        assert _joined(sweeps._json_blocks(column)) == [json.dumps(v) for v in column]


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
