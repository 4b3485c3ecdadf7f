"""Sweep plumbing: grids, result containers, deterministic file output.

Data files carry no timestamps and print floats with 9 significant
digits (lowercase scientific outside [1e-4, 1e7)), so identical inputs
produce byte-identical CSVs.  Run metadata (device hash, tool version,
timestamp, per-point errors) lives in a JSON sidecar next to each CSV,
and a manifest is written atomically after every run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple


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
        x = 0.0  # normalize -0.0
        return "0"
    mag = abs(x)
    if mag < 1e-4 or mag >= 1e7 or math.isinf(mag):
        return f"{x:.8e}"
    return f"{x:.9g}"


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format_float(float(value))


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """UTF-8, LF line endings, exactly the given header."""
    lines = [",".join(header)]
    lines.extend(",".join(format_cell(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# Item separator of the cells at the sidecar's row indentation.  With
# `indent` left at None, `encode` runs the C encoder.
_ROWS_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))
# Rows per encoder call: enough to amortize the call, few enough that no
# multi-megabyte string is built.  Such strings, made anew on every
# large sweep, fragmented the heap and raised the process's peak RSS.
_ROWS_PER_BLOCK = 500


def _sidecar_rows(rows: Sequence[Sequence]) -> str:
    """The rows as json.dumps(indent=2) lays them out inside the sidecar.

    One C-encoder call puts every cell in place; only the row brackets
    then move onto their own lines.  Cells are scalars, whose encoding
    never holds a raw newline, so "],<sep>[" marks exactly the row
    boundaries, and "[<newline>      <newline>    ]" exactly an empty row.
    """
    text = _ROWS_ENCODER.encode(rows)[1:-1].replace("],\n      [", "\n    ],\n    [\n      ")
    return ("    [\n      " + text[1:-1] + "\n    ]").replace("[\n      \n    ]", "[]")


def write_sidecar(path: Path, header: Sequence[str], rows: Sequence[Sequence], metadata: dict) -> None:
    """JSON mirror of a CSV plus run metadata (timestamps allowed here).

    The bytes are those of json.dumps(doc, indent=2, sort_keys=True) for
    doc = {"header", "metadata", "rows"}, with the rows (lists or tuples
    of scalars) encoded in blocks by the C encoder instead of the
    pure-Python indenting one.
    """
    text = json.dumps(
        {"header": list(header), "metadata": metadata, "rows": []}, indent=2, sort_keys=True
    )
    if not rows:
        parts = [text + "\n"]
    else:
        # "rows" sorts last, so the document ends with its empty list.
        parts = [text[: -len("[]\n}")] + "[\n"]
        for start in range(0, len(rows), _ROWS_PER_BLOCK):
            block = _sidecar_rows(rows[start : start + _ROWS_PER_BLOCK])
            parts.append(",\n" + block if start else block)
        parts.append("\n  ]\n}\n")
    with path.open("w", encoding="utf-8") as handle:
        handle.writelines(parts)


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


@dataclass(frozen=True)
class RunManifest:
    """What ran and where the outputs went."""

    config_path: str
    subcommand: str
    flags: dict
    output_paths: Tuple[str, ...]
    duration_s: float

    def write(self, out_dir: Path) -> Path:
        path = Path(out_dir) / f"{self.subcommand}.manifest.json"
        write_json_atomic(
            path,
            {
                "config_path": self.config_path,
                "subcommand": self.subcommand,
                "flags": self.flags,
                "output_paths": list(self.output_paths),
                "duration_s": self.duration_s,
            },
        )
        return path


def device_hash(device_dict: dict) -> str:
    """Stable short hash of a serialized device config."""
    canonical = json.dumps(device_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def map_points(fn: Callable, points: Sequence) -> List:
    """Apply `fn` to each grid point, preserving order."""
    return [fn(point) for point in points]
