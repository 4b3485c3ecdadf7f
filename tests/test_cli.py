"""Output formatting, sweep plumbing, and the command-line workflow."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qcsim
import qcsim.cli
from qcsim import (
    DEFAULT_COUPLER_ANHARM,
    ConfigError,
    LabelingError,
    RegimeError,
    SquidState,
    SweepResult,
    angular_to_ghz,
    device_to_dict,
    effective_coupling,
    format_float,
    ghz_to_angular,
    leakage_sweep,
    load_device,
    parse_axis,
    qubit_spectrum,
    solve_dispersion,
    zz_exact,
    zz_perturbative,
)
from qcsim.cli import _build_parser, main
from qcsim.constants import TWO_PI
from qcsim.sweeps import AxisSpec, Tiled, device_hash, format_cell, map_points, write_csv, write_sidecar

HEADERS = {
    "modes.csv": "flux,mode,kl,freq_ghz,lambda,anharm_mhz",
    "coupling.csv": "omega_c_ghz,g12_mhz,g1c_mhz,g2c_mhz,geff_mhz",
    "zz.csv": "omega_c_ghz,xi2_khz,xi3_khz,xi4_khz,xi_pert_khz,xi_exact_khz",
    "leakage.csv": "amp_ghz,n_cz,p_comp,p_leak,channel",
}


# --- formatting -----------------------------------------------------------


def test_float_format_nine_significant_digits():
    assert format_float(1.23456789012) == "1.23456789"
    assert format_float(1234567.891) == "1234567.89"
    assert format_float(0.000123456789) == "0.000123456789"


def test_float_format_scientific_thresholds():
    assert format_float(1.23456789e-5) == "1.23456789e-05"
    assert format_float(9.9e-5) == "9.90000000e-05"
    assert format_float(1.23456789e7) == "1.23456789e+07"
    assert format_float(-4.2e9) == "-4.20000000e+09"
    assert format_float(9999999.0) == "9999999"


def test_float_format_zero_and_sign():
    assert format_float(0.0) == "0"
    assert format_float(-0.0) == "0"
    assert format_float(-1.5) == "-1.5"


def test_axis_parsing():
    axis = parse_axis("0:0.45:46")
    assert axis.count == 46
    values = axis.values()
    assert values[0] == 0.0 and values[-1] == pytest.approx(0.45)
    with pytest.raises(ValueError):
        parse_axis("0:1")
    with pytest.raises(ValueError):
        parse_axis("a:b:c")
    with pytest.raises(ValueError):
        parse_axis("0:1:1")
    with pytest.raises(ValueError):
        AxisSpec(0.0, 1.0, 1)
    assert AxisSpec(1, 5, 5).int_values() == (1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        AxisSpec(1, 2, 3).int_values()


def test_sweep_result_length_validation():
    with pytest.raises(ValueError, match="column"):
        SweepResult(axes={"a": (1.0, 2.0)}, columns={"x": (1.0,)})


def test_device_hash_is_stable_and_order_insensitive():
    a = device_hash({"x": 1.0, "y": {"z": 2.0}})
    b = device_hash({"y": {"z": 2.0}, "x": 1.0})
    assert a == b and len(a) == 16


def test_map_points_preserves_order():
    assert map_points(lambda x: x * x, [1, 2, 3, 4]) == [1, 4, 9, 16]


# Tables as rows of equal width; the writers take them as columns.  Empty
# rows cannot be expressed as columns: the case that was a single empty
# row now holds cells that compare equal but encode differently, and the
# empty rows between other rows are gone.
TABLES = [
    [],
    # cells that compare equal but encode differently, in a mixed column
    # and in an all-float column with repeats
    [
        [0.0, 0.0],
        [-0.0, -0.0],
        [1, 0.0],
        [1.0, -0.0],
        [True, math.nan],
        [-0.0, math.inf],
        [0.0, math.nan],
        [True, -math.inf],
        [1, 1.0],
        [1.0, 1.0],
    ],
    [[1.5]],
    [[1.0, None, "single"], (2.5e-05, -0.0, "double")],
    [[math.nan, math.inf, -math.inf, None], [np.float64(0.1), np.float64(1e300), 3, True]],
    [['quo"te', "back\\slash", "new\nline", "tab\t", "caf\u00e9", "\u96fb\u5b50", "\U0001f600"]],
    [[0.30000000000000004, 1e-320, 123456789.123, -7], [5e-324, -1e-320, 1e16, 2**53 + 1]],
    [["],\n      [", "[]"], ["x]", 2.0]],
    # several write blocks: distinct floats, a repeated axis, repeated
    # signed zeros and non-finite values, a mixed column
    [[i / 3, float(i % 100), (0.0, -0.0, math.nan, -math.inf)[i % 4], None if i % 7 else "x"] for i in range(2501)],
    # a constant str column over several blocks, as leakage's channel
    # column is, a str column of two values, and a column that starts
    # with a str and then holds cells that compare equal but print apart
    [[i / 7, "single", ("double", 'quo"te')[i % 2], ("x", 1, 1.0, True, 0.0, -0.0)[i % 6]] for i in range(2500)],
]


def _csv_text(header, rows) -> bytes:
    """The CSV the writer should produce, built cell by cell."""
    lines = [",".join(header)] + [",".join(format_cell(cell) for cell in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _header_and_columns(rows):
    width = len(rows[0]) if rows else 3
    header = [f"c\u00e9{i}" for i in range(width)]
    return header, [[row[i] for row in rows] for i in range(width)]


@pytest.mark.parametrize("rows", TABLES)
def test_sidecar_bytes_match_indented_json(tmp_path, rows):
    metadata = {
        "timestamp": "2026-01-01T00:00:00+00:00",
        "idle_ghz": 4.5,
        "errors": [{"row": 0, "omega_c_ghz": 4.0, "error": "pole \"x\""}, {"row": 3, "nested": {"b": [1, None], "a": math.nan}}],
    }
    # The table's columns, keyed by its header, as the cells to encode.
    header, columns = _header_and_columns(rows)
    metadata["flags"] = dict(zip(header, columns))
    path = tmp_path / "s.meta.json"
    write_sidecar(path, metadata)
    assert path.read_bytes() == (json.dumps(metadata, indent=2, sort_keys=True) + "\n").encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["s.meta.json"]


@pytest.mark.parametrize("rows", TABLES)
def test_csv_bytes_match_per_cell_format(tmp_path, rows):
    header, columns = _header_and_columns(rows)
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == _csv_text(header, rows)


def test_writers_reject_mismatched_columns(tmp_path):
    for header, columns in ((["a", "b"], [[1.0]]), (["a", "b"], [[1.0], [2.0, 3.0]])):
        with pytest.raises(ValueError, match="column"):
            write_csv(tmp_path / "t.csv", header, columns)


def test_csv_writer_uses_lf(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1.0, 2.0], [None, "x"]])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode() == "a,b\n1,\n2,x\n"


# --- CLI runs -------------------------------------------------------------


def test_all_subcommands_produce_documented_headers(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["modes", "--config", config_path, "--out", str(out), "--flux", "0:0.45:6"]) == 0
    assert main(["coupling", "--config", config_path, "--out", str(out), "--omega-c", "4.2:6.0:5"]) == 0
    assert main(["zz", "--config", config_path, "--out", str(out), "--omega-c", "4.3:4.8:3"]) == 0
    assert (
        main(
            [
                "leakage", "--config", config_path, "--out", str(out),
                "--amp", "3.9:4.1:3", "--ncz", "1:3:3", "--channel", "double",
            ]
        )
        == 0
    )
    for name, header in HEADERS.items():
        lines = (out / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) > 1
    assert (out / "leakage.csv").read_text().splitlines()[1].endswith(",double")
    assert main(["switchoff", "--config", config_path, "--out", str(out)]) == 0
    doc = json.loads((out / "switchoff.json").read_text())
    assert set(doc) == {"omega_off_ghz", "flux_off", "residual_khz", "dispersive_guard"}
    assert doc["omega_off_ghz"] == pytest.approx(4.12619898, rel=1e-6)
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed == doc


def test_meta_file_records_the_run(config_path, tmp_path):
    out = tmp_path / "out"
    argv = ["modes", "--config", config_path, "--out", str(out), "--flux", "0:0.4:5"]
    assert main(argv) == 0
    meta = json.loads((out / "modes.meta.json").read_text())
    assert meta["tool_version"] == qcsim.__version__
    assert meta["device_hash"] == device_hash(device_to_dict(load_device(config_path)))
    assert meta["config"] == config_path
    assert meta["flags"] == {"flux": "0:0.4:5", "n_modes": 3}
    assert meta["errors"] == []
    assert meta["outputs"] == ["modes.csv"]
    assert meta["duration_s"] >= 0.0


# The keys every meta file holds, and each subcommand's small run: its
# flags, its data files and the keys its runner adds.
_META_KEYS = {"device_hash", "tool_version", "timestamp", "config", "flags", "outputs", "duration_s"}
_RUNS = {
    "modes": (["--flux", "0:0.4:5"], ["modes.csv"], {"errors"}),
    "coupling": (["--omega-c", "4.2:6.0:5"], ["coupling.csv"], {"errors"}),
    "switchoff": ([], ["switchoff.json"], {"roots_ghz", "band_ghz"}),
    "zz": (["--omega-c", "4.3:4.8:3"], ["zz.csv"], {"errors"}),
    "leakage": (["--amp", "3.9:4.1:3", "--ncz", "1:3:3"], ["leakage.csv"], {"errors"}),
    "validate": ([], ["validate.json"], set()),
}


@pytest.mark.parametrize("subcommand", list(_RUNS))
def test_run_writes_its_data_files_and_one_meta_file(config_path, tmp_path, subcommand):
    # --out holds the data files and the meta file, no other file and no
    # temporary file; the meta file has exactly its documented keys and
    # the data files' mode, and two runs write the same data bytes.
    argv, data, keys = _RUNS[subcommand]
    meta_name = f"{subcommand}.meta.json"
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main([subcommand, *argv, "--config", config_path, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(data + [meta_name])
    meta = json.loads((out / meta_name).read_text())
    assert set(meta) == _META_KEYS | keys
    assert meta["outputs"] == data
    assert meta.get("errors", []) == []
    for name in data:
        assert (out / meta_name).stat().st_mode == (out / name).stat().st_mode, name
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_zz_meta_hashes_the_device_with_its_c12_override(config_path, tmp_path):
    dev = load_device(config_path)
    hashes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # c12 = 0.3 fF is outside the soft regime
        overridden = dataclasses.replace(dev, caps=dataclasses.replace(dev.caps, c12=0.3))
        for extra in ([], ["--c12", "0.3"]):
            out = tmp_path / str(len(hashes))
            assert main(["zz", "--omega-c", "4.3:4.8:3", *extra, "--config", config_path, "--out", str(out)]) == 0
            hashes.append(json.loads((out / "zz.meta.json").read_text())["device_hash"])
    assert hashes == [device_hash(device_to_dict(dev)), device_hash(device_to_dict(overridden))]
    assert hashes[0] != hashes[1]


def test_c12_override_warns_from_the_config_reader(config_path, tmp_path):
    # The override is read as the document's own field, so its regime
    # warning points into the package, not at dataclasses.replace.
    argv = ["zz", "--c12", "0.3", "--omega-c", "4.3:4.8:3", "--config", config_path, "--out", str(tmp_path)]
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        assert main(argv) == 0
    regime = [w for w in record if issubclass(w.category, qcsim.RegimeWarning)]
    assert regime and "c1c/c12" in str(regime[0].message)
    package = Path(qcsim.__file__).resolve().parent
    assert all(Path(w.filename).resolve().is_relative_to(package) for w in regime), [w.filename for w in regime]


@pytest.mark.parametrize(
    "document, message",
    [
        (lambda doc: {k: v for k, v in doc.items() if k != "caps"}, "missing section 'caps' in device"),
        (lambda doc: {**doc, "caps": [0.06]}, "caps: expected an object, got list"),
        (lambda doc: [doc], "device: expected an object, got list"),
    ],
    ids=["no-caps", "caps-list", "top-level-list"],
)
def test_c12_override_on_a_config_without_caps_exits_2(config_path, tmp_path, capsys, document, message):
    cfg = tmp_path / "device.json"
    cfg.write_text(json.dumps(document(json.loads(Path(config_path).read_text()))))
    argv = ["zz", "--c12", "0.3", "--omega-c", "4.3:4.8:3", "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_failed_validate_writes_both_files_and_exits_2(config_path, tmp_path, capsys, monkeypatch):
    checks = [("passing check", True, ""), ("failing check", False, "off by 1")]
    monkeypatch.setattr(qcsim.cli, "_validate_checks", lambda device: checks)
    out = tmp_path / "out"
    assert main(["validate", "--config", config_path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["ok   - passing check", "FAIL - failing check: off by 1"]
    assert captured.err == "error: one or more invariant checks failed\n"
    assert json.loads((out / "validate.json").read_text()) == {
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]
    }
    assert json.loads((out / "validate.meta.json").read_text())["outputs"] == ["validate.json"]


def _blank_mode_rows(errors, n_modes):
    """The CSV rows a modes run leaves blank: each error's row up to the
    last mode of its flux point."""
    return [r for e in errors for r in range(e["row"], e["row"] - e["row"] % n_modes + n_modes)]


def test_per_point_errors_leave_axis_cells(config_path, tmp_path):
    # Every row of the 5 x 3 grid keeps its flux and mode cells; only a
    # failed point's rows from its error's row on have empty result
    # cells.
    out = tmp_path / "out"
    assert main(["modes", "--config", config_path, "--out", str(out), "--flux", "0.4:0.6:5"]) == 0
    lines = (out / "modes.csv").read_text().splitlines()
    assert lines[0] == HEADERS["modes.csv"]
    rows = [line.split(",") for line in lines[1:]]
    grid = [[format_float(f), str(m)] for f in parse_axis("0.4:0.6:5").values() for m in (1, 2, 3)]
    assert [row[:2] for row in rows] == grid
    errors = json.loads((out / "modes.meta.json").read_text())["errors"]
    assert errors
    assert [j for j, row in enumerate(rows) if row[2:] == [""] * 4] == _blank_mode_rows(errors, 3)
    assert "branch" in errors[-1]["error"] or "diverges" in errors[-1]["error"]


def test_modes_error_rows_index_their_blank_csv_rows(config_path, tmp_path):
    # With two modes per flux point, an error's "row" is twice its flux
    # index, plus one where mode 1 solved and only mode 2 has no root.
    out = tmp_path / "out"
    argv = ["modes", "--config", config_path, "--out", str(out), "--flux", "0.4:0.6:9", "--n-modes", "2"]
    assert main(argv) == 0
    rows = [line.split(",") for line in (out / "modes.csv").read_text().splitlines()[1:]]
    errors = json.loads((out / "modes.meta.json").read_text())["errors"]
    assert len(rows) == 9 * 2 and errors
    axis = parse_axis("0.4:0.6:9").values()
    for error in errors:
        assert error["flux"] == axis[error["row"] // 2]
        assert rows[error["row"]] == [format_float(error["flux"]), str(error["row"] % 2 + 1)] + [""] * 4
        if error["row"] % 2:
            assert "" not in rows[error["row"] - 1]
    assert [j for j, row in enumerate(rows) if row[2:] == [""] * 4] == _blank_mode_rows(errors, 2)


def test_error_rows_of_a_grid_longer_than_one_block(config_path, tmp_path):
    # About half of 801 flux points fail past the branch's end, over
    # more than one write block.  The CSV is the full 801 x 2 grid, and
    # an error's "row" is mode k's row at the first k that
    # `solve_dispersion` rejects.
    out = tmp_path / "out"
    argv = ["modes", "--config", config_path, "--out", str(out), "--flux", "0:1:801", "--n-modes", "2"]
    assert main(argv) == 0
    rows = [line.split(",") for line in (out / "modes.csv").read_text().splitlines()[1:]]
    errors = json.loads((out / "modes.meta.json").read_text())["errors"]
    assert len(rows) == 801 * 2 and len(errors) > 100
    dev = load_device(config_path)
    expected = []
    for i, flux in enumerate(parse_axis("0:1:801").values()):
        for k in (1, 2):
            try:
                solve_dispersion(dev, SquidState(flux=flux), k)
            except RegimeError:
                expected.append(2 * i + k - 1)
                break
    assert [e["row"] for e in errors] == expected
    assert {e["row"] % 2 for e in errors} == {0, 1}
    assert [j for j, cells in enumerate(rows) if cells[2:] == [""] * 4] == _blank_mode_rows(errors, 2)


def test_modes_keep_the_fundamental_where_mode_3_has_no_root(config_path, tmp_path):
    # Near the switch-off flux only mode 3's branch has no root: all 33
    # rows are written, and mode 1's frequency is there at every flux
    # point, falling with flux.
    out = tmp_path / "out"
    argv = ["modes", "--config", config_path, "--out", str(out), "--flux", "0.48:0.49:11", "--n-modes", "3"]
    assert main(argv) == 0
    rows = [line.split(",") for line in (out / "modes.csv").read_text().splitlines()[1:]]
    assert len(rows) == 33
    fundamental = [float(row[3]) for row in rows if row[1] == "1"]
    assert len(fundamental) == 11
    assert all(b < a for a, b in zip(fundamental, fundamental[1:]))


def test_leakage_has_no_idle_frequency(config_path, tmp_path):
    out = tmp_path / "idle"
    with pytest.raises(SystemExit) as exc:
        main(["leakage", "--idle", "4.5", "--config", config_path, "--out", str(out)])
    assert exc.value.code == 1
    assert not out.exists()
    out = tmp_path / "out"
    assert main(["leakage", "--config", config_path, "--out", str(out)]) == 0
    assert "idle_ghz" not in json.loads((out / "leakage.meta.json").read_text())


def test_determinism_across_runs(config_path, tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["modes", "--config", config_path, "--out", str(out), "--flux", "0:0.45:12"]) == 0
        assert main(["zz", "--config", config_path, "--out", str(out), "--omega-c", "4.3:4.8:5"]) == 0
        assert main(["switchoff", "--config", config_path, "--out", str(out)]) == 0
    for name in ("modes.csv", "zz.csv", "switchoff.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_coupling_rows_follow_axis_order(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["coupling", "--config", config_path, "--out", str(out), "--omega-c", "4.2:6.0:40"]) == 0
    column = [line.split(",")[0] for line in (out / "coupling.csv").read_text().splitlines()[1:]]
    assert column == [format_float(v) for v in parse_axis("4.2:6.0:40").values()]


def test_modes_default_grid_shape_and_monotonicity(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["modes", "--config", config_path, "--out", str(out)]) == 0
    lines = (out / "modes.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 46 * 3
    for mode in ("1", "2", "3"):
        freqs = [float(r[3]) for r in rows if r[1] == mode]
        assert len(freqs) == 46
        assert all(b < a for a, b in zip(freqs, freqs[1:]))


def test_zz_default_grid_is_fully_populated(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["zz", "--config", config_path, "--out", str(out)]) == 0
    lines = (out / "zz.csv").read_text().splitlines()
    assert len(lines) == 52  # header + 51 grid points
    assert all("" not in line.split(",") for line in lines[1:])


def test_zz_c12_override_shrinks_crosstalk(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["zz", "--config", config_path, "--out", str(out), "--omega-c", "4.3:4.8:3"]) == 0
    base = (out / "zz.csv").read_text().splitlines()[1:]
    out2 = tmp_path / "out2"
    assert main(
        ["zz", "--config", config_path, "--out", str(out2), "--omega-c", "4.3:4.8:3", "--c12", "0.03"]
    ) == 0
    small = (out2 / "zz.csv").read_text().splitlines()[1:]
    for row_a, row_b in zip(base, small):
        assert abs(float(row_b.split(",")[5])) < abs(float(row_a.split(",")[5]))


def test_zz_pole_blanks_only_perturbative_cells(config_path, tmp_path):
    # The coupler on resonance with either qubit is a pole of the
    # perturbative orders, but the exact shift stays well defined.
    out = tmp_path / "out"
    assert main(["zz", "--config", config_path, "--out", str(out), "--omega-c", "3.9:4.3:41"]) == 0
    rows = {r[0]: r for r in (line.split(",") for line in (out / "zz.csv").read_text().splitlines()[1:])}
    for f in ("4", "4.1"):
        assert rows[f][1:5] == ["", "", "", ""]
        assert rows[f][5] != ""
    # about 2.2e-3 rad/ns with the coupler parked on qubit 1
    assert float(rows["4"][5]) == pytest.approx(2.2e-3 / (2 * math.pi) * 1e6, rel=0.05)
    errors = json.loads((out / "zz.meta.json").read_text())["errors"]
    assert [(e["omega_c_ghz"], "pole" in e["error"]) for e in errors] == [(4.0, True), (4.1, True)]


def test_zz_failed_points_stay_local(degenerate_device, tmp_path):
    # Labeling fails from 4.0 to 4.2 GHz on this device, and every point
    # sits on the delta_12 pole.  A labeling failure blanks its row, a
    # pole only the perturbative cells; each point's sidecar error is the
    # message the one-point call raises there.
    cfg = tmp_path / "degenerate.json"
    cfg.write_text(json.dumps(device_to_dict(degenerate_device)), encoding="utf-8")
    out = tmp_path / "out"
    axis = parse_axis("3.9:4.3:9").values()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the device is outside the soft regime
        assert main(["zz", "--omega-c", "3.9:4.3:9", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "zz.csv").read_text().splitlines()[1:]]
    errors = json.loads((out / "zz.meta.json").read_text())["errors"]
    assert [(e["row"], e["omega_c_ghz"]) for e in errors] == list(enumerate(axis))
    labeling = []
    for f, row, error in zip(axis, rows, errors):
        w = ghz_to_angular(f)
        # the first pole in table order, also where delta_1 and delta_2 vanish
        with pytest.raises(RegimeError, match=r"\|delta_12\| = 0\.0000e\+00"):
            zz_perturbative(degenerate_device, w)
        try:
            exact = zz_exact(degenerate_device, w)
        except LabelingError as exc:
            labeling.append(error["error"])
            assert row[1:] == [""] * 5
            assert error["error"] == str(exc)
            continue
        assert row[1:] == [""] * 4 + [format_cell(angular_to_ghz(exact) * 1e6)]
        assert error["error"].startswith("perturbative pole: |delta_12|")
    # 4.0 .. 4.2 GHz fail, their neighbours are filled.  Each message is
    # the first failed guard: at 4.1 and 4.15 GHz the (0, 0, 1) overlap
    # fails before its bijection check would.
    assert labeling == [
        f"bare state {label} has maximum dressed overlap {overlap} < 0.5; labeling ambiguous"
        for label, overlap in (
            ((1, 0, 0), "0.499"),
            ((1, 0, 0), "0.484"),
            ((0, 0, 1), "0.485"),
            ((0, 0, 1), "0.493"),
            ((0, 0, 1), "0.500"),
        )
    ]


def test_validate_passes_on_reference_config(config_path, tmp_path, capsys):
    assert main(["validate", "--config", config_path, "--out", str(tmp_path / "v")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ok   - analytic-approximation consistency",
        "ok   - mediated-coupling identity",
        "ok   - perturbative vs exact crosstalk",
    ]


def test_coupling_sweep_continues_across_resonances(config_path, tmp_path):
    # Grid points landing exactly on a qubit frequency fail individually;
    # the run still completes with empty observable cells there.
    out = tmp_path / "out"
    assert main(
        ["coupling", "--config", config_path, "--out", str(out), "--omega-c", "3.9:4.3:5"]
    ) == 0
    lines = (out / "coupling.csv").read_text().splitlines()
    empties = [line for line in lines[1:] if line.endswith(",,,,")]
    assert len(empties) == 2  # 4.0 and 4.1
    errors = json.loads((out / "coupling.meta.json").read_text())["errors"]
    assert len(errors) == 2
    assert all("resonant" in e["error"] for e in errors)


def test_config_errors_exit_2(config_path, tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["modes", "--config", str(missing), "--out", str(tmp_path)]) == 2

    doc = json.loads(Path(config_path).read_text())
    doc["caps"]["c_12"] = 0.05
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps(doc))
    assert main(["modes", "--config", str(typo), "--out", str(tmp_path)]) == 2
    assert "c_12" in capsys.readouterr().err

    doc = json.loads(Path(config_path).read_text())
    doc["caps"]["c12"] = -1.0
    neg = tmp_path / "neg.json"
    neg.write_text(json.dumps(doc))
    assert main(["modes", "--config", str(neg), "--out", str(tmp_path)]) == 2
    assert "caps.c12" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["coupling", "switchoff"])
def test_unwritable_out_exits_2(config_path, tmp_path, capsys, subcommand):
    # --out below a regular file: the directory cannot be made.
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = [subcommand, "--config", config_path, "--out", str(blocker / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:")
    assert "Traceback" not in err


def test_undecodable_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(b'{"qubit1": "\xe9"}')
    assert main(["switchoff", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config:")


@pytest.mark.parametrize("section, key, value", [("line", "length", math.nan), ("caps", "c12", math.inf)])
def test_non_finite_config_numbers_exit_2(config_path, tmp_path, capsys, section, key, value):
    # json reads the NaN and Infinity literals, and NaN passes a <= 0 guard.
    doc = json.loads(Path(config_path).read_text())
    doc[section][key] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["switchoff", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_c12_override_exits_2(config_path, tmp_path, capsys, value):
    argv = ["zz", "--config", config_path, "--out", str(tmp_path), "--omega-c", "4.3:4.8:3"]
    assert main(argv + ["--c12", value]) == 2
    assert "caps.c12" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_c12_override_is_reported_as_the_configs_field(config_path, tmp_path, capsys, value):
    argv = ["zz", "--config", config_path, "--out", str(tmp_path), "--omega-c", "4.3:4.8:3", "--c12", value]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: caps.c12: expected a finite number, got {value}\n"


def test_fatal_regime_error_exits_2(config_path, tmp_path, capsys):
    # Essentially no deliberate qubit-qubit capacitance: the net
    # coupling never crosses zero on the searched band, which is a
    # model/validity failure (2), not a usage one (1).
    doc = json.loads(Path(config_path).read_text())
    doc["caps"]["c12"] = 1e-9
    cfg = tmp_path / "nocross.json"
    cfg.write_text(json.dumps(doc))
    assert main(["switchoff", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "does not change sign" in capsys.readouterr().err


def test_usage_errors_exit_1(config_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["modes", "--config", config_path, "--out", str(tmp_path), "--bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", config_path])
    assert exc.value.code == 1
    # malformed axis spec is a usage problem, not a validation one
    assert main(["modes", "--config", config_path, "--out", str(tmp_path), "--flux", "0:1:1"]) == 1
    assert main(["modes", "--config", config_path, "--out", str(tmp_path), "--flux", "nan:1:3"]) == 1
    assert main(["zz", "--config", config_path, "--out", str(tmp_path), "--omega-c", "4.3:inf:3"]) == 1
    # a mode count the sweep cannot use is rejected before anything is computed
    capsys.readouterr()
    out = tmp_path / "modes_n-modes"
    assert main(["modes", "--config", config_path, "--out", str(out), "--n-modes", "0"]) == 1
    assert "n_modes must be >= 1" in capsys.readouterr().err
    assert not out.exists()
    # a nonpositive coupler frequency is rejected before anything is written
    for subcommand in ("zz", "coupling"):
        capsys.readouterr()
        out = tmp_path / f"negative_{subcommand}"
        assert main([subcommand, "--config", config_path, "--out", str(out), "--omega-c=-1:1:3"]) == 1
        assert "omega_c must be positive" in capsys.readouterr().err
        assert not out.exists()
    # the block solver needs no truncation, so the flag is gone
    with pytest.raises(SystemExit) as exc:
        main(["zz", "--config", config_path, "--out", str(tmp_path), "--levels", "4"])
    assert exc.value.code == 1
    # Non-finite floats are usage errors naming the flag: NaN would pass
    # a positivity check and fill the grid (or the sidecar) with NaN.
    for argv in (
        ["leakage", "--duration-ns", "nan"],
        ["leakage", "--duration-ns", "inf"],
        ["leakage", "--duration-ns=-inf"],
        ["zz", "--anharm-mhz", "nan"],
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", config_path, "--out", str(tmp_path / "nonfinite")])
        assert exc.value.code == 1
        flag = argv[1].split("=")[0]
        assert f"argument {flag}: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "nonfinite").exists()
    assert main(["leakage", "--config", config_path, "--out", str(tmp_path), "--duration-ns", "-5"]) == 1


def test_parser_is_shared_and_keeps_no_state_between_calls(config_path, tmp_path):
    # One parser serves every call in the process; a usage error or an
    # override in one call leaves nothing behind for the next.
    calls = [["zz", "--c12", "0.03"], ["zz"], ["leakage", "--duration-ns", "33.3"], ["leakage"]]
    with pytest.raises(SystemExit) as exc:
        main(["zz", "--c12", "oops", "--config", config_path, "--out", str(tmp_path / "bad")])
    assert exc.value.code == 1
    for i, argv in enumerate(calls):
        assert main(argv + ["--config", config_path, "--out", str(tmp_path / "shared" / str(i))]) == 0
    for i, argv in enumerate(calls):
        _build_parser.cache_clear()
        assert main(argv + ["--config", config_path, "--out", str(tmp_path / "fresh" / str(i))]) == 0
    assert _build_parser() is _build_parser()
    flags = []
    for i, argv in enumerate(calls):
        shared, fresh = tmp_path / "shared" / str(i), tmp_path / "fresh" / str(i)
        name = argv[0]
        assert (shared / f"{name}.csv").read_bytes() == (fresh / f"{name}.csv").read_bytes()
        metas = [json.loads((d / f"{name}.meta.json").read_text()) for d in (shared, fresh)]
        assert metas[0]["flags"] == metas[1]["flags"]
        flags.append(metas[0]["flags"])
    assert flags[0]["c12"] == 0.03 and "c12" not in flags[1]
    assert flags[2]["duration_ns"] == 33.3 and flags[3]["duration_ns"] == 40.0
    assert not {"c12", "omega_c", "anharm_mhz"} & set(flags[3])
    assert not (tmp_path / "bad").exists()


# Tables longer than one write block, then the two numpy-free defaults,
# with their CSVs' SHA-256.  The third runs past the flux branches' end,
# so about half its points fail.
_LONG_TABLE_SHA256 = {
    ("modes", "--flux", "0:0.45:401", "--n-modes", "3"): "21c2e95d9829869a58c63c5055b14185ad3e6a6efe34afdd25edc784c4fe7235",
    ("coupling", "--omega-c", "4.2:6.0:1801"): "85e663b13e88103d0890465ba7fba1f31e342a9434a1c3e481830b59439c3554",
    ("modes", "--flux", "0:1:801", "--n-modes", "2"): "bc5ea5f4a3a312f864f76beb49c379cb629551916f5c85513808e14f29730269",
    ("modes",): "50ec411c1864a4fd6701a4b877b51908e91e3f3e84e6d709d7f2002acff5741b",
    ("coupling",): "3ca78d3316f7740836d70e358f3d980587006af2b397a51fa420d8364d0a0cd7",
}
_LONG_TABLES = [list(argv) for argv in _LONG_TABLE_SHA256]

_NUMPY_FREE_SCRIPT = f"""
_LONG_TABLES = {_LONG_TABLES!r}
import sys
sys.modules.pop("tempfile", None)  # a site .pth hook may have imported it
import qcsim, qcsim.cli
from qcsim import load_device
load_device(sys.argv[1])
for subcommand in ("switchoff", "modes", "coupling"):
    assert qcsim.cli.main([subcommand, "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
for k, argv in enumerate(_LONG_TABLES):
    assert qcsim.cli.main(argv + ["--config", sys.argv[1], "--out", sys.argv[2] + f"/long{{k}}"]) == 0
assert "numpy" not in sys.modules, "numpy was imported"
assert "tempfile" not in sys.modules, "tempfile was imported"
"""


def test_switchoff_process_never_imports_numpy(config_path, tmp_path):
    # A fresh process, since this one has numpy loaded: importing the
    # package and the CLI, loading a device, finding the switch-off
    # point and the modes and coupling sweeps, at their defaults and on
    # tables longer than one write block, all run on `math` alone.
    src = str(Path(qcsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_SCRIPT, config_path, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "switchoff.json").read_text())["flux_off"] is not None
    assert (tmp_path / "modes.csv").read_text().startswith("flux,mode,kl,freq_ghz,lambda,anharm_mhz\n")
    assert (tmp_path / "coupling.csv").read_text().startswith(HEADERS["coupling.csv"] + "\n")
    assert len((tmp_path / "long0" / "modes.csv").read_text().splitlines()) == 1 + 401 * 3


def test_long_tables_and_switch_off_are_pinned(config_path, tmp_path):
    # The bytes of the modes and coupling tables, at their defaults and
    # spanning several write blocks, and the switch-off values as written.  The search's
    # residual is left out: it is bisection noise on a grid that depends
    # on the libm-computed band top.
    for argv, digest in _LONG_TABLE_SHA256.items():
        assert main(list(argv) + ["--config", config_path, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / f"{argv[0]}.csv").read_bytes()).hexdigest() == digest, argv
    assert main(["switchoff", "--config", config_path, "--out", str(tmp_path)]) == 0
    texts = json.loads((tmp_path / "switchoff.json").read_text(), parse_float=str)
    del texts["residual_khz"]
    assert texts == {"omega_off_ghz": "4.12619898", "flux_off": "0.487265694", "dispersive_guard": "0.296267586"}


def test_lazy_package_names_resolve_uncached():
    # crosstalk and dynamics are imported on first access; every public
    # name resolves, and none is copied into the package namespace.
    for name in qcsim.__all__:
        assert getattr(qcsim, name) is not None, name
    from qcsim import TwoLevelProblem, evolve_two_level, zz_exact

    assert zz_exact is qcsim.crosstalk.zz_exact
    assert (TwoLevelProblem, evolve_two_level) == (qcsim.dynamics.TwoLevelProblem, qcsim.dynamics.evolve_two_level)
    assert not {"zz_exact", "TwoLevelProblem", "evolve_two_level", "leakage_sweep"} & set(vars(qcsim))
    assert {"zz_sweep", "leakage_sweep", "crosstalk"} <= set(dir(qcsim))
    with pytest.raises(AttributeError, match="no_such_name"):
        qcsim.no_such_name
    # The default moved to `constants` with the same bits.
    assert qcsim.crosstalk.DEFAULT_COUPLER_ANHARM == DEFAULT_COUPLER_ANHARM == -TWO_PI * 0.05
    args = _build_parser().parse_args(["zz", "--config", "device.json"])
    assert args.anharm_mhz == DEFAULT_COUPLER_ANHARM / TWO_PI * 1e3


@pytest.mark.parametrize("channel", ["single", "double"])
def test_leakage_csv_matches_pointwise_oracle(config_path, tmp_path, pointwise_leakage, channel):
    # The array-evaluated sweep prints the same 9-digit cells as one
    # `evolve_two_level` per point, on the benchmark's 20,100-point grid,
    # and its columns hold the same populations at full precision.
    out = tmp_path / "out"
    argv = ["leakage", "--amp", "3.9:4.3:201", "--ncz", "1:100:100", "--channel", channel]
    assert main(argv + ["--config", config_path, "--out", str(out)]) == 0
    amps_ghz = parse_axis("3.9:4.3:201").values()
    counts = list(range(1, 101))
    amps = [ghz_to_angular(a) for a in amps_ghz]
    dev = load_device(config_path)
    comp, leak = pointwise_leakage(dev, amps, counts, channel, 40.0)
    grid = [(a, float(n)) for a in amps_ghz for n in counts]
    rows = [[a, n, c, p, channel] for (a, n), c, p in zip(grid, comp, leak)]
    header = ["amp_ghz", "n_cz", "p_comp", "p_leak", "channel"]
    assert (out / "leakage.csv").read_bytes() == _csv_text(header, rows)
    columns = leakage_sweep(dev, amps, counts, channel=channel, duration=40.0).columns
    assert list(columns["p_comp"]) == pytest.approx(comp, rel=0, abs=1e-14)
    assert list(columns["p_leak"]) == pytest.approx(leak, rel=0, abs=1e-14)


@pytest.mark.parametrize("channel", ["single", "double"])
def test_leakage_csv_matches_the_per_cell_writer(device, benchmark_like_device, tmp_path, channel):
    # The CSV that the numpy kernel writes, at a duration other than the
    # default, against the per-cell writer given the same columns as
    # tuples.
    dev = benchmark_like_device(device, 7)
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps(device_to_dict(dev)), encoding="utf-8")
    argv = ["leakage", "--amp", "3.9:4.3:201", "--ncz", "1:100:100", "--duration-ns", "17.3", "--channel", channel]
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    amps_ghz = parse_axis("3.9:4.3:201").values()
    result = leakage_sweep(dev, [ghz_to_angular(a) for a in amps_ghz], list(range(1, 101)), channel, 17.3)
    n = result.n_points
    columns = [
        Tiled(amps_ghz, 100, n),
        Tiled(result.axes["n_cz"], 1, n),
        tuple(result.columns["p_comp"]),
        tuple(result.columns["p_leak"]),
        Tiled([channel], n, n),
    ]
    write_csv(tmp_path / "cells.csv", HEADERS["leakage.csv"].split(","), columns)
    assert (tmp_path / "out" / "leakage.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_sweep_csvs_match_per_cell_oracle(device, benchmark_like_device, tmp_path):
    # modes, coupling and zz on a seeded device, against the library calls
    # each row comes from, printed cell by cell.  The coupling and zz grids
    # start on qubit 1's frequency, so they hold a failed point and a
    # perturbative pole; the modes grid runs past the last flux branch.
    dev = benchmark_like_device(device, 5)
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps(device_to_dict(dev)), encoding="utf-8")
    f1 = angular_to_ghz(qubit_spectrum(dev.qubit1).omega)
    out = tmp_path / "out"
    base = ["--config", str(cfg), "--out", str(out)]
    point_errors = (ConfigError, RegimeError, LabelingError)

    assert main(["modes", "--flux", "0:0.6:13", "--n-modes", "2"] + base) == 0
    rows = []
    for flux in parse_axis("0:0.6:13").values():
        for k in (1, 2):
            try:
                m = solve_dispersion(dev, SquidState(flux=flux), k)[k - 1]
            except point_errors:
                rows.append([flux, k] + [None] * 4)
                continue
            rows.append([flux, k, m.kl, angular_to_ghz(m.omega), m.lam, angular_to_ghz(m.anharmonicity) * 1e3])
    assert any(row[2] is None for row in rows)
    assert (out / "modes.csv").read_bytes() == _csv_text(HEADERS["modes.csv"].split(","), rows)

    axis = f"{f1!r}:6.0:10"
    assert main(["coupling", "--omega-c", axis] + base) == 0
    rows = []
    for f in parse_axis(axis).values():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                r = effective_coupling(dev, ghz_to_angular(f))
        except point_errors:
            rows.append([f] + [None] * 4)
            continue
        rows.append([f] + [angular_to_ghz(g) * 1e3 for g in (r.g12, r.g1c, r.g2c, r.g_eff)])
    assert rows[0][1] is None
    assert (out / "coupling.csv").read_bytes() == _csv_text(HEADERS["coupling.csv"].split(","), rows)

    axis = f"{f1!r}:4.8:11"
    assert main(["zz", "--omega-c", axis] + base) == 0
    rows = []
    for f in parse_axis(axis).values():
        w = ghz_to_angular(f)
        values = [None] * 5
        try:
            values[4] = zz_exact(dev, w)
            p = zz_perturbative(dev, w)
            values[:4] = [p.xi2, p.xi3, p.xi4, p.xi_pert]
        except point_errors:
            pass
        rows.append([f] + [None if v is None else angular_to_ghz(v) * 1e6 for v in values])
    assert rows[0][1:5] == [None] * 4 and rows[0][5] is not None
    assert (out / "zz.csv").read_bytes() == _csv_text(HEADERS["zz.csv"].split(","), rows)
