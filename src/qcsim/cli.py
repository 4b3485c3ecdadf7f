"""Command-line front end: config ingestion, sweep orchestration, data files.

Subcommands: modes, coupling, switchoff, zz, leakage, validate.  Every
run reads a JSON device config (--config) and writes its data file under
--out (default ./out): `<subcommand>.csv` for a sweep, else
`switchoff.json` or `validate.json`, each deterministic and
timestamp-free.  `main` then writes the run's one metadata file,
`<subcommand>.meta.json`: a flat JSON object with device_hash,
tool_version, timestamp, config, flags (the subcommand's own options),
outputs (the data files' names in --out) and duration_s, plus the
runner's own entries: a sweep's per-point errors, switchoff's roots_ghz
and band_ghz.  A run stopped by an
error writes no metadata file; a validate run whose checks fail writes
both files and exits 2.

Each sweep subcommand (modes, coupling, zz, leakage) is one sweep whose
SweepResult `_write_sweep` writes as CSV.  A sweep CSV is the full
grid, one row per sweep point.  A point that fails keeps its axis
cells, leaves its result cells blank and is named in errors as {"row",
<first column>, "error"}; at a flux point, only the modes from the
first without a root up are blank, and the lower modes stay.  `main`
builds its parser once per process and reuses it.  The zz, leakage and
validate runners import numpy when they run; `switchoff`, `modes` and
`coupling` never load it, at any grid size.

Exit codes: 0 success, 1 usage error, 2 validation failure (an
unreadable config and an unwritable --out included).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import __version__
from .circuit import DeviceConfig, SquidState, device_to_dict, load_device, qubit_spectrum
from .constants import DEFAULT_COUPLER_ANHARM, TWO_PI, angular_to_ghz, ghz_to_angular
from .coupling import coupling_sweep, effective_coupling, switch_off
from .errors import ConfigError, LabelingError, RegimeError
from .modes import flux_for_frequency, fundamental_approx, mode_sweep, solve_dispersion
from .sweeps import (
    SweepResult,
    Tiled,
    device_hash,
    format_float,
    parse_axis,
    write_csv,
    write_json_atomic,
    write_sidecar,
)

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="qcs", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qcs {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="device config JSON")
    common.add_argument("--out", default="./out", help="output directory (default ./out)")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p_modes = sub.add_parser("modes", parents=[common], help="resonator mode sweep over flux")
    p_modes.add_argument("--flux", default="0:0.45:46", help="flux axis start:stop:count")
    p_modes.add_argument("--n-modes", type=int, default=3)

    p_cpl = sub.add_parser("coupling", parents=[common], help="coupling sweep over coupler frequency")
    p_cpl.add_argument("--omega-c", default="4.2:6.0:91", help="coupler axis (GHz) start:stop:count")

    sub.add_parser("switchoff", parents=[common], help="locate the zero of the net coupling")

    p_zz = sub.add_parser("zz", parents=[common], help="ZZ crosstalk sweep")
    p_zz.add_argument("--omega-c", default="4.3:4.8:51", help="coupler axis (GHz) start:stop:count")
    p_zz.add_argument("--c12", type=float, default=None, help="override qubit-qubit capacitance (fF)")
    p_zz.add_argument(
        "--anharm-mhz",
        type=_finite_float,
        default=DEFAULT_COUPLER_ANHARM / TWO_PI * 1e3,
        help="coupler two-photon anharmonicity (MHz)",
    )

    p_leak = sub.add_parser("leakage", parents=[common], help="gate leakage sweep")
    p_leak.add_argument("--amp", default="3.9:4.3:41", help="pulse amplitude axis (GHz)")
    p_leak.add_argument("--ncz", default="1:20:20", help="gate count axis start:stop:count")
    p_leak.add_argument("--channel", choices=["single", "double"], default="single")
    p_leak.add_argument("--duration-ns", type=_finite_float, default=40.0)

    sub.add_parser("validate", parents=[common], help="run the model invariant battery")
    return parser


def _write_sweep(
    path: Path,
    header: Sequence[str],
    axes: Sequence[Sequence],
    result: SweepResult,
    units: Dict[str, Optional[float]],
) -> dict:
    """Write a sweep as the CSV `path` and return its metadata entries.

    The columns are the `axes` (output units, outermost first), each a
    `Tiled` column repeated row-major over the grid, then the result
    columns named in `units`: as they are where the unit is None, else
    angular_to_ghz(value) * unit.  Row i of `result` is CSV row i, so
    the CSV holds the full grid of `result.n_points` rows and a failed
    point keeps its axis cells.  The entries are `result.metadata`, its
    errors each as {"row": <CSV row>, header[0]: <outer-axis value>,
    "error"}, and outputs, the CSV's name.
    """
    n = result.n_points
    columns, inner = [], n
    for values in axes:
        inner //= len(values)
        columns.append(Tiled(values, inner, n))
    for name, unit in units.items():
        column = result.columns[name]
        if unit is not None:
            column = [None if v is None else angular_to_ghz(v) * unit for v in column]
        columns.append(column)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(path, header, columns)
    return {
        **result.metadata,
        "errors": [
            {"row": e["row"], header[0]: axes[0][e["row"] // columns[0].inner], "error": e["error"]}
            for e in result.metadata.get("errors", [])
        ],
        "outputs": [path.name],
    }


def _run_modes(device: DeviceConfig, args: argparse.Namespace, out_dir: Path) -> dict:
    result = mode_sweep(device, parse_axis(args.flux).values(), args.n_modes)
    axes = [result.axes["flux"], result.axes["mode"]]
    header = ["flux", "mode", "kl", "freq_ghz", "lambda", "anharm_mhz"]
    units = {"kl": None, "omega": 1.0, "lam": None, "anharmonicity": 1e3}
    return _write_sweep(out_dir / "modes.csv", header, axes, result, units)


def _run_coupling(device: DeviceConfig, args: argparse.Namespace, out_dir: Path) -> dict:
    f_values = parse_axis(args.omega_c).values()
    result = coupling_sweep(device, [ghz_to_angular(f) for f in f_values])
    header = ["omega_c_ghz", "g12_mhz", "g1c_mhz", "g2c_mhz", "geff_mhz"]
    units = dict.fromkeys(("g12", "g1c", "g2c", "g_eff"), 1e3)
    return _write_sweep(out_dir / "coupling.csv", header, [f_values], result, units)


def _run_switchoff(device: DeviceConfig, args: argparse.Namespace, out_dir: Path) -> dict:
    result = switch_off(device)
    document = {
        "omega_off_ghz": float(format_float(angular_to_ghz(result.omega_off))),
        "flux_off": None if result.flux_off is None else float(format_float(result.flux_off)),
        "residual_khz": float(format_float(angular_to_ghz(result.residual) * 1e6)),
        "dispersive_guard": float(format_float(result.guard)),
    }
    print(json.dumps(document, sort_keys=True))
    write_json_atomic(out_dir / "switchoff.json", document)
    return {
        "roots_ghz": [angular_to_ghz(r) for r in result.roots],
        "band_ghz": [angular_to_ghz(result.band[0]), angular_to_ghz(result.band[1])],
        "outputs": ["switchoff.json"],
    }


def _run_zz(device: DeviceConfig, args: argparse.Namespace, out_dir: Path) -> dict:
    from .crosstalk import zz_sweep

    axis = parse_axis(args.omega_c)
    if args.c12 is not None:
        device = dataclasses.replace(
            device, caps=dataclasses.replace(device.caps, c12=args.c12)
        )
    f_values = axis.values()
    anharm = ghz_to_angular(args.anharm_mhz * 1e-3)
    result = zz_sweep(device, [ghz_to_angular(f) for f in f_values], anharm)
    header = ["omega_c_ghz", "xi2_khz", "xi3_khz", "xi4_khz", "xi_pert_khz", "xi_exact_khz"]
    units = dict.fromkeys(("xi2", "xi3", "xi4", "xi_pert", "xi_exact"), 1e6)
    # The device hash is that of the device run, --c12 override included.
    return {
        **_write_sweep(out_dir / "zz.csv", header, [f_values], result, units),
        "device_hash": device_hash(device_to_dict(device)),
    }


def _run_leakage(device: DeviceConfig, args: argparse.Namespace, out_dir: Path) -> dict:
    from .dynamics import leakage_sweep

    amp_values = parse_axis(args.amp).values()
    ncz_axis = parse_axis(args.ncz)
    result = leakage_sweep(
        device,
        [ghz_to_angular(a) for a in amp_values],
        list(ncz_axis.int_values()),
        channel=args.channel,
        duration=args.duration_ns,
    )
    n = result.n_points
    result = dataclasses.replace(result, columns={**result.columns, "channel": Tiled([args.channel], n, n)})
    header = ["amp_ghz", "n_cz", "p_comp", "p_leak", "channel"]
    units = dict.fromkeys(("p_comp", "p_leak", "channel"))
    axes = [amp_values, result.axes["n_cz"]]
    return _write_sweep(out_dir / "leakage.csv", header, axes, result, units)


def _validate_checks(device: DeviceConfig) -> List[tuple]:
    """(name, ok, detail) triples for the built-in invariant battery."""
    import numpy as np

    from .crosstalk import zz_report

    checks: List[tuple] = []

    def run(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # report, keep going
            checks.append((name, False, str(exc)))

    def monotone():
        sweep = mode_sweep(device, np.linspace(0.0, 0.45, 16))
        if sweep.metadata["errors"]:
            raise RegimeError(sweep.metadata["errors"][0]["error"])
        freqs = sweep.columns["omega"]
        if any(b >= a for a, b in zip(freqs, freqs[1:])):
            raise AssertionError("fundamental mode not strictly decreasing with flux")

    def approx():
        for flux in (0.0, 0.2, 0.4):
            exact = solve_dispersion(device, SquidState(flux=flux), 1)[0].omega
            est = fundamental_approx(device, SquidState(flux=flux))
            if abs(est - exact) / exact > 0.02:
                raise AssertionError(f"analytic estimate off by >2% at flux {flux}")

    def mediated_identity():
        w_probe = max(qubit_spectrum(device.qubit1).omega, qubit_spectrum(device.qubit2).omega)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = effective_coupling(device, w_probe + TWO_PI * 0.4)
        lhs = rep.mediated
        rhs = 0.5 * rep.g1c * rep.g2c * (
            1.0 / rep.delta1 + 1.0 / rep.delta2 - 1.0 / rep.lambda1 - 1.0 / rep.lambda2
        )
        if abs(lhs - rhs) > 1e-12 * max(abs(lhs), 1e-30):
            raise AssertionError("mediated-term identity broken")

    def roundtrip():
        target = solve_dispersion(device, SquidState(flux=0.25), 1)[0].omega
        flux = flux_for_frequency(device, target)
        if abs(flux - 0.25) > 1e-6:
            raise AssertionError(f"flux round trip off by {abs(flux - 0.25):.2e}")

    def zz_consistency():
        w_probe = max(qubit_spectrum(device.qubit1).omega, qubit_spectrum(device.qubit2).omega)
        rep = zz_report(device, w_probe + TWO_PI * 0.4)
        tol = max(0.25 * abs(rep.xi_exact), TWO_PI * 1e-6)
        if abs(rep.xi_exact - rep.xi_pert) > tol:
            raise AssertionError(
                f"perturbative/exact mismatch {abs(rep.xi_exact - rep.xi_pert):.3e} rad/ns"
            )

    run("flux monotonicity", monotone)
    run("analytic-approximation consistency", approx)
    run("mediated-coupling identity", mediated_identity)
    run("flux inversion round trip", roundtrip)
    run("perturbative vs exact crosstalk", zz_consistency)
    return checks


def _run_validate(device: DeviceConfig, args: argparse.Namespace, out_dir: Path) -> dict:
    checks = _validate_checks(device)
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} - {name}" + (f": {detail}" if detail else ""))
    write_json_atomic(
        out_dir / "validate.json",
        {"checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]},
    )
    entries = {"outputs": ["validate.json"]}
    if not all(ok for _, ok, _ in checks):
        raise _ValidationFailure(entries)
    return entries


class _ValidationFailure(Exception):
    """A validate run with a failed check; `entries` are its metadata
    entries, as a runner returns them."""

    def __init__(self, entries: dict) -> None:
        super().__init__("one or more invariant checks failed")
        self.entries = entries


_RUNNERS = {
    "modes": _run_modes,
    "coupling": _run_coupling,
    "switchoff": _run_switchoff,
    "zz": _run_zz,
    "leakage": _run_leakage,
    "validate": _run_validate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    started = time.monotonic()
    try:
        try:
            device = load_device(args.config)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        try:
            entries, status = _RUNNERS[args.subcommand](device, args, out_dir), 0
        except _ValidationFailure as exc:
            print(f"error: {exc}", file=sys.stderr)
            entries, status = exc.entries, 2
        flags = {
            key: value
            for key, value in vars(args).items()
            if key not in ("subcommand", "config", "out") and value is not None
        }
        write_sidecar(
            out_dir / f"{args.subcommand}.meta.json",
            {
                "device_hash": device_hash(device_to_dict(device)),
                "tool_version": __version__,
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "config": args.config,
                "flags": flags,
                **entries,
                "duration_s": time.monotonic() - started,
            },
        )
    except (ConfigError, RegimeError, LabelingError) as exc:
        # ConfigError and RegimeError are ValueErrors, so they go first.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Bad axis specs and similar argument problems are usage errors.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
