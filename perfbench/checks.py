"""Output checks behind the benchmark's `failed` count and `correct` flag.

The first time a run sees a call's outputs it checks them in full; every
rerun of the same call must then write a byte-identical data file.  On
the reference seed the outputs must also match values captured in
reference.json.  All checks read the files the CLI wrote and use only
public `qcsim` names.

Invariants, per subcommand:

* switchoff: the residual is below 1 kHz and mode 1 solved at the
  reported flux sits at the reported frequency (within 1 kHz).  Which
  root is picked is not checked.
* modes: mode 1 strictly decreases with flux.
* coupling: every row is filled.
* zz: |xi_exact - xi_pert| <= max(0.25*|xi_exact|, 1 kHz) on every row,
  the acceptance band of the package's own tests.
* leakage: p_comp + p_leak = 1 and p_leak follows the off-resonant
  Rabi formula with g = effective_coupling(dev, amp).g1c.
* validate: exit code 0 and every listed invariant ok.

Reference tolerance: each sampled cell within REFERENCE_REL times the
largest magnitude among that column's sampled cells.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import DATA_FILES, Call

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_REL = 1e-6
REFERENCE_ROWS = 24  # sampled rows kept per CSV
# The residual is ~0 and noise-level; the invariant check bounds it.
SWITCHOFF_REFERENCE_KEYS = ("omega_off_ghz", "flux_off", "dispersive_guard")

KHZ_FLOOR = 1.0  # 1 kHz, the absolute part of the checks' tolerances
PROB_TOL = 1e-8
LEAKAGE_DURATION_NS = 40.0  # the CLI default; the workloads do not pass it


def data_hash(call: Call) -> Optional[str]:
    """sha256 of the call's deterministic data file; None for validate
    or when the file is missing."""
    path = Path(call.out) / DATA_FILES.get(call.subcommand, "")
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def read_csv(path: Path) -> Tuple[List[str], List[List[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def flag(call: Call, name: str) -> str:
    return call.argv[call.argv.index(name) + 1]


class Checker:
    """Full checks of one call's outputs; counts failed grid points."""

    def __init__(self, qcsim):
        self.q = qcsim
        self._devices: Dict[str, object] = {}

    def device(self, path: str):
        if path not in self._devices:
            self._devices[path] = self.q.load_device(path)
        return self._devices[path]

    def check(self, call: Call, rc) -> Tuple[int, List[str]]:
        """(failed points, problems) for a call that returned `rc`."""
        if rc != 0:
            return call.points, [f"exit code {rc}"]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                bad_rows, problems = getattr(self, "_" + call.subcommand)(call)
        except Exception as exc:  # a malformed output file fails the whole call
            return call.points, [f"check raised {type(exc).__name__}: {exc}"]
        if bad_rows is None:  # a call-level check: all points or none fail
            return (call.points if problems else 0), problems
        return len(bad_rows), problems

    def axis(self, call: Call, name: str):
        return self.q.parse_axis(flag(call, name)).values()

    def _rows(self, call: Call, expected: int) -> Tuple[List[List[str]], List[int], List[str]]:
        header, rows = read_csv(Path(call.out) / f"{call.subcommand}.csv")
        if len(rows) != expected:
            raise ValueError(f"{len(rows)} rows, expected {expected}")
        problems = []
        blank = [i for i, row in enumerate(rows) if len(row) != len(header) or "" in row]
        if blank:
            problems.append(f"{len(blank)} blank or short rows")
        return rows, blank, problems

    def _switchoff(self, call: Call):
        q = self.q
        doc = json.loads((Path(call.out) / "switchoff.json").read_text(encoding="utf-8"))
        problems = []
        if not abs(doc["residual_khz"]) <= KHZ_FLOOR:
            problems.append(f"residual {doc['residual_khz']} kHz")
        if doc["flux_off"] is None:
            problems.append("switch-off point not reachable by flux")
        else:
            mode = q.solve_dispersion(self.device(call.config), q.SquidState(flux=doc["flux_off"]), 1)[0]
            err_khz = abs(q.angular_to_ghz(mode.omega) - doc["omega_off_ghz"]) * 1e6
            if not err_khz <= KHZ_FLOOR:
                problems.append(f"mode 1 at flux_off is {err_khz:.3g} kHz from omega_off")
        return None, problems

    def _modes(self, call: Call):
        n_modes = int(flag(call, "--n-modes"))
        rows, blank, problems = self._rows(call, len(self.axis(call, "--flux")) * n_modes)
        if not problems:
            mode1 = [float(r[3]) for r in rows if r[1] == "1"]
            if any(b >= a for a, b in zip(mode1, mode1[1:])):
                problems.append("mode 1 does not decrease with flux")
        return None, problems

    def _coupling(self, call: Call):
        rows, blank, problems = self._rows(call, len(self.axis(call, "--omega-c")))
        return blank, problems

    def _zz(self, call: Call):
        rows, blank, problems = self._rows(call, len(self.axis(call, "--omega-c")))
        bad = set(blank)
        for i, row in enumerate(rows):
            if i in bad:
                continue
            pert, exact = float(row[4]), float(row[5])
            if not abs(exact - pert) <= max(0.25 * abs(exact), KHZ_FLOOR):
                bad.add(i)
        if len(bad) > len(blank):
            problems.append(f"{len(bad) - len(blank)} rows outside the pert/exact band")
        return bad, problems

    def _leakage(self, call: Call):
        q = self.q
        amps = self.axis(call, "--amp")
        counts = self.q.parse_axis(flag(call, "--ncz")).int_values()
        rows, blank, problems = self._rows(call, len(amps) * len(counts))
        dev = self.device(call.config)
        w1 = q.qubit_spectrum(dev.qubit1).omega
        bad = set(blank)
        i = 0
        for amp_ghz in amps:
            amp = q.ghz_to_angular(amp_ghz)
            g = q.effective_coupling(dev, amp).g1c
            delta = w1 - amp  # same detuning in both channels
            rabi = math.hypot(2.0 * g, delta)
            for n in counts:
                if i not in bad:
                    p_comp, p_leak = float(rows[i][2]), float(rows[i][3])
                    model = (2.0 * g / rabi) ** 2 * math.sin(0.5 * rabi * n * LEAKAGE_DURATION_NS) ** 2
                    if not (
                        abs(p_comp + p_leak - 1.0) <= PROB_TOL
                        and abs(p_leak - model) <= PROB_TOL * (1.0 + model)
                    ):
                        bad.add(i)
                i += 1
        if len(bad) > len(blank):
            problems.append(f"{len(bad) - len(blank)} rows break conservation or the Rabi formula")
        return bad, problems

    def _validate(self, call: Call):
        doc = json.loads((Path(call.out) / "validate.json").read_text(encoding="utf-8"))
        failed = [c["name"] for c in doc["checks"] if not c["ok"]]
        return None, [f"validate failed: {', '.join(failed)}"] if failed else []


def reference_key(call: Call) -> str:
    return Path(call.out).name


def snapshot(call: Call):
    """Reference values of one call: the switch-off document, or the
    header, row count and evenly spaced sample rows of the CSV."""
    if call.subcommand == "switchoff":
        doc = json.loads((Path(call.out) / "switchoff.json").read_text(encoding="utf-8"))
        return {k: doc[k] for k in SWITCHOFF_REFERENCE_KEYS}
    if call.subcommand not in DATA_FILES:
        return None
    header, rows = read_csv(Path(call.out) / DATA_FILES[call.subcommand])
    picks = sorted({round(k * (len(rows) - 1) / (REFERENCE_ROWS - 1)) for k in range(REFERENCE_ROWS)})
    return {
        "header": header,
        "n_rows": len(rows),
        "rows": {str(i): [_cell(c) for c in rows[i]] for i in picks if i < len(rows)},
    }


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _close_columns(got: Sequence[Sequence], want: Sequence[Sequence]) -> bool:
    for col in range(len(want[0])):
        wcol = [row[col] for row in want]
        numeric = [abs(v) for v in wcol if isinstance(v, float)]
        scale = max(numeric, default=0.0)
        for g, w in zip((row[col] for row in got), wcol):
            if isinstance(w, float):
                if not (isinstance(g, float) and abs(g - w) <= REFERENCE_REL * scale):
                    return False
            elif g != w:
                return False
    return True


def compare_reference(call: Call, want) -> List[str]:
    """Problems found comparing a call's outputs to its reference entry."""
    got = snapshot(call)
    if want is None:
        return []
    if call.subcommand == "switchoff":
        keys = SWITCHOFF_REFERENCE_KEYS
        if not _close_columns([[got[k] for k in keys]], [[want[k] for k in keys]]):
            return [f"switchoff differs from reference: {got} vs {want}"]
        return []
    if got["header"] != want["header"] or got["n_rows"] != want["n_rows"]:
        return ["header or row count differs from reference"]
    idx = sorted(want["rows"], key=int)
    if sorted(got["rows"], key=int) != idx:
        return ["sampled rows differ from reference"]
    if not _close_columns([got["rows"][i] for i in idx], [want["rows"][i] for i in idx]):
        return [f"sampled rows differ from reference by more than {REFERENCE_REL:g} relative"]
    return []


def load_reference(workload: str) -> Dict[str, object]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["workloads"][workload]
