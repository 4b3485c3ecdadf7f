"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed list of `qcs` calls (a "pass") over seeded
device variants drawn around the bundled reference device.  The program
only ever sees the generated config files and the CLI flags below.

Why each workload exists:

* zz_map -- each variant runs `qcs zz` on the default 51-point
  4.3..4.8 GHz coupler grid at the default truncation.  The dense
  Kronecker Hamiltonian build plus `eigh` is ~95% of the time, modes
  barely run and the output is small, so exact-ZZ changes (block
  diagonalization) show here and dispersion, switch-off and
  output-path changes should not.
* device_scan -- each variant runs switchoff, a 91-point 3-mode flux
  sweep, a 181-point coupling sweep and validate: many short calls of
  every non-leakage subcommand.  The switch-off scan plus bisection,
  the per-point modes loop and argparse set-up dominate, so closed
  forms, array-valued coupling/modes and a single sweep runner show
  here; crosstalk is only a few percent.
* leakage_map -- a few `qcs leakage` calls on 20,100-row grids in both
  channels.  Output formatting (CSV plus indented JSON sidecar) and the
  2x2 propagator loop dominate.  It shares the sweeps output path with
  zz_map at ~400x the rows per call, so an output-path change that
  helps one and costs the other shows.

Variant ranges keep every device inside the model's hard and soft
regime, so no call is expected to fail or warn: qubit 2 at 4.10-4.13
GHz keeps its EJ/EC above the 50 soft limit; a qubit splitting of
85-120 MHz stays clear both of the degenerate point and of the
|alpha| ~ 190 MHz perturbative poles (delta_12 +- alpha); c12 of
35-55 aF keeps the dispersive guard at the switch-off point below 0.3
and the 4.3 GHz end of the ZZ grid inside the perturbative/exact
acceptance band.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

# Seed whose outputs are compared with perfbench/reference.json.
REFERENCE_SEED = 0

# Subcommands whose data file must be byte-identical on a rerun, and
# that file's name.  validate.json carries a timestamp.
DATA_FILES = {
    "zz": "zz.csv",
    "modes": "modes.csv",
    "coupling": "coupling.csv",
    "leakage": "leakage.csv",
    "switchoff": "switchoff.json",
}

REFERENCE_DEVICE = Path("src/qcsim/data/reference_device.json")


@dataclass(frozen=True)
class Call:
    """One `qcs` invocation: its argv (without the program name), the
    number of sweep grid points it computes, and where it reads and
    writes."""

    subcommand: str
    argv: Tuple[str, ...]
    points: int
    config: str
    out: str


@dataclass(frozen=True)
class Workload:
    name: str
    variants: int
    # (subcommand flags, grid points) run on every variant, in order.
    # The first step on the first variant is the workload's
    # representative call, the one cold processes run.
    steps: Tuple[Tuple[Tuple[str, ...], int], ...]
    # Layers expected to lead self time in the traced run.
    stressed: Tuple[str, ...]
    # Set-up and cold-call processes per --trace 0 run, each.  More
    # where the cold call is short, so their medians hold as steady;
    # leakage's ~1.2 s pairs would otherwise crowd out the warm calls.
    cold_reps: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="zz_map",
            variants=8,
            steps=((("zz", "--omega-c", "4.3:4.8:51"), 51),),
            stressed=("crosstalk",),
            cold_reps=25,
        ),
        Workload(
            name="device_scan",
            variants=8,
            steps=(
                (("switchoff",), 1),
                (("modes", "--flux", "0:0.45:91", "--n-modes", "3"), 91),
                (("coupling", "--omega-c", "4.2:6.0:181"), 181),
                (("validate",), 1),
            ),
            stressed=("coupling", "modes"),
            cold_reps=25,
        ),
        Workload(
            name="leakage_map",
            variants=2,
            steps=(
                (("leakage", "--amp", "3.9:4.3:201", "--ncz", "1:100:100", "--channel", "single"), 20100),
                (("leakage", "--amp", "3.9:4.3:201", "--ncz", "1:100:100", "--channel", "double"), 20100),
            ),
            stressed=("sweeps",),
            cold_reps=15,
        ),
    )
}


def device_variant(rng: random.Random, base: dict) -> dict:
    """A copy of `base` with qubit frequencies, c12, c1c/c2c and line
    length redrawn inside the ranges given in the module docstring."""
    doc = json.loads(json.dumps(base))
    omega2 = rng.uniform(4.10, 4.13)
    splitting = rng.uniform(0.085, 0.12)
    doc["qubit1"]["omega"] = round(omega2 - splitting, 6)
    doc["qubit2"]["omega"] = round(omega2, 6)
    doc["caps"]["c12"] = round(rng.uniform(0.035, 0.055), 6)
    doc["caps"]["c1c"] = round(rng.uniform(0.95, 1.05), 6)
    doc["caps"]["c2c"] = round(rng.uniform(0.95, 1.05), 6)
    doc["line"]["length"] = round(rng.uniform(4.80, 4.95), 6)
    return doc


def build_plan(workload: str, seed: int, work_dir: Path) -> List[Call]:
    """Write the seeded device configs under `work_dir` and return one
    pass of the workload's calls.  Paths are relative to the checkout
    root, which is the working directory of every run."""
    spec = WORKLOADS[workload]
    base = json.loads(REFERENCE_DEVICE.read_text(encoding="utf-8"))
    # Mix the workload name into the seed so workloads draw independent
    # variants from one --seed.
    rng = random.Random(f"{workload}:{seed}")
    work_dir.mkdir(parents=True, exist_ok=True)
    calls: List[Call] = []
    for v in range(spec.variants):
        config = work_dir / f"device{v}.json"
        config.write_text(json.dumps(device_variant(rng, base), indent=2) + "\n", encoding="utf-8")
        for s, (flags, points) in enumerate(spec.steps):
            out = work_dir / f"out{v}_{s}"
            calls.append(
                Call(
                    subcommand=flags[0],
                    argv=(*flags, "--config", str(config), "--out", str(out)),
                    points=points,
                    config=str(config),
                    out=str(out),
                )
            )
    return calls
