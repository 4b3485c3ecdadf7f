"""Every number README.md states about the bundled device, recomputed.

Each claim is a pattern that finds the number in README.md and the
library call that produces it.  A test fails when the value, rounded to
the decimals the README quotes, reads differently from the README.
"""

import re
from pathlib import Path

import pytest

from qcsim import SquidState, angular_to_ghz, derive_ratios, direct_coupling, solve_dispersion, switch_off

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# (claim, pattern whose group is the quoted number, value in the quoted units)
CLAIMS = [
    ("r_L", r"r_L = ([\d.]+)", lambda device: derive_ratios(device).r_l),
    ("r_C", r"r_C = ([\d.]+)", lambda device: derive_ratios(device).r_c),
    (
        "fundamental at zero flux (GHz)",
        r"~([\d.]+) GHz fundamental at zero flux",
        lambda device: angular_to_ghz(solve_dispersion(device, SquidState(flux=0.0), 1)[0].omega),
    ),
    (
        "direct qubit coupling (MHz)",
        r"([\d.]+) MHz direct qubit\s+coupling",
        lambda device: angular_to_ghz(direct_coupling(device)) * 1e3,
    ),
    (
        "switch-off point (GHz)",
        r"switch-off point\s+near ([\d.]+) GHz",
        lambda device: angular_to_ghz(switch_off(device).omega_off),
    ),
]


@pytest.mark.parametrize("pattern, compute", [c[1:] for c in CLAIMS], ids=[c[0] for c in CLAIMS])
def test_readme_device_claims(device, pattern, compute):
    found = re.findall(pattern, README)
    assert len(found) == 1, f"README should state {pattern!r} once, found {found}"
    quoted = found[0]
    decimals = len(quoted.partition(".")[2])
    assert f"{compute(device):.{decimals}f}" == quoted
