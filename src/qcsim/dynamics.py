"""Leakage dynamics during the two-qubit gate as off-resonant Rabi flops.

Each leakage channel reduces to a two-level problem (computational
state, leak state) with a time-independent Hamiltonian during a square
flux pulse; the propagator is the exact closed-form 2x2 unitary, and a
train of identical pulses is the single-pulse unitary to the n-th power,
i.e. one evolution of the total hold time.

`leakage_sweep` evaluates the resulting off-resonant Rabi populations
over the whole amplitude x gate-count grid as numpy arrays;
`propagator` and `evolve_two_level` stay as the per-point oracle that
the tests check it against.  The pulses follow one another with no
time between them, so only the in-pulse coupler frequency enters the
populations: the coupler frequency outside the pulses is not an input.

single channel: one-excitation exchange between the first qubit and the
coupler, energies (w1, wc), coupling g1c.  double channel: the doubly
excited computational state against qubit 2 plus one coupler photon,
energies (w1 + w2, wc + w2), same coupling g1c; the g12 leg to the
doubly excited first qubit is left out.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .circuit import DeviceConfig, qubit_spectrum
from .coupling import qubit_coupler_coupling
from .sweeps import SweepResult


@dataclass(frozen=True)
class TwoLevelProblem:
    """Diagonal energies e1, e2 (rad/ns), coupling g (rad/ns), and a
    normalized initial amplitude pair."""

    e1: float
    e2: float
    g: float
    psi0: Tuple[complex, complex] = (1.0 + 0.0j, 0.0j)

    def __post_init__(self) -> None:
        norm = abs(self.psi0[0]) ** 2 + abs(self.psi0[1]) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"initial state norm {norm} differs from 1 by more than 1e-12")


def propagator(e1: float, e2: float, g: float, t: float) -> np.ndarray:
    """Exact 2x2 unitary exp(-i H t) for H = [[e1, g], [g, e2]].

    With detuning D = e1 - e2 and Rabi frequency R = sqrt(4g^2 + D^2):
    a global phase exp(-i (e1+e2) t / 2) times a rotation by R*t about
    the axis (2g, 0, D)/R.
    """
    delta = e1 - e2
    rabi = math.hypot(2.0 * g, delta)
    half = 0.5 * rabi * t
    phase = cmath.exp(-0.5j * (e1 + e2) * t)
    if rabi == 0.0:
        return phase * np.eye(2, dtype=complex)
    c, s = math.cos(half), math.sin(half)
    nz = delta / rabi
    nx = 2.0 * g / rabi
    return phase * np.array(
        [
            [c - 1j * nz * s, -1j * nx * s],
            [-1j * nx * s, c + 1j * nz * s],
        ]
    )


def evolve_two_level(problem: TwoLevelProblem, t: float) -> Tuple[float, float]:
    """Populations (p1, p2) after evolving psi0 for time t (ns).

    Starting from state 1 this reduces to the off-resonant Rabi formula
    p2(t) = (4g^2/R^2) * sin^2(R t / 2).
    """
    u = propagator(problem.e1, problem.e2, problem.g, t)
    psi = u @ np.array(problem.psi0, dtype=complex)
    return float(abs(psi[0]) ** 2), float(abs(psi[1]) ** 2)


def leakage_sweep(
    device: DeviceConfig,
    amplitudes: Sequence[float],
    ncz_values: Sequence[int],
    channel: str = "single",
    duration: float = 40.0,
) -> SweepResult:
    """Final computational/leak populations after repeated square pulses.

    Grid axes are the in-pulse coupler frequency `amp` (rad/ns, as
    given) and the gate count; the initial state is the computational
    state of the selected channel.  Row-major: amplitude outer, count
    inner.  The p_comp and p_leak columns are `array("d")` buffers copied
    from the numpy results: their cells are Python floats, and the CSV
    writer prints a table of such columns with its numpy kernel.  The
    metadata is empty: the caller passed the channel and duration in.
    """
    if channel not in ("single", "double"):
        raise ValueError(f"channel must be 'single' or 'double', got {channel!r}")
    if not amplitudes or not ncz_values:
        raise ValueError("amplitude and gate-count grids must be nonempty")
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be positive and finite, got {duration}")
    for n in ncz_values:
        if n < 1:
            raise ValueError(f"gate counts must be >= 1, got {n}")
    w1 = qubit_spectrum(device.qubit1).omega
    w2 = qubit_spectrum(device.qubit2).omega

    # Detuning D = e_comp - e_leak and coupling g per amplitude, then
    # the off-resonant Rabi populations of `evolve_two_level` over the
    # whole grid, amplitude along rows.
    amps = np.asarray(amplitudes, dtype=float)
    g = np.array([qubit_coupler_coupling(device, 1, amp) for amp in amplitudes])
    delta = w1 - amps if channel == "single" else (w1 + w2) - (amps + w2)
    # math.hypot, as in `propagator`: np.hypot may differ in the last ulp.
    rabi = np.array(list(map(math.hypot, 2.0 * g, delta)))
    half = 0.5 * rabi[:, None] * (np.asarray(ncz_values, dtype=float) * duration)
    s = np.sin(half)
    p_leak = ((2.0 * g / rabi)[:, None] * s) ** 2
    p_comp = np.cos(half) ** 2 + ((delta / rabi)[:, None] * s) ** 2
    return SweepResult(
        axes={
            "amp": tuple(amplitudes),
            "n_cz": tuple(float(n) for n in ncz_values),
        },
        columns={"p_comp": _float64_column(p_comp), "p_leak": _float64_column(p_leak)},
    )


def _float64_column(values: np.ndarray) -> array:
    """A float64 array's cells, row-major, as one `array("d")`."""
    column = array("d")
    column.frombytes(memoryview(np.ascontiguousarray(values, dtype=np.float64)).cast("B"))
    return column
