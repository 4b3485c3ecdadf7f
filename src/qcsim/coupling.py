"""Direct, mediated, and net qubit-qubit coupling; switch-off search.

The net exchange coupling between the qubits is a two-term sum: the
direct capacitive term

    g12 = (C12 + C1c*C2c/Cc) / (2*sqrt(C1*C2)) * sqrt(w1*w2)

plus the resonator-mediated term

    (wc/8) * (1/D1 + 1/D2 - 1/S1 - 1/S2) * C1c*C2c/(Cc*sqrt(C1*C2)) * sqrt(w1*w2)

with D_j = w_j - wc and S_j = w_j + wc.  Above both qubit frequencies
the mediated term is negative and cancels the direct one at a single
frequency, the switch-off point.  The rotating-wave multimode variant
keeps only the 1/D terms and sums over resonator modes.

`effective_coupling` evaluates one coupler frequency and `coupling_sweep`
a whole axis of them in numpy; both run one formula body, so they give
the same bits.  The qubit spectra and every factor that does not depend
on the coupler frequency are computed once per device
(`DeviceConfig.coupling_constants`).  Only `coupling_sweep` imports
numpy, so the switch-off search runs without it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

from .circuit import CouplingConstants, DeviceConfig
from .errors import RegimeError, RegimeWarning
from .modes import ModeSolution, flux_for_frequency, tuning_band
from .sweeps import SweepResult

DISPERSIVE_GUARD = 0.3


class CouplingReport(NamedTuple):
    """Couplings and dressed frequencies at one coupler frequency (all rad/ns).

    `direct` and `mediated` are the two terms of g_eff; `mediated_rwa`
    is the mediated term without the counter-rotating 1/(w_j + wc)
    contributions, i.e. the single-mode value of the rotating-wave
    multimode sum.  `guard1`/`guard2` are |g_jc / D_j|.  An immutable
    named tuple: `_fields`, `_replace` and `_asdict` apply to it.
    """

    omega_c: float
    g12: float
    g1c: float
    g2c: float
    g_eff: float
    dressed1: float
    dressed2: float
    delta1: float
    delta2: float
    lambda1: float
    lambda2: float
    direct: float
    mediated: float
    mediated_rwa: float
    guard1: float
    guard2: float


def direct_coupling(device: DeviceConfig) -> float:
    """Direct capacitive qubit-qubit coupling (rad/ns)."""
    return device.coupling_constants.g12


def _check_omega_c(omega_c: float) -> None:
    """Reject a nonpositive or non-finite coupler frequency (NaN passes
    a `<= 0` test)."""
    if not 0.0 < omega_c < math.inf:
        raise ValueError(f"omega_c must be positive and finite, got {omega_c}")


def qubit_coupler_coupling(device: DeviceConfig, which: int, omega_c: float) -> float:
    """Qubit-coupler exchange coupling g_jc = C_jc/(2*sqrt(C_j*Cc)) *
    sqrt(w_j * wc) for qubit `which` (1 or 2), rad/ns."""
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")
    _check_omega_c(omega_c)
    k = device.coupling_constants
    scale, w = (k.scale1, k.w1) if which == 1 else (k.scale2, k.w2)
    return scale * math.sqrt(w * omega_c)


# CouplingReport's fields after omega_c, in order.
_FIELDS = CouplingReport._fields[1:]


def _report_fields(k: CouplingConstants, omega_c, sqrt) -> tuple:
    """The `_FIELDS` values at `omega_c` from the device's constants,
    for a float `omega_c` (sqrt = math.sqrt) or an array (np.sqrt).
    Squares are products, so both give the same bits."""
    w1, w2, g12 = k.w1, k.w2, k.g12
    d1, d2 = w1 - omega_c, w2 - omega_c
    s1, s2 = w1 + omega_c, w2 + omega_c
    g1c = k.scale1 * sqrt(w1 * omega_c)
    g2c = k.scale2 * sqrt(w2 * omega_c)
    mediated = omega_c / 8.0 * (1.0 / d1 + 1.0 / d2 - 1.0 / s1 - 1.0 / s2) * k.cap_ratio * k.sqrt_w12
    mediated_rwa = 0.5 * g1c * g2c * (1.0 / d1 + 1.0 / d2)
    dressed1 = w1 + g1c * g1c * (1.0 / d1 - 1.0 / s1)
    dressed2 = w2 + g2c * g2c * (1.0 / d2 - 1.0 / s2)
    guard1, guard2 = abs(g1c / d1), abs(g2c / d2)
    return (g12, g1c, g2c, g12 + mediated, dressed1, dressed2, d1, d2, s1, s2, g12, mediated,
            mediated_rwa, guard1, guard2)


def _resonance_error(omega_c: float) -> str:
    return f"omega_c = {omega_c} resonant with a qubit; detuning vanishes"


def effective_coupling(device: DeviceConfig, omega_c: float) -> CouplingReport:
    """Net qubit-qubit coupling and dressed frequencies at `omega_c`.

    Errors on exact qubit-coupler resonance; warns when a dispersive
    guard |g_jc/D_j| exceeds 0.3.
    """
    _check_omega_c(omega_c)
    k = device.coupling_constants
    if omega_c == k.w1 or omega_c == k.w2:
        raise RegimeError(_resonance_error(omega_c))
    report = CouplingReport(omega_c, *_report_fields(k, omega_c, math.sqrt))
    guard = max(report.guard1, report.guard2)
    if guard > DISPERSIVE_GUARD:
        warnings.warn(
            f"dispersive guard |g_jc/D_j| = {guard:.3f} > "
            f"{DISPERSIVE_GUARD} at omega_c = {omega_c:.4f} rad/ns",
            RegimeWarning,
            stacklevel=2,
        )
    return report


def coupling_sweep(device: DeviceConfig, omega_c: Sequence[float]) -> SweepResult:
    """`effective_coupling` over a coupler-frequency axis `omega_c`
    (rad/ns), all points at once and with the same bits.

    One column per CouplingReport field after omega_c.  A point exactly
    resonant with a qubit holds None and metadata["errors"] lists
    {"row", "omega_c", "error"} for it.  A nonpositive or non-finite
    frequency raises ValueError before anything is computed; no
    RegimeWarning is issued, the guards are columns.
    """
    import numpy as np

    omega_c = np.array(omega_c, dtype=float).reshape(-1)
    if not omega_c.size:
        raise ValueError("coupler-frequency axis must be nonempty")
    values = omega_c.tolist()
    for value in values:
        _check_omega_c(value)
    k = device.coupling_constants
    with np.errstate(divide="ignore", invalid="ignore"):
        report = _report_fields(k, omega_c, np.sqrt)
    resonant = [row for row, value in enumerate(values) if value == k.w1 or value == k.w2]
    columns = {}
    for name, column in zip(_FIELDS, report):
        column = np.broadcast_to(column, omega_c.shape).tolist()
        for row in resonant:
            column[row] = None
        columns[name] = tuple(column)
    return SweepResult(
        axes={"omega_c": tuple(values)},
        columns=columns,
        metadata={
            "errors": [
                {"row": row, "omega_c": values[row], "error": _resonance_error(values[row])}
                for row in resonant
            ]
        },
    )


@dataclass(frozen=True)
class MultimodeCoupling:
    """Rotating-wave net coupling with per-mode mediated contributions."""

    g_eff: float
    direct: float
    contributions: Tuple[float, ...]


def multimode_effective_coupling(
    device: DeviceConfig, modes: Sequence[ModeSolution]
) -> MultimodeCoupling:
    """Net coupling g12 + sum_n g1c(n)*g2c(n)*(1/D1(n) + 1/D2(n))/2 over
    the supplied resonator modes (rotating-wave form, no counter-rotating
    terms).

    The per-mode couplings reuse the capacitive single-mode formula with
    that mode's frequency substituted, which ignores any mode-dependent
    participation factor; for strongly non-equidistant ladders the
    higher-mode terms are small near the operating point but not
    negligible far from it.
    """
    k = device.coupling_constants
    contributions = []
    for mode in modes:
        d1 = k.w1 - mode.omega
        d2 = k.w2 - mode.omega
        if d1 == 0.0 or d2 == 0.0:
            raise RegimeError(f"mode {mode.index} resonant with a qubit at {mode.omega} rad/ns")
        g1c = qubit_coupler_coupling(device, 1, mode.omega)
        g2c = qubit_coupler_coupling(device, 2, mode.omega)
        contributions.append(0.5 * g1c * g2c * (1.0 / d1 + 1.0 / d2))
    return MultimodeCoupling(
        g_eff=k.g12 + sum(contributions), direct=k.g12, contributions=tuple(contributions)
    )


@dataclass(frozen=True)
class SwitchOffResult:
    """Root of g_eff: frequency (rad/ns), flux (or None when the root is
    not reachable by tuning), the residual |g_eff| at the root, the
    dispersive guard there, all roots found, and the achievable band."""

    omega_off: float
    flux_off: float | None
    residual: float
    guard: float
    roots: Tuple[float, ...]
    band: Tuple[float, float]


_SEARCH_BELOW = 2.0 * math.pi * 1.5  # how far below the lower qubit to search
_MARGIN = 2.0 * math.pi * 1e-3  # keep 1 MHz clear of the resonance poles
_GRID = 512


def _bisect_root(device: DeviceConfig, lo: float, hi: float) -> float:
    f_lo = effective_coupling(device, lo).g_eff
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        f_mid = effective_coupling(device, mid).g_eff
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def switch_off(device: DeviceConfig) -> SwitchOffResult:
    """Locate the coupler frequency where g_eff crosses zero.

    Scans the band below the lower qubit frequency and the band between
    the upper qubit frequency and the top of the flux-tuning range, both
    kept clear of the resonance poles; each sign change is refined by
    bisection to 1e-9 rad/ns.  Roots inside the achievable flux band are
    preferred, ties broken by the smaller dispersive guard.
    """
    k = device.coupling_constants
    w_lo, w_hi = min(k.w1, k.w2), max(k.w1, k.w2)
    band = tuning_band(device)

    branches = [
        (max(w_lo - _SEARCH_BELOW, _MARGIN), w_lo - _MARGIN),
        (w_hi + _MARGIN, band[1]),
    ]
    roots: List[float] = []
    endpoint_info = []
    # The scan and its bisections deliberately sweep past the resonance
    # poles; the dispersive guard is reported once, at the returned root.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        for lo, hi in branches:
            if hi <= lo:
                continue
            step = (hi - lo) / _GRID
            prev_x = lo
            prev_f = effective_coupling(device, prev_x).g_eff
            endpoint_info.append((lo, prev_f))
            for i in range(1, _GRID + 1):
                x = lo + i * step
                f = effective_coupling(device, x).g_eff
                if f == 0.0:
                    roots.append(x)
                elif (f < 0.0) != (prev_f < 0.0):
                    roots.append(_bisect_root(device, prev_x, x))
                prev_x, prev_f = x, f
            endpoint_info.append((hi, prev_f))
        if not roots:
            listing = ", ".join(f"g_eff({x:.4f}) = {f:.3e}" for x, f in endpoint_info)
            raise RegimeError(f"g_eff does not change sign on the searched bands: {listing}")

        def sort_key(root: float):
            reachable = band[0] <= root <= band[1]
            rep = effective_coupling(device, root)
            return (not reachable, max(rep.guard1, rep.guard2))

        best = min(roots, key=sort_key)
        report = effective_coupling(device, best)
    reachable = band[0] <= best <= band[1]
    flux_off = flux_for_frequency(device, best) if reachable else None
    return SwitchOffResult(
        omega_off=best,
        flux_off=flux_off,
        residual=abs(report.g_eff),
        guard=max(report.guard1, report.guard2),
        roots=tuple(sorted(roots)),
        band=band,
    )
