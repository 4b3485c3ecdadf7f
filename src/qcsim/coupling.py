"""Direct, mediated, and net qubit-qubit coupling; switch-off search.

The net exchange coupling between the qubits is a two-term sum: the
direct capacitive term

    g12 = (C12 + C1c*C2c/Cc) / (2*sqrt(C1*C2)) * sqrt(w1*w2)

plus the resonator-mediated term

    (wc/8) * (1/D1 + 1/D2 - 1/S1 - 1/S2) * C1c*C2c/(Cc*sqrt(C1*C2)) * sqrt(w1*w2)

with D_j = w_j - wc and S_j = w_j + wc.  Below both qubit frequencies
each 1/D_j - 1/S_j = 2*wc/(w_j^2 - wc^2) is positive, so g_eff > g12 > 0
there and the coupling cannot be switched off.  Above both qubit
frequencies the mediated term is negative and cancels the direct one at
a single frequency, the switch-off point.

`effective_coupling` evaluates one coupler frequency and `coupling_sweep`
a whole axis of them, point by point; both run one formula body, so they
give the same bits.  The qubit spectra and every factor that does not
depend on the coupler frequency are computed once per device
(`DeviceConfig.coupling_constants`).  The module runs on `math` alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

from .circuit import CouplingConstants, DeviceConfig
from .errors import RegimeError, RegimeWarning
from .modes import flux_for_frequency, tuning_band
from .sweeps import SweepResult

DISPERSIVE_GUARD = 0.3


class CouplingReport(NamedTuple):
    """Couplings and dressed frequencies at one coupler frequency (all rad/ns).

    `direct` and `mediated` are the two terms of g_eff; `mediated_rwa`
    is the mediated term without the counter-rotating 1/(w_j + wc)
    contributions.  `guard1`/`guard2` are |g_jc / D_j|.  An immutable
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


def _report_fields(k: CouplingConstants, omega_c: float) -> tuple:
    """The `CouplingReport` field values at `omega_c`, omega_c first,
    from the device's constants."""
    w1, w2, sqrt_w12, g12, scale1, scale2, cap_ratio = k
    d1, d2 = w1 - omega_c, w2 - omega_c
    s1, s2 = w1 + omega_c, w2 + omega_c
    inv_d1, inv_d2, inv_s1, inv_s2 = 1.0 / d1, 1.0 / d2, 1.0 / s1, 1.0 / s2
    g1c = scale1 * math.sqrt(w1 * omega_c)
    g2c = scale2 * math.sqrt(w2 * omega_c)
    rwa_sum = inv_d1 + inv_d2
    mediated = omega_c / 8.0 * (rwa_sum - inv_s1 - inv_s2) * cap_ratio * sqrt_w12
    dressed1 = w1 + g1c * g1c * (inv_d1 - inv_s1)
    dressed2 = w2 + g2c * g2c * (inv_d2 - inv_s2)
    return (omega_c, g12, g1c, g2c, g12 + mediated, dressed1, dressed2, d1, d2, s1, s2, g12, mediated,
            0.5 * g1c * g2c * rwa_sum, abs(g1c / d1), abs(g2c / d2))


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
    # From one tuple: NamedTuple's generated __new__ takes the 16 fields
    # as arguments, which costs about as much as the arithmetic.
    report = tuple.__new__(CouplingReport, _report_fields(k, omega_c))
    if report.guard1 > DISPERSIVE_GUARD or report.guard2 > DISPERSIVE_GUARD:
        guard = max(report.guard1, report.guard2)
        warnings.warn(
            f"dispersive guard |g_jc/D_j| = {guard:.3f} > "
            f"{DISPERSIVE_GUARD} at omega_c = {omega_c:.4f} rad/ns",
            RegimeWarning,
            stacklevel=2,
        )
    return report


def coupling_sweep(device: DeviceConfig, omega_c: Sequence[float]) -> SweepResult:
    """`effective_coupling` over a coupler-frequency axis `omega_c`
    (rad/ns), with the same bits.

    One column per CouplingReport field after omega_c.  A point exactly
    resonant with a qubit holds None and metadata["errors"] lists
    {"row", "omega_c", "error"} for it.  A nonpositive or non-finite
    frequency raises ValueError before anything is computed; no
    RegimeWarning is issued, the guards are columns.
    """
    values = [float(w) for w in omega_c]
    if not values:
        raise ValueError("coupler-frequency axis must be nonempty")
    for value in values:
        _check_omega_c(value)
    k = device.coupling_constants
    rows, errors = [], []
    for row, value in enumerate(values):
        if value == k.w1 or value == k.w2:
            rows.append((value,) + (None,) * len(_FIELDS))
            errors.append({"row": row, "omega_c": value, "error": _resonance_error(value)})
        else:
            rows.append(_report_fields(k, value))
    return SweepResult(
        axes={"omega_c": tuple(values)},
        columns=dict(zip(_FIELDS, list(zip(*rows))[1:])),
        metadata={"errors": errors},
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


_MARGIN = 2.0 * math.pi * 1e-3  # keep 1 MHz clear of the resonance pole
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

    Scans the one band that can hold the root: from 1 MHz above the
    upper qubit frequency to the top of the flux-tuning range, on a
    512-step grid, and refines a sign change by bisection to 1e-9
    rad/ns.  Below the lower qubit g_eff > g12 > 0 (module docstring).
    g_eff*(w1^2 - wc^2)*(w2^2 - wc^2) is a quadratic in wc^2 with one
    root between the qubits, so the band holds at most the other one.
    `flux_off` is None when the root lies below the achievable band.
    """
    k = device.coupling_constants
    w_hi = max(k.w1, k.w2)
    band = tuning_band(device)
    lo, hi = w_hi + _MARGIN, band[1]
    if hi <= lo:
        raise RegimeError(
            f"g_eff does not change sign: the tuning band's top {hi:.4f} is not above "
            f"the upper qubit frequency {w_hi:.4f} + 1 MHz, so there is no band to search"
        )
    roots: List[float] = []
    # The scan and its bisection deliberately run up to the resonance
    # pole; the dispersive guard is reported once, at the returned root.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        step = (hi - lo) / _GRID
        prev_x = lo
        prev_f = f_lo = effective_coupling(device, prev_x).g_eff
        for i in range(1, _GRID + 1):
            x = lo + i * step
            f = effective_coupling(device, x).g_eff
            if f == 0.0:
                roots.append(x)
            elif (f < 0.0) != (prev_f < 0.0):
                roots.append(_bisect_root(device, prev_x, x))
            prev_x, prev_f = x, f
        if not roots:
            raise RegimeError(
                f"g_eff does not change sign on the searched band: "
                f"g_eff({lo:.4f}) = {f_lo:.3e}, g_eff({hi:.4f}) = {prev_f:.3e}"
            )
        omega_off = roots[0]
        report = effective_coupling(device, omega_off)
    reachable = band[0] <= omega_off <= band[1]
    flux_off = flux_for_frequency(device, omega_off) if reachable else None
    return SwitchOffResult(
        omega_off=omega_off,
        flux_off=flux_off,
        residual=abs(report.g_eff),
        guard=max(report.guard1, report.guard2),
        roots=tuple(roots),
        band=band,
    )
