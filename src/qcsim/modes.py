"""Flux-dependent modes of the SQUID-terminated quarter-wave resonator.

The dimensionless wavenumber x = k*l of mode n solves the transcendental
dispersion relation

    x*tan(x) + r_C*x^2 - B(flux)/r_L = 0,

where B is the flux factor sqrt(cos^2(pi*flux) + d^2 sin^2(pi*flux)) *
cos(phi_s - phi0).  Mode n is the unique root on the pole-free branch
((n-1)*pi, (n-1)*pi + pi/2), which makes plain bisection unconditionally
safe; Newton steps near the tan poles are not.

On top of the linear modes, the junction quartic term produces a
photon-number-dependent level shift

    shift_m = -(6m^2 + 6m + 3) * lambda * E_line,
    lambda  = cos^2(x) / (4*(1 + 2x/sin(2x))),

whose two-photon anharmonicity shift_2 - shift_1 = -24*lambda*E_line is
what downstream modules consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Tuple

from .circuit import DeviceConfig, DeviceRatios, SquidState, derive_ratios, derive_squid
from .errors import RegimeError

FLUX_MAX = 0.499  # stay clear of the half-quantum corner

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class ModeSolution:
    """One solved resonator mode.

    index: mode number (1-based); kl: dimensionless wavenumber;
    omega: frequency (rad/ns); lam: dimensionless Kerr coefficient;
    shifts: level shifts for photon numbers 0..m_max (rad/ns).
    """

    index: int
    kl: float
    omega: float
    lam: float
    shifts: Tuple[float, ...]

    @property
    def anharmonicity(self) -> float:
        """Two-photon anharmonicity shifts[2] - shifts[1] (rad/ns)."""
        return self.shifts[2] - self.shifts[1]


def flux_factor(device: DeviceConfig, state: SquidState) -> float:
    """Dimensionless termination strength B(flux) in the dispersion
    relation.  Errors from the SQUID derivation (diverging inductance)
    propagate."""
    derived = derive_squid(device.squid, state)
    relative = derived.e_js / device.squid.total
    return relative * math.cos(state.phi_s - derived.phi0)


def _residual(x: float, r_c: float, load: float) -> float:
    return x * math.tan(x) + r_c * x * x - load


def _solve_branch(n: int, r_c: float, load: float) -> float:
    """Bisect the dispersion residual inside branch n.

    The residual runs from -load (left edge) to +inf (tan pole at the
    right edge); a missing sign change means the root has left the
    branch, which is reported as a regime violation.  Bisection runs to
    float resolution so solutions are reproducible to the last ulp.
    """
    lo = (n - 1) * math.pi
    hi = lo + _HALF_PI
    span = _HALF_PI

    a = lo + span * 1e-12
    fa = _residual(a, r_c, load)
    # Walk in from the pole until the residual evaluates positive.
    b = hi
    fb = _residual(b, r_c, load)
    step = span * 1e-15
    while fb <= 0.0 and step < span * 0.5:
        b = hi - step
        fb = _residual(b, r_c, load)
        step *= 10.0
    if fa > 0.0 or fb <= 0.0:
        raise RegimeError(
            f"no dispersion root in branch {n} (kl in ({lo:.6f}, {hi:.6f})): "
            f"residual {fa:.3e} .. {fb:.3e}; termination too weak for this mode"
        )
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = _residual(mid, r_c, load)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def kerr_coefficient(kl: float) -> float:
    """Dimensionless quartic-correction coefficient of a mode."""
    s = math.sin(2.0 * kl)
    if s == 0.0:
        raise RegimeError(f"sin(2*kl) vanishes at kl = {kl}; Kerr coefficient undefined")
    return math.cos(kl) ** 2 / (4.0 * (1.0 + 2.0 * kl / s))


def level_shifts(kl: float, e_lcav: float, m_max: int) -> Tuple[float, ...]:
    """Level shifts -(6m^2+6m+3)*lambda*E_line for m = 0..m_max, rad/ns."""
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {m_max}")
    lam = kerr_coefficient(kl)
    return tuple(-(6 * m * m + 6 * m + 3) * lam * e_lcav for m in range(m_max + 1))


def mode_nonlinearity(mode: ModeSolution, e_lcav: float, m_max: int = 4) -> ModeSolution:
    """Return a copy of `mode` with Kerr coefficient and level shifts
    computed for photon numbers 0..m_max."""
    lam = kerr_coefficient(mode.kl)
    return replace(mode, lam=lam, shifts=level_shifts(mode.kl, e_lcav, m_max))


def _rad_per_kl(device: DeviceConfig, ratios: DeviceRatios) -> float:
    """Mode frequency (rad/ns) per unit of the dimensionless wavenumber kl."""
    return ratios.v / (device.line.length * 1e-3) * 1e-9


def solve_dispersion(
    device: DeviceConfig,
    state: SquidState,
    n_modes: int = 1,
    m_max: int = 4,
) -> List[ModeSolution]:
    """Solve the dispersion relation for the lowest `n_modes` modes at
    the given flux bias, including Kerr coefficients and level shifts.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    ratios = derive_ratios(device)
    load = flux_factor(device, state) / ratios.r_l
    rad_per_kl = _rad_per_kl(device, ratios)
    out = []
    for n in range(1, n_modes + 1):
        kl = _solve_branch(n, ratios.r_c, load)
        omega = kl * rad_per_kl
        lam = kerr_coefficient(kl)
        out.append(
            ModeSolution(
                index=n,
                kl=kl,
                omega=omega,
                lam=lam,
                shifts=level_shifts(kl, ratios.e_lcav, m_max),
            )
        )
    return out


def fundamental_approx(device: DeviceConfig, state: SquidState) -> float:
    """Analytic estimate of the fundamental mode frequency,
    omega_ref / (1 + r_L / (2*B(flux))), with omega_ref the solved
    zero-flux fundamental.  Collapses (error) once B drops to r_L."""
    ratios = derive_ratios(device)
    factor = flux_factor(device, state)
    if factor <= ratios.r_l:
        raise RegimeError(
            f"flux factor {factor:.4e} <= r_L = {ratios.r_l}: analytic "
            "approximation collapses near half flux quantum"
        )
    reference = solve_dispersion(device, SquidState(flux=0.0, phi_s=state.phi_s), 1)[0].omega
    return reference / (1.0 + ratios.r_l / (2.0 * factor))


def tuning_band(device: DeviceConfig, phi_s: float = 0.0) -> Tuple[float, float]:
    """(min, max) fundamental-mode frequency over flux in [0, FLUX_MAX]."""
    top = solve_dispersion(device, SquidState(flux=0.0, phi_s=phi_s), 1)[0].omega
    bottom = solve_dispersion(device, SquidState(flux=FLUX_MAX, phi_s=phi_s), 1)[0].omega
    return bottom, top


def flux_for_frequency(device: DeviceConfig, target_omega: float, phi_s: float = 0.0) -> float:
    """Invert the fundamental-mode dispersion: the flux in [0, FLUX_MAX]
    at which mode 1 sits at `target_omega` (rad/ns).

    The target fixes kl and with it the termination strength the
    dispersion relation needs, B = r_L*(kl*tan(kl) + r_C*kl^2).  The
    flux factor is exactly B = cos(phi_s)*cos(pi*flux) +
    d*sin(phi_s)*sin(pi*flux) = R*cos(pi*flux - psi), so on the
    decreasing branch pi*flux = psi + arccos(B/R); at phi_s = 0 this is
    arccos(B)/pi.  The solved mode must land within 1e-6 rad/ns of the
    target.
    """

    w_bottom, w_top = tuning_band(device, phi_s)
    if w_bottom >= w_top:
        raise RegimeError("fundamental mode is not monotone decreasing over the flux branch")
    band = f"[{w_bottom:.6f}, {w_top:.6f}] rad/ns"
    if target_omega > w_top + 1e-9:
        raise RegimeError(f"target {target_omega:.6f} rad/ns above achievable band {band}")
    if target_omega >= w_top - 1e-9:
        return 0.0
    if target_omega < w_bottom:
        raise RegimeError(f"target {target_omega:.6f} rad/ns below achievable band {band}")

    ratios = derive_ratios(device)
    kl = target_omega / _rad_per_kl(device, ratios)
    factor = ratios.r_l * (kl * math.tan(kl) + ratios.r_c * kl * kl)
    a = math.cos(phi_s)
    c = device.squid.asymmetry * math.sin(phi_s)
    r = math.hypot(a, c)
    theta = math.atan2(c, a) + math.acos(min(1.0, max(-1.0, factor / r)))
    flux = min(max(theta / math.pi, 0.0), FLUX_MAX)
    omega = solve_dispersion(device, SquidState(flux=flux, phi_s=phi_s), 1)[0].omega
    if abs(omega - target_omega) > 1e-6:
        raise RegimeError(
            f"flux inversion failed to converge at target {target_omega:.6f} rad/ns"
        )
    return flux
