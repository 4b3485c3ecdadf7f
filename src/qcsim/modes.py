"""Flux-dependent modes of the SQUID-terminated quarter-wave resonator.

The dimensionless wavenumber x = k*l of mode n solves the transcendental
dispersion relation

    x*tan(x) + r_C*x^2 - B(flux)/r_L = 0,

where B is the flux factor of the SQUID termination (junction asymmetry
d, boundary phase phi_s),

    B = cos(phi_s)*cos(pi*flux) + d*sin(phi_s)*sin(pi*flux)
      = R*cos(pi*flux - psi),

with R = hypot(cos(phi_s), d*sin(phi_s)) and psi = atan2(d*sin(phi_s),
cos(phi_s)); at phi_s = 0 it is cos(pi*flux) whatever d is.  Mode n is
the unique root on the branch ((n-1)*pi, (n-1)*pi + pi/2).  There the
relation is tan(x) = (B/r_L - r_C*x^2)/x, so the root is also the zero
of the pole-free form

    F(x) = x - (n-1)*pi - atan((B/r_L - r_C*x^2)/x),    F'(x) >= 1,

which `_solve_branch` finds by Newton steps kept inside a shrinking
bracket.  `solve_dispersion`, `mode_sweep`, `tuning_band` and
`flux_for_frequency` all go through that one root finder, so they give
the same bits, and the module runs on `math` alone.

On top of the linear modes, the junction quartic term gives the Kerr
coefficient

    lambda = cos^2(x) / (4*(1 + 2x/sin(2x)))

and the two-photon anharmonicity -24*lambda*E_line that downstream
modules consume: the difference of the m = 2 and m = 1 level shifts
-(6m^2 + 6m + 3)*lambda*E_line of the photon-number ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .circuit import DeviceConfig, DeviceRatios, SquidState, derive_ratios
from .errors import ConfigError, RegimeError
from .sweeps import SweepResult

FLUX_MAX = 0.499  # stay clear of the half-quantum corner

_HALF_PI = 0.5 * math.pi

# Newton steps and bisections per root before `_solve_branch` gives up.
# Roots take 3-4 steps on the reference device and at most a few dozen
# anywhere in the model's regime.
_MAX_STEPS = 100


@dataclass(frozen=True)
class ModeSolution:
    """One solved resonator mode.

    index: mode number (1-based); kl: dimensionless wavenumber;
    omega: frequency (rad/ns); lam: dimensionless Kerr coefficient;
    anharmonicity: two-photon anharmonicity (rad/ns).
    """

    index: int
    kl: float
    omega: float
    lam: float
    anharmonicity: float


def _rotation(d: float, phi_s: float) -> Tuple[float, float]:
    """(R, psi) with cos(phi_s)*cos(theta) + d*sin(phi_s)*sin(theta) =
    R*cos(theta - psi): the amplitude and phase of the flux factor."""
    a = math.cos(phi_s)
    c = d * math.sin(phi_s)
    return math.hypot(a, c), math.atan2(c, a)


def flux_factor(device: DeviceConfig, state: SquidState) -> float:
    """Dimensionless termination strength B = R*cos(pi*flux - psi) in
    the dispersion relation (Koch et al., PRA 76, 042319 (2007)).  B <= 0
    means the SQUID inductance diverges, which is a RegimeError."""
    r, psi = _rotation(device.squid.asymmetry, state.phi_s)
    factor = r * math.cos(math.pi * state.flux - psi)
    if factor <= 0.0:
        raise RegimeError(
            f"flux factor B = {factor:.3e} <= 0 at flux {state.flux}: "
            "SQUID inductance diverges; outside model validity"
        )
    return factor


def _residual(x: float, r_c: float, load: float) -> float:
    return x * math.tan(x) + r_c * x * x - load


def _solve_branch(n: int, r_c: float, load: float) -> float:
    """The root of the dispersion relation inside branch n.

    Newton steps on the pole-free form F(x) = x - lo - atan(g(x)),
    g(x) = (load - r_C*x^2)/x, from the branch's right edge.  F rises
    with slope F' = 1 + (load/x^2 + r_C)/(1 + g^2) >= 1, so each
    evaluation moves one end of the bracket (a, b) that holds the root;
    a step that would leave it bisects instead.  A step of at most 2 ulp
    ends the search, and is tested first: near the root the bracket can
    be tighter than the rounding of F.  A root left of the branch (the
    residual already positive at its left edge) means the termination
    is too weak for this mode, which is a regime violation.
    """
    lo = (n - 1) * math.pi
    hi = lo + _HALF_PI
    fa = _residual(lo + 1e-12 * _HALF_PI, r_c, load)
    if fa > 0.0:
        raise RegimeError(
            f"no dispersion root in branch {n} (kl in ({lo:.6f}, {hi:.6f})): "
            f"residual {fa:.3e} > 0 at the left edge; termination too weak for this mode"
        )
    a, b, x = lo, hi, hi
    for _ in range(_MAX_STEPS):
        g = (load - r_c * x * x) / x
        f = x - lo - math.atan(g)
        if f == 0.0:
            return x
        if f < 0.0:
            a = x
        else:
            b = x
        step = f / (1.0 + (load / (x * x) + r_c) / (1.0 + g * g))
        if abs(step) <= 2.0 * math.ulp(x):
            return x - step
        x -= step
        if not a < x < b:
            x = 0.5 * (a + b)
    raise RegimeError(f"dispersion root in branch {n} did not converge in {_MAX_STEPS} steps")


def kerr_coefficient(kl: float) -> float:
    """Dimensionless quartic-correction coefficient of a mode."""
    s = math.sin(2.0 * kl)
    if s == 0.0:
        raise RegimeError(f"sin(2*kl) vanishes at kl = {kl}; Kerr coefficient undefined")
    c = math.cos(kl)
    return c * c / (4.0 * (1.0 + 2.0 * kl / s))


def _rad_per_kl(device: DeviceConfig, ratios: DeviceRatios) -> float:
    """Mode frequency (rad/ns) per unit of the dimensionless wavenumber kl."""
    return ratios.v / (device.line.length * 1e-3) * 1e-9


def _mode(n: int, ratios: DeviceRatios, load: float, rad_per_kl: float) -> Tuple[float, float, float, float]:
    """kl, omega (rad/ns), lambda and anharmonicity (rad/ns) of mode n."""
    kl = _solve_branch(n, ratios.r_c, load)
    lam = kerr_coefficient(kl)
    # The m = 2 shift minus the m = 1 shift, -24*lambda*E_line up to
    # rounding, in the ladder's order of operations.
    e_line = ratios.e_lcav
    return kl, kl * rad_per_kl, lam, (-39 * lam * e_line) - (-15 * lam * e_line)


def solve_dispersion(device: DeviceConfig, state: SquidState, n_modes: int = 1) -> List[ModeSolution]:
    """Solve the dispersion relation for the lowest `n_modes` modes at
    the given flux bias, with their Kerr coefficients and anharmonicities.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    ratios = derive_ratios(device)
    load = flux_factor(device, state) / ratios.r_l
    rad_per_kl = _rad_per_kl(device, ratios)
    return [ModeSolution(n, *_mode(n, ratios, load, rad_per_kl)) for n in range(1, n_modes + 1)]


def mode_sweep(device: DeviceConfig, flux: Sequence[float], n_modes: int = 1) -> SweepResult:
    """The lowest `n_modes` modes at every point of a flux axis (phi_s =
    0), as `solve_dispersion` gives them point by point.

    Row-major over axes flux and mode (1..n_modes), with columns kl,
    omega (rad/ns), lam and anharmonicity (rad/ns), the same bits
    `solve_dispersion` gives.  Where `solve_dispersion` raises at a flux
    point, all of that point's n_modes rows hold None and
    metadata["errors"] lists {"flux_index", "flux", "error"}.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    flux = [float(f) for f in flux]
    if not flux:
        raise ValueError("flux axis must be nonempty")
    ratios = derive_ratios(device)
    rad_per_kl = _rad_per_kl(device, ratios)
    rows, errors = [], []
    for i, f in enumerate(flux):
        try:
            load = flux_factor(device, SquidState(flux=f)) / ratios.r_l
            rows += [_mode(n, ratios, load, rad_per_kl) for n in range(1, n_modes + 1)]
        except (ConfigError, RegimeError) as exc:
            errors.append({"flux_index": i, "flux": f, "error": str(exc)})
            rows += [(None,) * 4] * n_modes
    names = ("kl", "omega", "lam", "anharmonicity")
    return SweepResult(
        axes={"flux": tuple(flux), "mode": tuple(range(1, n_modes + 1))},
        columns=dict(zip(names, zip(*rows))),
        metadata={"errors": errors},
    )


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
    dispersion relation needs, B = r_L*(kl*tan(kl) + r_C*kl^2).  Since
    `flux_factor` is B = R*cos(pi*flux - psi), on the decreasing branch
    pi*flux = psi + arccos(B/R); at phi_s = 0 this is arccos(B)/pi.
    A target within 1e-9 rad/ns of the band top, where arccos is
    ill-conditioned, takes the band top's B = R*cos(psi) exactly: the
    flux max(2*psi, 0)/pi where the decreasing branch is back at the
    top.  The solved mode must land within 1e-6 rad/ns of the target.
    """

    w_bottom, w_top = tuning_band(device, phi_s)
    if w_bottom >= w_top:
        raise RegimeError("fundamental mode is not monotone decreasing over the flux branch")
    band = f"[{w_bottom:.6f}, {w_top:.6f}] rad/ns"
    if target_omega > w_top + 1e-9:
        raise RegimeError(f"target {target_omega:.6f} rad/ns above achievable band {band}")
    if target_omega < w_bottom:
        raise RegimeError(f"target {target_omega:.6f} rad/ns below achievable band {band}")

    r, psi = _rotation(device.squid.asymmetry, phi_s)
    if target_omega >= w_top - 1e-9:
        theta = psi + abs(psi)
    else:
        ratios = derive_ratios(device)
        kl = target_omega / _rad_per_kl(device, ratios)
        factor = ratios.r_l * (kl * math.tan(kl) + ratios.r_c * kl * kl)
        theta = psi + math.acos(min(1.0, max(-1.0, factor / r)))
    flux = min(max(theta / math.pi, 0.0), FLUX_MAX)
    omega = solve_dispersion(device, SquidState(flux=flux, phi_s=phi_s), 1)[0].omega
    if abs(omega - target_omega) > 1e-6:
        raise RegimeError(
            f"flux inversion failed to converge at target {target_omega:.6f} rad/ns"
        )
    return flux
