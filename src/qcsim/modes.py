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
the unique root on the pole-free branch
((n-1)*pi, (n-1)*pi + pi/2), which makes plain bisection unconditionally
safe; Newton steps near the tan poles are not.

On top of the linear modes, the junction quartic term produces a
photon-number-dependent level shift

    shift_m = -(6m^2 + 6m + 3) * lambda * E_line,
    lambda  = cos^2(x) / (4*(1 + 2x/sin(2x))),

whose two-photon anharmonicity shift_2 - shift_1 = -24*lambda*E_line is
what downstream modules consume.

`mode_sweep` solves a whole flux axis at once: one lockstep numpy
bisection over the (flux x branch) grid with `_solve_branch`'s brackets,
midpoints and stopping rule, and the Kerr coefficients and level shifts
as arrays.  numpy's tan only decides residual signs that no last-bit
difference can flip (`math.tan` decides the rest), and every other sine,
cosine and arctangent comes from `math`, so it returns the bits
`solve_dispersion` returns on any host.  A flux point the arrays cannot
solve goes to `solve_dispersion`, whose error that point then reports.
`solve_dispersion` stays the one-point call (flux inversion, tuning
band, switch-off); it runs on `math` alone, and numpy is imported only
by `mode_sweep` and its helpers.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from .circuit import DeviceConfig, DeviceRatios, SquidState, derive_ratios
from .errors import ConfigError, RegimeError
from .sweeps import SweepResult

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


@functools.cache
def _bracket(n: int) -> Tuple[float, float, float, Tuple[float, ...]]:
    """Branch n's edges lo and hi, the bisection's left end, and its
    right-end candidates: the tan pole hi, then points walked in from it
    by span*1e-15, 1e-14, ... while the step stays below half the span."""
    lo = (n - 1) * math.pi
    hi = lo + _HALF_PI
    span = _HALF_PI
    candidates = [hi]
    step = span * 1e-15
    while step < span * 0.5:
        candidates.append(hi - step)
        step *= 10.0
    return lo, hi, lo + span * 1e-12, tuple(candidates)


def _solve_branch(n: int, r_c: float, load: float) -> float:
    """Bisect the dispersion residual inside branch n.

    The residual runs from -load (left edge) to +inf (tan pole at the
    right edge); a missing sign change means the root has left the
    branch, which is reported as a regime violation.  Bisection runs to
    float resolution so solutions are reproducible to the last ulp.
    """
    lo, hi, a, candidates = _bracket(n)
    fa = _residual(a, r_c, load)
    # Walk in from the pole until the residual evaluates positive.
    for b in candidates:
        fb = _residual(b, r_c, load)
        if fb > 0.0:
            break
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


def _kerr(kl, cos_kl, sin_2kl):
    """lambda from kl, cos(kl) and sin(2*kl), for floats or arrays; the
    square is a product, so both give the same bits."""
    return cos_kl * cos_kl / (4.0 * (1.0 + 2.0 * kl / sin_2kl))


def _shift_factors(m_max: int) -> Tuple[int, ...]:
    """-(6m^2 + 6m + 3) for m = 0..m_max."""
    return tuple(-(6 * m * m + 6 * m + 3) for m in range(m_max + 1))


def kerr_coefficient(kl: float) -> float:
    """Dimensionless quartic-correction coefficient of a mode."""
    s = math.sin(2.0 * kl)
    if s == 0.0:
        raise RegimeError(f"sin(2*kl) vanishes at kl = {kl}; Kerr coefficient undefined")
    return _kerr(kl, math.cos(kl), s)


def level_shifts(kl: float, e_lcav: float, m_max: int) -> Tuple[float, ...]:
    """Level shifts -(6m^2+6m+3)*lambda*E_line for m = 0..m_max, rad/ns."""
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {m_max}")
    lam = kerr_coefficient(kl)
    return tuple(factor * lam * e_lcav for factor in _shift_factors(m_max))


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


# np.tan and math.tan differ in the last bit on about 0.5% of inputs,
# which moves the residual x*tan(x) + r_C*x^2 - load by a few ulp of its
# terms.  Where x*tan(x) > 2*(r_C*x^2 + load) the residual is far larger
# than that, and elsewhere its terms stay below 3*(r_C*x^2 + load); so a
# residual within this share of r_C*hi^2 + load (hi the branch's right
# edge) is recomputed with math.tan, and every sign is the one
# `_solve_branch` sees.
_TAN_SLACK = 64.0 * sys.float_info.epsilon


def _bisect(a, b, r_c, load, slack):
    """`_solve_branch`'s bisection at every point of the arrays at once,
    for brackets whose left residual is negative: the same midpoints,
    sign tests and stopping rule, so the same roots.  `slack` bounds,
    per point, the residuals recomputed with math.tan.  A point leaves
    the lockstep once its bracket stops shrinking."""
    import numpy as np

    roots = np.empty_like(a)
    if not a.size:
        return roots
    where = np.arange(a.size)
    for _ in range(200):
        mid = 0.5 * (a + b)
        done = (mid <= a) | (mid >= b)
        if done.any():
            roots[where[done]] = mid[done]
            live = ~done
            where, a, b, load, slack, mid = (v[live] for v in (where, a, b, load, slack, mid))
            if not where.size:
                return roots
        # `_residual`, in its order of operations
        fm = mid * np.tan(mid) + r_c * mid * mid - load
        close = (np.abs(fm) <= slack).nonzero()[0]
        if close.size:
            fm[close] = [_residual(x, r_c, f) for x, f in zip(mid[close].tolist(), load[close].tolist())]
        # The left residual stays negative, so a root (fm == 0) closes
        # the bracket on itself.
        np.copyto(a, mid, where=fm <= 0.0)
        np.copyto(b, mid, where=fm >= 0.0)
    roots[where] = 0.5 * (a + b)
    return roots


def _loads(device: DeviceConfig, ratios: DeviceRatios, flux: np.ndarray) -> np.ndarray:
    """flux_factor / r_L at phi_s = 0 at every flux point, by
    `flux_factor`'s arithmetic; NaN where it raises (B <= 0) and at a
    non-finite flux."""
    import numpy as np

    r, psi = _rotation(device.squid.asymmetry, 0.0)
    loads = []
    for f in flux.tolist():
        factor = r * math.cos(math.pi * f - psi) if math.isfinite(f) else math.nan
        loads.append(factor / ratios.r_l if factor > 0.0 else math.nan)
    return np.array(loads)


def _trig(kl: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """cos(kl) and sin(2*kl) by `math`, as `kerr_coefficient` takes them:
    numpy's may differ in the last bit, from host to host."""
    import numpy as np

    flat = kl.reshape(-1).tolist()
    cos_kl = np.array([math.cos(x) for x in flat]).reshape(kl.shape)
    return cos_kl, np.array([math.sin(2.0 * x) for x in flat]).reshape(kl.shape)


def mode_sweep(device: DeviceConfig, flux: Sequence[float], n_modes: int = 1) -> SweepResult:
    """The lowest `n_modes` modes at every point of a flux axis (phi_s =
    0), as `solve_dispersion` gives them point by point.

    Row-major over axes flux and mode (1..n_modes), with columns kl,
    omega (rad/ns), lam and anharmonicity (rad/ns), the same bits
    `solve_dispersion` gives.  Where `solve_dispersion` raises at a flux
    point, all of that point's n_modes rows hold None and
    metadata["errors"] lists {"flux_index", "flux", "error"}.
    """
    import numpy as np

    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    flux = np.array(flux, dtype=float).reshape(-1)
    if not flux.size:
        raise ValueError("flux axis must be nonempty")
    ratios = derive_ratios(device)
    r_c = ratios.r_c
    with np.errstate(all="ignore"):
        load = _loads(device, ratios, flux)
        kl = np.full((flux.size, n_modes), np.nan)
        ok = np.empty(kl.shape, dtype=bool)
        starts, ends, slack = np.empty_like(kl), np.empty_like(kl), np.empty_like(kl)
        for n in range(1, n_modes + 1):
            _, hi, a, candidates = _bracket(n)
            starts[:, n - 1] = a
            # `_residual` subtracts the load last, so these are its bits.
            fa = _residual(a, r_c, 0.0) - load
            # The walk in from the pole: the first candidate whose
            # residual is positive.
            terms = np.array([_residual(x, r_c, 0.0) for x in candidates])
            positive = terms - load[:, None] > 0.0
            ends[:, n - 1] = np.array(candidates)[positive.argmax(axis=1)]
            # fa > 0 or no positive candidate: no root in the branch.  A
            # point with fa == 0 (or a NaN load) goes to `solve_dispersion`.
            ok[:, n - 1] = positive.any(axis=1) & (fa < 0.0)
            slack[:, n - 1] = _TAN_SLACK * (r_c * hi * hi + np.abs(load))
        loads = np.broadcast_to(load[:, None], kl.shape)
        kl[ok] = _bisect(starts[ok], ends[ok], r_c, loads[ok], slack[ok])
        cos_kl, sin_2kl = _trig(kl)
        ok &= sin_2kl != 0.0
        lam = _kerr(kl, cos_kl, sin_2kl)
        shift1, shift2 = (factor * lam * ratios.e_lcav for factor in _shift_factors(2)[1:])
    values = {
        "kl": kl,
        "omega": kl * _rad_per_kl(device, ratios),
        "lam": lam,
        "anharmonicity": shift2 - shift1,
    }
    columns = {name: v.reshape(-1).tolist() for name, v in values.items()}
    errors = []
    for i in np.flatnonzero(~ok.all(axis=1)).tolist():
        rows = range(i * n_modes, (i + 1) * n_modes)
        try:
            modes = solve_dispersion(device, SquidState(flux=flux[i].item()), n_modes)
        except (ConfigError, RegimeError) as exc:
            errors.append({"flux_index": i, "flux": flux[i].item(), "error": str(exc)})
            modes = [None] * n_modes
        for row, mode in zip(rows, modes):
            for name in columns:
                columns[name][row] = None if mode is None else getattr(mode, name)
    return SweepResult(
        axes={"flux": tuple(flux.tolist()), "mode": tuple(range(1, n_modes + 1))},
        columns={name: tuple(column) for name, column in columns.items()},
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
    The solved mode must land within 1e-6 rad/ns of the target.
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
    r, psi = _rotation(device.squid.asymmetry, phi_s)
    theta = psi + math.acos(min(1.0, max(-1.0, factor / r)))
    flux = min(max(theta / math.pi, 0.0), FLUX_MAX)
    omega = solve_dispersion(device, SquidState(flux=flux, phi_s=phi_s), 1)[0].omega
    if abs(omega - target_omega) > 1e-6:
        raise RegimeError(
            f"flux inversion failed to converge at target {target_omega:.6f} rad/ns"
        )
    return flux
