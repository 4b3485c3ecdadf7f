"""Dispersion solver, analytic estimate, Kerr ladder, flux inversion."""

import math

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from qcsim import (
    ConfigError,
    DeviceConfig,
    QubitParams,
    RegimeError,
    SquidParams,
    SquidState,
    TransmissionLineParams,
    angular_to_ghz,
    derive_ratios,
    flux_factor,
    flux_for_frequency,
    fundamental_approx,
    kerr_coefficient,
    mode_sweep,
    solve_dispersion,
    tuning_band,
)
from qcsim.constants import TWO_PI
from qcsim.modes import _residual, _solve_branch

from conftest import sweep_cases


def test_zero_flux_fundamental(device):
    mode = solve_dispersion(device, SquidState(flux=0.0), 1)[0]
    assert abs(angular_to_ghz(mode.omega) - 6.0) / 6.0 < 0.01
    assert abs(mode.kl - 1.54) / 1.54 < 0.01
    # frozen solver value for regression
    assert mode.kl == pytest.approx(1.5398622063265, rel=1e-10)


def test_ideal_quarter_wave_limit():
    # Vanishing capacitive load and overwhelming termination push the
    # fundamental against the quarter-wave point kl = pi/2.
    line = TransmissionLineParams(length=4.87, c0=0.16, l0=0.44)
    squid = SquidParams(ej1=2.5e8, ej2=2.5e8, cs=1e-9)
    dev = DeviceConfig(
        qubit1=QubitParams.from_frequency(100.0, TWO_PI * 4.0),
        qubit2=QubitParams.from_frequency(90.0, TWO_PI * 4.1),
        line=line,
        squid=squid,
        caps=device_caps(),
    )
    kl = solve_dispersion(dev, SquidState(flux=0.0), 1)[0].kl
    assert kl == pytest.approx(math.pi / 2, abs=2e-5)


def device_caps():
    from qcsim import CouplingCaps

    return CouplingCaps(c12=0.06, c1c=1.0, c2c=1.0, cc=780.0)


def test_bisection_against_grid_scan_oracle(device):
    # Independent root finder: coarse scan for the sign change, then
    # Brent refinement inside the located bracket.
    state = SquidState(flux=0.3)
    ratios = derive_ratios(device)
    load = flux_factor(device, state) / ratios.r_l

    grid = np.linspace(1e-6, math.pi / 2 - 1e-9, 20001)
    vals = np.array([_residual(x, ratios.r_c, load) for x in grid])
    (idx,) = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
    assert len(idx) == 1
    oracle = brentq(
        lambda x: _residual(x, ratios.r_c, load), grid[idx[0]], grid[idx[0] + 1], xtol=1e-14
    )
    mode = solve_dispersion(device, state, 1)[0]
    assert abs(mode.kl - oracle) / oracle < 1e-9


def test_root_is_bracketed(device):
    for flux in (0.0, 0.2, 0.45):
        ratios = derive_ratios(device)
        load = flux_factor(device, SquidState(flux=flux)) / ratios.r_l
        for mode in solve_dispersion(device, SquidState(flux=flux), 3):
            below = _residual(mode.kl * (1 - 1e-7), ratios.r_c, load)
            above = _residual(mode.kl * (1 + 1e-7), ratios.r_c, load)
            assert below < 0 < above


def test_missing_branch_root_is_regime_error(device):
    # Close to half flux the termination is too weak to hold the higher
    # branches; the affected mode must error, not silently relocate.
    with pytest.raises(RegimeError, match="branch"):
        solve_dispersion(device, SquidState(flux=0.495), 3)


def test_branch_error_prints_the_left_edge_residual(device):
    # Branch 7's float right edge lies past the tan pole (tan < 0 there),
    # so only the positive left-edge residual that raised is printed.
    ratios = derive_ratios(device)
    load = flux_factor(device, SquidState(flux=0.25)) / ratios.r_l
    left = _residual(6 * math.pi + 1e-12 * 0.5 * math.pi, ratios.r_c, load)
    assert left > 0.0 > _residual(6.5 * math.pi, ratios.r_c, load)
    with pytest.raises(RegimeError) as raised:
        solve_dispersion(device, SquidState(flux=0.25), 8)
    assert str(raised.value) == (
        "no dispersion root in branch 7 (kl in (18.849556, 20.420352)): "
        "residual 1.752e-01 > 0 at the left edge; termination too weak for this mode"
    )
    assert f"{left:.3e}" == "1.752e-01"


def test_mode_ladder_strongly_non_equidistant(device):
    modes = solve_dispersion(device, SquidState(flux=0.0), 3)
    gaps = [modes[1].omega - modes[0].omega, modes[2].omega - modes[1].omega]
    assert all(gap > TWO_PI * 1.0 for gap in gaps)
    assert abs(gaps[1] - gaps[0]) > TWO_PI * 0.01


def test_flux_monotonicity_and_asymmetry_ordering(device):
    # With the boundary phase at zero the asymmetric curves coincide
    # with the symmetric one (the offset rotation exactly compensates
    # the energy sag), so the ordering check is <= with ulp headroom.
    grid = np.linspace(0.0, 0.45, 100)
    curves = {}
    for d in (0.0, 0.1, 0.2):
        total = device.squid.total
        squid = SquidParams(ej1=0.5 * (1 + d) * total, ej2=0.5 * (1 - d) * total, cs=device.squid.cs)
        dev = DeviceConfig(
            qubit1=device.qubit1, qubit2=device.qubit2, line=device.line, squid=squid, caps=device.caps
        )
        freqs = [solve_dispersion(dev, SquidState(flux=f), 1)[0].omega for f in grid]
        assert all(b < a for a, b in zip(freqs, freqs[1:]))
        curves[d] = np.array(freqs)
    tol = 1e-9 * curves[0.0]
    assert np.all(curves[0.1] <= curves[0.0] + tol)
    assert np.all(curves[0.2] <= curves[0.1] + tol)


def test_analytic_estimate_calibration_identity(device):
    ratios = derive_ratios(device)
    reference = solve_dispersion(device, SquidState(flux=0.0), 1)[0].omega
    estimate = fundamental_approx(device, SquidState(flux=0.0))
    assert estimate * (1 + ratios.r_l / 2) == pytest.approx(reference, rel=1e-14)


def test_analytic_estimate_within_two_percent(device):
    for flux in np.linspace(0.0, 0.4, 21):
        exact = solve_dispersion(device, SquidState(flux=flux), 1)[0].omega
        estimate = fundamental_approx(device, SquidState(flux=flux))
        assert abs(estimate - exact) / exact <= 0.02
    # quarter-flux spot check
    exact = solve_dispersion(device, SquidState(flux=0.25), 1)[0].omega
    assert fundamental_approx(device, SquidState(flux=0.25)) == pytest.approx(exact, rel=0.02)


def test_analytic_estimate_collapse_at_half_flux(device):
    with pytest.raises(RegimeError, match="collapses"):
        fundamental_approx(device, SquidState(flux=0.5))


# --- Kerr ladder ---------------------------------------------------------


def test_anharmonicity_grows_toward_half_flux(device):
    # The quartic coefficient rises steeply as the mode is tuned down;
    # the -50 MHz two-photon anharmonicity lands near 5.90 GHz (flux
    # ~0.315) for this device, far above where the mode reaches 4.5 GHz.
    values = []
    e_line = derive_ratios(device).e_lcav
    for flux in (0.0, 0.2, 0.3, 0.4):
        mode = solve_dispersion(device, SquidState(flux=flux), 1)[0]
        assert mode.anharmonicity == pytest.approx(-24 * mode.lam * e_line, rel=1e-12)
        values.append(angular_to_ghz(mode.anharmonicity) * 1e3)
    assert values[0] == pytest.approx(-8.617244, rel=1e-5)
    assert all(b < a for a, b in zip(values, values[1:]))

    mode = solve_dispersion(device, SquidState(flux=0.3150821540), 1)[0]
    assert angular_to_ghz(mode.anharmonicity) * 1e3 == pytest.approx(-50.0, rel=1e-4)
    assert angular_to_ghz(mode.omega) == pytest.approx(5.9015555, rel=1e-6)


def test_lower_line_capacitance_raises_anharmonicity(device):
    # At a fixed fundamental frequency, a lighter line puts the root at a
    # smaller kl, which boosts the quartic participation.  True whether
    # the SQUID capacitance is held fixed or co-scaled to keep its ratio.
    import dataclasses

    target = TWO_PI * 5.8

    def anharm_at_target(dev):
        flux = flux_for_frequency(dev, target)
        return solve_dispersion(dev, SquidState(flux=flux), 1)[0].anharmonicity

    base = anharm_at_target(device)
    for keep_ratio in (False, True):
        line = dataclasses.replace(device.line, c0=0.12)
        cs = device.squid.cs * (0.12 / 0.16) if keep_ratio else device.squid.cs
        squid = dataclasses.replace(device.squid, cs=cs)
        lighter = dataclasses.replace(device, line=line, squid=squid)
        assert abs(anharm_at_target(lighter)) > abs(base)


# --- flux inversion ------------------------------------------------------


def test_inversion_endpoint(device):
    top = solve_dispersion(device, SquidState(flux=0.0), 1)[0].omega
    assert flux_for_frequency(device, top) == 0.0


def test_inversion_round_trip(device):
    target = solve_dispersion(device, SquidState(flux=0.3), 1)[0].omega
    assert abs(flux_for_frequency(device, target) - 0.3) <= 1e-6


def test_inversion_out_of_range_names_band(device):
    bottom, top = tuning_band(device)
    with pytest.raises(RegimeError, match="above achievable band"):
        flux_for_frequency(device, top * 1.01)
    with pytest.raises(RegimeError, match="below achievable band"):
        flux_for_frequency(device, bottom * 0.9)


def test_inversion_is_continuous_at_band_top(device):
    # Within 1e-9 rad/ns of the band top the inversion returns the flux
    # where the decreasing branch is back at the top, 2*psi/pi, which at
    # phi_s = 0.1 is not 0; the closed form just below gives nearly the
    # same flux.
    top = tuning_band(device, 0.1)[1]
    snapped = flux_for_frequency(device, top - 5e-10, 0.1)
    below = flux_for_frequency(device, top - 2e-9, 0.1)
    assert snapped > 0.006
    assert abs(snapped - below) <= 1e-6


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("phi_s", [0.0, 0.1, 0.2])
def test_closed_form_inversion_matches_bisection(device, benchmark_like_device, bisect_flux_for_frequency, seed, phi_s):
    # Targets across the tuning band, including near both ends.  At
    # nonzero phi_s the asymmetry term shifts the branch: the mode first
    # rises with flux, so the band's top is reached again at a flux > 0.
    dev = benchmark_like_device(device, seed)
    bottom, top = tuning_band(dev, phi_s)
    for frac in (1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-6):
        target = top - frac * (top - bottom)
        closed = flux_for_frequency(dev, target, phi_s)
        assert abs(closed - bisect_flux_for_frequency(dev, target, phi_s)) <= 1e-10
        assert abs(solve_dispersion(dev, SquidState(flux=closed, phi_s=phi_s), 1)[0].omega - target) <= 1e-9


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    asymmetry=st.floats(-0.9, 0.9),
    phi_s=st.floats(-0.25, 0.25),
    frac=st.floats(1e-4, 1 - 1e-6),
)
def test_closed_form_inversion_matches_bisection_for_any_asymmetry(
    device, bisect_flux_for_frequency, asymmetry, phi_s, frac
):
    # The reference device with its SQUID's asymmetry redrawn (same
    # total, so the same r_L) and a target anywhere in its tuning band,
    # short of the top, where the flux is ill-conditioned.  Where the
    # asymmetry term turns B negative before FLUX_MAX there is no band.
    total = device.squid.total
    squid = SquidParams(ej1=total * (1 + asymmetry) / 2, ej2=total * (1 - asymmetry) / 2, cs=device.squid.cs)
    dev = dataclasses.replace(device, squid=squid)
    try:
        bottom, top = tuning_band(dev, phi_s)
    except RegimeError as exc:
        assert "diverges" in str(exc)
        top = solve_dispersion(dev, SquidState(flux=0.0, phi_s=phi_s), 1)[0].omega
        with pytest.raises(RegimeError, match="diverges"):
            flux_for_frequency(dev, top, phi_s)
        return
    target = top - frac * (top - bottom)
    closed = flux_for_frequency(dev, target, phi_s)
    assert abs(closed - bisect_flux_for_frequency(dev, target, phi_s)) <= 1e-10
    assert abs(solve_dispersion(dev, SquidState(flux=closed, phi_s=phi_s), 1)[0].omega - target) <= 1e-9


# --- array-valued sweep ----------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sweep_cases())
def test_mode_sweep_matches_pointwise_solver(device, case):
    # The sweep against `solve_dispersion` at every point:
    # the same bits, and at a point the solver rejects, the same error
    # on blank rows.
    (r_l, r_c, asymmetry), flux, n_modes = case
    line = device.line
    # The drawn ratios, moved just inside their bounds against rounding.
    total = line.inductive_energy / r_l * (1.0 + 1e-9)
    squid = SquidParams(
        ej1=total * (1 + asymmetry) / 2,
        ej2=total * (1 - asymmetry) / 2,
        cs=r_c * line.total_capacitance * (1.0 - 1e-9),
    )
    dev = dataclasses.replace(device, squid=squid)
    sweep = mode_sweep(dev, flux, n_modes)
    assert sweep.axes == {"flux": tuple(flux), "mode": tuple(range(1, n_modes + 1))}
    errors = []
    for i, f in enumerate(flux):
        rows = range(i * n_modes, (i + 1) * n_modes)
        try:
            modes = solve_dispersion(dev, SquidState(flux=f), n_modes)
        except (ConfigError, RegimeError) as exc:
            errors.append({"flux_index": i, "flux": f, "error": str(exc)})
            assert all(sweep.columns[name][r] is None for name in sweep.columns for r in rows)
            continue
        for row, mode in zip(rows, modes):
            for name in ("kl", "omega", "lam", "anharmonicity"):
                assert sweep.columns[name][row] == getattr(mode, name), (name, f, mode.index)
    assert sweep.metadata["errors"] == errors


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sweep_cases())
def test_newton_roots_match_bisection_oracle(device, bisect_dispersion_root, case):
    # The Newton solver against the bisection it replaced, on the sweep
    # test's devices and flux grids: every root within 4 ulp, and where
    # the bisection finds no root in a branch, the same error text.
    (r_l, r_c, asymmetry), flux, n_modes = case
    total = device.line.inductive_energy / r_l * (1.0 + 1e-9)
    squid = SquidParams(
        ej1=total * (1 + asymmetry) / 2,
        ej2=total * (1 - asymmetry) / 2,
        cs=r_c * device.line.total_capacitance * (1.0 - 1e-9),
    )
    dev = dataclasses.replace(device, squid=squid)
    ratios = derive_ratios(dev)
    for f in flux:
        try:
            roots = [mode.kl for mode in solve_dispersion(dev, SquidState(flux=f), n_modes)]
        except (ConfigError, RegimeError) as exc:
            roots = str(exc)
        try:
            load = flux_factor(dev, SquidState(flux=f)) / ratios.r_l
            expected = [bisect_dispersion_root(n, ratios.r_c, load) for n in range(1, n_modes + 1)]
        except (ConfigError, RegimeError) as exc:
            assert roots == str(exc), f
            continue
        assert not isinstance(roots, str), (f, roots)
        for n, (kl, oracle) in enumerate(zip(roots, expected), 1):
            assert abs(kl - oracle) <= 4 * math.ulp(oracle), (f, n, kl, oracle)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 5),
    r_c=st.floats(0.0, 0.5),
    log_load=st.floats(-8.0, 2.7),
)
def test_newton_root_matches_bisection_for_any_load(bisect_dispersion_root, n, r_c, log_load):
    # The root finder alone, with load = B/r_L from 1e-8 to 500: down to
    # the weak terminations just below half flux, where Newton steps
    # from the branch's right edge overshoot and the bracket has to
    # catch them.
    load = 10.0**log_load
    try:
        oracle = bisect_dispersion_root(n, r_c, load)
    except RegimeError as exc:
        with pytest.raises(RegimeError) as raised:
            _solve_branch(n, r_c, load)
        assert str(raised.value) == str(exc)
        return
    kl = _solve_branch(n, r_c, load)
    assert abs(kl - oracle) <= 4 * math.ulp(oracle), (kl, oracle)


def test_mode_sweep_rejects_unusable_counts(device):
    with pytest.raises(ValueError, match="n_modes must be >= 1"):
        mode_sweep(device, [0.0, 0.1], n_modes=0)
    with pytest.raises(ValueError, match="nonempty"):
        mode_sweep(device, [])
