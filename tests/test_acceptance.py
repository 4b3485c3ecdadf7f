"""Acceptance criteria for the full artifact, one test per criterion.

Each test prints a single pass/fail line (visible with `pytest -s` or in
the captured output); tolerances are pinned here and nowhere else.
"""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qcsim import (
    CouplingCaps,
    DeviceConfig,
    SquidParams,
    SquidState,
    TwoLevelProblem,
    angular_to_ghz,
    direct_coupling,
    evolve_two_level,
    flux_for_frequency,
    fundamental_approx,
    leakage_sweep,
    qubit_coupler_coupling,
    qubit_spectrum,
    solve_dispersion,
    switch_off,
    zz_report,
)
from qcsim.cli import main
from qcsim.constants import TWO_PI, ghz_to_angular


def _report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_bare_resonator_calibration(device):
    started = time.perf_counter()
    mode = solve_dispersion(device, SquidState(flux=0.0), 1)[0]
    elapsed = time.perf_counter() - started
    freq = angular_to_ghz(mode.omega)
    ok = abs(freq - 6.0) / 6.0 <= 0.01 and elapsed < 1.0
    _report(1, f"zero-flux fundamental {freq:.4f} GHz within 1% of 6.0 in {elapsed:.3f}s", ok)


def test_criterion_2_direct_coupling(device):
    g12_mhz = angular_to_ghz(direct_coupling(device)) * 1e3
    ok = abs(g12_mhz - 1.3) / 1.3 <= 0.02
    _report(2, f"direct coupling {g12_mhz:.4f} MHz within 2% of 1.3", ok)


def test_criterion_3_flux_tuning_ordering(device):
    started = time.perf_counter()
    grid = np.linspace(0.0, 0.45, 100)
    curves = {}
    for d in (0.0, 0.1, 0.2):
        total = device.squid.total
        squid = SquidParams(
            ej1=0.5 * (1 + d) * total, ej2=0.5 * (1 - d) * total, cs=device.squid.cs
        )
        dev = dataclasses.replace(device, squid=squid)
        freqs = np.array([solve_dispersion(dev, SquidState(flux=f), 1)[0].omega for f in grid])
        curves[d] = freqs
    elapsed = time.perf_counter() - started
    strictly_down = all(np.all(np.diff(c) < 0) for c in curves.values())
    tol = 1e-9 * curves[0.0]
    ordered = np.all(curves[0.2] <= curves[0.1] + tol) and np.all(curves[0.1] <= curves[0.0] + tol)
    ok = strictly_down and bool(ordered) and elapsed < 5.0
    _report(3, f"monotone flux tuning with asymmetry ordering in {elapsed:.2f}s", ok)


def test_criterion_4_approximation_consistency(device):
    worst = 0.0
    for flux in np.linspace(0.0, 0.4, 41):
        exact = solve_dispersion(device, SquidState(flux=flux), 1)[0].omega
        estimate = fundamental_approx(device, SquidState(flux=flux))
        worst = max(worst, abs(estimate - exact) / exact)
    ok = worst <= 0.02
    _report(4, f"analytic estimate within {worst:.3%} (bound 2%) on flux 0..0.4", ok)


def test_criterion_5_zz_hierarchy_and_magnitude(device):
    started = time.perf_counter()
    small = dataclasses.replace(device, caps=dataclasses.replace(device.caps, c12=0.03))
    band = np.linspace(4.3, 4.8, 51)
    hierarchy = magnitude = suppression = True
    for f_ghz in band:
        rep = zz_report(device, TWO_PI * f_ghz)
        hierarchy &= abs(rep.xi2) > abs(rep.xi3) > abs(rep.xi4)
        magnitude &= abs(rep.xi_pert) <= TWO_PI * 50e-6 and abs(rep.xi_exact) <= TWO_PI * 50e-6
        rep_small = zz_report(small, TWO_PI * f_ghz)
        suppression &= abs(rep_small.xi_exact) < abs(rep.xi_exact)
        suppression &= abs(rep_small.xi_pert) < abs(rep.xi_pert)
    elapsed = time.perf_counter() - started
    ok = hierarchy and magnitude and suppression and elapsed < 30.0
    _report(
        5,
        "order hierarchy, |xi| <= 50 kHz, and smaller-c12 suppression over "
        f"4.3..4.8 GHz in {elapsed:.2f}s",
        ok,
    )


def test_criterion_6_perturbation_vs_oracle(device, dense_zz_exact):
    from qcsim import zz_exact

    band = np.linspace(4.3, 4.8, 51)
    agree = True
    for f_ghz in band:
        rep = zz_report(device, TWO_PI * f_ghz)
        agree &= abs(rep.xi_exact - rep.xi_pert) <= max(0.25 * abs(rep.xi_exact), TWO_PI * 1e-6)
    converged = True
    for f_ghz in (4.3, 4.55, 4.8):
        block = zz_exact(device, TWO_PI * f_ghz)
        for levels in (4, 5):
            dense = dense_zz_exact(device, TWO_PI * f_ghz, levels)
            converged &= abs(block - dense) <= TWO_PI * 1e-7
    ok = agree and converged
    _report(6, "perturbative sum tracks exact diagonalization; truncation converged", ok)


def test_criterion_7_dynamics_equivalence(device):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        g = rng.uniform(1e-3, 0.5)
        delta = rng.uniform(-3.0, 3.0)
        t = rng.uniform(0.0, 100.0)
        p1, p2 = evolve_two_level(TwoLevelProblem(e1=delta / 2, e2=-delta / 2, g=g), t)
        u = expm(-1j * np.array([[delta / 2, g], [g, -delta / 2]]) * t)
        worst = max(worst, abs(p2 - abs(u[1, 0]) ** 2), abs(p1 - abs(u[0, 0]) ** 2))
    closed_form_ok = worst <= 1e-9

    amps = [ghz_to_angular(f) for f in np.linspace(3.9, 4.3, 11)]
    sweep = leakage_sweep(device, amps, list(range(1, 11)), channel="single")
    sums = np.array(sweep.columns["p_comp"]) + np.array(sweep.columns["p_leak"])
    conservation_ok = np.abs(sums - 1.0).max() <= 1e-9

    w1 = qubit_spectrum(device.qubit1).omega
    g = qubit_coupler_coupling(device, 1, w1)
    revival = leakage_sweep(
        device, [w1], [2, 4, 8], channel="single", duration=math.pi / (2 * g)
    )
    revival_ok = all(abs(p - 1.0) <= 1e-9 for p in revival.columns["p_comp"])

    ok = closed_form_ok and conservation_ok and revival_ok
    _report(
        7,
        f"closed form vs matrix exponential (worst {worst:.1e}), conservation, revival",
        ok,
    )


def test_criterion_8_switch_off_contract(device):
    result = switch_off(device)
    residual_ok = result.residual <= TWO_PI * 1e-6
    mode = solve_dispersion(device, SquidState(flux=result.flux_off), 1)[0]
    flux_ok = abs(mode.omega - result.omega_off) <= 1e-6
    round_trip = flux_for_frequency(device, mode.omega)
    flux_ok &= abs(round_trip - result.flux_off) <= 1e-6

    swapped = DeviceConfig(
        qubit1=device.qubit2,
        qubit2=device.qubit1,
        line=device.line,
        squid=device.squid,
        caps=CouplingCaps(
            c12=device.caps.c12, c1c=device.caps.c2c, c2c=device.caps.c1c, cc=device.caps.cc
        ),
    )
    symmetric_ok = abs(switch_off(swapped).omega_off - result.omega_off) / result.omega_off <= 1e-9
    ok = residual_ok and flux_ok and symmetric_ok
    _report(
        8,
        f"switch-off at {angular_to_ghz(result.omega_off):.6f} GHz, residual "
        f"{angular_to_ghz(result.residual) * 1e6:.2e} kHz, flux round trip and relabeling hold",
        ok,
    )


def test_criterion_9_cli_determinism(config_path, tmp_path):
    data_files = ["modes.csv", "coupling.csv", "zz.csv", "leakage.csv", "switchoff.json"]
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["modes", "--config", config_path, "--out", str(out), "--flux", "0:0.45:16"]) == 0
            assert main(["coupling", "--config", config_path, "--out", str(out), "--omega-c", "4.2:6.0:16"]) == 0
            assert main(["zz", "--config", config_path, "--out", str(out), "--omega-c", "4.3:4.8:6"]) == 0
            assert main(
                ["leakage", "--config", config_path, "--out", str(out), "--amp", "3.9:4.2:7", "--ncz", "1:8:8"]
            ) == 0
            assert main(["switchoff", "--config", config_path, "--out", str(out)]) == 0
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() for name in data_files
    )
    _report(9, "two consecutive full CLI runs emit byte-identical data files", identical)
