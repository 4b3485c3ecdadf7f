"""Two-level gate-leakage dynamics against matrix-exponential oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qcsim import (
    SquidParams,
    SquidState,
    TwoLevelProblem,
    evolve_two_level,
    leakage_sweep,
    propagator,
    qubit_coupler_coupling,
    qubit_spectrum,
    solve_dispersion,
)
from qcsim.constants import TWO_PI, ghz_to_angular

from conftest import sweep_cases


def _expm_populations(e1, e2, g, t, psi0=(1.0, 0.0)):
    u = expm(-1j * np.array([[e1, g], [g, e2]]) * t)
    psi = u @ np.array(psi0, dtype=complex)
    return abs(psi[0]) ** 2, abs(psi[1]) ** 2


def test_zero_time_is_identity():
    psi0 = (math.sqrt(0.3), complex(0, math.sqrt(0.7)))
    problem = TwoLevelProblem(e1=1.0, e2=2.0, g=0.1, psi0=psi0)
    p1, p2 = evolve_two_level(problem, 0.0)
    assert p1 == pytest.approx(0.3, abs=1e-15)
    assert p2 == pytest.approx(0.7, abs=1e-15)


def test_resonant_half_period_full_transfer():
    g = 0.045
    problem = TwoLevelProblem(e1=5.0, e2=5.0, g=g)
    p1, p2 = evolve_two_level(problem, math.pi / (2 * g))
    assert p2 == pytest.approx(1.0, abs=1e-12)
    assert p1 == pytest.approx(0.0, abs=1e-12)


def test_off_resonant_formula_point():
    # g/2pi = 7.6 MHz, detuning/2pi = 100 MHz, t = 20 ns.
    g = ghz_to_angular(0.0076)
    delta = ghz_to_angular(0.1)
    p1, p2 = evolve_two_level(TwoLevelProblem(e1=delta / 2, e2=-delta / 2, g=g), 20.0)
    _, p2_ref = _expm_populations(delta / 2, -delta / 2, g, 20.0)
    assert p2 == pytest.approx(p2_ref, abs=1e-9)
    rabi = math.hypot(2 * g, delta)
    assert p2 == pytest.approx((4 * g**2 / rabi**2) * math.sin(rabi * 20.0 / 2) ** 2, abs=1e-12)


def test_closed_form_matches_matrix_exponential_on_random_instances():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(1000):
        g = rng.uniform(1e-3, 0.5)
        delta = rng.uniform(-3.0, 3.0)
        t = rng.uniform(0.0, 100.0)
        p1, p2 = evolve_two_level(TwoLevelProblem(e1=delta / 2, e2=-delta / 2, g=g), t)
        q1, q2 = _expm_populations(delta / 2, -delta / 2, g, t)
        worst = max(worst, abs(p1 - q1), abs(p2 - q2))
        assert p1 + p2 == pytest.approx(1.0, abs=1e-12)
    assert worst <= 1e-9


def test_pulse_train_composition():
    # A square-pulse train is the single-pulse unitary to the n-th power.
    e1, e2, g, t, n = 2.0, 1.4, 0.03, 17.0, 6
    single = propagator(e1, e2, g, t)
    chained = np.linalg.matrix_power(single, n)
    direct = propagator(e1, e2, g, n * t)
    assert np.abs(chained - direct).max() <= 1e-9
    u = propagator(e1, e2, g, t)
    assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-12


def test_dark_mode_reduction_error_bound():
    # Three-level truth (computational, bright-like, second-excited leak)
    # versus the two-level reduction that drops the dark leg: for mixing
    # angle theta the worst population error stays under 2*tan(theta)^2,
    # and at theta = 0 the second-excited leg decouples exactly.
    w1, w2 = TWO_PI * 4.0, TWO_PI * 4.1
    wc = TWO_PI * 4.08
    alpha1 = -TWO_PI * 0.194
    g1c = TWO_PI * 0.0076

    def worst_error(theta):
        g12 = g1c * math.tan(theta) / math.sqrt(2)
        h3 = np.array(
            [
                [w1 + w2, g1c, math.sqrt(2) * g12],
                [g1c, wc + w2, 0.0],
                [math.sqrt(2) * g12, 0.0, 2 * w1 + alpha1],
            ]
        )
        worst = 0.0
        for t in np.linspace(0.0, 200.0, 201):
            u3 = expm(-1j * h3 * t)
            p3 = abs(u3[0, 0]) ** 2
            p2, _ = evolve_two_level(TwoLevelProblem(e1=w1 + w2, e2=wc + w2, g=g1c), t)
            worst = max(worst, abs(p3 - p2))
        return worst

    assert worst_error(0.0) <= 1e-9
    assert worst_error(0.1) <= 2 * math.tan(0.1) ** 2


def test_problem_validation():
    with pytest.raises(ValueError):
        TwoLevelProblem(e1=0.0, e2=1.0, g=0.1, psi0=(1.0, 0.1))


# --- leakage sweeps -------------------------------------------------------


def test_far_detuned_leakage_bound(device):
    idle = solve_dispersion(device, SquidState(flux=0.0), 1)[0].omega
    w1 = qubit_spectrum(device.qubit1).omega
    g = qubit_coupler_coupling(device, 1, idle)
    assert abs(w1 - idle) >= 20 * g
    result = leakage_sweep(device, [idle], list(range(1, 13)), channel="single")
    bound = 4 * g**2 / (w1 - idle) ** 2
    assert bound <= 0.01
    assert all(p <= bound for p in result.columns["p_leak"])


def test_resonant_full_cycles_return(device):
    w1 = qubit_spectrum(device.qubit1).omega
    g = qubit_coupler_coupling(device, 1, w1)
    duration = math.pi / (2 * g)
    result = leakage_sweep(device, [w1], [2, 4, 6], channel="single", duration=duration)
    assert all(p == pytest.approx(1.0, abs=1e-9) for p in result.columns["p_comp"])
    odd = leakage_sweep(device, [w1], [1, 3], channel="single", duration=duration)
    assert all(p == pytest.approx(1.0, abs=1e-9) for p in odd.columns["p_leak"])


def test_population_conservation_over_grid(device):
    amps = [ghz_to_angular(f) for f in np.linspace(3.9, 4.3, 9)]
    result = leakage_sweep(device, amps, list(range(1, 8)), channel="double")
    total = np.array(result.columns["p_comp"]) + np.array(result.columns["p_leak"])
    assert np.abs(total - 1.0).max() <= 1e-9
    assert all(0.0 <= p <= 1.0 for p in result.columns["p_leak"])


def test_gate_count_periodicity_near_resonance(device):
    # Choose the hold time so one period of the off-resonant flopping is
    # exactly 8 gates; peaks then sit at counts 4, 12, 20, ...
    w1 = qubit_spectrum(device.qubit1).omega
    amp = w1 + ghz_to_angular(0.002)
    g = qubit_coupler_coupling(device, 1, amp)
    rabi = math.hypot(2 * g, w1 - amp)
    duration = 2 * math.pi / (rabi * 8)
    counts = list(range(1, 25))
    result = leakage_sweep(device, [amp], counts, channel="single", duration=duration)
    leak = np.array(result.columns["p_leak"])
    predicted = (4 * g**2 / rabi**2) * np.sin(rabi * duration * np.array(counts) / 2) ** 2
    np.testing.assert_allclose(leak, predicted, atol=1e-12)
    assert int(np.argmax(leak[:8])) + 1 == 4
    assert leak[3] == pytest.approx(leak[11], abs=1e-9)


def test_channels_share_detuning_structure(device):
    # The doubly-excited channel has the same detuning and coupling as
    # the one-excitation channel, so populations coincide.
    amps = [ghz_to_angular(4.05)]
    counts = [1, 2, 3]
    single = leakage_sweep(device, amps, counts, channel="single")
    double = leakage_sweep(device, amps, counts, channel="double")
    np.testing.assert_allclose(single.columns["p_leak"], double.columns["p_leak"], atol=1e-12)


def test_sweep_argument_validation(device):
    with pytest.raises(ValueError):
        leakage_sweep(device, [], [1], channel="single")
    with pytest.raises(ValueError, match="gate counts"):
        leakage_sweep(device, [25.0], [0], channel="single")
    with pytest.raises(ValueError, match="gate counts"):
        leakage_sweep(device, [25.0], [1, 0, 2], channel="single")
    with pytest.raises(ValueError):
        leakage_sweep(device, [25.0], [1], channel="both")
    for amp in (math.nan, math.inf):
        with pytest.raises(ValueError, match="omega_c must be positive and finite"):
            leakage_sweep(device, [amp], [1])
    # NaN passes a `duration <= 0` test, and the array evaluation would
    # turn it into NaN populations instead of raising.
    for duration in (0.0, -10.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="duration"):
            leakage_sweep(device, [25.0], [1], duration=duration)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("channel", ["single", "double"])
def test_array_sweep_matches_pointwise_oracle(device, benchmark_like_device, pointwise_leakage, seed, channel):
    dev = benchmark_like_device(device, seed)
    w1 = qubit_spectrum(dev.qubit1).omega
    # The on-resonance amplitude has zero detuning in both channels.
    amps = [ghz_to_angular(f) for f in np.linspace(3.9, 4.3, 17)] + [w1]
    grids = ([1, 2, 3, 5, 8, 13, 40, 100], [7], list(range(1, 21)))
    for counts in grids:
        for duration in (40.0, 17.3):
            result = leakage_sweep(dev, amps, counts, channel=channel, duration=duration)
            comp, leak = pointwise_leakage(dev, amps, counts, channel, duration)
            np.testing.assert_allclose(result.columns["p_comp"], comp, rtol=0, atol=1e-12)
            np.testing.assert_allclose(result.columns["p_leak"], leak, rtol=0, atol=1e-12)
            assert all(type(p) is float for p in result.columns["p_leak"])
    # On resonance the leak population is the full Rabi flop sin^2(g*t).
    g = qubit_coupler_coupling(dev, 1, w1)
    result = leakage_sweep(dev, [w1], [1, 3], channel=channel)
    np.testing.assert_allclose(
        result.columns["p_leak"], [math.sin(g * 40.0) ** 2, math.sin(g * 120.0) ** 2], rtol=0, atol=1e-12
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    case=sweep_cases(),
    seed=st.integers(0, 40),
    amps_ghz=st.lists(st.floats(0.5, 10.0), min_size=1, max_size=8),
    on_resonance=st.booleans(),
    counts=st.lists(st.integers(1, 200), min_size=1, max_size=8),
    duration=st.floats(1.0, 100.0),
    channel=st.sampled_from(["single", "double"]),
)
def test_sweep_matches_pointwise_oracle_on_drawn_devices(
    device, benchmark_like_device, pointwise_leakage, case, seed, amps_ghz, on_resonance, counts, duration, channel
):
    # `leakage_sweep` against one `evolve_two_level` per grid point, on a
    # benchmark-like device whose SQUID is drawn as in the mode sweep
    # tests, with or without an amplitude on qubit 1's frequency.
    (r_l, r_c, asymmetry), _, _ = case
    dev = benchmark_like_device(device, seed)
    total = dev.line.inductive_energy / r_l * (1.0 + 1e-9)
    squid = SquidParams(
        ej1=total * (1 + asymmetry) / 2,
        ej2=total * (1 - asymmetry) / 2,
        cs=r_c * dev.line.total_capacitance * (1.0 - 1e-9),
    )
    dev = dataclasses.replace(dev, squid=squid)
    amps = [ghz_to_angular(f) for f in amps_ghz] + [qubit_spectrum(dev.qubit1).omega] * on_resonance
    result = leakage_sweep(dev, amps, counts, channel=channel, duration=duration)
    comp, leak = pointwise_leakage(dev, amps, counts, channel, duration)
    np.testing.assert_allclose(result.columns["p_comp"], comp, rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.columns["p_leak"], leak, rtol=0, atol=1e-12)
