import importlib.resources
import math
import random
import warnings

import pytest
from hypothesis import strategies as st

from qcsim import (
    DEFAULT_COUPLER_ANHARM,
    FLUX_MAX,
    CouplingCaps,
    DeviceConfig,
    QubitParams,
    RegimeError,
    SquidParams,
    SquidState,
    TransmissionLineParams,
    TruncationSpec,
    TwoLevelProblem,
    build_hamiltonian,
    charging_energy,
    coupler_shifts,
    device_from_dict,
    device_to_dict,
    evolve_two_level,
    label_spectrum,
    load_device,
    qubit_coupler_coupling,
    qubit_spectrum,
    solve_dispersion,
)
from qcsim.constants import TWO_PI

CONFIG_PATH = str(importlib.resources.files("qcsim").joinpath("data/reference_device.json"))


@pytest.fixture(scope="session")
def config_path() -> str:
    return CONFIG_PATH


@pytest.fixture(scope="session")
def device(config_path) -> DeviceConfig:
    """Bundled reference device: 4.0/4.1 GHz qubits (100/90 fF), 4.87 mm
    line terminated by an asymmetric SQUID, r_L = 0.02, r_C = 0.1."""
    return load_device(config_path)


@pytest.fixture(scope="session")
def degenerate_device() -> DeviceConfig:
    """Two identical 4.05 GHz qubits with three comparable couplings: the
    one-excitation states cannot be labeled with the coupler parked
    between about 4.0 and 4.2 GHz, and every coupler frequency sits on
    the delta_12 = 0 perturbative pole."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        qubit = QubitParams.from_frequency(100.0, TWO_PI * 4.05)
        return DeviceConfig(
            qubit1=qubit,
            qubit2=qubit,
            line=TransmissionLineParams(length=4.87, c0=0.16, l0=0.44),
            squid=SquidParams(ej1=TWO_PI * 2097.812021, ej2=TWO_PI * 1716.391654, cs=77.92),
            caps=CouplingCaps(c12=1.0, c1c=1.3, c2c=0.9, cc=780.0),
        )


def _dense_zz_exact(
    device: DeviceConfig,
    omega_c: float,
    levels: int,
    delta_c_anharm: float = DEFAULT_COUPLER_ANHARM,
) -> float:
    trunc = TruncationSpec(levels, levels, levels)
    h = build_hamiltonian(device, omega_c, coupler_shifts(delta_c_anharm, levels), trunc)
    wanted = [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)]
    e000, e100, e001, e101 = label_spectrum(h, trunc, wanted).energies
    return e101 - e100 - e001 + e000


@pytest.fixture(scope="session")
def dense_zz_exact():
    """Dense reference for `zz_exact`: the full Kronecker Hamiltonian at
    `levels` per subsystem, diagonalized and labeled by overlap.
    Called as dense_zz_exact(device, omega_c, levels[, delta_c_anharm])."""
    return _dense_zz_exact


def _benchmark_like_device(base: DeviceConfig, seed: int) -> DeviceConfig:
    """`base` with qubit frequencies, c12, c1c/c2c and line length
    redrawn over the ranges the seeded benchmark devices use."""
    rng = random.Random(seed)
    doc = device_to_dict(base)
    omega2 = rng.uniform(4.10, 4.13)
    splitting = rng.uniform(0.085, 0.12)
    for name, omega in (("qubit1", omega2 - splitting), ("qubit2", omega2)):
        doc[name] = {"c_total": doc[name]["c_total"], "omega": omega}
    doc["caps"]["c12"] = rng.uniform(0.035, 0.055)
    doc["caps"]["c1c"] = rng.uniform(0.95, 1.05)
    doc["caps"]["c2c"] = rng.uniform(0.95, 1.05)
    doc["line"]["length"] = rng.uniform(4.80, 4.95)
    return device_from_dict(doc)


@pytest.fixture(scope="session")
def benchmark_like_device():
    """Called as benchmark_like_device(base, seed)."""
    return _benchmark_like_device


@st.composite
def sweep_cases(draw):
    """A device inside the model's regime (r_L <= 0.1, r_C <= 0.5), drawn
    around the reference line, and a flux grid that runs from inside the
    tuning range past the half flux quantum, where the upper branches
    lose their roots and then the SQUID inductance diverges."""
    r_l = draw(st.floats(0.002, 0.1))
    r_c = draw(st.floats(0.0, 0.5, exclude_min=True))
    asymmetry = draw(st.floats(-0.9, 0.9))
    start = draw(st.floats(-0.3, 0.45))
    stop = draw(st.floats(0.45, 1.3))
    count = draw(st.integers(2, 25))
    step = (stop - start) / (count - 1)
    return (
        (r_l, r_c, asymmetry),
        [start + i * step for i in range(count)],
        draw(st.integers(1, 5)),
    )


def _per_call_coupling(device: DeviceConfig, omega_c: float) -> tuple:
    # Fresh spectra and capacitance factors at every call.
    def omega(qubit: QubitParams) -> float:
        e_c = charging_energy(qubit.c_total)
        return math.sqrt(8.0 * e_c * qubit.ej) - e_c

    def scale(qubit: QubitParams, c_jc: float) -> float:
        return c_jc / (2.0 * math.sqrt(qubit.c_total * device.caps.cc))

    caps, c1, c2 = device.caps, device.qubit1.c_total, device.qubit2.c_total
    w1, w2 = omega(device.qubit1), omega(device.qubit2)
    d1, d2 = w1 - omega_c, w2 - omega_c
    s1, s2 = w1 + omega_c, w2 + omega_c
    c_eff = caps.c12 + caps.c1c * caps.c2c / caps.cc
    g12 = c_eff / (2.0 * math.sqrt(c1 * c2)) * math.sqrt(w1 * w2)
    g1c = scale(device.qubit1, caps.c1c) * math.sqrt(w1 * omega_c)
    g2c = scale(device.qubit2, caps.c2c) * math.sqrt(w2 * omega_c)
    cap_ratio = caps.c1c * caps.c2c / (caps.cc * math.sqrt(c1 * c2))
    mediated = omega_c / 8.0 * (1.0 / d1 + 1.0 / d2 - 1.0 / s1 - 1.0 / s2) * cap_ratio * math.sqrt(w1 * w2)
    return (
        omega_c, g12, g1c, g2c, g12 + mediated,
        w1 + g1c * g1c * (1.0 / d1 - 1.0 / s1), w2 + g2c * g2c * (1.0 / d2 - 1.0 / s2),
        d1, d2, s1, s2, g12, mediated, 0.5 * g1c * g2c * (1.0 / d1 + 1.0 / d2),
        abs(g1c / d1), abs(g2c / d2),
    )  # fmt: skip


@pytest.fixture(scope="session")
def per_call_coupling():
    """Reference for `effective_coupling`: the CouplingReport field
    values in order, from the qubit spectra, the direct coupling and the
    capacitance factors recomputed at every call, as they were before
    they were kept per device.  Called as (device, omega_c)."""
    return _per_call_coupling


def _bisect_flux_for_frequency(device: DeviceConfig, target_omega: float, phi_s: float = 0.0) -> float:
    lo, hi = 0.0, FLUX_MAX  # omega(lo) >= target >= omega(hi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if solve_dispersion(device, SquidState(flux=mid, phi_s=phi_s), 1)[0].omega >= target_omega:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


@pytest.fixture(scope="session")
def bisect_flux_for_frequency():
    """Reference for `flux_for_frequency` on an in-band target: nested
    bisection of the solved mode-1 frequency over [0, FLUX_MAX], to
    1e-12 flux quanta.  Called as (device, target_omega[, phi_s])."""
    return _bisect_flux_for_frequency


def _bisect_dispersion_root(n: int, r_c: float, load: float) -> float:
    lo = (n - 1) * math.pi
    span = 0.5 * math.pi
    hi = lo + span
    a = lo + span * 1e-12

    def residual(x: float) -> float:
        return x * math.tan(x) + r_c * x * x - load

    fa = residual(a)
    # Walk in from the pole until the residual evaluates positive.
    candidates = [hi]
    step = span * 1e-15
    while step < span * 0.5:
        candidates.append(hi - step)
        step *= 10.0
    for b in candidates:
        fb = residual(b)
        if fb > 0.0:
            break
    if fa > 0.0:
        raise RegimeError(
            f"no dispersion root in branch {n} (kl in ({lo:.6f}, {hi:.6f})): "
            f"residual {fa:.3e} > 0 at the left edge; termination too weak for this mode"
        )
    if fb <= 0.0:
        raise RegimeError(f"no positive residual near the pole of branch {n}")
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = residual(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


@pytest.fixture(scope="session")
def bisect_dispersion_root():
    """Reference for the root of mode n, x*tan(x) + r_C*x^2 = load:
    bisection of that residual on ((n-1)*pi + 1e-12*pi/2, b) to float
    resolution, where b is the first of the tan pole (n-1)*pi + pi/2 and
    points walked in from it whose residual is positive.  Raises the
    solver's "no dispersion root in branch n" RegimeError where the
    residual is already positive at the left end.  Called as (n, r_c,
    load)."""
    return _bisect_dispersion_root


def _squid_chain_flux_factor(squid: SquidParams, flux: float, phi_s: float = 0.0) -> float:
    d = squid.asymmetry
    theta = math.pi * flux
    e_js = squid.total * math.sqrt(math.cos(theta) ** 2 + d**2 * math.sin(theta) ** 2)
    phi0 = math.atan2(d * math.sin(theta), math.cos(theta))
    tilt = math.cos(phi_s - phi0)
    if tilt <= 0.0:
        raise RegimeError(f"cos(phi_s - phi0) = {tilt:.3e} <= 0: SQUID inductance diverges")
    return e_js / squid.total * tilt


@pytest.fixture(scope="session")
def squid_chain_flux_factor():
    """Reference for `flux_factor`: the SQUID's effective Josephson
    energy e_js = E_sum*sqrt(cos^2(pi*flux) + d^2 sin^2(pi*flux)) and
    equilibrium phase phi0 = atan2(d*sin(pi*flux), cos(pi*flux)), then
    B = e_js/E_sum * cos(phi_s - phi0), raising RegimeError where that
    cosine is <= 0 (diverging inductance).  Called as (squid, flux[,
    phi_s])."""
    return _squid_chain_flux_factor


def _pointwise_leakage(device, amplitudes, ncz_values, channel, duration):
    w1 = qubit_spectrum(device.qubit1).omega
    w2 = qubit_spectrum(device.qubit2).omega
    p_comp, p_leak = [], []
    for amp in amplitudes:
        g = qubit_coupler_coupling(device, 1, amp)
        if channel == "single":
            problem = TwoLevelProblem(e1=w1, e2=amp, g=g)
        else:
            problem = TwoLevelProblem(e1=w1 + w2, e2=amp + w2, g=g)
        for n in ncz_values:
            stay, leak = evolve_two_level(problem, n * duration)
            p_comp.append(stay)
            p_leak.append(leak)
    return p_comp, p_leak


@pytest.fixture(scope="session")
def pointwise_leakage():
    """Reference for `leakage_sweep`: one `evolve_two_level` per grid
    point, row-major with amplitude outer.  Called as (device,
    amplitudes, ncz_values, channel, duration); returns the p_comp and
    p_leak lists."""
    return _pointwise_leakage
