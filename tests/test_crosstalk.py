"""ZZ crosstalk: perturbative orders against exact diagonalization."""

import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import eigh as scipy_eigh

from qcsim import (
    DEFAULT_COUPLER_ANHARM,
    LabelingError,
    RegimeError,
    TruncationSpec,
    build_hamiltonian,
    coupler_shifts,
    direct_coupling,
    label_spectrum,
    qubit_spectrum,
    zz_exact,
    zz_orders,
    zz_perturbative,
    zz_report,
    zz_sweep,
)
from qcsim.constants import TWO_PI
from qcsim.crosstalk import bare_index

BAND = np.linspace(4.3, 4.8, 26)


def _quiet_caps_device(device, **caps_overrides):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        caps = dataclasses.replace(device.caps, **caps_overrides)
        return dataclasses.replace(device, caps=caps)


# --- perturbative orders -------------------------------------------------


def test_second_order_against_high_precision_arithmetic(device):
    # Same formula evaluated independently at 50 digits must agree with
    # the float path to 1e-12.
    s1 = qubit_spectrum(device.qubit1)
    s2 = qubit_spectrum(device.qubit2)
    report = zz_perturbative(device, TWO_PI * 4.5)

    mp.mp.dps = 50
    g12 = mp.mpf(direct_coupling(device))
    d12 = mp.mpf(s1.omega) - mp.mpf(s2.omega)
    a1, a2 = mp.mpf(s1.alpha), mp.mpf(s2.alpha)
    xi2_hp = 2 * g12**2 * (a1 + a2) / ((d12 + a1) * (d12 - a2))
    assert report.xi2 == pytest.approx(float(xi2_hp), rel=1e-12)
    # frozen value, kHz
    assert report.xi2 / TWO_PI * 1e6 == pytest.approx(41.34572348, rel=1e-9)


def test_orders_vanish_without_direct_coupling():
    xi2, xi3, xi4 = zz_orders(
        w1=TWO_PI * 4.0,
        w2=TWO_PI * 4.1,
        a1=-TWO_PI * 0.19,
        a2=-TWO_PI * 0.21,
        g12=0.0,
        g1c=TWO_PI * 0.0076,
        g2c=TWO_PI * 0.0081,
        omega_c=TWO_PI * 4.5,
    )
    assert xi2 == 0.0
    assert xi3 == 0.0
    assert xi4 != 0.0


def test_order_hierarchy_over_band(device):
    for f_ghz in BAND:
        rep = zz_perturbative(device, TWO_PI * f_ghz)
        assert abs(rep.xi2) > abs(rep.xi3) > abs(rep.xi4)


def test_pole_proximity_error_names_denominator(device):
    with pytest.raises(RegimeError, match="delta_2"):
        zz_perturbative(device, TWO_PI * 4.102)
    with pytest.raises(RegimeError, match="delta_1"):
        zz_perturbative(device, TWO_PI * 4.001)


# --- Hamiltonian construction ---------------------------------------------


def test_hamiltonian_is_exactly_symmetric(device):
    h = build_hamiltonian(
        device, TWO_PI * 4.5, coupler_shifts(DEFAULT_COUPLER_ANHARM, 4), TruncationSpec()
    )
    assert np.array_equal(h, h.T)


def test_excitation_number_block_structure(device):
    trunc = TruncationSpec()
    h = build_hamiltonian(
        device, TWO_PI * 4.5, coupler_shifts(DEFAULT_COUPLER_ANHARM, 4), trunc
    )
    d1, dc, d2 = trunc.dims
    total = np.array([n1 + nc + n2 for n1 in range(d1) for nc in range(dc) for n2 in range(d2)])
    nz = np.argwhere(h != 0.0)
    assert np.all(total[nz[:, 0]] == total[nz[:, 1]])


def test_decoupled_limit_gives_bare_sums(device):
    dev = _quiet_caps_device(device, c12=1e-12, c1c=1e-12, c2c=1e-12)
    trunc = TruncationSpec()
    shifts = coupler_shifts(DEFAULT_COUPLER_ANHARM, 4)
    omega_c = TWO_PI * 4.5
    h = build_hamiltonian(dev, omega_c, shifts, trunc)
    s1, s2 = qubit_spectrum(dev.qubit1), qubit_spectrum(dev.qubit2)

    def bare(n, spec):
        return spec.omega * n + 0.5 * spec.alpha * n * (n - 1)

    expected = sorted(
        bare(n1, s1) + omega_c * nc + shifts[nc] + bare(n2, s2)
        for n1 in range(4)
        for nc in range(4)
        for n2 in range(4)
    )
    np.testing.assert_allclose(np.linalg.eigvalsh(h), expected, atol=1e-9)


def test_single_excitation_splitting(device):
    # With the coupler effectively detached, the one-excitation qubit
    # pair is a textbook two-level problem with gap sqrt(D12^2 + 4 g12^2).
    dev = _quiet_caps_device(device, c1c=1e-12, c2c=1e-12)
    g12 = direct_coupling(dev)
    s1, s2 = qubit_spectrum(dev.qubit1), qubit_spectrum(dev.qubit2)
    h = build_hamiltonian(
        dev, TWO_PI * 4.5, coupler_shifts(DEFAULT_COUPLER_ANHARM, 3), TruncationSpec(3, 3, 3)
    )
    evals = np.linalg.eigvalsh(h)
    pair = sorted(e for e in evals if abs(e - s1.omega) < 1.0 or abs(e - s2.omega) < 1.0)
    expected = math.sqrt((s1.omega - s2.omega) ** 2 + 4 * g12**2)
    assert pair[1] - pair[0] == pytest.approx(expected, abs=1e-10)


def test_duplicate_construction_oracle(device):
    # Rebuild the matrix element-by-element from the basis rules and
    # diagonalize with a different dense solver; the ten lowest
    # eigenvalues must match to 1e-10 relative.
    trunc = TruncationSpec()
    omega_c = TWO_PI * 4.5
    shifts = coupler_shifts(DEFAULT_COUPLER_ANHARM, trunc.levels_c)
    h = build_hamiltonian(device, omega_c, shifts, trunc)

    d1, dc, d2 = trunc.dims
    s1, s2 = qubit_spectrum(device.qubit1), qubit_spectrum(device.qubit2)
    from qcsim import qubit_coupler_coupling

    g1c = qubit_coupler_coupling(device, 1, omega_c)
    g2c = qubit_coupler_coupling(device, 2, omega_c)
    g12 = direct_coupling(device)
    dim = d1 * dc * d2
    alt = np.zeros((dim, dim))
    states = [(n1, nc, n2) for n1 in range(d1) for nc in range(dc) for n2 in range(d2)]
    index = {s: i for i, s in enumerate(states)}
    for (n1, nc, n2) in states:
        i = index[(n1, nc, n2)]
        alt[i, i] = (
            s1.omega * n1
            + 0.5 * s1.alpha * n1 * (n1 - 1)
            + omega_c * nc
            + shifts[nc]
            + s2.omega * n2
            + 0.5 * s2.alpha * n2 * (n2 - 1)
        )
        if n1 + 1 < d1 and nc - 1 >= 0:  # qubit 1 absorbs a coupler photon
            j = index[(n1 + 1, nc - 1, n2)]
            alt[i, j] = alt[j, i] = g1c * math.sqrt(n1 + 1) * math.sqrt(nc)
        if n2 + 1 < d2 and nc - 1 >= 0:
            j = index[(n1, nc - 1, n2 + 1)]
            alt[i, j] = alt[j, i] = g2c * math.sqrt(n2 + 1) * math.sqrt(nc)
        if n1 + 1 < d1 and n2 - 1 >= 0:  # direct exchange
            j = index[(n1 + 1, nc, n2 - 1)]
            alt[i, j] = alt[j, i] = g12 * math.sqrt(n1 + 1) * math.sqrt(n2)
    ours = np.linalg.eigvalsh(h)[:10]
    theirs = scipy_eigh(alt, eigvals_only=True)[:10]
    np.testing.assert_allclose(ours, theirs, rtol=1e-10, atol=1e-12)


def test_truncation_spec_guard():
    with pytest.raises(ValueError):
        TruncationSpec(2, 4, 4)


# --- exact diagonalization ------------------------------------------------


def test_exact_zero_for_decoupled_system(device):
    dev = _quiet_caps_device(device, c12=1e-12, c1c=1e-12, c2c=1e-12)
    assert abs(zz_exact(dev, TWO_PI * 4.5)) < 1e-10


def test_exact_matches_second_order_without_coupler(device):
    dev = _quiet_caps_device(device, c1c=1e-12, c2c=1e-12)
    rep = zz_perturbative(dev, TWO_PI * 4.5)
    exact = zz_exact(dev, TWO_PI * 4.5)
    assert abs(exact - rep.xi2) <= 0.1 * abs(rep.xi2)


def test_perturbative_against_exact_over_band(device):
    for f_ghz in BAND:
        rep = zz_report(device, TWO_PI * f_ghz)
        tol = max(0.25 * abs(rep.xi_exact), TWO_PI * 1e-6)
        assert abs(rep.xi_exact - rep.xi_pert) <= tol


def test_truncation_convergence(device, dense_zz_exact):
    # The block solver is truncation-free; the dense oracle at 4 and 5
    # levels per subsystem must land on the same value.
    for f_ghz in (4.3, 4.55, 4.8):
        block = zz_exact(device, TWO_PI * f_ghz)
        for levels in (4, 5):
            assert abs(block - dense_zz_exact(device, TWO_PI * f_ghz, levels)) <= TWO_PI * 1e-7


@pytest.mark.parametrize("seed", range(4))
def test_block_solver_matches_dense_oracle(device, seed, dense_zz_exact, benchmark_like_device):
    # Both the one-point block solver and the sweep over the whole band.
    dev = benchmark_like_device(device, seed)
    sweep = zz_sweep(dev, TWO_PI * BAND)
    assert sweep.metadata["errors"] == []
    for f_ghz, swept in zip(BAND, sweep.columns["xi_exact"]):
        block = zz_exact(dev, TWO_PI * f_ghz)
        for levels in (3, 4, 6):
            dense = dense_zz_exact(dev, TWO_PI * f_ghz, levels)
            assert abs(block - dense) <= 1e-12
            assert abs(swept - dense) <= 1e-12


def test_magnitude_band_and_capacitance_suppression(device):
    small = _quiet_caps_device(device, c12=0.03)
    for f_ghz in BAND:
        big_xi = zz_exact(device, TWO_PI * f_ghz)
        small_xi = zz_exact(small, TWO_PI * f_ghz)
        assert abs(big_xi) <= TWO_PI * 50e-6
        assert abs(small_xi) < abs(big_xi)


def test_labeling_ambiguity_raises(degenerate_device):
    # Degenerate qubits with the coupler parked on resonance and three
    # comparable couplings smear the one-excitation states over three
    # dressed levels; no overlap reaches the 0.5 threshold.
    with pytest.raises(LabelingError, match="overlap"):
        zz_exact(degenerate_device, TWO_PI * 4.05)


def test_label_spectrum_bijection_and_overlaps(device):
    trunc = TruncationSpec()
    h = build_hamiltonian(
        device, TWO_PI * 4.5, coupler_shifts(DEFAULT_COUPLER_ANHARM, 4), trunc
    )
    wanted = [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (0, 1, 0)]
    spectrum = label_spectrum(h, trunc, wanted)
    assert all(o >= 0.5 for o in spectrum.overlaps)
    assert spectrum.energy((0, 0, 0)) < spectrum.energy((1, 0, 0))
    assert len(set(spectrum.energies)) == len(wanted)


def test_bare_index_bounds():
    with pytest.raises(ValueError):
        bare_index((4, 0, 0), (4, 4, 4))
