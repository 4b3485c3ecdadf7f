"""Coupling strengths, the two-term net coupling, and switch-off search."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcsim import (
    CouplingCaps,
    CouplingReport,
    DeviceConfig,
    QubitParams,
    RegimeError,
    RegimeWarning,
    SquidParams,
    SquidState,
    angular_to_ghz,
    coupling_sweep,
    device_from_dict,
    direct_coupling,
    effective_coupling,
    ghz_to_angular,
    qubit_coupler_coupling,
    qubit_spectrum,
    solve_dispersion,
    switch_off,
)
from qcsim.constants import TWO_PI

from conftest import sweep_cases


def _with_caps(device, **overrides):
    caps = dataclasses.replace(device.caps, **overrides)
    return dataclasses.replace(device, caps=caps)


# --- direct coupling -----------------------------------------------------


def test_direct_coupling_value(device):
    g12 = direct_coupling(device)
    assert angular_to_ghz(g12) * 1e3 == pytest.approx(1.3079886262790, rel=1e-10)
    assert abs(angular_to_ghz(g12) * 1e3 - 1.3) / 1.3 < 0.02


def test_direct_coupling_term_isolation(device):
    # Shrinking c12 to nothing leaves only the series-capacitance term.
    dev = _with_caps(device, c12=1e-9)
    caps = dev.caps
    w1 = qubit_spectrum(dev.qubit1).omega
    w2 = qubit_spectrum(dev.qubit2).omega
    isolated = (
        caps.c1c
        * caps.c2c
        / (2.0 * caps.cc * math.sqrt(dev.qubit1.c_total * dev.qubit2.c_total))
        * math.sqrt(w1 * w2)
    )
    assert direct_coupling(dev) == pytest.approx(isolated, rel=1e-6)


def test_direct_coupling_scales_with_c12(device):
    # With c12 dominating the series term, halving c12 roughly halves g12.
    big = _with_caps(device, c12=0.06)
    small = _with_caps(device, c12=0.03)
    ratio = direct_coupling(big) / direct_coupling(small)
    assert abs(ratio - 2.0) <= 0.1


# --- qubit-coupler coupling ----------------------------------------------


def test_qubit_coupler_value(device):
    g1c = qubit_coupler_coupling(device, 1, TWO_PI * 4.5)
    assert angular_to_ghz(g1c) * 1e3 == pytest.approx(7.5955452531, rel=1e-10)
    assert abs(angular_to_ghz(g1c) * 1e3 - 7.6) < 0.05


def test_qubit_coupler_sqrt_scaling(device):
    base = qubit_coupler_coupling(device, 1, TWO_PI * 1.5)
    assert qubit_coupler_coupling(device, 1, TWO_PI * 6.0) == pytest.approx(2 * base, rel=1e-12)


def test_qubit_ratio_identity(device):
    # At equal coupling caps, g2c/g1c = sqrt(C1/C2) * sqrt(w2/w1).
    omega_c = TWO_PI * 4.7
    g1c = qubit_coupler_coupling(device, 1, omega_c)
    g2c = qubit_coupler_coupling(device, 2, omega_c)
    w1 = qubit_spectrum(device.qubit1).omega
    w2 = qubit_spectrum(device.qubit2).omega
    expected = math.sqrt(device.qubit1.c_total / device.qubit2.c_total) * math.sqrt(w2 / w1)
    assert g2c / g1c == pytest.approx(expected, rel=1e-12)


def test_qubit_coupler_argument_validation(device):
    with pytest.raises(ValueError):
        qubit_coupler_coupling(device, 3, TWO_PI * 4.5)
    for omega_c in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="omega_c must be positive and finite"):
            qubit_coupler_coupling(device, 1, omega_c)


# --- net coupling --------------------------------------------------------


def test_mediated_term_identity(device):
    # The capacitance form of the mediated term must equal the
    # g1c*g2c/2 * (1/D1 + 1/D2 - 1/S1 - 1/S2) form to rounding error.
    for f_ghz in (3.2, 4.5, 5.5):
        rep = effective_coupling(device, TWO_PI * f_ghz)
        alt = 0.5 * rep.g1c * rep.g2c * (
            1 / rep.delta1 + 1 / rep.delta2 - 1 / rep.lambda1 - 1 / rep.lambda2
        )
        assert rep.mediated == pytest.approx(alt, rel=1e-12)
        assert rep.g_eff == pytest.approx(rep.direct + rep.mediated, rel=1e-12)


def test_vanishing_qubit_coupler_caps_leave_direct_term(device):
    with pytest.warns(RegimeWarning):
        dev = _with_caps(device, c1c=1e-9, c2c=1e-9)
    rep = effective_coupling(dev, TWO_PI * 4.5)
    assert rep.g_eff == pytest.approx(rep.g12, rel=1e-9)


def test_far_above_mediated_limit(device):
    # As the coupler runs far above both qubits the mediated term tends
    # to the finite negative value -kappa/2 with
    # kappa = C1c*C2c/(Cc*sqrt(C1*C2)) * sqrt(w1*w2).
    w1 = qubit_spectrum(device.qubit1).omega
    w2 = qubit_spectrum(device.qubit2).omega
    caps = device.caps
    kappa = caps.c1c * caps.c2c / (caps.cc * math.sqrt(device.qubit1.c_total * device.qubit2.c_total)) * math.sqrt(w1 * w2)
    rep = effective_coupling(device, TWO_PI * 50.0)
    assert rep.mediated < 0
    assert rep.mediated == pytest.approx(-kappa / 2, rel=0.01)
    for f_ghz in (4.2, 4.6, 5.0, 10.0):
        assert effective_coupling(device, TWO_PI * f_ghz).mediated < 0


def test_mediated_sign_structure_and_monotonicity(device):
    # Positive mediated term below both qubits, negative above; g_eff
    # monotone on each side away from the resonance poles.
    below = [effective_coupling(device, TWO_PI * f).g_eff for f in np.linspace(2.5, 3.95, 60)]
    assert all(effective_coupling(device, TWO_PI * f).mediated > 0 for f in (2.5, 3.5, 3.95))
    assert all(b > a for a, b in zip(below, below[1:]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        above = [effective_coupling(device, TWO_PI * f).g_eff for f in np.linspace(4.15, 6.0, 60)]
    assert all(b > a for a, b in zip(above, above[1:]))


def test_dressing_direction(device):
    w1 = qubit_spectrum(device.qubit1).omega
    rep_below = effective_coupling(device, TWO_PI * 3.5)  # coupler below: D1 > 0
    assert rep_below.dressed1 > w1
    rep_above = effective_coupling(device, TWO_PI * 5.0)  # coupler above: D1 < 0
    assert rep_above.dressed1 < w1
    assert max(rep_below.guard1, rep_above.guard1) < 0.3


def test_resonance_and_guard(device):
    w2 = qubit_spectrum(device.qubit2).omega
    with pytest.raises(RegimeError, match="resonant"):
        effective_coupling(device, w2)
    with pytest.warns(RegimeWarning, match="dispersive guard"):
        effective_coupling(device, w2 + TWO_PI * 0.01)


def test_report_couplings_are_the_one_point_calls(device, benchmark_like_device):
    # effective_coupling computes the qubit spectra once and the three
    # couplings inline; they must stay the library's one-point values.
    for dev in (device, benchmark_like_device(device, 3)):
        for f_ghz in (0.5, 3.2, 4.5, 5.5, 9.0):
            w = TWO_PI * f_ghz
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
                rep = effective_coupling(dev, w)
            assert rep.g12 == rep.direct == direct_coupling(dev)
            assert rep.g1c == qubit_coupler_coupling(dev, 1, w)
            assert rep.g2c == qubit_coupler_coupling(dev, 2, w)


def test_coupling_sweep_equals_pointwise_reports(device, benchmark_like_device):
    # A grid that starts on qubit 1's frequency and ends on qubit 2's:
    # both resonances are blank rows with effective_coupling's error, and
    # every other row is its report, bit for bit.
    for dev in (device, benchmark_like_device(device, 7)):
        w1 = qubit_spectrum(dev.qubit1).omega
        w2 = qubit_spectrum(dev.qubit2).omega
        grid = [w1 + i * TWO_PI * 0.0125 for i in range(240)] + [w2]
        sweep = coupling_sweep(dev, grid)
        assert sweep.axes == {"omega_c": tuple(grid)}
        errors = []
        for row, w in enumerate(grid):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RegimeWarning)
                    expected = effective_coupling(dev, w)
            except RegimeError as exc:
                errors.append({"row": row, "omega_c": w, "error": str(exc)})
                assert all(column[row] is None for column in sweep.columns.values())
                continue
            assert CouplingReport(w, **{k: v[row] for k, v in sweep.columns.items()}) == expected
        assert [e["row"] for e in errors] == [0, len(grid) - 1]
        assert sweep.metadata["errors"] == errors


def test_coupling_sweep_rejects_nonpositive_frequency(device):
    with pytest.raises(ValueError, match="omega_c must be positive and finite, got -1.0"):
        coupling_sweep(device, [TWO_PI * 4.5, -1.0, 0.0])
    # NaN passes a `<= 0` test and would come back as NaN couplings.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"omega_c must be positive and finite, got {bad}"):
            coupling_sweep(device, [TWO_PI * 4.5, bad])
        with pytest.raises(ValueError, match=f"omega_c must be positive and finite, got {bad}"):
            effective_coupling(device, bad)
    with pytest.raises(ValueError, match="nonempty"):
        coupling_sweep(device, [])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=sweep_cases(), seed=st.integers(0, 40), f_ghz=st.floats(0.05, 15.0))
def test_effective_coupling_matches_per_call_oracle(device, benchmark_like_device, per_call_coupling, case, seed, f_ghz):
    # The device constants kept per device against the same arithmetic
    # redone at every call: every field, bit for bit, on a benchmark-like
    # device whose SQUID is drawn as in the mode sweep tests.
    (r_l, r_c, asymmetry), _, _ = case
    dev = benchmark_like_device(device, seed)
    total = dev.line.inductive_energy / r_l * (1.0 + 1e-9)
    squid = SquidParams(
        ej1=total * (1 + asymmetry) / 2,
        ej2=total * (1 - asymmetry) / 2,
        cs=r_c * dev.line.total_capacitance * (1.0 - 1e-9),
    )
    dev = dataclasses.replace(dev, squid=squid)
    omega_c = TWO_PI * f_ghz
    assume(omega_c not in (qubit_spectrum(dev.qubit1).omega, qubit_spectrum(dev.qubit2).omega))
    expected = per_call_coupling(dev, omega_c)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        report = effective_coupling(dev, omega_c)
    for name, value, oracle in zip(CouplingReport._fields, report, expected):
        assert value == oracle, name
    assert direct_coupling(dev) == expected[1]
    assert (qubit_coupler_coupling(dev, 1, omega_c), qubit_coupler_coupling(dev, 2, omega_c)) == expected[2:4]


def test_replaced_device_starts_with_its_own_constants(device, config_path):
    # `dataclasses.replace` builds a new instance, so a device derived
    # from one whose constants are already kept computes its own: the
    # same values as a freshly loaded device with that change.
    with open(config_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    w = TWO_PI * 5.0
    before = effective_coupling(device, w)
    small = dataclasses.replace(device, caps=dataclasses.replace(device.caps, c12=0.03))
    doc["caps"]["c12"] = 0.03
    assert effective_coupling(small, w) == effective_coupling(device_from_dict(doc), w) != before
    assert direct_coupling(small) == direct_coupling(device_from_dict(doc)) != direct_coupling(device)
    lower = dataclasses.replace(device, qubit1=QubitParams.from_frequency(100.0, ghz_to_angular(3.95)))
    doc["caps"]["c12"] = device.caps.c12
    doc["qubit1"]["omega"] = 3.95
    fresh = device_from_dict(doc)
    assert effective_coupling(lower, w) == effective_coupling(fresh, w) != before
    assert qubit_spectrum(lower.qubit1) == qubit_spectrum(fresh.qubit1) != qubit_spectrum(device.qubit1)
    assert effective_coupling(device, w) == before
    q = device.qubit1
    assert qubit_spectrum(q) is qubit_spectrum(q)
    assert device.coupling_constants is device.coupling_constants


def test_coupling_report_is_an_immutable_named_tuple(device):
    assert CouplingReport._fields == (
        "omega_c", "g12", "g1c", "g2c", "g_eff", "dressed1", "dressed2", "delta1", "delta2",
        "lambda1", "lambda2", "direct", "mediated", "mediated_rwa", "guard1", "guard2",
    )  # fmt: skip
    rep = effective_coupling(device, TWO_PI * 5.0)
    with pytest.raises(AttributeError):
        rep.g_eff = 0.0
    assert hash(rep) == hash(effective_coupling(device, TWO_PI * 5.0))
    assert rep._asdict()["g_eff"] == rep.g_eff == rep[4]
    assert rep._replace(g_eff=0.0).g_eff == 0.0 != rep.g_eff


# --- switch-off ----------------------------------------------------------


def test_switch_off_root(device):
    # The scan crosses the resonance poles under its own RegimeWarning
    # scope: nothing escapes into an "error" filter, and the caller's
    # filters come back unchanged.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        before = list(warnings.filters)
        result = switch_off(device)
        assert warnings.filters == before
    assert angular_to_ghz(result.omega_off) == pytest.approx(4.126198976268, rel=1e-9)
    assert result.residual <= TWO_PI * 1e-6
    assert result.flux_off == pytest.approx(0.4872656942, abs=1e-6)
    assert result.guard == pytest.approx(0.29626759, rel=1e-5)
    assert result.guard < 0.3
    assert len(result.roots) == 1
    assert result.band[0] < result.omega_off < result.band[1]


def test_switch_off_flux_round_trip(device):
    result = switch_off(device)
    mode = solve_dispersion(device, SquidState(flux=result.flux_off), 1)[0]
    assert abs(mode.omega - result.omega_off) <= 1e-6


def test_switch_off_relabeling_symmetry(device):
    swapped = DeviceConfig(
        qubit1=device.qubit2,
        qubit2=device.qubit1,
        line=device.line,
        squid=device.squid,
        caps=CouplingCaps(
            c12=device.caps.c12, c1c=device.caps.c2c, c2c=device.caps.c1c, cc=device.caps.cc
        ),
    )
    a = switch_off(device).omega_off
    b = switch_off(swapped).omega_off
    assert abs(a - b) / a <= 1e-9


def test_switch_off_without_sign_change_reports_endpoints(device):
    # With essentially no deliberate qubit-qubit capacitance the direct
    # term drops to the series remnant; the mediated term then stays
    # below it across the searched band for this device, and the error
    # lists g_eff at the band's two ends.
    dev = _with_caps(device, c12=1e-9)
    with pytest.raises(RegimeError, match=r"g_eff\(") as exc:
        switch_off(dev)
    assert str(exc.value) == (
        "g_eff does not change sign on the searched band: "
        "g_eff(25.7673) = -1.779e-01, g_eff(37.6848) = -1.443e-04"
    )


def test_switch_off_below_the_qubits_has_no_band_to_search(device, two_band_switch_off):
    # An 8 mm line puts the whole tuning band (top 3.68 GHz) below the
    # qubits, where g_eff > g12 > 0: there is no switch-off point.
    dev = dataclasses.replace(device, line=dataclasses.replace(device.line, length=8.0))
    with pytest.raises(RegimeError, match=r"does not change sign: the tuning band's top 23\.1195 .* no band to search"):
        switch_off(dev)
    with pytest.raises(RegimeError, match="does not change sign"):
        two_band_switch_off(dev)


def _assert_same_result(result, expected):
    # Bit for bit: repr round-trips every float and tells -0.0 from 0.0.
    assert result == expected
    assert repr(result) == repr(expected)


def test_switch_off_equals_two_band_oracle(device, benchmark_like_device, two_band_switch_off):
    # The band below the lower qubit holds no root, so scanning only the
    # band above the upper qubit returns the two-band scan's result.
    for dev in [device] + [benchmark_like_device(device, seed) for seed in range(30)]:
        _assert_same_result(switch_off(dev), two_band_switch_off(dev))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(c12=st.floats(0.01, 0.5), c1c=st.floats(0.5, 5.0), c2c=st.floats(0.5, 5.0))
def test_switch_off_equals_two_band_oracle_on_drawn_caps(device, two_band_switch_off, c12, c1c, c2c):
    # Where the direct term is too strong for the mediated one to cancel,
    # both searches fail; elsewhere they agree bit for bit.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        dev = _with_caps(device, c12=c12, c1c=c1c, c2c=c2c)
    try:
        expected = two_band_switch_off(dev)
    except RegimeError:
        with pytest.raises(RegimeError, match="does not change sign on the searched band: "):
            switch_off(dev)
        return
    _assert_same_result(switch_off(dev), expected)


def test_switch_off_evaluates_only_the_band_above_the_qubits(device, benchmark_like_device, monkeypatch):
    # One 512-step scan plus its bisection and the report at the root:
    # at most 513 + 40 calls, none of them below the upper qubit.
    import qcsim.coupling

    original = qcsim.coupling.effective_coupling
    calls = []

    def counting(dev, omega_c):
        calls.append(omega_c)
        return original(dev, omega_c)

    monkeypatch.setattr(qcsim.coupling, "effective_coupling", counting)
    for dev in (device, benchmark_like_device(device, 0)):
        calls.clear()
        switch_off(dev)
        w_hi = max(qubit_spectrum(dev.qubit1).omega, qubit_spectrum(dev.qubit2).omega)
        assert 513 < len(calls) <= 513 + 40
        assert min(calls) > w_hi


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 40),
    c12=st.floats(0.01, 0.5),
    c1c=st.floats(0.5, 5.0),
    c2c=st.floats(0.5, 5.0),
)
def test_g_eff_exceeds_direct_coupling_below_both_qubits(device, benchmark_like_device, seed, c12, c1c, c2c):
    # The fact that lets switch_off skip the band below the lower qubit:
    # at each point of the 512-step grid it used to scan there, every
    # 1/D_j - 1/S_j = 2*wc/(w_j^2 - wc^2) is positive, so the mediated
    # term is wc^2/4 * sum_j 1/(w_j^2 - wc^2) * C1c*C2c/(Cc*sqrt(C1*C2))
    # * sqrt(w1*w2) > 0 and g_eff > g12 > 0.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        dev = _with_caps(benchmark_like_device(device, seed), c12=c12, c1c=c1c, c2c=c2c)
    w1, w2 = qubit_spectrum(dev.qubit1).omega, qubit_spectrum(dev.qubit2).omega
    caps = dev.caps
    kappa = caps.c1c * caps.c2c / (caps.cc * math.sqrt(dev.qubit1.c_total * dev.qubit2.c_total)) * math.sqrt(w1 * w2)
    g12 = direct_coupling(dev)
    assert g12 > 0.0
    margin = TWO_PI * 1e-3
    lo, hi = max(min(w1, w2) - TWO_PI * 1.5, margin), min(w1, w2) - margin
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        for i in range(513):
            w = lo + i * (hi - lo) / 512
            rep = effective_coupling(dev, w)
            assert rep.g_eff > g12, w
            closed = w * w / 4.0 * (1.0 / (w1 * w1 - w * w) + 1.0 / (w2 * w2 - w * w)) * kappa
            assert math.isclose(rep.mediated, closed, rel_tol=1e-9), w
