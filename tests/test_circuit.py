"""Parameter containers, derived energies, and the strict JSON schema."""

import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qcsim import (
    ConfigError,
    CouplingCaps,
    DeviceConfig,
    QubitParams,
    RegimeError,
    RegimeWarning,
    SquidParams,
    SquidState,
    TransmissionLineParams,
    charging_energy,
    derive_ratios,
    device_from_dict,
    device_to_dict,
    ej_for_frequency,
    flux_factor,
    qubit_spectrum,
)
from qcsim.constants import TWO_PI
from qcsim.sweeps import device_hash

SQUID = SquidParams(ej1=TWO_PI * 2097.812021, ej2=TWO_PI * 1716.391654, cs=77.92)
LINE = TransmissionLineParams(length=4.87, c0=0.16, l0=0.44)


# --- SQUID flux factor ---------------------------------------------------


def _squid(d):
    """A SQUID of junction asymmetry d with the reference total, so that
    a device built on it stays inside the regime bounds."""
    half = 0.5 * SQUID.total
    return SquidParams(ej1=half * (1 + d), ej2=half * (1 - d), cs=SQUID.cs)


def _factor(d, flux, phi_s=0.0):
    return flux_factor(_device(squid=_squid(d)), SquidState(flux=flux, phi_s=phi_s))


def test_symmetric_squid_has_zero_phase_offset():
    # With no phase offset the boundary phase only scales the load.
    for flux in (0.0, 0.13, 0.25, 0.4, 0.499):
        for phi_s in (0.0, 0.1, -0.2):
            assert _factor(0.0, flux, phi_s) == math.cos(phi_s) * math.cos(math.pi * flux)


def test_asymmetry_cancels_at_zero_boundary_phase():
    for d in (-0.6, 0.0, 0.05, 0.1, 0.3, 0.9):
        for flux in (-0.3, 0.0, 0.11, 0.25, 0.37, 0.4873, 0.499):
            assert _factor(d, flux) == math.cos(math.pi * flux)


def test_zero_flux_gives_maximal_energy_and_zero_offset():
    for d in (0.0, 0.1, 0.5):
        assert _factor(d, 0.0) == 1.0
        for phi_s in (0.1, -0.25):
            assert _factor(d, 0.0, phi_s) == pytest.approx(math.cos(phi_s), rel=0, abs=1e-15)


def test_half_flux_asymmetric_squid():
    # Evaluated two ways: the closed form, and a numerically minimized
    # two-junction potential (in units of ej1 + ej2), whose curvature at
    # the minimum phi_min is the effective Josephson energy and whose
    # load on the line is curvature * cos(phi_s - phi_min).
    d = 0.1
    squid = _squid(d)
    w1, w2 = squid.ej1 / squid.total, squid.ej2 / squid.total
    # At half flux only the asymmetry is left: B = d*sin(phi_s).
    assert _factor(d, 0.5, 0.2) == pytest.approx(d * math.sin(0.2), rel=1e-12)

    for flux, phi_s in ((0.2, 0.0), (0.35, 0.1), (0.45, -0.1), (0.1, 0.25), (0.4, 0.2)):
        theta = math.pi * flux

        def potential(phi):
            return -(w1 * math.cos(phi - theta) + w2 * math.cos(phi + theta))

        res = minimize_scalar(
            potential, bounds=(-math.pi / 2, math.pi), method="bounded", options={"xatol": 1e-10}
        )
        h = 1e-4
        curvature = (potential(res.x + h) - 2 * potential(res.x) + potential(res.x - h)) / h**2
        expected = curvature * math.cos(phi_s - res.x)
        assert expected > 0.1
        assert _factor(d, flux, phi_s) == pytest.approx(expected, rel=0, abs=1e-6)


def test_flux_factor_matches_squid_chain(squid_chain_flux_factor):
    # The closed form against the effective-energy / phase-offset chain,
    # with the same diverging-inductance decision wherever B is not
    # within rounding of zero.
    for d in (-0.6, -0.1, 0.0, 0.05, 0.1, 0.3, 0.9):
        device = _device(squid=_squid(d))
        for phi_s in (-0.29, -0.1, 0.0, 0.1, 0.25):
            for flux in np.linspace(-1.2, 2.2, 69).tolist():
                theta = math.pi * flux
                b = math.cos(phi_s) * math.cos(theta) + d * math.sin(phi_s) * math.sin(theta)
                try:
                    expected = squid_chain_flux_factor(device.squid, flux, phi_s)
                except RegimeError:
                    expected = None
                try:
                    got = flux_factor(device, SquidState(flux=flux, phi_s=phi_s))
                except RegimeError:
                    got = None
                if abs(b) <= 1e-15:
                    continue
                assert (got is None) == (b < 0.0) == (expected is None)
                if got is not None:
                    assert got == pytest.approx(expected, rel=0, abs=1e-15)


def test_phase_offset_parity_and_energy_evenness():
    for flux in (0.05, 0.2, 0.45):
        assert _factor(0.2, -flux) == pytest.approx(_factor(0.2, flux), rel=1e-15)
        for phi_s in (0.1, 0.25):
            plus = _factor(0.2, flux, phi_s)
            assert _factor(0.2, -flux, -phi_s) == pytest.approx(plus, rel=1e-15)
            # Flipping the asymmetry is the same as flipping the flux.
            assert _factor(-0.2, -flux, phi_s) == pytest.approx(plus, rel=1e-15)


def test_energy_flux_periodicity_and_extremes():
    d = 0.2
    for phi_s in (0.0, 0.15):
        for flux in (0.0, 0.11, 0.37):
            # +2 quanta returns to the same load; at +1 the equilibrium
            # phase sits near pi and the inductance guard trips.
            a = _factor(d, flux, phi_s)
            assert _factor(d, flux + 2.0, phi_s) == pytest.approx(a, rel=0, abs=1e-14)
            with pytest.raises(RegimeError, match="diverges"):
                _factor(d, flux + 1.0, phi_s)
    grid = [_factor(d, f) for f in np.linspace(0, 0.5, 40)]
    assert grid[0] == 1.0 and max(grid) == 1.0
    assert 0.0 < grid[-1] < 1e-15
    assert all(b > a for a, b in zip(grid[1:], grid))


def test_diverging_inductance_is_an_error():
    with pytest.raises(RegimeError, match="diverges"):
        _factor(0.05, 0.499, -0.29)


def test_squid_invariants():
    with pytest.raises(ConfigError):
        SquidParams(ej1=-1.0, ej2=100.0, cs=50.0)
    with pytest.raises(ConfigError):
        SquidParams(ej1=100.0, ej2=100.0, cs=0.0)
    with pytest.raises(ConfigError, match="finite"):
        SquidParams(ej1=100.0, ej2=float("nan"), cs=50.0)


def test_squid_state_guards():
    with pytest.raises(ConfigError):
        SquidState(flux=float("nan"))
    with pytest.raises(ConfigError):
        SquidState(flux=0.1, phi_s=0.31)
    with pytest.raises(ConfigError):
        SquidState(flux=0.1, phi_s=float("nan"))


# --- qubit spectrum ------------------------------------------------------


def test_charging_energy_100_ff():
    # e^2/(2C)/h for C = 100 fF, evaluated from the CODATA constants.
    e_c = charging_energy(100.0)
    assert e_c / TWO_PI == pytest.approx(0.19370229336527636, rel=1e-12)
    spec = qubit_spectrum(QubitParams(c_total=100.0, ej=70.0))
    assert spec.alpha == pytest.approx(-e_c, rel=1e-15)


def test_frequency_targeting_round_trip():
    omega = TWO_PI * 4.0
    qubit = QubitParams.from_frequency(100.0, omega)
    assert qubit.ej == ej_for_frequency(100.0, omega)
    assert qubit_spectrum(qubit).omega == pytest.approx(omega, rel=1e-12)


def test_ej_ec_product_invariance():
    # Doubling C halves E_C, so doubling E_J keeps the E_J*E_C product
    # and with it the sqrt(8*E_C*E_J) term.
    q_a = QubitParams(c_total=100.0, ej=70.0)
    q_b = QubitParams(c_total=200.0, ej=140.0)
    sqrt_a = qubit_spectrum(q_a).omega + charging_energy(100.0)
    sqrt_b = qubit_spectrum(q_b).omega + charging_energy(200.0)
    assert sqrt_a == pytest.approx(sqrt_b, rel=1e-12)


def test_spectrum_monotone_in_ej():
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", RegimeWarning)
        freqs = [qubit_spectrum(QubitParams(c_total=100.0, ej=ej)).omega for ej in (50, 60, 75, 90)]
    assert all(b > a for a, b in zip(freqs, freqs[1:]))


def test_transmon_guards():
    e_c = charging_energy(100.0)
    with pytest.raises(ConfigError, match="EJ/EC"):
        QubitParams(c_total=100.0, ej=29.0 * e_c)
    with pytest.warns(RegimeWarning, match="EJ/EC"):
        QubitParams(c_total=100.0, ej=40.0 * e_c)


# --- device ratios -------------------------------------------------------


def _device(squid=SQUID, caps=None):
    caps = caps or CouplingCaps(c12=0.06, c1c=1.0, c2c=1.0, cc=780.0)
    return DeviceConfig(
        qubit1=QubitParams.from_frequency(100.0, TWO_PI * 4.0),
        qubit2=QubitParams.from_frequency(90.0, TWO_PI * 4.1),
        line=LINE,
        squid=squid,
        caps=caps,
    )


def test_phase_velocity_and_line_energy():
    ratios = derive_ratios(_device())
    assert ratios.v == pytest.approx(1.1918282365569904e8, rel=1e-12)
    # Line inductive energy ~ 479.3 rad/ns = 2*pi * 76.3 GHz.
    assert ratios.e_lcav == pytest.approx(479.3069698187496, rel=1e-12)
    assert abs(ratios.e_lcav - 500.0) / 500.0 < 0.05
    assert ratios.r_l == pytest.approx(0.02, abs=1e-9)


def test_capacitance_ratio_for_75_ff():
    squid = SquidParams(ej1=SQUID.ej1, ej2=SQUID.ej2, cs=75.0)
    ratios = derive_ratios(_device(squid=squid))
    assert ratios.r_c == pytest.approx(0.09625256, rel=1e-6)
    assert abs(ratios.r_c - 0.1) < 0.005


def test_regime_ratio_hard_errors():
    weak = SquidParams(ej1=2.0, ej2=2.0, cs=77.92)  # r_L >> 0.1
    with pytest.raises(RegimeError, match="r_L"):
        _device(squid=weak)
    heavy = SquidParams(ej1=SQUID.ej1, ej2=SQUID.ej2, cs=500.0)  # r_C > 0.5
    with pytest.raises(RegimeError, match="r_C"):
        _device(squid=heavy)


def test_caps_warnings():
    with pytest.warns(RegimeWarning, match="c1c/c12"):
        CouplingCaps(c12=1.0, c1c=2.0, c2c=1.0, cc=780.0)
    with pytest.warns(RegimeWarning, match="cc"):
        CouplingCaps(c12=0.06, c1c=20.0, c2c=1.0, cc=780.0)


def test_regime_warnings_name_the_constructors_caller():
    # Not the __init__ that the dataclass generates, which has no file
    # and printed as "<string>:7".
    e_c = charging_energy(100.0)
    for build, match in [
        (lambda: CouplingCaps(c12=1.0, c1c=2.0, c2c=1.0, cc=780.0), "c1c/c12"),
        (lambda: CouplingCaps(c12=0.06, c1c=20.0, c2c=1.0, cc=780.0), "cc"),
        (lambda: QubitParams(c_total=100.0, ej=40.0 * e_c), "EJ/EC"),
    ]:
        with pytest.warns(RegimeWarning, match=match) as record:
            build()
        assert [w.filename for w in record] == [__file__], match


# --- JSON schema ---------------------------------------------------------


def test_bundled_config_loads(device):
    assert device.caps.c12 == 0.06
    assert qubit_spectrum(device.qubit1).omega == pytest.approx(TWO_PI * 4.0, rel=1e-12)
    assert qubit_spectrum(device.qubit2).omega == pytest.approx(TWO_PI * 4.1, rel=1e-12)


def test_unknown_key_is_named():
    doc = device_to_dict(_device())
    doc["caps"]["c_12"] = 0.06
    with pytest.raises(ConfigError, match="c_12"):
        device_from_dict(doc)


def test_negative_capacitance_names_field():
    doc = device_to_dict(_device())
    doc["caps"]["c12"] = -0.06
    with pytest.raises(ConfigError, match="caps.c12"):
        device_from_dict(doc)


def test_qubit_requires_exactly_one_energy_spec():
    doc = device_to_dict(_device())
    doc["qubit1"]["omega"] = 4.0  # alongside "ej"
    with pytest.raises(ConfigError, match="exactly one"):
        device_from_dict(doc)
    del doc["qubit1"]["omega"]
    del doc["qubit1"]["ej"]
    with pytest.raises(ConfigError, match="exactly one"):
        device_from_dict(doc)


def test_missing_section_and_bad_types():
    doc = device_to_dict(_device())
    del doc["line"]
    with pytest.raises(ConfigError, match="line"):
        device_from_dict(doc)
    doc = device_to_dict(_device())
    doc["squid"]["cs"] = "many"
    with pytest.raises(ConfigError, match="squid.cs"):
        device_from_dict(doc)


def test_parse_error_reports_position(tmp_path):
    from qcsim import load_device

    path = tmp_path / "broken.json"
    path.write_text('{"qubit1": {\n  "c_total": 100.0,,\n}}')
    with pytest.raises(ConfigError, match=r"line 2"):
        load_device(path)


def test_duplicate_key_is_an_error(config_path, tmp_path, capsys):
    # json keeps the last of two equal keys; the loader refuses both.
    from qcsim import load_device
    from qcsim.cli import main

    with open(config_path, encoding="utf-8") as handle:
        text = handle.read()
    assert text.count('"c12": 0.06,') == 1
    path = tmp_path / "twice.json"
    path.write_text(text.replace('"c12": 0.06,', '"c12": 0.06, "c12": 0.5,'), encoding="utf-8")
    with pytest.raises(ConfigError) as raised:
        load_device(path)
    assert str(raised.value) == f"{path}: duplicate key 'c12'"
    assert main(["switchoff", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: duplicate key 'c12'\n"


def test_round_trip_serialization():
    dev = _device()
    clone = device_from_dict(json.loads(json.dumps(device_to_dict(dev))))
    assert clone.qubit1.ej == pytest.approx(dev.qubit1.ej, rel=1e-15)
    assert clone.squid.ej1 == pytest.approx(dev.squid.ej1, rel=1e-15)
    assert clone.caps == dev.caps
    assert clone.line == dev.line


# --- Config boundary: the exact message of each malformed document -------

_DROP = object()  # an edit value that deletes the key instead of setting it

# The reference document's keys, as written in reference_device.json.
_REFERENCE_KEYS = {
    "qubit1": ("c_total", "omega"),
    "qubit2": ("c_total", "omega"),
    "line": ("length", "c0", "l0"),
    "squid": ("ej1", "ej2", "cs"),
    "caps": ("c12", "c1c", "c2c", "cc"),
}

def _number_cases(s, k, edits=()):
    """A field's wrong type, NaN and negative value, each named
    `<section>.<field>` with the value the document holds."""
    field, edits = f"{s}.{k}", list(edits)
    yield f"{field}-string", edits + [(field, "x")], f"{field}: expected a number, got 'x'"
    yield f"{field}-nan", edits + [(field, math.nan)], f"{field}: expected a finite number, got nan"
    yield f"{field}-bool", edits + [(field, True)], f"{field}: expected a number, got True"
    yield f"{field}-negative", edits + [(field, -1.0)], f"{field} must be positive and finite, got -1.0"


def _field_cases():
    for s, keys in _REFERENCE_KEYS.items():
        yield f"{s}-missing", [(s, _DROP)], f"missing section '{s}' in device"
        yield f"{s}-not-object", [(s, [1])], f"{s}: expected an object, got list"
        yield f"{s}-unknown-key", [(f"{s}.bogus", 1)], f"unknown key 'bogus' in {s}"
        for k in keys:
            yield from _number_cases(s, k)
            absent = (
                f"{s}: specify exactly one of 'ej' or 'omega'"
                if k == "omega"
                else f"missing key '{k}' in {s}"
            )
            yield f"{s}.{k}-absent", [(f"{s}.{k}", _DROP)], absent
    yield "device-unknown-key", [("bogus", 1)], "unknown key 'bogus' in device"
    # A qubit given by its Josephson energy instead of its frequency.
    yield from _number_cases("qubit1", "ej", [("qubit1.omega", _DROP)])


# Two faults at once: which one is reported first.
_FIRST_FAULT = [
    ("unknown-key-before-missing-section", [("bogus", 1), ("caps", _DROP)], "unknown key 'bogus' in device"),
    ("missing-section-before-section-keys", [("line.bogus", 1), ("caps", _DROP)], "missing section 'caps' in device"),
    ("line-keys-before-squid-keys", [("squid", [1]), ("line.bogus", 1)], "unknown key 'bogus' in line"),
    ("all-keys-before-numbers", [("line.length", -1.0), ("caps.bogus", 1)], "unknown key 'bogus' in caps"),
    ("squid-before-caps", [("caps.cc", "x"), ("squid.cs", -1.0)], "squid.cs must be positive and finite, got -1.0"),
    ("numbers-before-positivity", [("line.length", -1.0), ("line.l0", "x")], "line.l0: expected a number, got 'x'"),
    ("line-before-qubits", [("qubit1.c_total", "x"), ("line.l0", math.nan)], "line.l0: expected a finite number, got nan"),
    ("c_total-before-energy-rule", [("qubit1.ej", 4.0), ("qubit1.c_total", "x")], "qubit1.c_total: expected a number, got 'x'"),
    ("qubit1-before-qubit2", [("qubit2.bogus", 1), ("qubit1.omega", _DROP)], "qubit1: specify exactly one of 'ej' or 'omega'"),
]  # fmt: skip

_BOUNDARY_CASES = [*_field_cases(), *_FIRST_FAULT]


@pytest.mark.parametrize(
    "edits, message", [case[1:] for case in _BOUNDARY_CASES], ids=[case[0] for case in _BOUNDARY_CASES]
)
def test_config_boundary_messages(config_path, edits, message):
    with open(config_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    for path, value in edits:
        *parents, key = path.split(".")
        target = doc
        for name in parents:
            target = target[name]
        if value is _DROP:
            del target[key]
        else:
            target[key] = value
    with pytest.raises(ConfigError) as raised:
        device_from_dict(doc)
    assert str(raised.value) == message


def test_reference_device_hash_is_pinned(device):
    # The `device_hash` every sidecar of the bundled device carries.
    assert device_hash(device_to_dict(device)) == "0702694f4f2eb339"
