"""Raw device parameters and the derived energies every other module consumes.

Holds the parametric description of the two qubits, the transmission
line, the SQUID termination, and the coupling capacitances, plus the
closed-form conversions: charging energy, qubit spectrum, and the two
dimensionless regime ratios.  The SQUID's flux-dependent load on the
line is `modes.flux_factor`.

All stored energies/frequencies are angular (rad/ns); capacitances are
fF, lengths mm, line constants nF/m and uH/m.  JSON configs use
ordinary GHz for every energy-like field.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple, get_type_hints

from .constants import E_CHARGE, HBAR, angular_to_ghz, ghz_to_angular
from .errors import ConfigError, RegimeError, RegimeWarning

# Transmon hierarchy guards on EJ/EC.
TRANSMON_RATIO_MIN = 30.0
TRANSMON_RATIO_SOFT = 50.0

# Regime bounds on the inductive / capacitive ratios.
R_L_MAX = 0.1
R_C_MAX = 0.5

PHI_S_MAX = 0.3


def _require_positive(component, prefix: str) -> None:
    """Reject zero, negative and non-finite values in every field of
    `component` (NaN passes every ordinary comparison guard), naming the
    field `<prefix>.<field>`."""
    for name in _FIELDS[type(component)]:
        value = getattr(component, name)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{prefix}.{name} must be positive and finite, got {value}")


def charging_energy(c_total: float) -> float:
    """Single-electron charging energy e^2/(2C) of a capacitance in fF,
    returned as an angular frequency (rad/ns)."""
    if c_total <= 0:
        raise ConfigError(f"capacitance must be positive, got {c_total} fF")
    e_c_joule = E_CHARGE**2 / (2.0 * c_total * 1e-15)
    return e_c_joule / HBAR * 1e-9


def ej_for_frequency(c_total: float, omega: float) -> float:
    """Josephson energy (rad/ns) that puts the lowest transition of a
    transmon with shunt capacitance `c_total` (fF) at `omega` (rad/ns).

    Inverts omega = sqrt(8*E_C*E_J) - E_C.
    """
    e_c = charging_energy(c_total)
    if omega <= 0:
        raise ConfigError(f"target qubit frequency must be positive, got {omega}")
    return (omega + e_c) ** 2 / (8.0 * e_c)


@dataclass(frozen=True)
class SquidParams:
    """Two-junction SQUID termination.

    ej1, ej2: junction Josephson energies (rad/ns); cs: total SQUID
    capacitance (fF).  The junction asymmetry (ej1-ej2)/(ej1+ej2) is
    derived, as is the flux-independent maximal Josephson energy.
    """

    ej1: float
    ej2: float
    cs: float

    def __post_init__(self) -> None:
        _require_positive(self, "squid")
        if not -1.0 < self.asymmetry < 1.0:
            raise ConfigError(f"squid asymmetry {self.asymmetry} outside (-1, 1)")

    @property
    def total(self) -> float:
        """Maximal (zero-flux) Josephson energy ej1 + ej2, rad/ns."""
        return self.ej1 + self.ej2

    @property
    def asymmetry(self) -> float:
        return (self.ej1 - self.ej2) / (self.ej1 + self.ej2)


@dataclass(frozen=True)
class TransmissionLineParams:
    """Uniform line section: length (mm), c0 (nF/m), l0 (uH/m)."""

    length: float
    c0: float
    l0: float

    def __post_init__(self) -> None:
        _require_positive(self, "line")

    @property
    def phase_velocity(self) -> float:
        """1/sqrt(L0*C0) in m/s."""
        return 1.0 / math.sqrt(self.l0 * 1e-6 * self.c0 * 1e-9)

    @property
    def total_capacitance(self) -> float:
        """C0*length in fF."""
        return self.c0 * self.length * 1e3

    @property
    def inductive_energy(self) -> float:
        """(hbar/2e)^2 / (L0*length), as rad/ns."""
        l_total = self.l0 * 1e-6 * self.length * 1e-3
        return HBAR / (4.0 * E_CHARGE**2 * l_total) * 1e-9


@dataclass(frozen=True)
class QubitParams:
    """Xmon qubit: shunt capacitance c_total (fF), Josephson energy ej
    (rad/ns).  Construction enforces the transmon hierarchy EJ/EC >= 30
    and warns below 50."""

    c_total: float
    ej: float

    def __post_init__(self) -> None:
        _require_positive(self, "qubit")
        ratio = self.ej / charging_energy(self.c_total)
        if ratio < TRANSMON_RATIO_MIN:
            raise ConfigError(
                f"qubit EJ/EC = {ratio:.1f} below transmon bound {TRANSMON_RATIO_MIN}"
            )
        if ratio < TRANSMON_RATIO_SOFT:
            warnings.warn(
                f"qubit EJ/EC = {ratio:.1f} below {TRANSMON_RATIO_SOFT}; "
                "transmon approximation is getting marginal",
                RegimeWarning,
                stacklevel=3,
            )

    @classmethod
    def from_frequency(cls, c_total: float, omega: float) -> "QubitParams":
        """Build from a target transition frequency (rad/ns) instead of EJ."""
        return cls(c_total=c_total, ej=ej_for_frequency(c_total, omega))

    @cached_property
    def _spectrum(self) -> QubitSpectrum:
        # `qubit_spectrum`'s value, kept on the instance once computed.
        e_c = charging_energy(self.c_total)
        omega = math.sqrt(8.0 * e_c * self.ej) - e_c
        if omega <= 0:
            raise RegimeError(f"computed qubit frequency {omega} <= 0")
        return QubitSpectrum(omega=omega, alpha=-e_c)


@dataclass(frozen=True)
class CouplingCaps:
    """Coupling capacitances (fF): qubit-qubit c12, qubit-coupler c1c and
    c2c, coupler total cc."""

    c12: float
    c1c: float
    c2c: float
    cc: float

    def __post_init__(self) -> None:
        _require_positive(self, "caps")
        small = max(self.c1c, self.c2c)
        if self.cc / small < 50.0:
            warnings.warn(
                f"caps.cc/{'c1c' if self.c1c >= self.c2c else 'c2c'} = "
                f"{self.cc / small:.1f} < 50; lumped coupler model degrades",
                RegimeWarning,
                stacklevel=3,
            )
        if self.c1c / self.c12 < 5.0:
            warnings.warn(
                f"caps.c1c/c12 = {self.c1c / self.c12:.1f} < 5; direct coupling "
                "is not small against the mediated one",
                RegimeWarning,
                stacklevel=3,
            )


@dataclass(frozen=True)
class SquidState:
    """Operating point of the SQUID: external flux in units of the flux
    quantum, and the boundary phase (rad, small by assumption)."""

    flux: float
    phi_s: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.flux):
            raise ConfigError(f"flux must be finite, got {self.flux}")
        if not abs(self.phi_s) < PHI_S_MAX:
            raise ConfigError(
                f"|phi_s| = {abs(self.phi_s)} outside small-phase regime (< {PHI_S_MAX})"
            )


@dataclass(frozen=True)
class DeviceConfig:
    """Full parametric device: two qubits, line, SQUID, coupling caps.

    Construction validates the component invariants plus the two model
    regime ratios (hard errors above r_L = 0.1 and r_C = 0.5)."""

    qubit1: QubitParams
    qubit2: QubitParams
    line: TransmissionLineParams
    squid: SquidParams
    caps: CouplingCaps

    def __post_init__(self) -> None:
        ratios = derive_ratios(self)
        if ratios.r_l > R_L_MAX:
            raise RegimeError(
                f"r_L = {ratios.r_l:.4f} exceeds {R_L_MAX}: SQUID inductance does not "
                "dominate the line; dispersion model invalid"
            )
        if ratios.r_c > R_C_MAX:
            raise RegimeError(f"r_C = {ratios.r_c:.4f} exceeds {R_C_MAX}: capacitive loading too strong")

    @cached_property
    def coupling_constants(self) -> CouplingConstants:
        """The device's `CouplingConstants`, computed on first use and
        kept on the instance; `dataclasses.replace` builds a new
        instance, which starts without them."""
        caps, c1, c2 = self.caps, self.qubit1.c_total, self.qubit2.c_total
        w1, w2 = qubit_spectrum(self.qubit1).omega, qubit_spectrum(self.qubit2).omega
        sqrt_w12 = math.sqrt(w1 * w2)
        c_eff = caps.c12 + caps.c1c * caps.c2c / caps.cc
        return CouplingConstants(
            w1, w2, sqrt_w12,
            g12=c_eff / (2.0 * math.sqrt(c1 * c2)) * sqrt_w12,
            scale1=caps.c1c / (2.0 * math.sqrt(c1 * caps.cc)),
            scale2=caps.c2c / (2.0 * math.sqrt(c2 * caps.cc)),
            cap_ratio=caps.c1c * caps.c2c / (caps.cc * math.sqrt(c1 * c2)),
        )  # fmt: skip


class CouplingConstants(NamedTuple):
    """The coupler-frequency-free factors of `qcsim.coupling`: bare qubit
    frequencies w1, w2, sqrt(w1*w2) and the direct coupling g12 (rad/ns),
    the scales C_jc/(2*sqrt(C_j*Cc)) and C1c*C2c/(Cc*sqrt(C1*C2))."""

    w1: float
    w2: float
    sqrt_w12: float
    g12: float
    scale1: float
    scale2: float
    cap_ratio: float


@dataclass(frozen=True)
class QubitSpectrum:
    """Lowest transition frequency and anharmonicity, rad/ns."""

    omega: float
    alpha: float


def qubit_spectrum(qubit: QubitParams) -> QubitSpectrum:
    """Transmon spectrum: omega = sqrt(8*E_C*E_J) - E_C, alpha = -E_C,
    computed once per `QubitParams` instance."""
    return qubit._spectrum


@dataclass(frozen=True)
class DeviceRatios:
    """Line inductive energy (rad/ns), phase velocity (m/s), and the
    dimensionless ratios r_L (inductive) and r_C (capacitive)."""

    e_lcav: float
    v: float
    r_l: float
    r_c: float


def derive_ratios(device: DeviceConfig) -> DeviceRatios:
    """Line energy scale and the two regime ratios, whose limits
    DeviceConfig enforces at construction.

    r_L is defined against the flux-independent maximal Josephson
    energy ej1+ej2; the flux dependence of the termination enters the
    dispersion relation separately.
    """
    e_lcav = device.line.inductive_energy
    r_l = e_lcav / device.squid.total
    r_c = device.squid.cs / device.line.total_capacitance
    return DeviceRatios(e_lcav=e_lcav, v=device.line.phase_velocity, r_l=r_l, r_c=r_c)


# --- JSON serialization -------------------------------------------------
#
# The document has one section per DeviceConfig field, and each section's
# keys are the fields of its component class.  Every number must be
# positive, and an error names the document's field and value.  Energy
# fields are ordinary GHz in JSON; a qubit may specify either "ej" or a
# target "omega" (GHz), never both.  Unknown keys are hard errors.

_SECTIONS = get_type_hints(DeviceConfig)
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _SECTIONS.values()}
_GHZ_KEYS = frozenset({"ej", "omega", "ej1", "ej2"})


def _check_keys(section: dict, allowed, path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object, got {type(section).__name__}")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {path}")


def _number(section: dict, key: str, path: str) -> float:
    """The finite number `section[key]`, in rad/ns for a GHz key."""
    if key not in section:
        raise ConfigError(f"missing key '{key}' in {path}")
    value = section[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key}: expected a finite number, got {value!r}")
    return ghz_to_angular(float(value)) if key in _GHZ_KEYS else float(value)


def _numbers(section: dict, keys, path: str) -> list:
    """`_number` of each key, all read before any is checked for sign; a
    value that is not positive is named `<path>.<key>` with its value as
    the document gives it."""
    values = [_number(section, key, path) for key in keys]
    for key, value in zip(keys, values):
        if not value > 0:
            raise ConfigError(f"{path}.{key} must be positive and finite, got {section[key]!r}")
    return values


def _qubit_from_dict(section: dict, path: str) -> QubitParams:
    _check_keys(section, (*_FIELDS[QubitParams], "omega"), path)
    _number(section, "c_total", path)  # its type errors come before the ej/omega rule
    has_ej = "ej" in section
    if has_ej == ("omega" in section):
        raise ConfigError(f"{path}: specify exactly one of 'ej' or 'omega'")
    c_total, energy = _numbers(section, ("c_total", "ej" if has_ej else "omega"), path)
    try:
        return QubitParams(c_total, energy) if has_ej else QubitParams.from_frequency(c_total, energy)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def device_from_dict(data: dict) -> DeviceConfig:
    """Build and validate a DeviceConfig from a parsed JSON document."""
    _check_keys(data, _SECTIONS, "device")
    for name in _SECTIONS:
        if name not in data:
            raise ConfigError(f"missing section '{name}' in device")
    # The qubit sections, with their ej/omega rule, are read after the others.
    plain = [(name, cls) for name, cls in _SECTIONS.items() if cls is not QubitParams]
    for name, cls in plain:
        _check_keys(data[name], _FIELDS[cls], name)
    parts = {name: cls(*_numbers(data[name], _FIELDS[cls], name)) for name, cls in plain}
    for name, cls in _SECTIONS.items():
        if cls is QubitParams:
            parts[name] = _qubit_from_dict(data[name], name)
    return DeviceConfig(**parts)


def device_to_dict(device: DeviceConfig) -> dict:
    """Serialize to the JSON layout (ordinary GHz; qubits normalized to 'ej')."""
    document = {}
    for name, cls in _SECTIONS.items():
        component = getattr(device, name)
        section = document[name] = {}
        for key in _FIELDS[cls]:
            value = getattr(component, key)
            section[key] = angular_to_ghz(value) if key in _GHZ_KEYS else value
    return document


def load_device(path) -> DeviceConfig:
    """Read and validate a device config from a JSON file.  A key given
    twice in one object is an error, not a silent overwrite."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()

    def unique_keys(pairs: list) -> dict:
        data = {}
        for key, value in pairs:
            if key in data:
                raise ConfigError(f"{path}: duplicate key '{key}'")
            data[key] = value
        return data

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return device_from_dict(data)
