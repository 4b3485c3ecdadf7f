"""Simulator for a flux-tunable quarter-wave resonator coupling two
transmon-style qubits: resonator modes, effective qubit-qubit coupling
and its switch-off point, residual ZZ crosstalk, and gate-leakage
dynamics, all from raw circuit parameters.

`import qcsim` does not import numpy: the array-only modules
`crosstalk` and `dynamics`, and their names below, are imported on
first access (PEP 562), and the other modules import numpy only inside
the functions that build arrays."""

__version__ = "0.1.0"

from .circuit import (
    CouplingCaps,
    DeviceConfig,
    DeviceRatios,
    QubitParams,
    QubitSpectrum,
    SquidParams,
    SquidState,
    TransmissionLineParams,
    charging_energy,
    derive_ratios,
    device_from_dict,
    device_to_dict,
    ej_for_frequency,
    load_device,
    qubit_spectrum,
)
from .constants import DEFAULT_COUPLER_ANHARM, angular_to_ghz, ghz_to_angular
from .coupling import (
    CouplingReport,
    SwitchOffResult,
    coupling_sweep,
    direct_coupling,
    effective_coupling,
    qubit_coupler_coupling,
    switch_off,
)
from .errors import ConfigError, LabelingError, RegimeError, RegimeWarning
from .modes import (
    FLUX_MAX,
    ModeSolution,
    flux_factor,
    flux_for_frequency,
    fundamental_approx,
    kerr_coefficient,
    mode_sweep,
    solve_dispersion,
    tuning_band,
)
from .sweeps import AxisSpec, SweepResult, format_float, parse_axis

# The public names of the array-only modules, by module.  `__getattr__`
# looks them up on every access and copies none of them into the
# package namespace, so a wrapper patched onto a module attribute, and
# its removal, is seen here too.
_LAZY = {
    "crosstalk": (
        "LabeledSpectrum",
        "TruncationSpec",
        "ZZReport",
        "build_hamiltonian",
        "coupler_shifts",
        "label_spectrum",
        "zz_exact",
        "zz_orders",
        "zz_perturbative",
        "zz_report",
        "zz_sweep",
    ),
    "dynamics": ("TwoLevelProblem", "evolve_two_level", "leakage_sweep", "propagator"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in (module, *names)}


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_LAZY_MODULE))


def __dir__():
    return sorted(set(globals()) | set(_LAZY_MODULE))
