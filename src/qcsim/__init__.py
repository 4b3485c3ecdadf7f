"""Simulator for a flux-tunable quarter-wave resonator coupling two
transmon-style qubits: resonator modes, effective qubit-qubit coupling
and its switch-off point, residual ZZ crosstalk, and gate-leakage
dynamics, all from raw circuit parameters."""

__version__ = "0.1.0"

from .circuit import (
    CouplingCaps,
    DeviceConfig,
    DeviceRatios,
    QubitParams,
    QubitSpectrum,
    SquidDerived,
    SquidParams,
    SquidState,
    TransmissionLineParams,
    charging_energy,
    derive_ratios,
    derive_squid,
    device_from_dict,
    device_to_dict,
    ej_for_frequency,
    load_device,
    qubit_spectrum,
)
from .constants import angular_to_ghz, ghz_to_angular
from .coupling import (
    CouplingReport,
    MultimodeCoupling,
    SwitchOffResult,
    coupling_sweep,
    direct_coupling,
    effective_coupling,
    multimode_effective_coupling,
    qubit_coupler_coupling,
    switch_off,
)
from .crosstalk import (
    DEFAULT_COUPLER_ANHARM,
    LabeledSpectrum,
    TruncationSpec,
    ZZReport,
    build_hamiltonian,
    coupler_shifts,
    label_spectrum,
    zz_exact,
    zz_orders,
    zz_perturbative,
    zz_report,
    zz_sweep,
)
from .dynamics import (
    TwoLevelProblem,
    evolve_two_level,
    leakage_sweep,
    propagator,
)
from .errors import ConfigError, LabelingError, RegimeError, RegimeWarning
from .modes import (
    FLUX_MAX,
    ModeSolution,
    flux_factor,
    flux_for_frequency,
    fundamental_approx,
    kerr_coefficient,
    level_shifts,
    mode_nonlinearity,
    mode_sweep,
    solve_dispersion,
    tuning_band,
)
from .sweeps import AxisSpec, RunManifest, SweepResult, format_float, parse_axis

__all__ = [name for name in dir() if not name.startswith("_")]
