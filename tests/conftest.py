import importlib.resources

import pytest

from qcsim import (
    DEFAULT_COUPLER_ANHARM,
    DeviceConfig,
    TruncationSpec,
    build_hamiltonian,
    coupler_shifts,
    label_spectrum,
    load_device,
)

CONFIG_PATH = str(importlib.resources.files("qcsim").joinpath("data/reference_device.json"))


@pytest.fixture(scope="session")
def config_path() -> str:
    return CONFIG_PATH


@pytest.fixture(scope="session")
def device(config_path) -> DeviceConfig:
    """Bundled reference device: 4.0/4.1 GHz qubits (100/90 fF), 4.87 mm
    line terminated by an asymmetric SQUID, r_L = 0.02, r_C = 0.1."""
    return load_device(config_path)


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
