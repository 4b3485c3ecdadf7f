"""Residual ZZ crosstalk: perturbative orders and exact diagonalization.

The conditional shift xi = E(1,0,1) - E(1,0,0) - E(0,0,1) + E(0,0,0) is
computed two ways and cross-validated:

* second/third/fourth-order perturbative expressions in the couplings
  g12 and g_jc, with detunings D_j = w_j - wc, D12 = w1 - w2, qubit
  anharmonicities a_j, and the coupler two-photon anharmonicity entering
  the fourth order;
* exact diagonalization of the excitation-conserving three-body
  Hamiltonian restricted to its N = 0, 1 and 2 excitation-number blocks
  (1, 3 and 6 bare |n1, nc, n2> states), which hold the four energies
  exactly whatever the truncation, with dressed eigenstates labeled by
  maximum overlap against the bare states inside each block.

The dense Hamiltonian on a truncated product basis (`build_hamiltonian`,
`label_spectrum`) is kept as the reference the block solver is tested
against.

The third- and fourth-order expressions are deliberately kept in their
asymmetric form (they are not invariant under qubit exchange, e.g. the
fourth order weighs its two mediated paths by 1/D1^2 and 1/D2^2 with
different bracket contents); no symmetrization is attempted, and the
exact-diagonalization route is the arbiter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .circuit import DeviceConfig, QubitSpectrum, qubit_spectrum
from .constants import TWO_PI
from .coupling import direct_coupling, qubit_coupler_coupling
from .errors import LabelingError, RegimeError

# Two-photon anharmonicity of the coupler ladder used when none is
# supplied; matches the value adopted for the crosstalk analysis.
DEFAULT_COUPLER_ANHARM = -TWO_PI * 0.05  # rad/ns

POLE_MARGIN = TWO_PI * 0.005  # stay 5 MHz clear of perturbative poles
OVERLAP_MIN = 0.5

Label = Tuple[int, int, int]


@dataclass(frozen=True)
class TruncationSpec:
    """Per-subsystem level counts for the product basis; each needs at
    least the doubly-excited state."""

    levels_q1: int = 4
    levels_q2: int = 4
    levels_c: int = 4

    def __post_init__(self) -> None:
        for name in ("levels_q1", "levels_q2", "levels_c"):
            if getattr(self, name) < 3:
                raise ValueError(f"{name} must be >= 3, got {getattr(self, name)}")

    @property
    def dims(self) -> Tuple[int, int, int]:
        """Basis dimensions in |n1, nc, n2> order."""
        return (self.levels_q1, self.levels_c, self.levels_q2)


@dataclass(frozen=True)
class ZZReport:
    """Perturbative orders, their sum, and (optionally) the exact value,
    all rad/ns."""

    omega_c: float
    xi2: float
    xi3: float
    xi4: float
    xi_pert: float
    xi_exact: float | None
    delta_qubit: float


def coupler_shifts(anharm: float, n_levels: int) -> Tuple[float, ...]:
    """Kerr-ladder level shifts consistent with a given two-photon
    anharmonicity: shift_m = (6m^2+6m+3)/24 * anharm, so that
    shift_2 - shift_1 = anharm."""
    return tuple((6 * m * m + 6 * m + 3) * anharm / 24.0 for m in range(n_levels))


def _check_poles(denominators: Dict[str, float]) -> None:
    for name, value in denominators.items():
        if abs(value) < POLE_MARGIN:
            raise RegimeError(
                f"perturbative pole: |{name}| = {abs(value):.4e} rad/ns "
                f"< {POLE_MARGIN:.4e}"
            )


def zz_orders(
    w1: float,
    w2: float,
    a1: float,
    a2: float,
    g12: float,
    g1c: float,
    g2c: float,
    omega_c: float,
    delta_c_anharm: float = DEFAULT_COUPLER_ANHARM,
) -> Tuple[float, float, float]:
    """Scalar core of the perturbative expansion: (xi2, xi3, xi4) from
    bare frequencies, anharmonicities and couplings (all rad/ns).

    The second order carries only the direct coupling, the third order
    the g12*g1c*g2c interference, the fourth order the mediated paths
    including the two-photon coupler state.  Raises near any pole,
    naming the offending denominator.
    """
    d12 = w1 - w2
    d1, d2 = w1 - omega_c, w2 - omega_c
    _check_poles(
        {
            "delta_12 + alpha_1": d12 + a1,
            "delta_12 - alpha_2": d12 - a2,
            "delta_12 + alpha_2": d12 + a2,
            "delta_12": d12,
            "delta_1": d1,
            "delta_2": d2,
            "delta_1 + delta_2 - anharm_c": d1 + d2 - delta_c_anharm,
        }
    )
    gg = g1c * g2c
    xi2 = 2.0 * g12**2 * (a1 + a2) / ((d12 + a1) * (d12 - a2))
    xi3 = 2.0 * g12 * gg * (
        (1.0 / d1) * (2.0 / (d12 - a2) - 1.0 / d12)
        - (1.0 / d2) * (2.0 / (d12 + a2) - 1.0 / d12)
    )
    xi4 = (
        2.0 * gg**2 / (d1 + d2 - delta_c_anharm) * (1.0 / d1 + 1.0 / d2) ** 2
        + gg**2 / d1**2 * (2.0 / (d12 - a2) - 1.0 / d12 - 1.0 / d2)
        - gg**2 / d2**2 * (2.0 / (d12 + a1) - 1.0 / d12 + 1.0 / d1)
    )
    return xi2, xi3, xi4


def zz_perturbative(
    device: DeviceConfig,
    omega_c: float,
    delta_c_anharm: float = DEFAULT_COUPLER_ANHARM,
) -> ZZReport:
    """Second-through-fourth order ZZ shift at one coupler frequency.

    `delta_c_anharm` is the coupler two-photon anharmonicity
    (shift_2 - shift_1, rad/ns) entering the fourth order's two-photon
    denominator.  Raises near any perturbative pole, naming it.
    """
    s1 = qubit_spectrum(device.qubit1)
    s2 = qubit_spectrum(device.qubit2)
    xi2, xi3, xi4 = zz_orders(
        s1.omega,
        s2.omega,
        s1.alpha,
        s2.alpha,
        direct_coupling(device),
        qubit_coupler_coupling(device, 1, omega_c),
        qubit_coupler_coupling(device, 2, omega_c),
        omega_c,
        delta_c_anharm,
    )
    return ZZReport(
        omega_c=omega_c,
        xi2=xi2,
        xi3=xi3,
        xi4=xi4,
        xi_pert=xi2 + xi3 + xi4,
        xi_exact=None,
        delta_qubit=s1.omega - s2.omega,
    )


def _lowering(n: int) -> np.ndarray:
    mat = np.zeros((n, n))
    for k in range(1, n):
        mat[k - 1, k] = math.sqrt(k)
    return mat


def build_hamiltonian(
    device: DeviceConfig,
    omega_c: float,
    shifts: Sequence[float],
    trunc: TruncationSpec,
) -> np.ndarray:
    """Excitation-conserving three-body Hamiltonian on the truncated
    |n1, nc, n2> basis (rad/ns).

    Qubits enter as Duffing ladders w_j*n + (a_j/2)*n*(n-1); the coupler
    diagonal is wc*m + shifts[m]; exchange terms carry the bosonic
    sqrt(n) matrix elements.  `shifts` must cover m = 0..levels_c-1.
    The result is exactly symmetric by construction.
    """
    n1, nc, n2 = trunc.dims
    if len(shifts) < nc:
        raise ValueError(f"need at least {nc} coupler level shifts, got {len(shifts)}")
    s1 = qubit_spectrum(device.qubit1)
    s2 = qubit_spectrum(device.qubit2)

    def duffing(n: int, omega: float, alpha: float) -> np.ndarray:
        m = np.arange(n)
        return np.diag(omega * m + 0.5 * alpha * m * (m - 1))

    h_q1 = duffing(n1, s1.omega, s1.alpha)
    h_q2 = duffing(n2, s2.omega, s2.alpha)
    h_c = np.diag(omega_c * np.arange(nc) + np.asarray(shifts[:nc], dtype=float))

    a1 = _lowering(n1)
    ac = _lowering(nc)
    a2 = _lowering(n2)
    i1, ic, i2 = np.eye(n1), np.eye(nc), np.eye(n2)

    def k3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.kron(np.kron(x, y), z)

    g1c = qubit_coupler_coupling(device, 1, omega_c)
    g2c = qubit_coupler_coupling(device, 2, omega_c)
    g12 = direct_coupling(device)

    h = k3(h_q1, ic, i2) + k3(i1, h_c, i2) + k3(i1, ic, h_q2)
    h += g1c * (k3(a1, ac.T, i2) + k3(a1.T, ac, i2))
    h += g2c * (k3(i1, ac.T, a2) + k3(i1, ac, a2.T))
    h += g12 * (k3(a1, ic, a2.T) + k3(a1.T, ic, a2))
    return 0.5 * (h + h.T)  # guarantee exact symmetry


def bare_index(label: Label, dims: Tuple[int, int, int]) -> int:
    """Flat index of the bare product state |n1, nc, n2>."""
    n1, nc, n2 = label
    d1, dc, d2 = dims
    if not (0 <= n1 < d1 and 0 <= nc < dc and 0 <= n2 < d2):
        raise ValueError(f"label {label} outside truncation {dims}")
    return (n1 * dc + nc) * d2 + n2


@dataclass(frozen=True)
class LabeledSpectrum:
    """Dressed energies assigned to bare labels by maximum overlap."""

    labels: Tuple[Label, ...]
    energies: Tuple[float, ...]
    overlaps: Tuple[float, ...]

    def energy(self, label: Label) -> float:
        return self.energies[self.labels.index(label)]


def _match_labels(
    evals: np.ndarray,
    evecs: np.ndarray,
    wanted: Sequence[Label],
    rows: Sequence[int],
) -> LabeledSpectrum:
    """Assign each bare label (basis row `rows[i]`) to the eigenvector of
    maximum overlap.

    Every assignment must have overlap >= 0.5 and assignments must be
    distinct (a bijection onto the retained subspace); anticrossing
    regions violate one of the two and raise instead of silently
    swapping labels.
    """
    taken: dict[int, Label] = {}
    energies, overlaps = [], []
    for label, row in zip(wanted, rows):
        weights = np.abs(evecs[row, :]) ** 2
        k = int(np.argmax(weights))
        if weights[k] < OVERLAP_MIN:
            raise LabelingError(
                f"bare state {label} has maximum dressed overlap "
                f"{weights[k]:.3f} < {OVERLAP_MIN}; labeling ambiguous"
            )
        if k in taken:
            raise LabelingError(
                f"labels {taken[k]} and {label} map to the same dressed state"
            )
        taken[k] = label
        energies.append(float(evals[k]))
        overlaps.append(float(weights[k]))
    return LabeledSpectrum(
        labels=tuple(wanted), energies=tuple(energies), overlaps=tuple(overlaps)
    )


def label_spectrum(
    hamiltonian: np.ndarray,
    trunc: TruncationSpec,
    wanted: Sequence[Label],
) -> LabeledSpectrum:
    """Diagonalize and assign each requested bare label to the dressed
    eigenstate of maximum overlap, under the overlap and bijection
    guards of `_match_labels`."""
    evals, evecs = np.linalg.eigh(hamiltonian)
    rows = [bare_index(label, trunc.dims) for label in wanted]
    return _match_labels(evals, evecs, wanted, rows)


def _block_states(n: int) -> Tuple[Label, ...]:
    """Bare states |n1, nc, n2> with n1 + nc + n2 = n."""
    return tuple(
        (n1, nc, n - n1 - nc) for n1 in range(n, -1, -1) for nc in range(n - n1, -1, -1)
    )


# The blocks holding E(0,0,0), E(1,0,0)/E(0,0,1) and E(1,0,1), with the
# labels wanted from each.
_BLOCKS = (
    (_block_states(0), ((0, 0, 0),)),
    (_block_states(1), ((1, 0, 0), (0, 0, 1))),
    (_block_states(2), ((1, 0, 1),)),
)


def _block_hamiltonian(
    states: Sequence[Label],
    s1: QubitSpectrum,
    s2: QubitSpectrum,
    omega_c: float,
    shifts: Sequence[float],
    g1c: float,
    g2c: float,
    g12: float,
) -> np.ndarray:
    """One excitation-number block of the `build_hamiltonian` matrix:
    the same Duffing, coupler-shift and sqrt(n) exchange elements,
    restricted to `states`."""
    index = {state: i for i, state in enumerate(states)}
    h = np.zeros((len(states), len(states)))
    for i, (n1, nc, n2) in enumerate(states):
        h[i, i] = (
            s1.omega * n1
            + 0.5 * s1.alpha * n1 * (n1 - 1)
            + omega_c * nc
            + shifts[nc]
            + s2.omega * n2
            + 0.5 * s2.alpha * n2 * (n2 - 1)
        )
        hops = (
            (g1c, (n1 + 1, nc - 1, n2), math.sqrt(n1 + 1) * math.sqrt(nc)),
            (g2c, (n1, nc - 1, n2 + 1), math.sqrt(n2 + 1) * math.sqrt(nc)),
            (g12, (n1 + 1, nc, n2 - 1), math.sqrt(n1 + 1) * math.sqrt(n2)),
        )
        for g, target, amplitude in hops:
            j = index.get(target)
            if j is not None:
                h[i, j] = h[j, i] = g * amplitude
    return h


def zz_exact(
    device: DeviceConfig,
    omega_c: float,
    delta_c_anharm: float = DEFAULT_COUPLER_ANHARM,
) -> float:
    """ZZ shift from exact diagonalization of the N = 0, 1, 2 excitation
    blocks: E(1,0,1) - E(1,0,0) - E(0,0,1) + E(0,0,0), rad/ns.

    Matches the dense `build_hamiltonian` spectrum at any truncation of
    at least three levels per subsystem.  Raises `LabelingError` where
    the overlap or bijection guard fails inside a block.
    """
    params = (
        qubit_spectrum(device.qubit1),
        qubit_spectrum(device.qubit2),
        omega_c,
        coupler_shifts(delta_c_anharm, 3),
        qubit_coupler_coupling(device, 1, omega_c),
        qubit_coupler_coupling(device, 2, omega_c),
        direct_coupling(device),
    )
    energies = []
    for states, wanted in _BLOCKS:
        evals, evecs = np.linalg.eigh(_block_hamiltonian(states, *params))
        rows = [states.index(label) for label in wanted]
        energies.extend(_match_labels(evals, evecs, wanted, rows).energies)
    e000, e100, e001, e101 = energies
    return e101 - e100 - e001 + e000


def zz_report(
    device: DeviceConfig,
    omega_c: float,
    delta_c_anharm: float = DEFAULT_COUPLER_ANHARM,
) -> ZZReport:
    """Perturbative orders plus the exact-diagonalization value."""
    pert = zz_perturbative(device, omega_c, delta_c_anharm)
    exact = zz_exact(device, omega_c, delta_c_anharm)
    return ZZReport(
        omega_c=omega_c,
        xi2=pert.xi2,
        xi3=pert.xi3,
        xi4=pert.xi4,
        xi_pert=pert.xi_pert,
        xi_exact=exact,
        delta_qubit=pert.delta_qubit,
    )
