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
  exactly whatever the truncation: E(0,0,0) is the vacuum's diagonal
  element, which couples to nothing, and the N = 1 and 2 blocks are
  diagonalized, with dressed eigenstates labeled by maximum overlap
  against the bare states inside each block.

`zz_sweep` evaluates both over a whole coupler axis: the Hamiltonian on
the states with at most two excitations is built as a stack of
matrices, one per point, each of its blocks is solved by one batched
`eigh`, and the labeling guards, the pole test and the orders run over
the axis as arrays.  A point that fails a labeling guard or sits at a pole
is reported on its own and the rest of the axis is kept.  `zz_exact`,
`zz_perturbative` and `zz_report` are one-point calls into the same
code and raise that point's error.

The dense Hamiltonian on a truncated product basis (`build_hamiltonian`,
`label_spectrum`) is kept as the reference the block solver is tested
against.

The third- and fourth-order expressions are not exact through fourth
order: with g12, g1c and g2c all scaled by eps, their sum's error against
the exact route falls only as eps**3 (by 8 per halving of eps on the
reference device), and they are not symmetric under qubit exchange (the
fourth order weighs its two mediated paths by 1/D1^2 and 1/D2^2 with
different bracket contents).  Replacing them with Rayleigh-Schrodinger
sums over the block matrices is open in ROADMAP.md ("One Hamiltonian for
both ZZ routes").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .circuit import DeviceConfig, qubit_spectrum
from .constants import DEFAULT_COUPLER_ANHARM, TWO_PI
from .coupling import _check_omega_c, direct_coupling, qubit_coupler_coupling
from .errors import LabelingError, RegimeError
from .sweeps import SweepResult

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


def _denominators(
    w1: float, w2: float, a1: float, a2: float, omega_c, delta_c_anharm: float
) -> Tuple[Tuple[str, object], ...]:
    """The perturbative denominators, named, in the order a pole among
    them is reported."""
    d12 = w1 - w2
    d1, d2 = w1 - omega_c, w2 - omega_c
    return (
        ("delta_12 + alpha_1", d12 + a1),
        ("delta_12 - alpha_2", d12 - a2),
        ("delta_12 + alpha_2", d12 + a2),
        ("delta_12", d12),
        ("delta_1", d1),
        ("delta_2", d2),
        ("delta_1 + delta_2 - anharm_c", d1 + d2 - delta_c_anharm),
    )


def _pole_errors(denominators: Sequence[Tuple[str, object]], n_points: int) -> List[Optional[str]]:
    """Per point, the message for the first denominator within
    POLE_MARGIN of zero, or None."""
    size = np.empty((len(denominators), n_points))
    for row, (_, value) in zip(size, denominators):
        row[:] = value
    near = np.abs(size, out=size) < POLE_MARGIN
    errors: List[Optional[str]] = [None] * n_points
    for i in np.flatnonzero(near.any(axis=0)).tolist():
        first = int(near[:, i].argmax())
        errors[i] = (
            f"perturbative pole: |{denominators[first][0]}| = {size[first, i]:.4e} rad/ns "
            f"< {POLE_MARGIN:.4e}"
        )
    return errors


def _orders(w1, w2, a1, a2, g12, g1c, g2c, omega_c, delta_c_anharm) -> Tuple:
    """(xi2, xi3, xi4) without the pole check; see `zz_orders`."""
    # Squares are written as products: Python's ** goes through pow and
    # numpy's through a multiply, which now and then differ in the last
    # bit, and float and array inputs must give the same orders.
    d12 = w1 - w2
    d1, d2 = w1 - omega_c, w2 - omega_c
    gg = g1c * g2c
    gg2 = gg * gg
    xi2 = 2.0 * (g12 * g12) * (a1 + a2) / ((d12 + a1) * (d12 - a2))
    xi3 = 2.0 * g12 * gg * (
        (1.0 / d1) * (2.0 / (d12 - a2) - 1.0 / d12)
        - (1.0 / d2) * (2.0 / (d12 + a2) - 1.0 / d12)
    )
    paths = 1.0 / d1 + 1.0 / d2
    xi4 = (
        2.0 * gg2 / (d1 + d2 - delta_c_anharm) * (paths * paths)
        + gg2 / (d1 * d1) * (2.0 / (d12 - a2) - 1.0 / d12 - 1.0 / d2)
        - gg2 / (d2 * d2) * (2.0 / (d12 + a1) - 1.0 / d12 + 1.0 / d1)
    )
    return xi2, xi3, xi4


def zz_orders(
    w1: float,
    w2: float,
    a1: float,
    a2: float,
    g12: float,
    g1c,
    g2c,
    omega_c,
    delta_c_anharm: float = DEFAULT_COUPLER_ANHARM,
) -> Tuple:
    """Perturbative expansion: (xi2, xi3, xi4) from bare frequencies,
    anharmonicities and couplings (all rad/ns).

    `g1c`, `g2c` and `omega_c` are floats, or equally long numpy arrays
    over a coupler axis, for which xi3 and xi4 come back as arrays (xi2
    holds no coupler term).  The second order carries only the direct
    coupling, the third order the g12*g1c*g2c interference, the fourth
    order the mediated paths including the two-photon coupler state.
    Raises near any pole, naming the offending denominator of the first
    point that has one.
    """
    denominators = _denominators(w1, w2, a1, a2, omega_c, delta_c_anharm)
    for error in _pole_errors(denominators, np.size(omega_c)):
        if error is not None:
            raise RegimeError(error)
    return _orders(w1, w2, a1, a2, g12, g1c, g2c, omega_c, delta_c_anharm)


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


def _label_error(
    wanted: Sequence[Label], dressed: Sequence[int], overlaps: Sequence[float]
) -> Optional[str]:
    """The first guard that fails when each bare label in turn takes the
    dressed state `dressed[i]` with overlap `overlaps[i]`, or None."""
    taken: dict[int, Label] = {}
    for label, k, weight in zip(wanted, dressed, overlaps):
        if weight < OVERLAP_MIN:
            return (
                f"bare state {label} has maximum dressed overlap "
                f"{weight:.3f} < {OVERLAP_MIN}; labeling ambiguous"
            )
        if k in taken:
            return f"labels {taken[k]} and {label} map to the same dressed state"
        taken[k] = label
    return None


def _match_labels(
    evals: np.ndarray,
    evecs: np.ndarray,
    wanted: Sequence[Label],
    rows: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, List[Optional[str]]]:
    """Assign each bare label (basis row `rows[i]`) to the eigenvector of
    maximum overlap, at every point of a stack of eigensystems (`evals`
    of shape (points, n), `evecs` of shape (points, n, n)).

    Every assignment must have overlap >= 0.5 and assignments must be
    distinct (a bijection onto the retained subspace); anticrossing
    regions violate one of the two.  Returns the energies and overlaps,
    shape (points, len(wanted)), and per point the `LabelingError`
    message of its first failed guard, or None where all hold.
    """
    weights = np.abs(evecs[:, rows, :]) ** 2
    dressed = weights.argmax(axis=2)
    points = np.arange(len(evals))[:, None]
    overlaps = weights[points, np.arange(len(wanted)), dressed]
    # A point passes when every overlap holds and no two labels share a
    # dressed state; only the others are walked label by label.
    errors = [
        None if min(best) >= OVERLAP_MIN and len(set(states)) == len(states)
        else _label_error(wanted, states, best)
        for states, best in zip(dressed.tolist(), overlaps.tolist())
    ]
    return evals[points, dressed], overlaps, errors


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
    energies, overlaps, errors = _match_labels(evals[None], evecs[None], wanted, rows)
    if errors[0] is not None:
        raise LabelingError(errors[0])
    return LabeledSpectrum(
        labels=tuple(wanted),
        energies=tuple(energies[0].tolist()),
        overlaps=tuple(overlaps[0].tolist()),
    )


# Bare states |n1, nc, n2> with at most two excitations, in blocks of
# equal excitation number N = n1 + nc + n2 (1, 3 and 6 states).
_STATES = tuple(
    (n1, nc, n - n1 - nc) for n in range(3) for n1 in range(n, -1, -1) for nc in range(n - n1, -1, -1)
)
_N1, _NC, _N2 = np.array(_STATES).T


def _exchange_elements():
    """(row, column, coupling: 0 = g1c, 1 = g2c, 2 = g12, sqrt(n)
    amplitude) of the exchange elements between `_STATES`, as in
    `build_hamiltonian`."""
    index = {state: i for i, state in enumerate(_STATES)}
    for i, (n1, nc, n2) in enumerate(_STATES):
        for g, target, amplitude in (
            (0, (n1 + 1, nc - 1, n2), math.sqrt(n1 + 1) * math.sqrt(nc)),
            (1, (n1, nc - 1, n2 + 1), math.sqrt(n2 + 1) * math.sqrt(nc)),
            (2, (n1 + 1, nc, n2 - 1), math.sqrt(n1 + 1) * math.sqrt(n2)),
        ):
            if target in index:
                yield i, index[target], g, amplitude


_HOP_I, _HOP_J, _HOP_G, _HOP_AMP = map(np.array, zip(*_exchange_elements()))


def _block(n: int, wanted: Tuple[Label, ...]) -> Tuple[slice, Tuple[Label, ...], Tuple[int, ...]]:
    """The states of `_STATES` with N = n as a slice, the labels wanted
    from the block, and their rows in it."""
    members = [i for i, state in enumerate(_STATES) if sum(state) == n]
    rows = tuple(_STATES.index(label) - members[0] for label in wanted)
    return slice(members[0], members[-1] + 1), wanted, rows


# The blocks holding E(1,0,0)/E(0,0,1) and E(1,0,1), with the labels
# wanted from each.  The vacuum, state 0, is a block of its own.
_BLOCKS = (_block(1, ((1, 0, 0), (0, 0, 1))), _block(2, ((1, 0, 1),)))


class _Axis(NamedTuple):
    """The inputs of `zz_orders` over a coupler axis (rad/ns): bare qubit
    frequencies and anharmonicities and the direct coupling, then the
    qubit-coupler couplings and the coupler frequencies as arrays."""

    w1: float
    w2: float
    a1: float
    a2: float
    g12: float
    g1c: np.ndarray
    g2c: np.ndarray
    omega_c: np.ndarray


def _axis(device: DeviceConfig, omega_c: Sequence[float]) -> _Axis:
    omega_c = np.array(omega_c, dtype=float).reshape(-1)
    for value in omega_c.tolist():
        _check_omega_c(value)
    s1, s2 = qubit_spectrum(device.qubit1), qubit_spectrum(device.qubit2)
    k = device.coupling_constants
    return _Axis(
        s1.omega,
        s2.omega,
        s1.alpha,
        s2.alpha,
        k.g12,
        g1c=k.scale1 * np.sqrt(k.w1 * omega_c),
        g2c=k.scale2 * np.sqrt(k.w2 * omega_c),
        omega_c=omega_c,
    )


def _hamiltonians(axis: _Axis, shifts: Sequence[float]) -> np.ndarray:
    """The `build_hamiltonian` matrix restricted to `_STATES`, stacked
    over the axis (points, 10, 10): the same Duffing, coupler-shift and
    sqrt(n) exchange elements, zero between the blocks."""
    h = np.zeros((len(axis.omega_c), len(_STATES), len(_STATES)))
    diagonal = np.arange(len(_STATES))
    h[:, diagonal, diagonal] = (
        axis.w1 * _N1
        + 0.5 * axis.a1 * _N1 * (_N1 - 1)
        + axis.omega_c[:, None] * _NC
        + np.array(shifts)[_NC]
        + axis.w2 * _N2
        + 0.5 * axis.a2 * _N2 * (_N2 - 1)
    )
    couplings = np.array((axis.g1c, axis.g2c, np.broadcast_to(axis.g12, axis.g1c.shape)))
    exchange = couplings[_HOP_G].T * _HOP_AMP
    h[:, _HOP_I, _HOP_J] = exchange
    h[:, _HOP_J, _HOP_I] = exchange
    return h


def _exact_over(axis: _Axis, delta_c_anharm: float) -> Tuple[np.ndarray, List[Optional[str]]]:
    """E(1,0,1) - E(1,0,0) - E(0,0,1) + E(0,0,0) at every point of the
    axis, E(0,0,0) read off the diagonal and the others from one batched
    eigh per excitation-number block, and per point the `LabelingError`
    message of the first failed guard (blocks in order), or None."""
    h = _hamiltonians(axis, coupler_shifts(delta_c_anharm, 3))
    energies: List[np.ndarray] = [h[:, 0, 0]]
    errors: List[Optional[str]] = [None] * len(axis.omega_c)
    for block, wanted, rows in _BLOCKS:
        evals, evecs = np.linalg.eigh(h[:, block, block])
        block_energies, _, block_errors = _match_labels(evals, evecs, wanted, rows)
        energies.extend(block_energies.T)
        errors = [e or b for e, b in zip(errors, block_errors)]
    e000, e100, e001, e101 = energies
    return e101 - e100 - e001 + e000, errors


def zz_sweep(
    device: DeviceConfig,
    omega_c: Sequence[float],
    delta_c_anharm: float = DEFAULT_COUPLER_ANHARM,
) -> SweepResult:
    """Perturbative orders and exact ZZ shift over a coupler-frequency
    axis `omega_c` (rad/ns), all points at once.

    The columns xi2, xi3, xi4, xi_pert and xi_exact (rad/ns) hold None
    where a point is not computed: a labeling failure blanks all five,
    a perturbative pole only the four orders.  metadata["errors"] lists
    {"row", "omega_c", "error"} for each such point, with the message
    `zz_exact` (labeling) or else `zz_perturbative` (pole) raises there.
    """
    if len(omega_c) == 0:
        raise ValueError("coupler-frequency axis must be nonempty")
    axis = _axis(device, omega_c)
    poles = _pole_errors(_denominators(*axis[:4], axis.omega_c, delta_c_anharm), len(axis.omega_c))
    with np.errstate(all="ignore"):
        # numpy scalars, so that a denominator vanishing exactly at a
        # pole gives inf instead of raising ZeroDivisionError
        xi2, xi3, xi4 = _orders(*map(np.float64, axis[:5]), *axis[5:], delta_c_anharm)
    xi_exact, labeling = _exact_over(axis, delta_c_anharm)
    xi2 = np.broadcast_to(xi2, xi3.shape)
    columns = [c.tolist() for c in (xi2, xi3, xi4, xi2 + xi3 + xi4, xi_exact)]
    errors = []
    for row, (pole, label) in enumerate(zip(poles, labeling)):
        if label is None and pole is None:
            continue
        for column in columns if label else columns[:4]:
            column[row] = None
        errors.append({"row": row, "omega_c": float(axis.omega_c[row]), "error": label or pole})
    names = ("xi2", "xi3", "xi4", "xi_pert", "xi_exact")
    return SweepResult(
        axes={"omega_c": tuple(axis.omega_c.tolist())},
        columns={name: tuple(column) for name, column in zip(names, columns)},
        metadata={"errors": errors},
    )


def zz_exact(
    device: DeviceConfig,
    omega_c: float,
    delta_c_anharm: float = DEFAULT_COUPLER_ANHARM,
) -> float:
    """ZZ shift from the vacuum energy and exact diagonalization of the
    N = 1 and 2 excitation blocks: E(1,0,1) - E(1,0,0) - E(0,0,1) +
    E(0,0,0), rad/ns.

    Matches the dense `build_hamiltonian` spectrum at any truncation of
    at least three levels per subsystem.  Raises `LabelingError` where
    the overlap or bijection guard fails inside a block.
    """
    xi_exact, errors = _exact_over(_axis(device, [omega_c]), delta_c_anharm)
    if errors[0] is not None:
        raise LabelingError(errors[0])
    return float(xi_exact[0])


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
    axis = _axis(device, [omega_c])
    xi2, xi3, xi4 = zz_orders(*axis[:5], *(v.item() for v in axis[5:]), delta_c_anharm)
    return ZZReport(
        omega_c=omega_c,
        xi2=xi2,
        xi3=xi3,
        xi4=xi4,
        xi_pert=xi2 + xi3 + xi4,
        xi_exact=None,
        delta_qubit=axis.w1 - axis.w2,
    )


def zz_report(
    device: DeviceConfig,
    omega_c: float,
    delta_c_anharm: float = DEFAULT_COUPLER_ANHARM,
) -> ZZReport:
    """Perturbative orders plus the exact-diagonalization value."""
    pert = zz_perturbative(device, omega_c, delta_c_anharm)
    exact = zz_exact(device, omega_c, delta_c_anharm)
    return replace(pert, xi_exact=exact)
