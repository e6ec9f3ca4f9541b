"""The measurement circuits, their estimators, and the ideal branch data.

State preparation uses a three-parameter circuit (two y rotations plus a
controlled y rotation) whose output is conveniently written in the Bell
basis with the sign conventions

    psi_pm = (|10> +/- |01>) / sqrt(2),   phi_pm = (|11> +/- |00>) / sqrt(2),
    |+/-> = (|1> +/- |0>) / sqrt(2).

Two nondemolition circuits are provided. Circuit 1 writes the x-rotated
parity of the pair onto one ancilla and estimates concurrence as |p1 - p0|.
Circuit 2 entangles two ancillas with the pair and, depending on the
rotation setting, estimates coherence, population imbalance, or concurrence
from the joint ancilla statistics.

A measurement setting is named by its observable alone: its rotation
vectors are that observable's canonical ones. ``branch_data`` and
``output_mixture`` give the ideal data a sweep is compared with, in closed
form (the single-ancilla circuit is simulated). The exact-estimator
oracles, which run a measurement circuit on a given pair state, live with
the tests (``tests/helpers.py``).

Rotation-convention note: the measurement settings are specified as rotation
vectors. Writing them as exp(-i sigma.vec) (no half angle) does *not*
reproduce the known closed-form outputs of circuit 2; the half-angle reading
exp(-i sigma.vec / 2) does, and is the one built here. Every canonical
vector is zero or along x or y, so a setting rotation is one ``rx`` or
``ry`` gate; the regression suite builds the other reading from the same
gates at twice the angle (``tests/helpers.py``) to pin which one is
algebraically correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuits as circ
from .circuits import (
    Circuit,
    EmptyBranchError,
    cnot,
    cry,
    h,
    rx,
    ry,
)
from .qmath import StateVector, basis_state, tensor

SQRT_HALF = 1.0 / math.sqrt(2.0)

# Bell-basis kets in the package index convention (qubit A most significant).
PSI_MINUS = np.array([0, -SQRT_HALF, SQRT_HALF, 0], dtype=complex)
PSI_PLUS = np.array([0, SQRT_HALF, SQRT_HALF, 0], dtype=complex)
PHI_MINUS = np.array([-SQRT_HALF, 0, 0, SQRT_HALF], dtype=complex)
PHI_PLUS = np.array([SQRT_HALF, 0, 0, SQRT_HALF], dtype=complex)

KET_PLUS = np.array([SQRT_HALF, SQRT_HALF], dtype=complex)
KET_MINUS = np.array([-SQRT_HALF, SQRT_HALF], dtype=complex)
KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)

# A post-selection branch counts as reliable when its theoretical probability
# (squared amplitude in the pre-measurement state) reaches this floor.
RELIABLE_BRANCH_PROB = 0.25

OBSERVABLES = ("VA", "VB", "PA", "PB", "C1", "C2")


@dataclass(frozen=True)
class PrepParams:
    """Angles of the input-state preparation circuit, each in [0, 2*pi]."""

    phi: float
    theta: float = 0.0
    lam: float = 0.0

    def __post_init__(self) -> None:
        for name in ("phi", "theta", "lam"):
            v = getattr(self, name)
            if not -1e-12 <= v <= 2 * math.pi + 1e-12:
                raise ValueError(f"{name} must lie in [0, 2*pi], got {v}")


@dataclass(frozen=True)
class BellCoefficients:
    """Real Bell-basis coefficients (alpha, beta, gamma, eta) of the input state."""

    alpha: float
    beta: float
    gamma: float
    eta: float

    def __post_init__(self) -> None:
        norm = self.alpha**2 + self.beta**2 + self.gamma**2 + self.eta**2
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"coefficients not normalized: {norm!r}")

    def state_vector(self) -> StateVector:
        """Expand alpha*psi_minus + beta*psi_plus + gamma*phi_minus + eta*phi_plus."""
        amps = (
            self.alpha * PSI_MINUS
            + self.beta * PSI_PLUS
            + self.gamma * PHI_MINUS
            + self.eta * PHI_PLUS
        )
        return StateVector(2, amps)


def bell_coefficients(p: PrepParams) -> BellCoefficients:
    """Closed-form Bell coefficients of the preparation circuit output."""
    cp, sp = math.cos(p.phi / 2), math.sin(p.phi / 2)
    ct, st = math.cos(p.theta / 2), math.sin(p.theta / 2)
    cl, sl = math.cos(p.lam / 2), math.sin(p.lam / 2)
    alpha = SQRT_HALF * (cl * ct * sp - sl * (cp + sp * st))
    beta = SQRT_HALF * (cl * ct * sp + sl * (cp - sp * st))
    gamma = SQRT_HALF * (-cp * cl + sp * math.sin(p.theta / 2 + p.lam / 2))
    eta = SQRT_HALF * (cp * cl + sp * math.sin(p.theta / 2 + p.lam / 2))
    return BellCoefficients(alpha, beta, gamma, eta)


def prep_circuit(p: PrepParams) -> Circuit:
    """Two-qubit preparation circuit: RY(phi) on A, RY(lam) on B, CRY(theta) A->B."""
    return Circuit(2, (ry(0, p.phi), ry(1, p.lam), cry(0, 1, p.theta)))


@dataclass(frozen=True)
class MeasurementSetting:
    """Which observable circuit 1/2 measures. Its three rotation vectors
    are the observable's canonical ones (``_CANONICAL_VECTORS``)."""

    observable: str  # 'visibility' | 'predictability' | 'concurrence1' | 'concurrence2'

    def __post_init__(self) -> None:
        if self.observable not in _CANONICAL_VECTORS:
            raise ValueError(f"unknown observable {self.observable!r}")

    @property
    def num_qubits(self) -> int:
        return 3 if self.observable == "concurrence1" else 4

    @property
    def ancilla_qubits(self) -> tuple[int, ...]:
        return (2,) if self.observable == "concurrence1" else (2, 3)


_HALF_PI = math.pi / 2
_CANONICAL_VECTORS = {
    "visibility": ((0.0, _HALF_PI, 0.0), (0.0, -_HALF_PI, 0.0), (0.0, 0.0, 0.0)),
    "predictability": ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    "concurrence2": ((_HALF_PI, 0.0, 0.0), (-_HALF_PI, 0.0, 0.0), (0.0, _HALF_PI, 0.0)),
    "concurrence1": ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
}


_SETTING_NAMES = {
    "VA": "visibility",
    "VB": "visibility",
    "PA": "predictability",
    "PB": "predictability",
    "C1": "concurrence1",
    "C2": "concurrence2",
}


def setting_for(observable: str) -> MeasurementSetting:
    """Measurement setting that yields the named observable (VA, ..., C2)."""
    if observable not in _SETTING_NAMES:
        raise ValueError(f"unknown observable {observable!r}")
    return MeasurementSetting(_SETTING_NAMES[observable])


def _rotation_gates(qubit: int, vec: tuple[float, float, float]):
    """Gates realizing the setting rotation exp(-i sigma.vec / 2) on one
    qubit, or none for a zero vector. Every canonical vector is zero or
    along x or y."""
    vx, vy, _ = vec
    if vx:
        return (rx(qubit, vx),)
    if vy:
        return (ry(qubit, vy),)
    return ()


def qnd1_circuit() -> Circuit:
    """Three-qubit concurrence circuit: x-rotated pair parity onto ancilla C."""
    gates = (
        rx(0, _HALF_PI),
        rx(1, _HALF_PI),
        cnot(0, 2),
        cnot(1, 2),
        rx(0, -_HALF_PI),
        rx(1, -_HALF_PI),
    )
    return Circuit(3, gates)


def qnd2_circuit(s: MeasurementSetting) -> Circuit:
    """Four-qubit circuit measuring the configured observable via ancillas C, D.

    Layout: setting rotation theta1 on A and B; ancilla block (theta3 on C,
    CNOT C->D); CNOT A->C; CNOT B->D; setting rotation theta2 on A and B.
    The caller measures C and D.
    """
    if s.observable == "concurrence1":
        raise ValueError("the single-ancilla concurrence setting uses qnd1_circuit")
    theta1, theta2, theta3 = _CANONICAL_VECTORS[s.observable]
    gates = (
        *_rotation_gates(0, theta1),
        *_rotation_gates(1, theta1),
        *_rotation_gates(2, theta3),
        cnot(2, 3),
        cnot(0, 2),
        cnot(1, 3),
        *_rotation_gates(0, theta2),
        *_rotation_gates(1, theta2),
    )
    return Circuit(4, gates)


def bell_basis_rotation() -> Circuit:
    """Maps the four ancilla Bell states onto computational outcomes.

    After CNOT C->D and H on C: phi_plus -> 00, psi_plus -> 01,
    phi_minus -> 10, psi_minus -> 11 (up to irrelevant global signs).
    """
    return Circuit(4, (cnot(2, 3), h(2)))


def measurement_circuit(s: MeasurementSetting) -> Circuit:
    """The full ancilla-measurement circuit for a setting.

    For the two-ancilla concurrence setting this appends the Bell-basis
    rotation so that plain computational readout of C, D realizes the
    Bell-basis probabilities the estimator needs.
    """
    if s.observable == "concurrence1":
        return qnd1_circuit()
    c = qnd2_circuit(s)
    if s.observable == "concurrence2":
        c = c.then(bell_basis_rotation())
    return c


def estimate_observable(s: MeasurementSetting, data: np.ndarray) -> dict[str, np.ndarray]:
    """Observable estimates from ancilla statistics, for each row of a
    (K, 2^a) stack.

    Each row holds the computational-basis results on C (circuit 1) or
    C, D (circuit 2, after the Bell rotation for the concurrence setting),
    one entry per outcome: integer counts are divided by their total,
    exact probabilities, which must sum to 1, are used as given.

    Returns {'VA', 'VB'} or {'PA', 'PB'} or {'C1'} or {'C2'} as
    appropriate, each a (K,) array.
    """
    data = np.asarray(data)
    width = 2 ** len(s.ancilla_qubits)
    if data.ndim != 2 or data.shape[-1] != width:
        raise ValueError(
            f"need (K, {width}) outcomes for the {s.observable} setting, got shape {data.shape}"
        )
    f = circ._frequencies(data).T
    if s.observable in ("visibility", "predictability"):
        sa = f[0] + f[1] - f[2] - f[3]
        sb = f[0] + f[2] - f[1] - f[3]
        a, b = ("VA", "VB") if s.observable == "visibility" else ("PA", "PB")
        return {a: np.abs(sa), b: np.abs(sb)}
    # Circuit 1 reads the parity on C. In circuit 2 the outgoing ancilla
    # state populates exactly two Bell branches, psi_plus (outcome 01) with
    # weight alpha^2 + eta^2 and phi_plus (outcome 00) with weight
    # beta^2 + gamma^2; the state-vector oracle in the test suite pins this
    # mapping. Either way the estimate is |f[1] - f[0]|.
    name = "C1" if s.observable == "concurrence1" else "C2"
    return {name: np.abs(f[1] - f[0])}


_VIS_BRANCHES = {
    # outcome -> (coefficient in Bell coefficients, A ket, B ket)
    "00": (lambda c: c.eta - c.beta, KET_MINUS, KET_MINUS),
    "01": (lambda c: c.alpha + c.gamma, KET_MINUS, KET_PLUS),
    "10": (lambda c: c.gamma - c.alpha, KET_PLUS, KET_MINUS),
    "11": (lambda c: c.eta + c.beta, KET_PLUS, KET_PLUS),
}

_PRED_BRANCHES = {
    "00": (lambda c: c.eta - c.gamma, KET_0, KET_0),
    "01": (lambda c: c.beta - c.alpha, KET_0, KET_1),
    "10": (lambda c: c.alpha + c.beta, KET_1, KET_0),
    "11": (lambda c: c.gamma + c.eta, KET_1, KET_1),
}


def _conc2_branch_vectors(c: BellCoefficients) -> dict[str, np.ndarray]:
    # Outcome labels are the Bell-rotated computational readouts of C, D.
    return {
        "01": c.alpha * PSI_MINUS + c.eta * PHI_PLUS,
        "00": c.gamma * PHI_MINUS + c.beta * PSI_PLUS,
        "10": np.zeros(4, dtype=complex),
        "11": np.zeros(4, dtype=complex),
    }


def branch_outcomes(s: MeasurementSetting) -> tuple[str, ...]:
    if s.observable == "concurrence1":
        return ("0", "1")
    return ("00", "01", "10", "11")


def conditional_target_state(
    s: MeasurementSetting, c: BellCoefficients, ancilla_outcome: str
) -> tuple[StateVector, float]:
    """Closed-form conditional pair state and branch probability.

    Only defined for the two-ancilla settings; the single-ancilla concurrence
    circuit has no closed form here and is characterized by simulation
    (see :func:`simulated_branches`).
    """
    if s.observable == "visibility" or s.observable == "predictability":
        table = _VIS_BRANCHES if s.observable == "visibility" else _PRED_BRANCHES
        if ancilla_outcome not in table:
            raise ValueError(f"invalid outcome {ancilla_outcome!r}")
        coeff_fn, ket_a, ket_b = table[ancilla_outcome]
        coeff = coeff_fn(c)
        prob = coeff * coeff / 2.0
        if prob < 1e-12:
            raise EmptyBranchError(f"branch {ancilla_outcome!r} has zero weight")
        return StateVector(2, tensor(ket_a.reshape(2, 1), ket_b.reshape(2, 1)).reshape(-1)), prob
    if s.observable == "concurrence2":
        vectors = _conc2_branch_vectors(c)
        if ancilla_outcome not in vectors:
            raise ValueError(f"invalid outcome {ancilla_outcome!r}")
        vec = vectors[ancilla_outcome]
        prob = float(np.sum(np.abs(vec) ** 2))
        if prob < 1e-12:
            raise EmptyBranchError(f"branch {ancilla_outcome!r} has zero weight")
        return StateVector(2, vec / math.sqrt(prob)), prob
    raise ValueError("no closed-form conditional state for this setting")


def qnd_output_state(s: MeasurementSetting, c: BellCoefficients) -> StateVector:
    """Closed-form four-qubit state right before the ancilla readout.

    Given in the same basis the measurement happens in, i.e. including the
    Bell rotation for the two-ancilla concurrence setting, so it can be
    compared directly against :func:`measurement_circuit` output.
    """
    amps = np.zeros(16, dtype=complex)
    if s.observable in ("visibility", "predictability"):
        table = _VIS_BRANCHES if s.observable == "visibility" else _PRED_BRANCHES
        for outcome, (coeff_fn, ket_a, ket_b) in table.items():
            anc = int(outcome, 2)
            pair = np.kron(ket_a, ket_b)
            for i in range(4):
                amps[i * 4 + anc] += SQRT_HALF * coeff_fn(c) * pair[i]
    elif s.observable == "concurrence2":
        for outcome, vec in _conc2_branch_vectors(c).items():
            anc = int(outcome, 2)
            for i in range(4):
                amps[i * 4 + anc] += vec[i]
    else:
        raise ValueError("no closed-form output state for this setting")
    return StateVector(4, amps)


def simulated_branches(
    s: MeasurementSetting, p: PrepParams
) -> list[tuple[str, StateVector | None, float]]:
    """Noiseless conditional states obtained by actually running the circuit.

    Cross-checks the closed forms, and is the defining characterization for
    the single-ancilla concurrence circuit.
    """
    n = s.num_qubits
    full = prep_circuit(p).widened(n).then(measurement_circuit(s))
    out = circ.run_pure(full, basis_state(n))
    branches: list[tuple[str, StateVector | None, float]] = []
    for outcome in branch_outcomes(s):
        try:
            state, prob = circ.postselect(out, s.ancilla_qubits, outcome)
        except EmptyBranchError:
            state, prob = None, 0.0
        branches.append((outcome, state, prob))
    return branches


@dataclass(frozen=True, slots=True)
class Branch:
    """One ancilla outcome: the ideal conditional pair state (None for an
    empty branch), its theoretical probability, and its reliability flag."""

    outcome: str
    state: StateVector | None
    probability: float
    reliable: bool


def branch_data(s: MeasurementSetting, p: PrepParams) -> tuple[Branch, ...]:
    """Ideal conditional states and probabilities, one per ancilla outcome.

    Closed forms for the two-ancilla settings; the single-ancilla concurrence
    circuit is simulated (see :func:`simulated_branches`).
    """
    if s.observable == "concurrence1":
        entries = simulated_branches(s, p)
    else:
        c = bell_coefficients(p)
        entries = []
        for outcome in branch_outcomes(s):
            try:
                state, prob = conditional_target_state(s, c, outcome)
            except EmptyBranchError:
                state, prob = None, 0.0
            entries.append((outcome, state, prob))
    return tuple(Branch(o, st, pr, pr >= RELIABLE_BRANCH_PROB) for o, st, pr in entries)


def output_mixture(branches: tuple[Branch, ...]) -> np.ndarray:
    """Pair state after the ancilla readout when the outcome is discarded,
    as a (4, 4) density matrix.

    The pre-measurement state couples orthogonal ancilla kets to each branch,
    so this is the probability mixture of the conditional branch states.
    """
    m = np.zeros((4, 4), dtype=complex)
    for b in branches:
        if b.state is not None:
            m += b.probability * np.outer(b.state.amplitudes, b.state.amplitudes.conj())
    m /= np.trace(m).real
    return m


# --- explicit operator cross-check for the visibility setting ----------------

_R_QUARTER = np.array(
    [[math.cos(math.pi / 4), -math.sin(math.pi / 4)],
     [math.sin(math.pi / 4), math.cos(math.pi / 4)]],
    dtype=complex,
)


def _cnot_first_to_third() -> np.ndarray:
    m = np.eye(8, dtype=complex)
    m[[4, 5]] = m[[5, 4]]
    m[[6, 7]] = m[[7, 6]]
    return m


def visibility_identity_deviation(p: PrepParams) -> float:
    """Max elementwise deviation between the explicit-operator evolution and
    the closed-form visibility output, as density matrices.

    The operator is assembled from raw matrices (the pi/4 y rotation and the
    first-to-third CNOT), independently of the gate machinery.
    """
    eye2 = np.eye(2, dtype=complex)
    r, rinv = _R_QUARTER, _R_QUARTER.conj().T
    c13 = _cnot_first_to_third()
    u = (
        tensor(rinv, rinv, eye2, eye2)
        @ tensor(eye2, c13)
        @ tensor(c13, eye2)
        @ tensor(r, r, eye2, eye2)
    )
    chi = bell_coefficients(p).state_vector().amplitudes
    anc = np.zeros(4, dtype=complex)
    anc[0] = 1.0
    full_in = np.kron(chi, anc)
    rho_in = np.outer(full_in, full_in.conj())
    evolved = u @ rho_in @ u.conj().T
    target = qnd_output_state(MeasurementSetting("visibility"), bell_coefficients(p)).amplitudes
    rho_target = np.outer(target, target.conj())
    return float(np.max(np.abs(evolved - rho_target)))


def visibility_identity_check(params: list[PrepParams], atol: float = 1e-8) -> bool:
    """True when the explicit operator reproduces the closed-form output at
    every listed point.

    Raises ValueError for an empty parameter list, which checks nothing,
    and for a tolerance that is negative or not finite, which fails or
    passes every point.
    """
    if not (math.isfinite(atol) and atol >= 0):
        raise ValueError(f"atol must be finite and nonnegative, got {atol!r}")
    if not params:
        raise ValueError("no parameters to check")
    return all(visibility_identity_deviation(p) <= atol for p in params)
