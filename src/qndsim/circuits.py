"""Gate-level circuit construction and execution.

Execution comes in two flavors: pure state-vector evolution and noisy
density-matrix evolution with a per-gate depolarizing channel. Measurement
sampling is multinomial over the Born-rule marginal, deterministic for a
given seed, with an optional independent readout flip per recorded bit.

Rotation conventions (fixed package-wide):

* ``rx``/``ry``/``cry`` use the half-angle gate convention,
  RY(t) = exp(-i t sigma_y / 2).
* ``rot3d(axis, t)`` implements exp(-i t axis.sigma) with *no* half angle.

Bitstring keys order bits like the ``measured_qubits`` argument: the first
listed qubit is the leftmost character.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping

import numpy as np

from .qmath import (
    ATOL_CONSTRUCT,
    DensityMatrix,
    StateVector,
    partial_trace_matrix,
    tensor,
)

IDENT = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

_PROJ0 = np.array([[1, 0], [0, 0]], dtype=complex)
_PROJ1 = np.array([[0, 0], [0, 1]], dtype=complex)


class EmptyBranchError(ValueError):
    """Raised when a post-selection branch has (numerically) zero weight."""


@dataclass(frozen=True)
class Gate:
    """One gate application. ``targets`` lists control first for controlled kinds."""

    kind: str  # 'rx' | 'ry' | 'x' | 'h' | 'cnot' | 'cry' | 'rot3d'
    targets: tuple[int, ...]
    angle: float | None = None
    axis: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind in ("cnot", "cry"):
            if len(self.targets) != 2 or self.targets[0] == self.targets[1]:
                raise ValueError(f"{self.kind} needs two distinct qubits")
        elif len(self.targets) != 1:
            raise ValueError(f"{self.kind} acts on exactly one qubit")
        if self.kind == "rot3d":
            if self.axis is None:
                raise ValueError("rot3d needs an axis")
            if abs(np.linalg.norm(self.axis) - 1.0) > 1e-9:
                raise ValueError(f"rot3d axis must be a unit vector, got {self.axis}")

    def local_matrix(self) -> np.ndarray:
        """The 2x2 matrix of a single-qubit gate (controlled kinds have none)."""
        t = self.angle
        if self.kind == "rx":
            return np.array(
                [[math.cos(t / 2), -1j * math.sin(t / 2)],
                 [-1j * math.sin(t / 2), math.cos(t / 2)]],
                dtype=complex,
            )
        if self.kind == "ry":
            return np.array(
                [[math.cos(t / 2), -math.sin(t / 2)],
                 [math.sin(t / 2), math.cos(t / 2)]],
                dtype=complex,
            )
        if self.kind == "x":
            return PAULI_X
        if self.kind == "h":
            return HADAMARD
        if self.kind == "rot3d":
            nx, ny, nz = self.axis
            sigma = nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z
            return math.cos(t) * IDENT - 1j * math.sin(t) * sigma
        raise ValueError(f"{self.kind} has no single-qubit matrix")


def rx(qubit: int, angle: float) -> Gate:
    return Gate("rx", (qubit,), angle)


def ry(qubit: int, angle: float) -> Gate:
    return Gate("ry", (qubit,), angle)


def x(qubit: int) -> Gate:
    return Gate("x", (qubit,))


def h(qubit: int) -> Gate:
    return Gate("h", (qubit,))


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target))


def cry(control: int, target: int, angle: float) -> Gate:
    return Gate("cry", (control, target), angle)


def rot3d(qubit: int, axis: tuple[float, float, float], angle: float) -> Gate:
    return Gate("rot3d", (qubit,), angle, tuple(float(a) for a in axis))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on a register of named (indexed) qubit wires."""

    num_qubits: int
    gates: tuple[Gate, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q < 0 or q >= self.num_qubits for q in g.targets):
                raise ValueError(f"gate {g} targets outside 0..{self.num_qubits - 1}")

    def then(self, other: "Circuit") -> "Circuit":
        if other.num_qubits != self.num_qubits:
            raise ValueError("cannot concatenate circuits of different width")
        return Circuit(self.num_qubits, self.gates + other.gates, self.label)

    def widened(self, num_qubits: int) -> "Circuit":
        """Same gates on a wider register (extra qubits untouched)."""
        if num_qubits < self.num_qubits:
            raise ValueError("cannot shrink a circuit")
        return replace(self, num_qubits=num_qubits)


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing noise per gate plus an independent readout flip per bit.

    The depolarizing channel acts on the full support of each gate right
    after it: rho -> (1-p) rho + p * (I/2^s tensor untouched marginal).
    """

    depol_1q: float = 0.0
    depol_2q: float = 0.0
    readout_flip: float = 0.0
    enabled: bool = True

    def __post_init__(self) -> None:
        for name in ("depol_1q", "depol_2q", "readout_flip"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability, got {v}")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(enabled=False)


@dataclass(frozen=True)
class OutcomeCounts:
    """Measured bitstring counts. Keys omit outcomes that never occurred."""

    num_measured_qubits: int
    counts: Mapping[str, int]
    shots: int

    def __post_init__(self) -> None:
        counts = dict(self.counts)
        for key, c in counts.items():
            if len(key) != self.num_measured_qubits or set(key) - {"0", "1"}:
                raise ValueError(f"bad outcome key {key!r}")
            if c < 0:
                raise ValueError("counts must be nonnegative")
        if sum(counts.values()) != self.shots:
            raise ValueError("counts do not sum to shots")
        object.__setattr__(self, "counts", counts)

    def frequencies(self) -> dict[str, float]:
        if self.shots == 0:
            raise ValueError("no shots recorded")
        return {k: c / self.shots for k, c in self.counts.items()}


def rng_stream(master_seed: int, *path: int) -> np.random.Generator:
    """Deterministic, collision-free generator for a point in a seed tree.

    The stream depends only on (master_seed, path), never on construction
    order, so concurrent consumers can derive their own streams.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    return np.random.default_rng(ss)


@lru_cache(maxsize=8192)
def _full_unitary(gate: Gate, num_qubits: int) -> np.ndarray:
    if gate.kind in ("cnot", "cry"):
        control, target = gate.targets
        flip = PAULI_X if gate.kind == "cnot" else ry(target, gate.angle).local_matrix()
        u = _embed(num_qubits, {control: _PROJ0}) + _embed(
            num_qubits, {control: _PROJ1, target: flip}
        )
    else:
        u = _embed(num_qubits, {gate.targets[0]: gate.local_matrix()})
    if not np.allclose(u @ u.conj().T, np.eye(2**num_qubits), atol=ATOL_CONSTRUCT):
        raise ValueError(f"gate {gate} generated a non-unitary matrix")
    u.flags.writeable = False
    return u


def _embed(num_qubits: int, ops: dict[int, np.ndarray]) -> np.ndarray:
    return tensor(*[ops.get(q, IDENT) for q in range(num_qubits)])


def _reorder_qubits(m: np.ndarray, order: list[int]) -> np.ndarray:
    """Permute a matrix whose tensor positions hold qubits ``order`` back to 0..n-1."""
    n = len(order)
    src = [order.index(q) for q in range(n)]
    t = m.reshape([2] * (2 * n))
    return t.transpose(src + [s + n for s in src]).reshape(2**n, 2**n)


def run_pure(circuit: Circuit, initial: StateVector) -> StateVector:
    """Apply the circuit's gates in order to a pure state."""
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError("dimension mismatch between circuit and state")
    amps = initial.amplitudes.copy()
    for gate in circuit.gates:
        amps = _full_unitary(gate, circuit.num_qubits) @ amps
    return StateVector(circuit.num_qubits, amps)


def _depolarize(m: np.ndarray, num_qubits: int, support: tuple[int, ...], p: float) -> np.ndarray:
    keep = [q for q in range(num_qubits) if q not in support]
    s = len(support)
    if not keep:
        mixed = np.eye(2**num_qubits, dtype=complex) / 2**num_qubits
    else:
        marginal = partial_trace_matrix(m, num_qubits, tuple(keep))
        mixed = np.kron(np.eye(2**s, dtype=complex) / 2**s, marginal)
        mixed = _reorder_qubits(mixed, list(support) + keep)
    return (1.0 - p) * m + p * mixed


def run_noisy(circuit: Circuit, initial: DensityMatrix, noise: NoiseModel) -> DensityMatrix:
    """Density-matrix evolution with depolarizing noise after each gate."""
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError("dimension mismatch between circuit and state")
    m = initial.matrix.copy()
    for gate in circuit.gates:
        u = _full_unitary(gate, circuit.num_qubits)
        m = u @ m @ u.conj().T
        if noise.enabled:
            p = noise.depol_2q if len(gate.targets) == 2 else noise.depol_1q
            if p > 0.0:
                m = _depolarize(m, circuit.num_qubits, gate.targets, p)
    m = (m + m.conj().T) / 2
    m /= np.trace(m).real
    return DensityMatrix(circuit.num_qubits, m)


def _marginal_probabilities(
    state: StateVector | DensityMatrix, measured_qubits: tuple[int, ...]
) -> np.ndarray:
    """Born-rule probabilities over the measured qubits, in listed-bit order."""
    n = state.num_qubits
    if isinstance(state, StateVector):
        probs_t = np.abs(state.amplitudes.reshape([2] * n)) ** 2
        drop = tuple(q for q in range(n) if q not in measured_qubits)
        probs_t = probs_t.sum(axis=drop) if drop else probs_t
        remaining = sorted(measured_qubits)
        probs_t = probs_t.transpose([remaining.index(q) for q in measured_qubits])
        return probs_t.reshape(-1)
    if len(measured_qubits) == n:
        reduced = state.matrix
        remaining = list(range(n))
    else:
        remaining = sorted(measured_qubits)
        reduced = partial_trace_matrix(state.matrix, n, tuple(remaining))
    probs_t = np.diag(reduced).real.reshape([2] * len(remaining))
    probs_t = probs_t.transpose([remaining.index(q) for q in measured_qubits])
    return probs_t.reshape(-1)


def _validate_measured(state, measured_qubits) -> tuple[int, ...]:
    measured = tuple(measured_qubits)
    if not measured:
        raise ValueError("measured_qubits must not be empty")
    if len(set(measured)) != len(measured):
        raise ValueError("measured_qubits must be distinct")
    if any(q < 0 or q >= state.num_qubits for q in measured):
        raise ValueError("measured qubit out of range")
    return measured


def exact_probabilities(
    state: StateVector | DensityMatrix, measured_qubits
) -> dict[str, float]:
    """Exact outcome probabilities (the infinite-shot limit of sampling).

    Outcomes with probability below 1e-15 are omitted, mirroring the fact
    that sampling never produces them.
    """
    measured = _validate_measured(state, measured_qubits)
    probs = _marginal_probabilities(state, measured)
    m = len(measured)
    return {
        format(i, f"0{m}b"): float(p) for i, p in enumerate(probs) if p > 1e-15
    }


def sample_counts(
    state: StateVector | DensityMatrix,
    measured_qubits,
    shots: int,
    seed: int | np.random.Generator,
    readout_flip: float = 0.0,
) -> OutcomeCounts:
    """Multinomial draw from the Born-rule marginal distribution.

    Each recorded bit is independently flipped with probability
    ``readout_flip`` (folded into the outcome distribution before drawing,
    which is statistically identical to flipping after the draw).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    measured = _validate_measured(state, measured_qubits)
    probs = np.clip(_marginal_probabilities(state, measured), 0.0, None)
    if readout_flip > 0.0:
        f = readout_flip
        confusion = tensor(*[np.array([[1 - f, f], [f, 1 - f]])] * len(measured)).real
        probs = confusion @ probs
    probs /= probs.sum()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    draw = rng.multinomial(shots, probs)
    m = len(measured)
    counts = {format(i, f"0{m}b"): int(c) for i, c in enumerate(draw) if c > 0}
    return OutcomeCounts(m, counts, shots)


def postselect(
    state: StateVector, ancilla_qubits, outcome: str
) -> tuple[StateVector, float]:
    """Condition a pure state on a computational outcome of the ancillas.

    Returns the renormalized state on the remaining qubits (original order)
    and the Born probability of the branch. Raises EmptyBranchError when the
    branch weight is below 1e-12.
    """
    ancillas = tuple(ancilla_qubits)
    if len(outcome) != len(ancillas):
        raise ValueError("outcome length must match number of ancilla qubits")
    n = state.num_qubits
    if len(ancillas) >= n:
        raise ValueError("cannot postselect every qubit away")
    t = state.amplitudes.reshape([2] * n)
    index: list[object] = [slice(None)] * n
    for q, bit in zip(ancillas, outcome):
        index[q] = int(bit)
    branch = t[tuple(index)].reshape(-1)
    prob = float(np.sum(np.abs(branch) ** 2))
    if prob < 1e-12:
        raise EmptyBranchError(f"branch {outcome!r} has probability {prob:.3e}")
    return StateVector(n - len(ancillas), branch / math.sqrt(prob)), prob


def marginalize_counts(counts: OutcomeCounts, keep_positions) -> OutcomeCounts:
    """Discard bit positions, summing counts over the dropped bits."""
    keep = tuple(keep_positions)
    merged: dict[str, int] = {}
    for key, c in counts.counts.items():
        short = "".join(key[p] for p in keep)
        merged[short] = merged.get(short, 0) + c
    return OutcomeCounts(len(keep), merged, counts.shots)


def postselect_counts(
    counts: OutcomeCounts, ancilla_positions, outcome: str
) -> OutcomeCounts:
    """Keep counts whose ancilla bits match, stripping those bit positions.

    ``ancilla_positions`` index characters of the bitstring keys.
    """
    positions = tuple(ancilla_positions)
    if len(outcome) != len(positions):
        raise ValueError("outcome length must match number of ancilla positions")
    kept: dict[str, int] = {}
    total = 0
    for key, c in counts.counts.items():
        if all(key[p] == bit for p, bit in zip(positions, outcome)):
            stripped = "".join(ch for i, ch in enumerate(key) if i not in positions)
            kept[stripped] = kept.get(stripped, 0) + c
            total += c
    if total == 0:
        raise EmptyBranchError(f"no shots retained for ancilla outcome {outcome!r}")
    return OutcomeCounts(counts.num_measured_qubits - len(positions), kept, total)
