"""Gate-level circuit construction and execution.

Execution comes in two flavors: pure state-vector evolution and noisy
density-matrix evolution with a per-gate depolarizing channel. Both run a
batch of circuits, from one state or from one state per circuit, as one
stack, layer by layer (``run_batch``); a single circuit is a batch of one.
A measurement's outcome distribution is the Born-rule marginal with an
optional independent readout flip per recorded bit; sampling draws from
it, multinomially and deterministically for a given seed, and exact mode
reads it. Counts are integer arrays indexed by outcome, and post-selection
and marginalization index or sum their bit axes.

Sampling is only reproducible if probabilities are bit-identical: many
states here have outcomes of exactly equal probability, and a one-ULP
change swaps their counts. The batched engine therefore multiplies each
slice with the same matrices, in the same order, as a single run would.

Rotation conventions (fixed package-wide):

* ``rx``/``ry``/``cry`` use the half-angle gate convention,
  RY(t) = exp(-i t sigma_y / 2).
* ``rot3d(axis, t)`` implements exp(-i t axis.sigma) with *no* half angle.

Outcomes order their bits like the ``measured_qubits`` argument, the first
listed qubit the most significant: count and probability arrays hold
outcome i at index i.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

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


@dataclass(frozen=True, init=False)
class NoiseModel:
    """Depolarizing noise per gate plus an independent readout flip per bit.

    The depolarizing channel acts on the full support of each gate right
    after it: rho -> (1-p) rho + p * (I/2^s tensor untouched marginal).
    All probabilities zero, the default, means no noise. ``enabled`` is a
    constructor argument only, not an attribute: ``enabled=False`` zeroes
    the probabilities, so configs written with the flag still load.
    """

    depol_1q: float
    depol_2q: float
    readout_flip: float

    def __init__(
        self,
        depol_1q: float = 0.0,
        depol_2q: float = 0.0,
        readout_flip: float = 0.0,
        enabled: bool = True,
    ) -> None:
        if not isinstance(enabled, bool):
            raise ValueError(f"enabled must be true or false, got {enabled!r}")
        for name, v in (("depol_1q", depol_1q), ("depol_2q", depol_2q),
                        ("readout_flip", readout_flip)):
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability, got {v!r}")
            object.__setattr__(self, name, v if enabled else 0.0)

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls()


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


Layer = tuple["Gate | None", ...]
"""One step of a batched run: slice i of the batch applies gate i, and
``None`` leaves its slice alone. The gates of a layer share their qubits."""


def _layer_operators(layers, num_qubits: int):
    """Yield (slice index, unitary, support) for each layer with a gate.

    Slices that share a gate get one (d, d) unitary; when every acting
    slice has a gate of its own, the layer yields one (k, d, d) stack of
    them instead. The index is ``slice(None)`` when it covers every slice.
    The matrices are the cached ``_full_unitary`` ones, so each slice is
    multiplied exactly as a single circuit's would be.
    """
    for layer in layers:
        groups: dict[Gate, list[int]] = {}
        for i, g in enumerate(layer):
            if g is not None:
                groups.setdefault(g, []).append(i)
        if not groups:
            continue
        supports = {g.targets for g in groups}
        if len(supports) > 1:
            raise ValueError("the gates of a layer must act on the same qubits")
        support = supports.pop()
        acting = sum(len(index) for index in groups.values())
        if len(groups) == acting > 1:
            ops = [([i for (i,) in groups.values()],
                    np.stack([_full_unitary(g, num_qubits) for g in groups]))]
        else:
            ops = [(index, _full_unitary(g, num_qubits)) for g, index in groups.items()]
        for index, u in ops:
            yield (slice(None) if len(index) == len(layer) else index), u, support


def _gate_layers(circuit: Circuit) -> list[Layer]:
    """A single circuit as a batch of one: one layer per gate."""
    return [(g,) for g in circuit.gates]


def _evolve_pure(amps: np.ndarray, layers, num_qubits: int) -> np.ndarray:
    """Apply each layer to a (B, d) stack of amplitudes, in place."""
    for index, u, _ in _layer_operators(layers, num_qubits):
        amps[index] = np.matmul(u, amps[index][:, :, None])[:, :, 0]
    return amps


def _depolarize(m: np.ndarray, num_qubits: int, support: tuple[int, ...], p: float) -> np.ndarray:
    """rho -> (1-p) rho + p (I/2^s tensor the marginal off the support), per slice."""
    keep = [q for q in range(num_qubits) if q not in support]
    s = len(support)
    if not keep:
        mixed = np.eye(2**num_qubits, dtype=complex) / 2**num_qubits
    else:
        marginal = partial_trace_matrix(m, num_qubits, tuple(keep))
        # the Kronecker product I/2^s (x) marginal, by broadcasting
        b = len(m)
        eye = np.eye(2**s, dtype=complex) / 2**s
        mixed = eye[:, None, :, None] * marginal[:, None, :, None, :]
        # tensor positions hold qubits support + keep; put them back in order
        order = list(support) + keep
        src = [order.index(q) for q in range(num_qubits)]
        mixed = mixed.reshape((b,) + (2,) * (2 * num_qubits))
        mixed = mixed.transpose([0] + [1 + i for i in src] + [1 + num_qubits + i for i in src])
        mixed = mixed.reshape(b, 2**num_qubits, 2**num_qubits)
    return (1.0 - p) * m + p * mixed


def _evolve_density(m: np.ndarray, layers, num_qubits: int, noise: NoiseModel) -> np.ndarray:
    """Apply each layer, with depolarizing noise, to a (B, d, d) stack."""
    for index, u, support in _layer_operators(layers, num_qubits):
        sub = u @ m[index] @ np.swapaxes(u.conj(), -1, -2)
        p = noise.depol_2q if len(support) == 2 else noise.depol_1q
        if p > 0.0:
            sub = _depolarize(sub, num_qubits, support, p)
        m[index] = sub
    m = (m + np.swapaxes(m.conj(), -1, -2)) / 2
    m /= np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
    return m


def run_pure(circuit: Circuit, initial: StateVector) -> StateVector:
    """Apply the circuit's gates in order to a pure state."""
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError("dimension mismatch between circuit and state")
    amps = _evolve_pure(initial.amplitudes[None].copy(), _gate_layers(circuit), circuit.num_qubits)
    return StateVector(circuit.num_qubits, amps[0])


def run_noisy(circuit: Circuit, initial: DensityMatrix, noise: NoiseModel) -> DensityMatrix:
    """Density-matrix evolution with depolarizing noise after each gate."""
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError("dimension mismatch between circuit and state")
    m = _evolve_density(
        initial.matrix[None].copy(), _gate_layers(circuit), circuit.num_qubits, noise
    )
    return DensityMatrix(circuit.num_qubits, m[0])


def run_batch(
    initial: StateVector | DensityMatrix | Sequence[StateVector | DensityMatrix],
    layers,
    noise: NoiseModel,
) -> np.ndarray:
    """Run a batch of circuits, given as layers, from one initial state or
    from a sequence of states, one per slice.

    Pure states evolve as a (B, d) stack of amplitudes and admit no
    depolarizing noise; density matrices as a (B, d, d) stack, with
    depolarizing noise after each gate. Each slice comes out exactly as
    ``run_pure`` or ``run_noisy`` would give it for that slice's circuit
    and initial state. The stack is validated once, every slice with the
    checks of StateVector or DensityMatrix.
    """
    single = isinstance(initial, (StateVector, DensityMatrix))
    states = [initial] if single else list(initial)
    if not states:
        raise ValueError("run_batch needs at least one initial state")
    first = states[0]
    if any(type(s) is not type(first) or s.num_qubits != first.num_qubits for s in states):
        raise ValueError("initial states must all be pure or all mixed, on one register")
    pure = isinstance(first, StateVector)
    if pure and (noise.depol_1q or noise.depol_2q):
        raise ValueError("depolarizing noise needs a density-matrix input (state.density())")
    n = first.num_qubits
    batch = len(layers[0]) if layers else len(states)
    if any(len(layer) != batch for layer in layers):
        raise ValueError("every layer needs one entry per slice")
    if single:
        states *= batch
    elif len(states) != batch:
        raise ValueError(f"{len(states)} initial states for a batch of {batch} slices")
    if any(q >= n for layer in layers for g in layer if g is not None for q in g.targets):
        raise ValueError("dimension mismatch between circuit and state")
    if pure:
        amps = _evolve_pure(np.stack([s.amplitudes for s in states]), layers, n)
        StateVector.validate(amps)
        return amps
    m = _evolve_density(np.stack([s.matrix for s in states]), layers, n, noise)
    DensityMatrix.validate(m)
    return m


def born_probabilities(stack: np.ndarray) -> np.ndarray:
    """(B, d) outcome probabilities over all qubits (qubit 0 the most
    significant bit) of a ``run_batch`` stack."""
    if stack.ndim == 2:
        return np.abs(stack) ** 2
    return np.diagonal(stack, axis1=-2, axis2=-1).real


def _marginal_probabilities(state: StateVector | DensityMatrix, measured_qubits) -> np.ndarray:
    """Born-rule probabilities over the measured qubits, in listed-bit order;
    the qubits are checked first."""
    measured_qubits = tuple(measured_qubits)
    n = state.num_qubits
    if not measured_qubits:
        raise ValueError("measured_qubits must not be empty")
    if len(set(measured_qubits)) != len(measured_qubits):
        raise ValueError("measured_qubits must be distinct")
    if any(q < 0 or q >= n for q in measured_qubits):
        raise ValueError("measured qubit out of range")
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


@lru_cache(maxsize=64)
def _confusion(num_bits: int, flip: float) -> np.ndarray:
    """Readout confusion matrix: each of ``num_bits`` bits flips independently."""
    confusion = tensor(*[np.array([[1 - flip, flip], [flip, 1 - flip]])] * num_bits).real
    confusion.flags.writeable = False
    return confusion


def _outcome_distribution(born: np.ndarray, readout_flip: float) -> np.ndarray:
    """The recorded-outcome distribution of each row of a (B, 2^m) stack of
    Born probabilities: clipped at zero, then each recorded bit flipped
    independently with probability ``readout_flip``. Sampling draws from
    it and exact mode reads it."""
    probs = np.clip(born, 0.0, None)
    if readout_flip > 0.0:
        m = probs.shape[-1].bit_length() - 1
        # a matrix-vector product per row; probs @ confusion.T rounds differently
        probs = np.matmul(_confusion(m, readout_flip), probs[:, :, None])[:, :, 0]
    return probs


def exact_probabilities(
    state: StateVector | DensityMatrix, measured_qubits, readout_flip: float = 0.0
) -> np.ndarray:
    """The (2^m,) exact outcome probabilities, each recorded bit flipped
    with probability ``readout_flip``: the distribution ``sample_counts``
    draws from, its infinite-shot limit."""
    born = _marginal_probabilities(state, measured_qubits)[None]
    return _outcome_distribution(born, readout_flip)[0]


def sample_batch(probs: np.ndarray, shots: int, rngs) -> np.ndarray:
    """One multinomial draw per row of a (B, 2^m) stack of outcome
    distributions; row i is drawn from ``rngs[i]``. Returns the (B, 2^m)
    integer counts."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return np.stack([
        rng.multinomial(shots, p / p.sum()) for p, rng in zip(probs, rngs, strict=True)
    ])


def sample_counts(
    state: StateVector | DensityMatrix,
    measured_qubits,
    shots: int,
    seed: int | np.random.Generator,
    readout_flip: float = 0.0,
) -> np.ndarray:
    """Multinomial draw from the distribution ``exact_probabilities`` gives:
    the (2^m,) counts of a batch of one (see ``sample_batch``)."""
    born = _marginal_probabilities(state, measured_qubits)[None]
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return sample_batch(_outcome_distribution(born, readout_flip), shots, [rng])[0]


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


def _count_bits(counts: np.ndarray, positions: tuple[int, ...]) -> int:
    """Check a (..., 2^m) count array and bit positions into it; return m."""
    m = counts.shape[-1].bit_length() - 1 if counts.ndim else 0
    if m < 1 or counts.shape[-1] != 2**m:
        raise ValueError(f"counts need a last axis of 2^m outcomes, got shape {counts.shape}")
    if not np.issubdtype(counts.dtype, np.integer) or (counts < 0).any():
        raise ValueError("counts must be nonnegative integers")
    if len(set(positions)) != len(positions) or any(p < 0 or p >= m for p in positions):
        raise ValueError(f"bit positions {positions} must be distinct and in 0..{m - 1}")
    return m


def marginalize_counts(counts: np.ndarray, keep_positions) -> np.ndarray:
    """Discard bit positions, summing counts over the dropped bits.

    ``counts`` is a (..., 2^m) integer array indexed by outcome (bit
    position 0 the most significant); the result indexes the kept bits in
    the listed order.
    """
    counts = np.asarray(counts)
    keep = tuple(keep_positions)
    m = _count_bits(counts, keep)
    lead = counts.shape[:-1]
    b = len(lead)
    t = counts.reshape(lead + (2,) * m)
    drop = tuple(b + p for p in range(m) if p not in keep)
    if drop:
        t = t.sum(axis=drop)
    remaining = sorted(keep)
    t = t.transpose(tuple(range(b)) + tuple(b + remaining.index(p) for p in keep))
    return t.reshape(lead + (2 ** len(keep),))


def postselect_counts(counts: np.ndarray, ancilla_positions, outcome: str) -> np.ndarray:
    """Keep the counts whose ancilla bits match, stripping those bit positions.

    ``counts`` is a (..., 2^m) integer array indexed by outcome (bit
    position 0 the most significant); the result indexes the remaining
    bits in their original order. Raises EmptyBranchError when any row
    retains no shots.
    """
    counts = np.asarray(counts)
    positions = tuple(ancilla_positions)
    if len(outcome) != len(positions) or set(outcome) - {"0", "1"}:
        raise ValueError("outcome must be a bitstring with one bit per ancilla position")
    m = _count_bits(counts, positions)
    lead = counts.shape[:-1]
    index = [slice(None)] * m
    for p, bit in zip(positions, outcome):
        index[p] = int(bit)
    kept = counts.reshape(lead + (2,) * m)[(Ellipsis, *index)]
    kept = kept.reshape(lead + (2 ** (m - len(positions)),))
    if not kept.sum(axis=-1).all():
        raise EmptyBranchError(f"no shots retained for ancilla outcome {outcome!r}")
    return kept
