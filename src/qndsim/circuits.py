"""Gate-level circuit construction and execution.

Execution comes in two flavors: pure state-vector evolution and noisy
density-matrix evolution with a per-gate depolarizing channel. Both run a
batch of circuits, from one initial state per circuit, as one stack,
layer by layer (``run_batch``); a single circuit is a batch of one.
A measurement's outcome distribution is the Born-rule marginal with an
optional independent readout flip per recorded bit; sampling draws from
it, multinomially, each row from the seed stream its seed path names
under the master seed, and exact mode reads it. Counts are integer arrays
indexed by outcome, and post-selection indexes their bit axes.

Sampling is only reproducible if probabilities are bit-identical: many
states here have outcomes of exactly equal probability, and a one-ULP
change swaps their counts. The batched engine therefore multiplies each
slice with the same matrices, in the same order, as a single run would.

Rotation convention (fixed package-wide): ``rx``/``ry``/``cry`` use the
half-angle gate convention, RY(t) = exp(-i t sigma_y / 2).

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
    ATOL_ALGEBRA,
    ATOL_CONSTRUCT,
    DensityMatrix,
    StateVector,
    partial_trace,
    tensor,
)

IDENT = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

_PROJ0 = np.array([[1, 0], [0, 0]], dtype=complex)
_PROJ1 = np.array([[0, 0], [0, 1]], dtype=complex)


class EmptyBranchError(ValueError):
    """Raised when a post-selection branch has (numerically) zero weight."""


@dataclass(frozen=True)
class Gate:
    """One gate application. ``targets`` lists control first for controlled kinds."""

    kind: str  # 'rx' | 'ry' | 'x' | 'h' | 'cnot' | 'cry'
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind in ("cnot", "cry"):
            if len(self.targets) != 2 or self.targets[0] == self.targets[1]:
                raise ValueError(f"{self.kind} needs two distinct qubits")
        elif len(self.targets) != 1:
            raise ValueError(f"{self.kind} acts on exactly one qubit")

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


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on a register of named (indexed) qubit wires."""

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q < 0 or q >= self.num_qubits for q in g.targets):
                raise ValueError(f"gate {g} targets outside 0..{self.num_qubits - 1}")

    def then(self, other: "Circuit") -> "Circuit":
        if other.num_qubits != self.num_qubits:
            raise ValueError("cannot concatenate circuits of different width")
        return Circuit(self.num_qubits, self.gates + other.gates)

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
        marginal = partial_trace(m, keep)
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
    initial: Sequence[StateVector | DensityMatrix], layers, noise: NoiseModel
) -> np.ndarray:
    """Run a batch of circuits, given as layers, from a sequence of initial
    states, one per slice.

    Pure states evolve as a (B, d) stack of amplitudes and admit no
    depolarizing noise; density matrices as a (B, d, d) stack, with
    depolarizing noise after each gate. Each slice comes out exactly as
    ``run_pure`` or ``run_noisy`` would give it for that slice's circuit
    and initial state. The stack is validated once, every slice with the
    checks of StateVector or DensityMatrix.
    """
    states = list(initial)
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
    if len(states) != batch:
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
        reduced = partial_trace(state.matrix, remaining)
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


def _frequencies(data: np.ndarray) -> np.ndarray:
    """Outcome frequencies of a (..., 2^m) array of outcome data: integer
    counts are divided by their row totals, and probabilities are used as
    given. Every row must be nonnegative with a positive total, and a row
    of probabilities must sum to 1 within ATOL_ALGEBRA."""
    totals = data.sum(axis=-1, keepdims=True)
    if (data < 0).any() or not (totals > 0).all():
        raise ValueError("outcome data must be nonnegative with a positive total per row")
    if np.issubdtype(data.dtype, np.integer):
        return data / totals
    if not (np.abs(totals - 1.0) <= ATOL_ALGEBRA).all():
        raise ValueError("outcome probabilities must sum to 1 per row; "
                         "counts must be integers")
    return data.astype(float)


def exact_probabilities(
    state: StateVector | DensityMatrix, measured_qubits, readout_flip: float = 0.0
) -> np.ndarray:
    """The (2^m,) exact outcome probabilities, each recorded bit flipped
    with probability ``readout_flip``: the distribution ``sample_counts``
    draws from, its infinite-shot limit."""
    born = _marginal_probabilities(state, measured_qubits)[None]
    return _outcome_distribution(born, readout_flip)[0]


# numpy's SeedSequence hash and the PCG64 seeding it feeds (numpy/random/
# bit_generator.pyx and pcg64.h), fixed by numpy's stream-compatibility
# policy (NEP 19); PCG64 after O'Neill (2014)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed_paths, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Each path's spawn-key words as SeedSequence assembles them: every
    element's 32-bit words, least significant first. Returns a zero-padded
    (rows, W) uint32 array and each row's word count.

    Raises ValueError unless there is one path per row and every element
    is a nonnegative integer (not a bool).
    """
    paths = [tuple(p) for p in seed_paths]
    if len(paths) != rows:
        raise ValueError(f"{len(paths)} seed paths for {rows} rows")
    flat = [v for path in paths for v in path]
    for kind in set(map(type, flat)):
        if issubclass(kind, bool) or not issubclass(kind, numbers.Integral):
            raise ValueError(f"seed path elements must be integers, got {kind.__name__}")
    values = np.array([int(v) for v in flat], dtype=object)
    if (values < 0).any():
        raise ValueError("seed path elements must be >= 0")
    parts, count = [values & _MASK32], np.ones(len(values), dtype=np.intp)
    rest = values >> 32
    while rest.any():
        count += rest != 0
        parts.append(rest & _MASK32)
        rest = rest >> 32
    words = np.array(parts, dtype=np.uint32).T
    owner = np.repeat(np.arange(rows), [len(p) for p in paths])
    lengths = np.bincount(owner, weights=count, minlength=rows).astype(np.intp)
    stream = words[np.arange(words.shape[1]) < count[:, None]]  # every row's words in order
    padded = np.zeros((rows, lengths.max(initial=0)), dtype=np.uint32)
    padded[np.arange(padded.shape[1]) < lengths[:, None]] = stream
    return padded, lengths


def _hash_constants(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """The uint32 constants init * mult^t for t in start .. start + count - 1."""
    return np.array([init * pow(mult, start + t, 1 << 32) & _MASK32 for t in range(count)],
                    dtype=np.uint32)


def _stream_seeds(seq: np.random.SeedSequence, words: np.ndarray, lengths: np.ndarray):
    """The (rows, 4) uint64 words each row's PCG64 is seeded from, those of
    ``SeedSequence(seq.entropy, spawn_key=path)``: the master seed's pool
    mixed with the row's path words, then ``generate_state(4, np.uint64)``."""
    rows, width = words.shape
    # the master seed made 16 hashmix calls, to fill the pool and cross-mix
    # it, and 4 more for each of its words beyond the pool's 4; each path
    # word makes 4, one per pool word, whose constants depend on position only
    entropy_words = max(1, -(-int(seq.entropy).bit_length() // 32))
    consts = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(0, entropy_words - 4), 4 * width + 1)
    hashed = words[:, :, None] ^ consts[:-1].reshape(width, 4)
    hashed *= consts[1:].reshape(width, 4)
    hashed ^= hashed >> 16
    pool = np.tile(seq.pool, (rows, 1))
    for j in range(width):
        mixed = pool * np.uint32(_MIX_L) - hashed[:, j] * np.uint32(_MIX_R)
        pool = np.where((lengths > j)[:, None], mixed ^ (mixed >> 16), pool)
    # generate_state: the pool cycled to 8 words, hashed with its own constants
    consts = _hash_constants(_INIT_B, _MULT_B, 0, 9)
    state = np.tile(pool, 2) ^ consts[:-1]
    state *= consts[1:]
    state ^= state >> 16
    return state.astype("<u4").view("<u8")


def sample_batch(
    probs: np.ndarray, shots: int, master_seed: int, seed_paths: Sequence[tuple[int, ...]]
) -> np.ndarray:
    """One multinomial draw per row of a (B, 2^m) stack of outcome
    distributions. Row i draws from exactly the stream of
    ``default_rng(SeedSequence(master_seed, spawn_key=seed_paths[i]))``;
    an empty path is the stream of ``default_rng(master_seed)``. Returns
    the (B, 2^m) integer counts.

    Every row's seed is hashed in one pass, and one generator is re-seeded
    per row, so a call costs one SeedSequence however many rows it draws.
    The shot count and the seed input are checked before any draw.
    """
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral) or shots < 1:
        raise ValueError(f"shots must be an integer >= 1, got {shots!r}")
    if (isinstance(master_seed, bool) or not isinstance(master_seed, numbers.Integral)
            or master_seed < 0):
        raise ValueError(f"master_seed must be a nonnegative integer, got {master_seed!r}")
    probs = np.ascontiguousarray(probs, dtype=float)
    words, lengths = _seed_words(seed_paths, len(probs))
    seq = np.random.SeedSequence(int(master_seed))
    seeds = _stream_seeds(seq, words, lengths)
    bitgen = np.random.PCG64(seq)
    gen = np.random.Generator(bitgen)
    pvals = probs / probs.sum(axis=-1, keepdims=True)
    counts = np.empty(probs.shape, dtype=np.int64)
    for row, p in enumerate(pvals):
        # PCG64's seeding: inc = 2q + 1, state = (inc + s) * M + inc mod 2^128
        s_hi, s_lo, q_hi, q_lo = seeds[row].tolist()
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        counts[row] = gen.multinomial(shots, p)
    return counts


def sample_counts(
    states: Sequence[StateVector | DensityMatrix],
    measured_qubits,
    shots: int,
    master_seed: int,
    seed_paths: Sequence[tuple[int, ...]],
    readout_flip: float = 0.0,
) -> np.ndarray:
    """Multinomial draws from the distribution ``exact_probabilities``
    gives, one per state: state i draws from stream (master_seed,
    *seed_paths[i]) (see ``sample_batch``). Returns the (states, 2^m)
    counts."""
    born = np.stack([_marginal_probabilities(s, measured_qubits) for s in states])
    return sample_batch(_outcome_distribution(born, readout_flip), shots, master_seed, seed_paths)


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


def postselect_counts(counts: np.ndarray, ancilla_positions, outcome: str) -> np.ndarray:
    """Keep the counts whose ancilla bits match, stripping those bit positions.

    ``counts`` is a (..., 2^m) integer array indexed by outcome (bit
    position 0 the most significant), for instance a whole block's
    (points, settings, 2^m) tomography counts; the result indexes the
    remaining bits in their original order. A row that retains no shots
    is returned as zeros: the caller decides what an empty branch means.
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
    return kept.reshape(lead + (2 ** (m - len(positions)),))
