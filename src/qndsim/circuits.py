"""Gate-level circuit construction and execution.

Execution comes in two flavors: pure state-vector evolution and noisy
density-matrix evolution with a per-gate depolarizing channel. Both run a
batch of circuits as one stack, layer by layer (``run_batch``, which takes
and returns (B, d) amplitudes or (B, d, d) density matrices, one state per
circuit); a single circuit is a batch of one.
A measurement's outcome distribution is the Born-rule marginal of such a
stack with an optional independent readout flip per recorded bit; sampling
draws from it, multinomially, each row from the seed stream its seed path
names under the master seed, and exact mode reads it. Counts are integer
arrays indexed by outcome, and post-selection indexes their bit axes.

Sampling is only reproducible if probabilities are bit-identical: many
states here have outcomes of exactly equal probability, and a one-ULP
change swaps their counts. The batched engine therefore multiplies each
slice with the same matrices, in the same order, as a single run would.

Rotation convention (fixed package-wide): ``rx``/``ry``/``cry`` use the
half-angle gate convention, RY(t) = exp(-i t sigma_y / 2).

Outcomes order their bits like the ``measured_qubits`` argument, the first
listed qubit the most significant: count and probability arrays hold
outcome i at index i.

A gate is checked when made, so every gate is unitary and the engine does
not check one again. So is a ``NoiseModel``, and the public API checks
that a noise is one, so the engine and the outcome distributions take its
probabilities, readout flip included, unchecked. A seed path is a row of a
(B, W) integer array of 32-bit words, the one form every draw takes its
stream keys in; a master seed may have any number of words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qmath import (
    ATOL_ALGEBRA,
    DensityMatrix,
    StateVector,
    _integer,
    _qubits,
    _real,
    partial_trace,
    tensor,
)

IDENT = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

_PROJ0 = np.array([[1, 0], [0, 0]], dtype=complex)
_PROJ1 = np.array([[0, 0], [0, 1]], dtype=complex)


_QUBITS = {"rx": 1, "ry": 1, "x": 1, "h": 1, "cnot": 2, "cry": 2}
_ANGLED = ("rx", "ry", "cry")


@dataclass(frozen=True)
class Gate:
    """One gate application. ``targets`` lists control first for controlled
    kinds, as qubits of a register of up to 4 read by ``qmath._qubits``.
    Construction raises ValueError unless ``rx``, ``ry`` and ``cry`` get a
    finite real angle, stored as a built-in float, and the other kinds none."""

    kind: str  # 'rx' | 'ry' | 'x' | 'h' | 'cnot' | 'cry'
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _QUBITS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind in _ANGLED:
            object.__setattr__(self, "angle", _real(f"{self.kind} angle", self.angle))
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle, got {self.angle!r}")
        targets = _qubits(f"{self.kind} targets", self.targets, 4)
        if len(targets) != _QUBITS[self.kind]:
            raise ValueError(f"{self.kind} acts on {_QUBITS[self.kind]} distinct qubit(s)")
        object.__setattr__(self, "targets", targets)

    def local_matrix(self) -> np.ndarray:
        """The 2x2 matrix of a single-qubit gate (controlled kinds have none)."""
        if self.kind in ("rx", "ry"):
            c, s = math.cos(self.angle / 2), math.sin(self.angle / 2)
            rows = [[c, -1j * s], [-1j * s, c]] if self.kind == "rx" else [[c, -s], [s, c]]
            return np.array(rows, dtype=complex)
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
    """Ordered gates, a tuple (or list) of ``Gate`` stored as a tuple, on 1 to 4 qubit wires."""

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_qubits", _integer("num_qubits", self.num_qubits, 1, 4))
        if not (isinstance(self.gates, (tuple, list))
                and all(isinstance(g, Gate) for g in self.gates)):
            raise ValueError(f"gates must be a tuple of Gate, got {self.gates!r}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            _qubits(f"{g.kind} targets", g.targets, self.num_qubits)


@dataclass(frozen=True, init=False)
class NoiseModel:
    """Depolarizing noise per gate plus an independent readout flip per bit.

    The depolarizing channel acts on the full support of each gate right
    after it: rho -> (1-p) rho + p * (I/2^s tensor untouched marginal).
    Each probability is a real number in [0, 1], stored as a built-in
    float. All zero, the default, means no noise. ``enabled`` is a
    constructor argument only, not an attribute: ``enabled=False`` zeroes
    the probabilities, once each is checked, so configs written with the
    flag still load.
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
            v = _real(name, v, 0.0, 1.0)
            object.__setattr__(self, name, v if enabled else 0.0)


@lru_cache(maxsize=256)
def _full_unitary(gate: Gate, num_qubits: int) -> np.ndarray:
    if gate.kind in ("cnot", "cry"):
        control, target = gate.targets
        flip = PAULI_X if gate.kind == "cnot" else ry(target, gate.angle).local_matrix()
        u = _embed(num_qubits, {control: _PROJ0}) + _embed(
            num_qubits, {control: _PROJ1, target: flip}
        )
    else:
        u = _embed(num_qubits, {gate.targets[0]: gate.local_matrix()})
    u.flags.writeable = False
    return u


def _embed(num_qubits: int, ops: dict[int, np.ndarray]) -> np.ndarray:
    return tensor(*[ops.get(q, IDENT) for q in range(num_qubits)])


Layer = tuple["Gate | None", ...]
"""One step of a batched run, a tuple or list of one entry per slice: slice
i applies gate i, and ``None`` leaves it alone. The gates share their qubits."""


def _layer_operators(layers, num_qubits: int, slices: int) -> list:
    """The (slice index, unitary, support) of each gate of each layer, once
    one pass has checked every layer: ValueError at the first that is not a
    ``Layer`` of ``slices`` entries on the register. Slices that share a gate
    share the one cached ``_full_unitary`` a single circuit's run applies,
    so each is multiplied as that run's would be; the index is
    ``slice(None)`` for a gate on every slice, else the list of its slices."""
    checked = []
    for layer in layers:
        if not isinstance(layer, (tuple, list)) or len(layer) != slices:
            raise ValueError(f"every layer needs one entry per slice, {slices} in all")
        groups: dict[Gate, list[int]] = {}
        for i, g in enumerate(layer):
            if g is None:
                continue
            if not isinstance(g, Gate):
                raise ValueError(f"a layer entry must be a Gate or None, got {g!r}")
            groups.setdefault(g, []).append(i)
        if any(q >= num_qubits for g in groups for q in g.targets):
            raise ValueError("dimension mismatch between circuit and state")
        if len({g.targets for g in groups}) > 1:
            raise ValueError("the gates of a layer must act on the same qubits")
        checked.append(groups)
    return [(slice(None) if len(index) == slices else index, _full_unitary(g, num_qubits),
             g.targets) for groups in checked for g, index in groups.items()]


def _gate_layers(circuit: Circuit) -> list[Layer]:
    """A single circuit as a batch of one: one layer per gate."""
    return [(g,) for g in circuit.gates]


def _evolve_pure(amps: np.ndarray, ops) -> np.ndarray:
    """Apply each of ``_layer_operators``' operators to a (B, d) stack of
    amplitudes, in place."""
    for index, u, _ in ops:
        amps[index] = np.matmul(u, amps[index][:, :, None])[:, :, 0]
    return amps


@lru_cache(maxsize=64)
def _depolarize_map(num_qubits: int, support: tuple[int, ...]):
    """The gather that lays I/2^s (x) the marginal off the support out in
    qubit order: the qubits kept, each register entry's row and column in
    their marginal, as a (d, 1) and a (1, d) index array, and its (d, d)
    weight, the entry of I/2^s its support bits select."""
    keep = [q for q in range(num_qubits) if q not in support]
    s = len(support)
    # each register index's bit per qubit, qubit 0 the most significant
    bits = np.arange(2**num_qubits)[:, None] >> (num_qubits - 1 - np.arange(num_qubits)) & 1

    def index(qubits):
        return bits[:, qubits] @ (1 << np.arange(len(qubits)))[::-1]

    kept, held = index(keep), index(list(support))
    eye = np.eye(2**s, dtype=complex) / 2**s
    rows, cols, weight = kept[:, None], kept[None, :], eye[held[:, None], held[None, :]]
    for a in (rows, cols, weight):
        a.flags.writeable = False
    return tuple(keep), rows, cols, weight


def _depolarize(m: np.ndarray, num_qubits: int, support: tuple[int, ...], p: float) -> np.ndarray:
    """rho -> (1-p) rho + p (I/2^s tensor the marginal off the support), per slice."""
    keep, rows, cols, weight = _depolarize_map(num_qubits, support)
    if not keep:
        mixed = weight
    else:
        mixed = partial_trace(m, keep)[:, rows, cols]
        np.multiply(weight, mixed, out=mixed)
    out = (1.0 - p) * m
    out += p * mixed
    return out


def _evolve_density(m: np.ndarray, ops, num_qubits: int, noise: NoiseModel) -> np.ndarray:
    """Apply each of ``_layer_operators``' operators, with depolarizing
    noise, to a (B, d, d) stack."""
    for index, u, support in ops:
        sub = u @ m[index] @ u.conj().T
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
    amps = run_batch(initial.amplitudes[None], _gate_layers(circuit), NoiseModel())
    return StateVector(circuit.num_qubits, amps[0])


def run_noisy(circuit: Circuit, initial: DensityMatrix, noise: NoiseModel) -> DensityMatrix:
    """Density-matrix evolution with depolarizing noise after each gate."""
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError("dimension mismatch between circuit and state")
    m = run_batch(initial.matrix[None], _gate_layers(circuit), noise)
    return DensityMatrix(circuit.num_qubits, m[0])


def _stack_qubits(states: np.ndarray) -> int:
    """The register size n of a (B, d) amplitude or (B, d, d) density
    stack with d = 2^n; raises ValueError for any other shape, and for n
    outside 1..4."""
    d = states.shape[-1] if states.ndim in (2, 3) else 0
    n = d.bit_length() - 1
    if not 1 <= n <= 4 or d != 2**n or states.ndim == 3 and states.shape[1] != d:
        raise ValueError("need a (B, 2^n) amplitude or (B, 2^n, 2^n) density stack "
                         f"with n in 1..4, got shape {states.shape}")
    return n


def run_batch(initial: np.ndarray, layers, noise: NoiseModel) -> np.ndarray:
    """Run a batch of circuits, given as layers, from a stack of initial
    states, one per slice; returns the evolved stack, a new array of the
    same shape.

    A (B, d) stack of amplitudes evolves as pure states and admits no
    depolarizing noise; a (B, d, d) stack of density matrices gets
    depolarizing noise after each gate. Each slice comes out exactly as
    ``run_pure`` or ``run_noisy`` would give it for that slice's circuit
    and initial state. The stack's shape and the layers, in one pass
    (``_layer_operators``), are checked before any work. Contract:
    ``noise`` is a ``NoiseModel``, which the public API checks. The
    states are not validated, in or out: ``run_pure`` and ``run_noisy``
    validate theirs, and property tests pin the engine.
    """
    # a C-ordered copy, evolved in place: a slice's products round by its
    # layout, and order "K" would put a broadcast input's batch axis last
    states = np.array(initial, dtype=complex, order="C")
    n = _stack_qubits(states)
    pure = states.ndim == 2
    if not len(states):
        raise ValueError("run_batch needs at least one initial state")
    if pure and (noise.depol_1q or noise.depol_2q):
        raise ValueError("depolarizing noise needs a density-matrix input (state.density())")
    ops = _layer_operators(layers, n, len(states))
    if pure:
        return _evolve_pure(states, ops)
    return _evolve_density(states, ops, n, noise)


def _marginal_probabilities(states: np.ndarray, measured_qubits) -> np.ndarray:
    """(B, 2^m) Born-rule probabilities over the measured qubits, in
    listed-bit order, of each state of a ``run_batch`` stack; the stack and
    the qubits, read by ``qmath._qubits``, are checked first."""
    states = np.asarray(states)
    n = _stack_qubits(states)
    measured_qubits = _qubits("measured_qubits", measured_qubits, n)
    if not measured_qubits:
        raise ValueError("measured_qubits must not be empty")
    b = len(states)
    remaining = sorted(measured_qubits)
    if states.ndim == 2:
        probs_t = np.abs(states.reshape((b,) + (2,) * n)) ** 2
        drop = tuple(1 + q for q in range(n) if q not in measured_qubits)
        probs_t = probs_t.sum(axis=drop) if drop else probs_t
    else:
        reduced = states if len(remaining) == n else partial_trace(states, remaining)
        probs_t = np.diagonal(reduced, axis1=-2, axis2=-1).real
        probs_t = probs_t.reshape((b,) + (2,) * len(remaining))
    probs_t = probs_t.transpose([0] + [1 + remaining.index(q) for q in measured_qubits])
    return probs_t.reshape(b, -1)


@lru_cache(maxsize=64)
def _confusion(num_bits: int, flip: float) -> np.ndarray:
    """Readout confusion matrix: each of ``num_bits`` bits flips independently."""
    confusion = tensor(*[np.array([[1 - flip, flip], [flip, 1 - flip]])] * num_bits).real
    confusion.flags.writeable = False
    return confusion


def _outcome_distribution(
    states: np.ndarray, measured_qubits, readout_flip: float
) -> np.ndarray:
    """The (B, 2^m) recorded-outcome distributions of the measured qubits
    of each state of a ``run_batch`` stack: its Born-rule marginal, clipped
    at zero, then each recorded bit flipped independently with probability
    ``readout_flip``. Sampling draws from it and exact mode reads it."""
    probs = np.clip(_marginal_probabilities(states, measured_qubits), 0.0, None)
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
    states: np.ndarray, measured_qubits, readout_flip: float = 0.0
) -> np.ndarray:
    """The (B, 2^m) exact outcome probabilities of each state of a
    ``run_batch`` stack, each recorded bit flipped with probability
    ``readout_flip``: the distributions ``sample_counts`` draws from, their
    infinite-shot limit. Contract: ``readout_flip`` is a ``NoiseModel``'s,
    a float in [0, 1] checked when the model was made."""
    return _outcome_distribution(states, measured_qubits, readout_flip)


# numpy's SeedSequence hash and the PCG64 seeding it feeds (numpy/random/
# bit_generator.pyx and pcg64.h), fixed by numpy's stream-compatibility
# policy (NEP 19); PCG64 after O'Neill (2014)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed_paths, rows: int) -> np.ndarray:
    """The paths, a (rows, W) ndarray of an integer dtype, as the uint32
    words SeedSequence hashes; raises ValueError for any other form, a row
    count other than ``rows`` or an element outside 0..2**32 - 1."""
    if not isinstance(seed_paths, np.ndarray) or seed_paths.ndim != 2:
        form = getattr(seed_paths, "shape", type(seed_paths).__name__)
        raise ValueError(f"seed paths must be a (rows, W) integer array, got {form}")
    if seed_paths.dtype.kind not in "iu":
        raise ValueError(f"seed path elements must be integers, got dtype {seed_paths.dtype}")
    if len(seed_paths) != rows:
        raise ValueError(f"{len(seed_paths)} seed paths for {rows} rows")
    # built-in ints: numpy 1.24 compares a uint64 with an int through float
    if seed_paths.size and not 0 <= int(seed_paths.min()) <= int(seed_paths.max()) <= _MASK32:
        raise ValueError("seed path elements must be in 0..2**32 - 1")
    return seed_paths.astype(np.uint32)


def _hash_constants(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """The uint32 constants init * mult^t for t in start .. start + count - 1."""
    return np.array([init * pow(mult, start + t, 1 << 32) & _MASK32 for t in range(count)],
                    dtype=np.uint32)


def _stream_seeds(seq: np.random.SeedSequence, words: np.ndarray) -> np.ndarray:
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
        pool = mixed ^ (mixed >> 16)
    # generate_state: the pool cycled to 8 words, hashed with its own constants
    consts = _hash_constants(_INIT_B, _MULT_B, 0, 9)
    state = np.tile(pool, 2) ^ consts[:-1]
    state *= consts[1:]
    state ^= state >> 16
    return state.astype("<u4").view("<u8")


MAX_SHOTS = 2**63 - 1
"""The most shots one draw can take: numpy's multinomial counts in int64."""


def sample_batch(
    probs: np.ndarray, shots: int, master_seed: int, seed_paths: np.ndarray
) -> np.ndarray:
    """One multinomial draw per row of a (B, 2^m) stack of outcome
    distributions. Row i draws from exactly the stream of
    ``default_rng(SeedSequence(master_seed, spawn_key=tuple(seed_paths[i])))``
    of the (B, W) integer array of paths; a (B, 0) one draws from
    ``default_rng(master_seed)``'s. Returns the (B, 2^m) integer counts.

    Every row's seed is hashed in one array pass, and one generator is
    re-seeded per row, so a call costs one SeedSequence however many rows
    it draws. The shot count (1..MAX_SHOTS), the master seed (>= 0), the
    stack (2-D, every row nonnegative and finite with a positive total) and
    the paths (``_seed_words``) are checked before any draw.
    """
    shots = _integer("shots", shots, 1, MAX_SHOTS)
    master_seed = _integer("master_seed", master_seed, 0)
    probs = np.ascontiguousarray(probs, dtype=float)
    if probs.ndim != 2:
        raise ValueError(f"need a (rows, outcomes) stack of distributions, got shape {probs.shape}")
    with np.errstate(over="ignore"):  # a total past the float range is refused below
        totals = probs.sum(axis=-1, keepdims=True)
    if not ((probs >= 0).all() and (np.isfinite(totals) & (totals > 0)).all()):
        raise ValueError("every row of probabilities must be nonnegative and finite "
                         "with a positive total")
    words = _seed_words(seed_paths, len(probs))
    seq = np.random.SeedSequence(master_seed)
    seeds = _stream_seeds(seq, words)
    bitgen = np.random.PCG64(seq)
    gen = np.random.Generator(bitgen)
    pvals = probs / totals
    counts = np.empty(probs.shape, dtype=np.int64)
    inner = {"state": 0, "inc": 0}
    outer = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    for row, (s_hi, s_lo, q_hi, q_lo) in enumerate(seeds.tolist()):
        # PCG64's seeding: inc = 2q + 1, state = (inc + s) * M + inc mod 2^128
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        inner["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        inner["inc"] = inc
        bitgen.state = outer
        counts[row] = gen.multinomial(shots, pvals[row])
    return counts


def sample_counts(
    states: np.ndarray,
    measured_qubits,
    shots: int,
    master_seed: int,
    seed_paths: np.ndarray,
    readout_flip: float = 0.0,
) -> np.ndarray:
    """Multinomial draws from the distributions ``exact_probabilities``
    gives, one per state of a ``run_batch`` stack: state i draws from
    stream (master_seed, *seed_paths[i]) (see ``sample_batch``). Returns
    the (B, 2^m) counts. Contract: ``readout_flip`` as in
    ``exact_probabilities``."""
    probs = _outcome_distribution(states, measured_qubits, readout_flip)
    return sample_batch(probs, shots, master_seed, seed_paths)


def _count_bits(counts: np.ndarray, name: str, positions) -> tuple[int, tuple[int, ...]]:
    """Check a (..., 2^m) count array; return m and the bit positions, read by ``_qubits``."""
    m = counts.shape[-1].bit_length() - 1 if counts.ndim else 0
    if m < 1 or counts.shape[-1] != 2**m:
        raise ValueError(f"counts need a last axis of 2^m outcomes, got shape {counts.shape}")
    if not np.issubdtype(counts.dtype, np.integer) or (counts < 0).any():
        raise ValueError("counts must be nonnegative integers")
    return m, _qubits(name, positions, m)


def postselect_counts(counts: np.ndarray, ancilla_positions, outcome: str) -> np.ndarray:
    """Keep the counts whose ancilla bits match, stripping those bit positions.

    ``counts`` is a (..., 2^m) integer array indexed by outcome (bit
    position 0 the most significant), for instance a whole block's
    (points, settings, 2^m) tomography counts; the result indexes the
    remaining bits in their original order. A row that retains no shots
    is returned as zeros: the caller decides what an empty branch means.
    ``qmath._qubits`` reads the positions; ``outcome`` is a string of bits.
    """
    counts = np.asarray(counts)
    m, positions = _count_bits(counts, "ancilla_positions", ancilla_positions)
    if not isinstance(outcome, str) or len(outcome) != len(positions) or set(outcome) - {"0", "1"}:
        raise ValueError("outcome must be a bitstring with one bit per ancilla position")
    lead = counts.shape[:-1]
    index = [slice(None)] * m
    for p, bit in zip(positions, outcome):
        index[p] = int(bit)
    kept = counts.reshape(lead + (2,) * m)[(Ellipsis, *index)]
    return kept.reshape(lead + (2 ** (m - len(positions)),))
