"""Two-qubit state tomography by linear inversion over 16 product projectors.

The measurement set is one fixed grid, the canonical 16-configuration
product-state grid over the single-qubit states

    H = |0>,  V = |1>,  D = (|0>+|1>)/sqrt(2),
    R = (|0>+i|1>)/sqrt(2),  L = (|0>-i|1>)/sqrt(2),

in the order ``tomography_settings()`` lists it. Every array of per-setting
data follows that order; no function takes another grid.

Each setting applies a local pre-rotation mapping its product state onto
|00> and reads both qubits in the computational basis; the frequency of the
"00" outcome estimates the projector expectation. Solving the resulting
16x16 real linear system in the Pauli-pair basis recovers the density
matrix: each of its 16 entries is a sum of exactly four Pauli-pair terms,
added in the order of the Pauli pairs. Finite-count estimates can come out
non-PSD; a simplex projection of the eigenvalue vector supplies the closest
physical state for anything that needs one (observables, fidelity).

The batched functions take and return stacks only: ``setting_probabilities``
evolves a ``run_batch`` stack of states into a (states, 16, 2^n) array of
outcome distributions, ``collect`` draws a stack of counts from such an array,
``reconstruct_stack`` analyzes a (K, 16, 4) stack of data sets and
``project_psd`` projects a (K, d, d) stack, returning the eigenvalues it
projected as well. ``collect`` hands its seed paths, one per setting of
each state, to the one check ``sample_batch`` makes before any draw.
``linear_reconstruct`` is the analysis of one data set, and the one place
an estimate is validated as a ``DensityMatrix``: the projection is
physical by construction, and every output estimate passes the Hermitian
and PSD checks of the square root that observables and fidelities take of
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import circuits as circ
from .circuits import Circuit, NoiseModel, h, rx, x
from .qmath import DensityMatrix, tensor

_SQ2 = 1.0 / math.sqrt(2.0)
_BASIS_KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([_SQ2, _SQ2], dtype=complex),
    "R": np.array([_SQ2, 1j * _SQ2], dtype=complex),
    "L": np.array([_SQ2, -1j * _SQ2], dtype=complex),
}

# The gate on a given qubit mapping each single-qubit state onto |0> (up to
# phase); H needs none.
_PRE_ROTATION = {
    "V": x,
    "D": h,
    "R": partial(rx, angle=math.pi / 2),
    "L": partial(rx, angle=-math.pi / 2),
}

_SETTING_PAIRS = (
    ("H", "H"), ("H", "V"), ("V", "V"), ("V", "H"),
    ("R", "H"), ("R", "V"), ("D", "V"), ("D", "H"),
    ("D", "R"), ("D", "D"), ("R", "D"), ("H", "D"),
    ("V", "D"), ("V", "L"), ("H", "L"), ("R", "L"),
)

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class DegenerateReconstructionError(ValueError):
    """The outcome data fix no state: the linear estimate has zero trace."""


@dataclass(frozen=True)
class TomographySetting:
    """One measurement configuration: a product projector plus its pre-rotation."""

    basis_a: str
    basis_b: str

    def projector(self) -> np.ndarray:
        ket = np.kron(_BASIS_KETS[self.basis_a], _BASIS_KETS[self.basis_b])
        return np.outer(ket, ket.conj())

    def pre_rotation(self) -> Circuit:
        """The local gates on qubits 0 and 1 mapping the projector's product
        state onto |00>."""
        gates = tuple(_PRE_ROTATION[b](q) for q, b in enumerate((self.basis_a, self.basis_b))
                      if b in _PRE_ROTATION)
        return Circuit(2, gates)


@dataclass(frozen=True)
class TomographyEstimate:
    """The physical projection of one linear-inversion estimate, and
    whether the projection had to move it: ``method`` is "linear" when the
    estimate was PSD already, else "linear+projection"."""

    projected: DensityMatrix
    method: str


def tomography_settings() -> list[TomographySetting]:
    """The canonical 16-setting product grid (informationally complete)."""
    return [TomographySetting(a, b) for a, b in _SETTING_PAIRS]


_PRE_ROTATION_LAYERS: tuple[circ.Layer, circ.Layer] = tuple(
    tuple(next((g for g in s.pre_rotation().gates if g.targets == (qubit,)), None)
          for s in tomography_settings())
    for qubit in (0, 1)
)
"""Every setting's pre-rotation as one batch of 16 slices: the gates on
qubit 0, then those on qubit 1 (each basis needs at most one gate)."""


@lru_cache(maxsize=1)
def _pauli_pairs() -> tuple[np.ndarray, ...]:
    """The 16 two-qubit Pauli-pair operators, first factor major."""
    pairs = tuple(tensor(pa, pb) for pa in _PAULIS for pb in _PAULIS)
    for p in pairs:
        p.flags.writeable = False
    return pairs


@lru_cache(maxsize=1)
def _pauli_terms() -> tuple[np.ndarray, np.ndarray]:
    """The nonzero terms of the Pauli-pair sum, entry by entry: (4, 16)
    tables of the operator index j, ascending down each column, and of
    P_j's entry (a unit: 1, -1, 1j or -1j) at each of the 16 row-major
    matrix entries. Every entry has exactly four such terms."""
    pairs = np.stack(_pauli_pairs()).reshape(16, 16)
    index = np.stack([np.flatnonzero(pairs[:, e]) for e in range(16)], axis=-1)
    units = pairs[index, np.arange(16)]
    for a in (index, units):
        a.flags.writeable = False
    return index, units


@lru_cache(maxsize=1)
def _design_matrix() -> np.ndarray:
    """B[i, j] = Tr(M_i P_j) / 4 over the 16 Pauli-pair operators P_j."""
    b = np.empty((16, 16))
    for i, s in enumerate(tomography_settings()):
        m = s.projector()
        for j, p in enumerate(_pauli_pairs()):
            b[i, j] = np.trace(m @ p).real / 4.0
    b.flags.writeable = False
    return b


def setting_probabilities(states: np.ndarray, noise: NoiseModel = NoiseModel()) -> np.ndarray:
    """Outcome distributions of every setting for each state of a
    ``run_batch`` stack: a (states, 16, 2^n) array, settings in
    ``tomography_settings()`` order.

    Each state runs once per setting, all of them as one stack. Every
    qubit of a state is read out (outcome index bits list qubit 0 first),
    and the pre-rotations act on qubits 0 and 1. A density stack runs
    through the noisy evolution so tomography is not artificially cleaner
    than the rest of the experiment; an amplitude stack admits no
    depolarizing noise (``run_batch`` rejects it). Each recorded bit flips
    with the noise model's readout flip. ``collect`` draws from these
    distributions; exact mode reads them. The array is a fresh one: it
    holds no view into the evolved stack.
    """
    states = np.asarray(states)
    layers = [layer * len(states) for layer in _PRE_ROTATION_LAYERS]
    stack = circ.run_batch(np.repeat(states, 16, axis=0), layers, noise)
    every_qubit = range(stack.shape[-1].bit_length() - 1)
    probs = circ._outcome_distribution(stack, every_qubit, noise.readout_flip)
    return probs.reshape(len(states), 16, probs.shape[-1]).copy()


def collect(
    probs: np.ndarray, shots: int, master_seed: int, seed_paths: np.ndarray
) -> np.ndarray:
    """Sample every setting of every state, one derived RNG stream per setting.

    ``probs`` is a (states, settings, 2^n) stack of outcome distributions
    (``setting_probabilities``) and ``seed_paths`` a (states, W) integer
    array: setting k of state i draws from stream (master_seed,
    *seed_paths[i], k). Returns the integer counts, shaped like ``probs``.
    ``sample_batch`` checks the shots and every setting's path before any
    draw. Contract: ``probs`` is a 3-D ndarray and ``seed_paths`` an ndarray
    with one path per state.
    """
    # every setting of every state in one draw: its streams are seeded together
    settings = np.arange(probs.shape[1], dtype=seed_paths.dtype)
    rows = np.column_stack([np.repeat(seed_paths, len(settings), axis=0),
                            np.tile(settings, len(seed_paths))])
    counts = circ.sample_batch(probs.reshape(-1, probs.shape[-1]), shots, master_seed, rows)
    return counts.reshape(probs.shape)


def _frequencies_00(data: np.ndarray) -> np.ndarray:
    """(..., 16) "00" frequencies of (..., 16, 4) per-setting outcome counts
    or probabilities over qubits 0 and 1, settings in canonical order (see
    ``circuits._frequencies``). Contract: ``data`` is such an ndarray."""
    return circ._frequencies(data)[..., 0]


@dataclass(frozen=True)
class EstimateStack:
    """Linear-inversion estimates of a stack of data sets, as arrays.

    Row i belongs to data set ``rows[i]``; data sets whose estimate has
    zero trace are left out. ``projected`` holds the physical projections
    (``project_psd``) and ``min_eigenvalue`` the smallest eigenvalue of
    each raw estimate, negative when the projection had to move it.
    """

    rows: np.ndarray
    projected: np.ndarray
    min_eigenvalue: np.ndarray


def _pauli_sum(coeffs: np.ndarray) -> np.ndarray:
    """The (K, 4, 4) C-contiguous matrices sum_j coeffs[:, j] P_j / 4 of a
    (K, 16) stack of real Pauli-pair coefficients.

    Each entry adds its four nonzero terms from 0j in ascending j: the
    additions the 16-step loop over every P_j makes, less the zero terms,
    which leave the sum unchanged, bit for bit.
    """
    index, units = _pauli_terms()
    raw = 0j
    for t in range(4):
        raw = raw + coeffs[:, index[t]] * units[t]
    # the gather comes out F-ordered, and np.trace sums such a stack's
    # diagonals in another order, which can change the last bit
    return np.ascontiguousarray(raw / 4.0).reshape(-1, 4, 4)


def _linear_estimates(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a (K, 16, 4) stack of data sets that fix a state, and
    their raw linear estimates: exactly Hermitian, trace-normalized, and
    possibly with negative eigenvalues.

    Raises DegenerateReconstructionError when no data set fixes a state.
    """
    freqs = _frequencies_00(data)
    # one solve per data set, the matrix broadcast by solve itself: the
    # same LAPACK call, bit for bit, as a single one
    raw = _pauli_sum(np.linalg.solve(_design_matrix(), freqs[:, :, None])[:, :, 0])
    trace = np.trace(raw, axis1=-2, axis2=-1).real
    rows = np.flatnonzero(np.abs(trace) >= 1e-9)
    if not rows.size:
        raise DegenerateReconstructionError("degenerate reconstruction: estimated trace is zero")
    return rows, raw[rows] / trace[rows, None, None]


def reconstruct_stack(data: np.ndarray) -> EstimateStack:
    """Invert the linear system tying "00" frequencies to projector
    expectations, for each (16, 4) data set of a (K, 16, 4) stack at once.

    Each data set holds, per setting of the canonical grid in its order,
    the counts or probabilities of the four outcomes of qubits 0 and 1.
    Each raw solution is trace-normalized; its smallest eigenvalue is
    reported and the simplex projection provides the physical counterpart.
    A data set whose estimate has zero trace fixes no state and is left
    out; that happens only for pathological inputs, e.g. a post-selected
    branch that retained a handful of shots.

    Raises DegenerateReconstructionError when no data set fixes a state.
    """
    rows, raw = _linear_estimates(data)
    projected, eigenvalues = project_psd(raw)
    return EstimateStack(rows, projected, eigenvalues[:, 0])


def linear_reconstruct(data: np.ndarray) -> TomographyEstimate:
    """``reconstruct_stack`` of one (16, 4) data set, its projection
    validated as a ``DensityMatrix``.

    Raises DegenerateReconstructionError when the data fix no state.
    """
    est = reconstruct_stack(np.asarray(data)[None])
    return TomographyEstimate(
        projected=DensityMatrix(2, est.projected[0]),
        method="linear" if est.min_eigenvalue[0] > -1e-12 else "linear+projection",
    )


def simplex_project(values: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector, or of each row of a (..., n)
    stack, onto the probability simplex."""
    v = np.asarray(values, dtype=float)
    u = np.sort(v, axis=-1)[..., ::-1]
    cssv = np.cumsum(u, axis=-1) - 1.0
    n = v.shape[-1]
    positive = u - cssv / np.arange(1, n + 1) > 0
    # the last positive position (the first one always is)
    rho = n - np.argmax(positive[..., ::-1], axis=-1)
    # cssv[..., rho - 1] of each row, read through the flat array
    tau = cssv.reshape(-1)[np.arange(0, cssv.size, n) + (rho.reshape(-1) - 1)]
    return np.clip(v - tau.reshape(rho.shape + (1,)) / rho[..., None], 0.0, None)


def project_psd(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closest physical states: project each eigenvalue vector onto the simplex.

    Each slice of a (K, d, d) stack keeps its eigenvectors, and its
    (trace-one, possibly negative) eigenvalues are replaced by their
    Euclidean projection onto the probability simplex, so its trace returns
    to exactly 1. Returns the stack and the (K, d) eigenvalues of the
    Hermitized input slices in ascending order.

    The result is Hermitian, trace-one and PSD by construction, so it is
    not validated again here; property tests pin those invariants.
    """
    raw = np.asarray(raw, dtype=complex)
    if raw.ndim != 3:
        raise ValueError(f"need a (K, d, d) stack, got shape {raw.shape}")
    herm = (raw + np.swapaxes(raw.conj(), -1, -2)) / 2
    vals, vecs = np.linalg.eigh(herm)
    m = (vecs * simplex_project(vals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    m = (m + np.swapaxes(m.conj(), -1, -2)) / 2
    return m, vals
