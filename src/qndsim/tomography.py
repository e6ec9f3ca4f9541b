"""Two-qubit state tomography by linear inversion over 16 product projectors.

The measurement set is the canonical 16-configuration product-state grid
over the single-qubit states

    H = |0>,  V = |1>,  D = (|0>+|1>)/sqrt(2),
    R = (|0>+i|1>)/sqrt(2),  L = (|0>-i|1>)/sqrt(2).

Each setting applies a local pre-rotation mapping its product state onto
|00> and reads both qubits in the computational basis; the frequency of the
"00" outcome estimates the projector expectation. Solving the resulting
16x16 real linear system in the Pauli-pair basis recovers the density
matrix. Finite-count estimates can come out non-PSD; they are kept raw and
a simplex projection of the eigenvalue vector supplies the closest physical
state for anything that needs one (observables, fidelity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import circuits as circ
from .circuits import Circuit, Gate, NoiseModel, OutcomeCounts, rx, x
from .observables import ObservableValue, observable_set
from .qmath import DensityMatrix, StateVector, tensor

_SQ2 = 1.0 / math.sqrt(2.0)
_BASIS_KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([_SQ2, _SQ2], dtype=complex),
    "R": np.array([_SQ2, 1j * _SQ2], dtype=complex),
    "L": np.array([_SQ2, -1j * _SQ2], dtype=complex),
}

# Pre-rotation mapping each single-qubit state onto |0> (up to phase).
_PRE_ROTATION = {
    "H": (),
    "V": ("x",),
    "D": ("h",),
    "R": ("rx+",),
    "L": ("rx-",),
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


def _gates_for(token: str, qubit: int) -> tuple[Gate, ...]:
    if token == "x":
        return (x(qubit),)
    if token == "h":
        return (circ.h(qubit),)
    if token == "rx+":
        return (rx(qubit, math.pi / 2),)
    if token == "rx-":
        return (rx(qubit, -math.pi / 2),)
    raise ValueError(token)


class DegenerateReconstructionError(ValueError):
    """The outcome data fix no state: the linear estimate has zero trace."""


@dataclass(frozen=True)
class TomographySetting:
    """One measurement configuration: a product projector plus its pre-rotation."""

    label: str
    basis_a: str
    basis_b: str

    def projector(self) -> np.ndarray:
        ket = np.kron(_BASIS_KETS[self.basis_a], _BASIS_KETS[self.basis_b])
        return np.outer(ket, ket.conj())

    def pre_rotation(self, num_qubits: int = 2, qubit_a: int = 0, qubit_b: int = 1) -> Circuit:
        gates: list[Gate] = []
        for token in _PRE_ROTATION[self.basis_a]:
            gates.extend(_gates_for(token, qubit_a))
        for token in _PRE_ROTATION[self.basis_b]:
            gates.extend(_gates_for(token, qubit_b))
        return Circuit(num_qubits, tuple(gates), f"tomo-{self.label}")


@dataclass(frozen=True)
class TomographyEstimate:
    """Raw linear-inversion estimate plus its physical projection.

    ``raw`` is Hermitian and trace-one but may have negative eigenvalues at
    finite shot counts; ``min_eigenvalue`` records how negative it got.
    """

    raw: np.ndarray
    projected: DensityMatrix
    method: str
    min_eigenvalue: float


def tomography_settings() -> list[TomographySetting]:
    """The canonical 16-setting product grid (informationally complete)."""
    return [TomographySetting(a + b, a, b) for a, b in _SETTING_PAIRS]


@lru_cache(maxsize=1)
def _pauli_pairs() -> tuple[np.ndarray, ...]:
    """The 16 two-qubit Pauli-pair operators, first factor major."""
    pairs = tuple(tensor(pa, pb) for pa in _PAULIS for pb in _PAULIS)
    for p in pairs:
        p.flags.writeable = False
    return pairs


@lru_cache(maxsize=1)
def _design_matrix() -> np.ndarray:
    """B[i, j] = Tr(M_i P_j) / 4 over the 16 Pauli-pair operators P_j."""
    settings = tomography_settings()
    b = np.empty((16, 16))
    for i, s in enumerate(settings):
        m = s.projector()
        for j, p in enumerate(_pauli_pairs()):
            b[i, j] = np.trace(m @ p).real / 4.0
    return b


def design_matrix_rank() -> int:
    return int(np.linalg.matrix_rank(_design_matrix()))


@lru_cache(maxsize=16)
def _pre_rotation_layers(
    settings: tuple[TomographySetting, ...], num_qubits: int
) -> tuple[circ.Layer, circ.Layer]:
    """The settings' pre-rotations as one batch: the gates on qubit 0, then
    those on qubit 1 (each basis needs at most one gate)."""
    layers = []
    for qubit in (0, 1):
        layer = []
        for s in settings:
            gates = [g for g in s.pre_rotation(num_qubits).gates if g.targets == (qubit,)]
            layer.append(gates[0] if gates else None)
        layers.append(tuple(layer))
    return tuple(layers)


def _setting_probabilities(
    state: StateVector | DensityMatrix, settings: Sequence[TomographySetting], noise: NoiseModel
) -> np.ndarray:
    """(settings, 2^n) outcome probabilities over every qubit of the state,
    with each setting's pre-rotation on qubits 0 and 1."""
    layers = _pre_rotation_layers(tuple(settings), state.num_qubits)
    return circ.born_probabilities(circ.run_batch(state, layers, noise))


def collect(
    state: StateVector | DensityMatrix,
    settings: Sequence[TomographySetting],
    shots: int,
    master_seed: int,
    noise: NoiseModel = NoiseModel.none(),
    seed_path: tuple[int, ...] = (),
) -> list[OutcomeCounts]:
    """Sample every setting, one derived RNG stream per setting.

    Every qubit of the state is read out (keys list qubit 0 first); the
    pre-rotations act on qubits 0 and 1. On a density matrix they run
    through the noisy evolution so tomography is not artificially cleaner
    than the rest of the experiment; a pure state stays pure. The readout
    flip applies at sampling.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1 per setting")
    probs = _setting_probabilities(state, settings, noise)
    rngs = [circ.rng_stream(master_seed, *seed_path, idx) for idx in range(len(settings))]
    flip = noise.readout_flip if noise.enabled else 0.0
    return circ.sample_batch(probs, shots, rngs, flip)


def collect_exact(
    state: StateVector | DensityMatrix, settings: Sequence[TomographySetting]
) -> list[dict[str, float]]:
    """Exact outcome probabilities per setting (infinite-shot limit)."""
    probs = _setting_probabilities(state, settings, NoiseModel.none())
    return [circ.probability_map(p) for p in probs]


def linear_reconstruct(
    data: Sequence[OutcomeCounts | Mapping[str, float]],
    settings: Sequence[TomographySetting] | None = None,
) -> TomographyEstimate:
    """Invert the linear system tying "00" frequencies to projector expectations.

    The raw solution is Hermitized and trace-normalized; its smallest
    eigenvalue is reported and the simplex projection provides the physical
    counterpart.
    """
    settings = tomography_settings() if settings is None else list(settings)
    if len(data) != len(settings) or len(settings) != 16:
        raise ValueError("need outcome data for all 16 settings")
    freqs = np.empty(16)
    for i, d in enumerate(data):
        f = d.frequencies() if isinstance(d, OutcomeCounts) else d
        freqs[i] = f.get("00", 0.0)
    b = _design_matrix()
    coeffs = np.linalg.solve(b, freqs)
    raw = sum(c * p for c, p in zip(coeffs, _pauli_pairs())) / 4.0
    raw = (raw + raw.conj().T) / 2
    trace = float(np.trace(raw).real)
    if abs(trace) < 1e-9:
        # happens only for pathological inputs, e.g. frequencies from a
        # post-selected branch that retained a handful of shots
        raise DegenerateReconstructionError("degenerate reconstruction: estimated trace is zero")
    raw /= trace
    min_eig = float(np.linalg.eigvalsh(raw)[0])
    return TomographyEstimate(
        raw=raw,
        projected=project_psd(raw),
        method="linear" if min_eig > -1e-12 else "linear+projection",
        min_eigenvalue=min_eig,
    )


def simplex_project(values: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    v = np.asarray(values, dtype=float)
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    rho = int(np.max(np.nonzero(u - cssv / idx > 0)[0])) + 1
    tau = cssv[rho - 1] / rho
    return np.clip(v - tau, 0.0, None)


def project_psd(raw: np.ndarray) -> DensityMatrix:
    """Closest physical state: project the eigenvalue vector onto the simplex.

    Keeps the eigenvectors, replaces the (trace-one, possibly negative)
    eigenvalues by their Euclidean projection onto the probability simplex,
    so the output trace returns to exactly 1.
    """
    raw = np.asarray(raw, dtype=complex)
    herm = (raw + raw.conj().T) / 2
    vals, vecs = np.linalg.eigh(herm)
    projected_vals = simplex_project(vals)
    m = (vecs * projected_vals) @ vecs.conj().T
    m = (m + m.conj().T) / 2
    num_qubits = int(round(math.log2(raw.shape[0])))
    return DensityMatrix(num_qubits, m)


def observables_from_estimate(est: TomographyEstimate) -> dict[str, ObservableValue]:
    """All five complementarity observables, evaluated on the physical projection."""
    return observable_set(est.projected)


def tomograph(
    state: StateVector | DensityMatrix,
    shots: int | None,
    master_seed: int = 0,
    noise: NoiseModel = NoiseModel.none(),
    seed_path: tuple[int, ...] = (),
) -> TomographyEstimate:
    """Collect (sampled, or exact when ``shots`` is None) and reconstruct."""
    settings = tomography_settings()
    if shots is None:
        return linear_reconstruct(collect_exact(state, settings), settings)
    data = collect(state, settings, shots, master_seed, noise, seed_path)
    return linear_reconstruct(data, settings)
