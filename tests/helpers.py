"""Shared random-object generators for the test suite (all seeded)."""

import numpy as np

from qndsim import tomography as tom
from qndsim.circuits import Circuit, NoiseModel, cnot, cry, h, rx, ry, x
from qndsim.qmath import DensityMatrix, StateVector


def random_pure_state(rng: np.random.Generator, num_qubits: int = 2) -> StateVector:
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def random_real_pure_state(rng: np.random.Generator, num_qubits: int = 2) -> StateVector:
    amps = rng.normal(size=2**num_qubits).astype(complex)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def random_density_matrix(rng: np.random.Generator, num_qubits: int = 2) -> DensityMatrix:
    d = 2**num_qubits
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(num_qubits, m / np.trace(m).real)


def random_circuit(rng: np.random.Generator, num_qubits: int, max_gates: int = 12) -> Circuit:
    gates = []
    for _ in range(int(rng.integers(1, max_gates + 1))):
        kind = rng.choice(["rx", "ry", "x", "h", "cnot", "cry"])
        q = int(rng.integers(num_qubits))
        if kind in ("cnot", "cry") and num_qubits >= 2:
            t = int(rng.integers(num_qubits - 1))
            t = t if t != q else num_qubits - 1
            gates.append(cnot(q, t) if kind == "cnot" else cry(q, t, float(rng.uniform(0, 2 * np.pi))))
        elif kind == "rx":
            gates.append(rx(q, float(rng.uniform(0, 2 * np.pi))))
        elif kind == "ry":
            gates.append(ry(q, float(rng.uniform(0, 2 * np.pi))))
        elif kind == "x":
            gates.append(x(q))
        else:
            gates.append(h(q))
    return Circuit(num_qubits, tuple(gates))


def random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def tomograph(
    state: StateVector | DensityMatrix,
    shots: int | None,
    master_seed: int = 0,
    noise: NoiseModel = NoiseModel(),
    seed_path: tuple[int, ...] = (),
) -> tom.TomographyEstimate:
    """Tomograph one state: every setting's outcome distribution, drawn
    (or read exactly when ``shots`` is None), then reconstructed."""
    probs = tom.setting_probabilities([state], noise)
    if shots is None:
        return tom.linear_reconstruct(probs[0])
    return tom.linear_reconstruct(tom.collect(probs, shots, master_seed, [seed_path])[0])
