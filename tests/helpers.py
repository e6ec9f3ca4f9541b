"""Shared helpers for the test suite: seeded random-object generators, and
the exact oracles the acceptance criteria compare the package against (the
exact QND estimator on a given pair state, the pair state after one
measurement pass, the measurement circuit read without the half angle,
the general count marginalization, and the triality defect)."""

from dataclasses import replace

import numpy as np

from qndsim import circuits as circ
from qndsim import tomography as tom
from qndsim.circuits import Circuit, NoiseModel, _count_bits, cnot, cry, h, rx, ry, x
from qndsim.experiments import MeasurementSetting, estimate_observable, measurement_circuit
from qndsim.observables import concurrence_pure, predictability, visibility
from qndsim.qmath import DensityMatrix, StateVector, basis_state, partial_trace


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


def rng_stream(master_seed: int, *path: int) -> np.random.Generator:
    """numpy's own generator for a point in the seed tree: the stream
    ``circuits.sample_batch`` must reproduce for that row's seed path."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(path)))


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


def append_ancillas(state: StateVector, count: int) -> StateVector:
    """Adjoin ``count`` fresh |0> qubits after the existing register."""
    amps = np.kron(state.amplitudes, basis_state(count).amplitudes)
    return StateVector(state.num_qubits + count, amps)


def append_ancillas_rho(rho: DensityMatrix, count: int) -> DensityMatrix:
    """Adjoin ``count`` fresh |0><0| qubits after the existing register."""
    anc = np.zeros((2**count, 2**count), dtype=complex)
    anc[0, 0] = 1.0
    return DensityMatrix(rho.num_qubits + count, np.kron(rho.matrix, anc))


def measurement_circuit_without_half_angle(s: MeasurementSetting) -> Circuit:
    """``measurement_circuit(s)`` with each setting rotation read as
    exp(-i sigma.vec), without the half angle: its ``rx``/``ry`` gates at
    twice the angle. Circuit 1 has no setting rotation and is unchanged.
    """
    mc = measurement_circuit(s)
    if s.observable == "concurrence1":
        return mc
    return Circuit(mc.num_qubits, tuple(
        replace(g, angle=2 * g.angle) if g.kind in ("rx", "ry") else g for g in mc.gates
    ))


def qnd_estimates_exact(
    s: MeasurementSetting, pair_state: StateVector | DensityMatrix, half_angle: bool = True
) -> dict[str, float]:
    """Infinite-shot estimator values for a given two-qubit input state.

    Adjoins fresh |0> ancillas, runs the measurement circuit exactly, and
    feeds the exact ancilla probabilities to the estimator. Accepts a mixed
    input so repeated (nondemolition) measurements can be chained.
    """
    n_anc = s.num_qubits - 2
    mc = measurement_circuit(s) if half_angle else measurement_circuit_without_half_angle(s)
    if isinstance(pair_state, StateVector):
        full = append_ancillas(pair_state, n_anc)
        out: StateVector | DensityMatrix = circ.run_pure(mc, full)
    else:
        full_rho = append_ancillas_rho(pair_state, n_anc)
        out = circ.run_noisy(mc, full_rho, circ.NoiseModel())
    probs = circ.exact_probabilities(out, s.ancilla_qubits)
    return estimate_observable(s, probs)


def post_measurement_pair_state(
    s: MeasurementSetting, pair_state: StateVector | DensityMatrix
) -> DensityMatrix:
    """Unconditional pair state after one exact measurement-circuit pass."""
    n_anc = s.num_qubits - 2
    mc = measurement_circuit(s)
    if isinstance(pair_state, StateVector):
        out = circ.run_pure(mc, append_ancillas(pair_state, n_anc)).density()
    else:
        out = circ.run_noisy(mc, append_ancillas_rho(pair_state, n_anc), circ.NoiseModel())
    return DensityMatrix(2, partial_trace(out.matrix, (0, 1)))


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


def triality_defect(psi: StateVector, subsystem: str) -> float:
    """C^2 + V_k^2 + P_k^2 - 1 for a pure two-qubit state (zero when exact).

    The squared combination is the identity that actually closes for
    real-amplitude pure states; the linear combination C + V + P does not
    (e.g. cos(phi/2)|00> + sin(phi/2)|11> gives C + P = sin + cos > 1).
    """
    if subsystem not in ("A", "B"):
        raise ValueError("subsystem must be 'A' or 'B'")
    keep = (0,) if subsystem == "A" else (1,)
    rho_k = partial_trace(psi.density().matrix, keep)
    c = concurrence_pure(psi)
    v = float(visibility(rho_k))
    p = float(predictability(rho_k))
    return c * c + v * v + p * p - 1.0
