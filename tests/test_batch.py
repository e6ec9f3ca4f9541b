"""The batched tomography pass against a per-setting loop.

The reference below is the per-setting loop the batch replaced: one circuit
at a time, depolarizing through ``np.kron`` and a qubit reorder, one
multinomial per setting. Sampling is only reproducible if every
probability comes out bit for bit the same (a one-ULP change can swap the
counts of two equally likely outcomes), so everything here compares with
``np.array_equal`` or ``==``, never with a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    as_stack, path_array, random_circuit, random_density_matrix, random_pure_state, rng_stream,
)
from qndsim import circuits as circ
from qndsim import tomography as tom
from qndsim.circuits import Circuit, NoiseModel, cnot, h, x
from qndsim.qmath import DensityMatrix, StateVector, basis_state, partial_trace, tensor


def _reference_pure(circuit: Circuit, amps: np.ndarray) -> np.ndarray:
    amps = amps.copy()
    for gate in circuit.gates:
        amps = circ._full_unitary(gate, circuit.num_qubits) @ amps
    return amps


def _reference_noisy(circuit: Circuit, m: np.ndarray, noise: NoiseModel) -> np.ndarray:
    n = circuit.num_qubits
    m = m.copy()
    for gate in circuit.gates:
        u = circ._full_unitary(gate, n)
        m = u @ m @ u.conj().T
        p = noise.depol_2q if len(gate.targets) == 2 else noise.depol_1q
        if p > 0.0:
            keep = [q for q in range(n) if q not in gate.targets]
            if not keep:
                mixed = np.eye(2**n, dtype=complex) / 2**n
            else:
                s = len(gate.targets)
                marginal = partial_trace(m, keep)
                mixed = np.kron(np.eye(2**s, dtype=complex) / 2**s, marginal)
                order = list(gate.targets) + keep
                src = [order.index(q) for q in range(n)]
                t = mixed.reshape([2] * (2 * n))
                mixed = t.transpose(src + [k + n for k in src]).reshape(2**n, 2**n)
            m = (1.0 - p) * m + p * mixed
    m = (m + m.conj().T) / 2
    m /= np.trace(m).real
    return m


def _reference_counts(probs: np.ndarray, shots: int, rng, flip: float) -> np.ndarray:
    probs = np.clip(probs, 0.0, None)
    m = len(probs).bit_length() - 1
    if flip > 0.0:
        confusion = tensor(*[np.array([[1 - flip, flip], [flip, 1 - flip]])] * m).real
        probs = confusion @ probs
    probs /= probs.sum()
    return rng.multinomial(shots, probs)


def _clifford_state(rng: np.random.Generator, n: int) -> StateVector:
    """A state with many outcomes of exactly equal probability."""
    gates = []
    for _ in range(int(rng.integers(1, 8))):
        q = int(rng.integers(n))
        kind = rng.integers(3)
        if kind == 0:
            gates.append(h(q))
        elif kind == 1:
            gates.append(x(q))
        else:
            gates.append(cnot(q, (q + 1 + int(rng.integers(n - 1))) % n))
    return circ.run_pure(Circuit(n, tuple(gates)), basis_state(n))


def _state(kind: str, pure: bool, n: int, seed: int) -> StateVector | DensityMatrix:
    rng = np.random.default_rng(seed)
    if kind == "clifford":
        psi = _clifford_state(rng, n)
        return psi if pure else psi.density()
    return random_pure_state(rng, n) if pure else random_density_matrix(rng, n)


probability = st.floats(0.0, 0.2)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_qubits=st.sampled_from([2, 4]),
    kind=st.sampled_from(["random", "clifford"]),
    pure=st.booleans(),
    depol=probability,
    flip=probability,
)
def test_batched_settings_match_per_setting_loop(seed, num_qubits, kind, pure, depol, flip):
    state = _state(kind, pure, num_qubits, seed)
    if pure:  # a pure state admits no depolarizing noise
        noise = NoiseModel(readout_flip=flip, enabled=True)
    else:
        noise = NoiseModel(depol_1q=depol, depol_2q=0.1, readout_flip=flip, enabled=True)
    ts = tom.tomography_settings()
    stack = circ.run_batch(as_stack([state] * 16), tom._PRE_ROTATION_LAYERS, noise)
    probs = circ._marginal_probabilities(stack, range(num_qubits))
    counts = tom.collect(tom.setting_probabilities(as_stack([state]), noise), 300, seed,
                         path_array([(2, 5)]))[0]
    assert len(stack) == len(counts) == 16
    for k, setting in enumerate(ts):
        pre = Circuit(num_qubits, setting.pre_rotation().gates)
        if pure:
            expected = _reference_pure(pre, state.amplitudes)
            assert np.array_equal(stack[k], expected)
            assert np.array_equal(stack[k], circ.run_pure(pre, state).amplitudes)
            expected_probs = np.abs(expected) ** 2
        else:
            expected = _reference_noisy(pre, state.matrix, noise)
            assert np.array_equal(stack[k], expected)
            assert np.array_equal(stack[k], circ.run_noisy(pre, state, noise).matrix)
            assert abs(np.trace(stack[k]) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(stack[k])[0] > -1e-12
            expected_probs = np.diag(expected).real
        assert np.array_equal(probs[k], expected_probs)
        rng = rng_stream(seed, 2, 5, k)
        assert np.array_equal(counts[k], _reference_counts(expected_probs, 300, rng, flip))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_qubits=st.integers(1, 4),
    depol_1q=probability,
    depol_2q=probability,
)
def test_single_circuits_match_reference(seed, num_qubits, depol_1q, depol_2q):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, num_qubits)
    noise = NoiseModel(depol_1q=depol_1q, depol_2q=depol_2q, enabled=True)
    psi = random_pure_state(rng, num_qubits)
    assert np.array_equal(circ.run_pure(circuit, psi).amplitudes,
                          _reference_pure(circuit, psi.amplitudes))
    rho = random_density_matrix(rng, num_qubits)
    assert np.array_equal(circ.run_noisy(circuit, rho, noise).matrix,
                          _reference_noisy(circuit, rho.matrix, noise))


def test_exact_collection_reads_the_same_stack():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(rng, 2)
    ts = tom.tomography_settings()
    maps = tom.setting_probabilities(as_stack([rho]))[0]
    for setting, got in zip(ts, maps):
        reference = _reference_noisy(setting.pre_rotation(), rho.matrix, NoiseModel())
        assert np.array_equal(got, np.clip(np.diag(reference).real, 0.0, None))


@pytest.mark.parametrize("depol", [{"depol_1q": 0.1}, {"depol_2q": 0.1}])
def test_pure_input_rejects_depolarizing_noise(depol, monkeypatch):
    psi = random_pure_state(np.random.default_rng(4), 2)

    def no_work(*args):
        raise AssertionError("evolution started")

    monkeypatch.setattr(circ, "_evolve_pure", no_work)
    noise = NoiseModel(readout_flip=0.05, enabled=True, **depol)
    with pytest.raises(ValueError, match="density-matrix input"):
        circ.run_batch(as_stack([psi] * 16), tom._PRE_ROTATION_LAYERS, noise)
    with pytest.raises(ValueError, match="density-matrix input"):
        tom.setting_probabilities(as_stack([psi]), noise)
    monkeypatch.undo()
    # a readout flip alone, or switched-off noise, stays allowed
    tom.setting_probabilities(as_stack([psi]), NoiseModel(readout_flip=0.05, enabled=True))
    tom.setting_probabilities(as_stack([psi]), NoiseModel(enabled=False, **depol))


@pytest.mark.parametrize(
    "diagonal, message",
    [((0.75, 0.25, 0.25, 0.25), "trace must be 1"),
     ((-0.25, 0.75, 0.25, 0.25), "not PSD")],
)
def test_one_bad_slice_fails_the_stack(diagonal, message):
    stack = np.tile(np.eye(4, dtype=complex) / 4, (3, 1, 1))
    DensityMatrix.validate(stack)
    stack[1] = np.diag(diagonal)
    with pytest.raises(ValueError, match=message):
        DensityMatrix.validate(stack)
    with pytest.raises(ValueError, match=message):
        DensityMatrix(2, stack[1])


def test_non_hermitian_slice_fails_the_stack():
    stack = np.tile(np.eye(2, dtype=complex) / 2, (2, 1, 1))
    stack[0, 0, 1] = 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix.validate(stack)


@settings(max_examples=60, deadline=None)
@given(
    step=st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0]),
    entry=st.sampled_from([None, np.inf, -np.inf, np.nan, complex(np.inf, 1.0)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hermitian_check_is_allclose(step, entry, seed):
    # a perturbation near the threshold 1e-10 + 1e-5 |m_dag| of validate's
    # np.allclose rule, on either side of it: unscaled, the relative term
    # would hide the absolute tolerance. A non-finite entry is refused by
    # the same check, whatever np.allclose says of it (inf is close to inf)
    rng = np.random.default_rng(seed)
    m = random_density_matrix(rng, 2).matrix.copy()
    threshold = 1e-10 + 1e-5 * abs(np.conj(m[1, 0]))
    m[0, 1] += step * threshold * np.exp(1j * rng.uniform(0, 6.3))
    if entry is not None:
        m[2, 3] = entry
        m[3, 2] = np.conj(entry) if rng.integers(2) else entry
    hermitian = entry is None and np.allclose(m, m.conj().T, atol=1e-10)
    try:
        DensityMatrix.validate(m)
    except ValueError as exc:
        assert ("not Hermitian" in str(exc)) == (not hermitian)
    else:
        assert hermitian
