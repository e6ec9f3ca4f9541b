"""Circuit execution, noise channel, sampling, and post-selection."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import marginalize_counts, random_circuit, random_pure_state, rng_stream
from qndsim.circuits import (
    Circuit,
    EmptyBranchError,
    NoiseModel,
    cnot,
    exact_probabilities,
    h,
    postselect,
    postselect_counts,
    run_noisy,
    run_pure,
    rx,
    ry,
    sample_counts,
    x,
)
from qndsim.experiments import PrepParams, prep_circuit
from qndsim.qmath import basis_state, partial_trace

SQ2 = 1 / math.sqrt(2)


def bell_circuit() -> Circuit:
    return Circuit(2, (h(0), cnot(0, 1)))


def count_array(num_bits: int, counts: dict[str, int]) -> np.ndarray:
    """A count array from bitstring-keyed counts (first bit most significant)."""
    out = np.zeros(2**num_bits, dtype=np.int64)
    for key, c in counts.items():
        out[int(key, 2)] = c
    return out


class TestRunPure:
    def test_empty_circuit(self):
        out = run_pure(Circuit(2, ()), basis_state(2))
        np.testing.assert_allclose(out.amplitudes, basis_state(2).amplitudes)

    def test_bell_circuit(self):
        out = run_pure(bell_circuit(), basis_state(2))
        np.testing.assert_allclose(out.amplitudes, [SQ2, 0, 0, SQ2], atol=1e-12)

    def test_preparation_circuit_point(self):
        # phi = pi/2, theta = lambda = 0: cos(pi/4)|00> + sin(pi/4)|10>
        out = run_pure(prep_circuit(PrepParams(math.pi / 2)), basis_state(2))
        np.testing.assert_allclose(
            out.amplitudes, [math.cos(math.pi / 4), 0, math.sin(math.pi / 4), 0], atol=1e-12
        )

    def test_norm_preserved_on_random_circuits(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            out = run_pure(random_circuit(rng, n), random_pure_state(rng, n))
            assert np.sum(np.abs(out.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run_pure(bell_circuit(), basis_state(3))

    def test_gate_targets_validated(self):
        with pytest.raises(ValueError):
            Circuit(2, (x(2),))
        with pytest.raises(ValueError):
            cnot(1, 1)


class TestRunNoisy:
    def test_disabled_noise_matches_pure_evolution(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            c = random_circuit(rng, n)
            psi = random_pure_state(rng, n)
            pure = run_pure(c, psi).density()
            noisy = run_noisy(c, psi.density(), NoiseModel())
            np.testing.assert_allclose(noisy.matrix, pure.matrix, atol=1e-10)

    def test_depolarized_x_gate(self):
        # one-step channel algebra: X on |0> then depolarize -> diag(p/2, 1-p/2)
        p = 0.3
        noise = NoiseModel(depol_1q=p, enabled=True)
        out = run_noisy(Circuit(1, (x(0),)), basis_state(1).density(), noise)
        np.testing.assert_allclose(out.matrix, np.diag([p / 2, 1 - p / 2]), atol=1e-12)

    def test_bell_circuit_two_qubit_depolarizing_gives_werner(self):
        p = 0.2
        noise = NoiseModel(depol_2q=p, enabled=True)
        out = run_noisy(bell_circuit(), basis_state(2).density(), noise)
        bell = run_pure(bell_circuit(), basis_state(2)).density().matrix
        np.testing.assert_allclose(out.matrix, (1 - p) * bell + p * np.eye(4) / 4, atol=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(23)
        noise = NoiseModel(depol_1q=0.02, depol_2q=0.08, enabled=True)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            out = run_noisy(random_circuit(rng, n), basis_state(n).density(), noise)
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(out.matrix, out.matrix.conj().T, atol=1e-8)

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(depol_1q=1.5)

    def test_enabled_is_a_constructor_argument_only(self):
        # an attribute would read True on every model, the noiseless one too
        assert not hasattr(NoiseModel(), "enabled")
        assert not hasattr(NoiseModel(0.1, 0.2, 0.3), "enabled")
        assert NoiseModel(0.1, 0.2, 0.3, enabled=False) == NoiseModel()
        with pytest.raises(ValueError, match="enabled"):
            NoiseModel(enabled=0)

    def test_replace_round_trip(self):
        model = NoiseModel(0.1, 0.2, 0.3)
        assert dataclasses.replace(model) == model
        assert hash(dataclasses.replace(model)) == hash(model)
        assert dataclasses.replace(model, depol_2q=0.0) == NoiseModel(0.1, 0.0, 0.3)
        with pytest.raises(ValueError, match="readout_flip"):
            dataclasses.replace(model, readout_flip=2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.depol_1q = 0.0


class TestSampling:
    def test_deterministic_ground_state(self):
        counts = sample_counts([basis_state(1)], (0,), 100, 0, [()])[0]
        assert counts.tolist() == [100, 0]

    def test_plus_state_frequency(self):
        plus = run_pure(Circuit(1, (h(0),)), basis_state(1))
        counts = sample_counts([plus], (0,), 5000, 5, [()])[0]
        # 3 sigma band for a fair coin at 5000 shots
        assert abs(counts[1] / 5000 - 0.5) < 3 * math.sqrt(0.25 / 5000)

    def test_bell_state_only_correlated_outcomes(self):
        bell = run_pure(bell_circuit(), basis_state(2))
        counts = sample_counts([bell], (0, 1), 2000, 7, [()])[0]
        assert np.flatnonzero(counts).tolist() == [0b00, 0b11]

    def test_same_seed_same_counts(self):
        psi = random_pure_state(np.random.default_rng(24), 2)
        a = sample_counts([psi], (0, 1), 1000, 99, [()], readout_flip=0.02)[0]
        b = sample_counts([psi], (0, 1), 1000, 99, [()], readout_flip=0.02)[0]
        assert np.array_equal(a, b)

    def test_large_sample_matches_exact_probabilities(self):
        rng = np.random.default_rng(25)
        psi = random_pure_state(rng, 2)
        shots = 10**6
        counts = sample_counts([psi], (0, 1), shots, 1, [()])[0]
        exact = exact_probabilities(psi, (0, 1))
        for i, p in enumerate(exact):
            sigma = math.sqrt(p * (1 - p) / shots)
            assert abs(counts[i] / shots - p) < 5 * max(sigma, 1e-6)

    def test_readout_flip_changes_distribution(self):
        counts = sample_counts([basis_state(1)], (0,), 10000, 3, [()], readout_flip=0.1)[0]
        assert abs(counts[1] / 10000 - 0.1) < 0.02

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sample_counts([basis_state(1)], (), 10, 0, [()])
        with pytest.raises(ValueError):
            sample_counts([basis_state(1)], (0,), 0, 0, [()])


class TestExactProbabilities:
    def test_bell_state(self):
        probs = exact_probabilities(run_pure(bell_circuit(), basis_state(2)), (0, 1))
        assert probs == pytest.approx([0.5, 0.0, 0.0, 0.5])

    def test_prepared_state_at_bell_point(self):
        chi = run_pure(prep_circuit(PrepParams(math.pi / 2, math.pi)), basis_state(2))
        assert exact_probabilities(chi, (0, 1)) == pytest.approx([0.5, 0.0, 0.0, 0.5])

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            psi = random_pure_state(rng, 3)
            for qubits in ((0,), (2, 0), (0, 1, 2)):
                assert exact_probabilities(psi, qubits).sum() == pytest.approx(
                    1.0, abs=1e-10
                )

    def test_readout_flip_is_the_distribution_sampling_draws(self):
        assert exact_probabilities(basis_state(1), (0,), 0.1) == pytest.approx([0.9, 0.1])
        psi = random_pure_state(np.random.default_rng(28), 3)
        p = exact_probabilities(psi, (2, 0), 0.07)
        want = np.random.default_rng(5).multinomial(1000, p / p.sum())
        got = sample_counts([psi], (2, 0), 1000, 5, [()], readout_flip=0.07)[0]
        assert np.array_equal(got, want)

    def test_density_matrix_input_agrees_with_pure(self):
        rng = np.random.default_rng(27)
        psi = random_pure_state(rng, 3)
        a = exact_probabilities(psi, (1, 0))
        b = exact_probabilities(psi.density(), (1, 0))
        assert a == pytest.approx(b, abs=1e-10)


class TestPostselect:
    def test_bell_branch(self):
        bell = run_pure(bell_circuit(), basis_state(2))
        state, prob = postselect(bell, (1,), "1")
        assert prob == pytest.approx(0.5)
        np.testing.assert_allclose(state.amplitudes, [0, 1], atol=1e-12)

    def test_empty_branch_raises(self):
        with pytest.raises(EmptyBranchError):
            postselect(basis_state(2), (1,), "1")

    def test_recombined_branches_match_partial_trace(self):
        # summing prob * |cond><cond| over a complete ancilla readout must
        # reproduce the reduced state of the remaining qubits exactly
        rng = np.random.default_rng(28)
        for _ in range(10):
            psi = random_pure_state(rng, 3)
            mix = np.zeros((2, 2), dtype=complex)
            for outcome in ("00", "01", "10", "11"):
                try:
                    state, prob = postselect(psi, (0, 2), outcome)
                except EmptyBranchError:
                    continue
                mix += prob * np.outer(state.amplitudes, state.amplitudes.conj())
            reduced = partial_trace(psi.density().matrix, (1,))
            np.testing.assert_allclose(mix, reduced, atol=1e-10)


class TestCountFiltering:
    def test_postselect_counts_example(self):
        counts = count_array(4, {"0011": 40, "1100": 60})
        kept = postselect_counts(counts, (2, 3), "11")
        assert kept.tolist() == count_array(2, {"00": 40}).tolist() and kept.sum() == 40

    def test_retained_fraction_estimates_branch_probability(self):
        counts = count_array(2, {"00": 250, "01": 250, "10": 500})
        kept = postselect_counts(counts, (1,), "0")
        assert kept.sum() / counts.sum() == pytest.approx(0.75)

    def test_no_match_keeps_an_empty_row(self):
        # an empty branch is the caller's to judge: the harness leaves it out
        counts = np.stack([count_array(2, {"00": 10}), count_array(2, {"10": 3, "11": 4})])
        kept = postselect_counts(counts, (0,), "1")
        assert kept.tolist() == [[0, 0], [3, 4]]
        assert postselect_counts(counts[0], (0, 1), "10").tolist() == [0]

    def test_marginalize_counts(self):
        counts = count_array(3, {"001": 5, "011": 7, "100": 1})
        marg = marginalize_counts(counts, (0, 1))
        assert marg.tolist() == count_array(2, {"00": 5, "01": 7, "10": 1}).tolist()
        assert marg.sum() == 13

    def test_outcome_counts_validation(self):
        with pytest.raises(ValueError):
            marginalize_counts(np.array([3, 0, 0]), (0,))  # not 2^m outcomes
        with pytest.raises(ValueError):
            postselect_counts(np.array([3, -1]), (0,), "0")
        with pytest.raises(ValueError):
            postselect_counts(np.array([3.0, 1.0]), (0,), "0")
        with pytest.raises(ValueError):
            marginalize_counts(count_array(2, {"00": 3}), (2,))  # no such bit
        with pytest.raises(ValueError):
            postselect_counts(count_array(2, {"00": 3}), (0,), "2")


class TestRngStreams:
    def test_deterministic(self):
        a = rng_stream(42, 1, 2).integers(10**9, size=4)
        b = rng_stream(42, 1, 2).integers(10**9, size=4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = rng_stream(42, 1, 2).integers(10**9, size=4)
        b = rng_stream(42, 1, 3).integers(10**9, size=4)
        assert not np.array_equal(a, b)


class TestConventions:
    def test_half_angle_ry(self):
        # RY(t)|0> = cos(t/2)|0> + sin(t/2)|1>
        out = run_pure(Circuit(1, (ry(0, 1.0),)), basis_state(1))
        np.testing.assert_allclose(
            out.amplitudes, [math.cos(0.5), math.sin(0.5)], atol=1e-12
        )
