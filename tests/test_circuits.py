"""Circuit execution, noise channel, sampling, and post-selection."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from helpers import (
    NO_PATH, _postselect_or_raise, _ZeroWeight, as_stack, marginalize_counts, pauli_twirl,
    random_circuit, random_density_matrix, random_pure_state, rng_stream, simulated_branches,
)
from qndsim.circuits import (
    Circuit,
    Gate,
    NoiseModel,
    _depolarize,
    _full_unitary,
    cnot,
    cry,
    exact_probabilities,
    h,
    postselect_counts,
    run_noisy,
    run_pure,
    rx,
    ry,
    sample_counts,
    x,
)
from qndsim.experiments import MeasurementSetting, PrepParams, prep_circuit
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
        for run in (lambda: run_pure(bell_circuit(), basis_state(3)),
                    lambda: run_noisy(bell_circuit(), basis_state(3).density(), NoiseModel())):
            with pytest.raises(ValueError, match="^dimension mismatch between circuit and state$"):
                run()

    def test_gate_targets_validated(self):
        with pytest.raises(ValueError):
            Circuit(2, (x(2),))
        with pytest.raises(ValueError):
            cnot(1, 1)


class TestGates:
    @pytest.mark.parametrize("kind, targets, angle, message", [
        ("foo", (0,), None, "unknown gate kind"),
        ("rx", (0,), None, "rx angle must be a real number, got {angle!r}"),
        ("rx", (0,), math.nan, "rx angle must be finite, got {angle!r}"),
        ("ry", (0,), math.inf, "ry angle must be finite, got {angle!r}"),
        ("cry", (0, 1), -math.inf, "cry angle must be finite, got {angle!r}"),
        ("ry", (0,), np.float64("nan"), "ry angle must be finite, got {angle!r}"),
        ("rx", (0,), True, "rx angle must be a real number, got {angle!r}"),
        ("rx", (0,), 1 + 0j, "rx angle must be a real number, got {angle!r}"),
        ("ry", (0,), "0.3", "ry angle must be a real number, got {angle!r}"),
        ("cry", (0, 1), 10**400, "cry angle must be finite, got {angle!r}"),
        ("x", (0,), 0.3, "takes no angle"),
        ("h", (0,), 0.0, "takes no angle"),
        ("cnot", (0, 1), 1.0, "takes no angle"),
        ("cnot", (1, 1), None, "2 distinct"),
        ("cry", (0,), 0.5, "2 distinct"),
        ("rx", (0, 1), 0.5, "1 distinct"),
        ("h", (), None, "1 distinct"),
    ])
    def test_invalid_gate_rejected_at_construction(self, kind, targets, angle, message):
        # an angle's message quotes its repr, which numpy 2 changed for its scalars
        with pytest.raises(ValueError, match=re.escape(message.format(angle=angle))):
            Gate(kind, targets, angle)

    @pytest.mark.parametrize("gate", [cnot(0, 1), cry(1, 0, 0.5)])
    def test_a_controlled_gate_has_no_single_qubit_matrix(self, gate):
        with pytest.raises(ValueError, match=f"^{gate.kind} has no single-qubit matrix$"):
            gate.local_matrix()

    def test_any_finite_real_angle_accepted(self):
        # and stored as the built-in float of the same value
        for angle in (0, 3, -2.5, np.float32(0.25), np.float64(1e300), np.int64(7)):
            stored = rx(0, angle).angle
            assert stored == angle and type(stored) is float

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["rx", "ry", "x", "h", "cnot", "cry"]),
           num_qubits=st.integers(1, 4),
           angle=st.floats(allow_nan=False, allow_infinity=False))
    def test_every_gate_is_unitary(self, kind, num_qubits, angle):
        # construction admits only finite angles, so the engine never
        # re-checks unitarity: every target of the register is checked here
        arity = 2 if kind in ("cnot", "cry") else 1
        for targets in itertools.permutations(range(num_qubits), arity):
            gate = Gate(kind, targets, angle if kind in ("rx", "ry", "cry") else None)
            u = _full_unitary(gate, num_qubits)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2**num_qubits), rtol=0, atol=1e-12)

    def test_unitary_cache_is_bounded(self):
        # more distinct angles than the cache holds: the fixed gates each
        # circuit shares stay recent, so they are still hits at the end
        assert _full_unitary.cache_info().maxsize == 256
        fixed = (h(0), cnot(0, 1), x(2))
        misses = _full_unitary.cache_info().misses
        for k in range(300):
            run_pure(Circuit(3, fixed + (ry(1, 1e-3 * (k + 1)),)), basis_state(3))
        info = _full_unitary.cache_info()
        assert info.misses - misses >= 300
        assert info.currsize <= 256
        run_pure(Circuit(3, fixed), basis_state(3))
        after = _full_unitary.cache_info()
        assert (after.hits - info.hits, after.misses - info.misses) == (3, 0)


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


def _supports(num_qubits: int) -> list[tuple[int, ...]]:
    """Every support of a one- or two-qubit gate, in either order."""
    qubits = range(num_qubits)
    return [(q,) for q in qubits] + list(itertools.permutations(qubits, 2))


class TestDepolarize:
    """The channel on its own, where the engine's final renormalization
    cannot hide a wrong weight: it preserves the trace, keeps a PSD input
    PSD, and is the Pauli twirl (``helpers.pauli_twirl``), on supports in
    any order, non-adjacent ones included."""

    @staticmethod
    def check(rng, num_qubits: int, support: tuple[int, ...], p: float) -> None:
        d = 2**num_qubits
        rho = np.stack([random_density_matrix(rng, num_qubits).matrix for _ in range(3)]
                       + [basis_state(num_qubits, int(rng.integers(d))).density().matrix])
        got = _depolarize(rho.copy(), num_qubits, support, p)
        trace_in = np.trace(rho, axis1=-2, axis2=-1)
        assert np.abs(np.trace(got, axis1=-2, axis2=-1) - trace_in).max() <= 1e-12
        herm = (got + np.swapaxes(got.conj(), -1, -2)) / 2
        assert np.linalg.eigvalsh(herm)[:, 0].min() >= -1e-12
        assert np.abs(got - pauli_twirl(rho, num_qubits, support, p)).max() <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(register=st.integers(1, 4).flatmap(
               lambda n: st.tuples(st.just(n), st.sampled_from(_supports(n)))),
           p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_is_the_pauli_twirl(self, register, p, seed):
        num_qubits, support = register
        event("support in ascending order" if list(support) == sorted(support)
              else "support out of order")
        self.check(np.random.default_rng(seed), num_qubits, support, p)

    @pytest.mark.parametrize("num_qubits, support", [
        (4, (3, 1)), (3, (2, 0)), (4, (0, 3)), (2, (1, 0)), (1, (0,)), (4, (2,))])
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 1.0])
    def test_listed_supports(self, num_qubits, support, p):
        self.check(np.random.default_rng(10 * num_qubits + len(support)), num_qubits,
                   support, p)


class TestSampling:
    def test_deterministic_ground_state(self):
        counts = sample_counts(as_stack([basis_state(1)]), (0,), 100, 0, NO_PATH)[0]
        assert counts.tolist() == [100, 0]

    def test_plus_state_frequency(self):
        plus = run_pure(Circuit(1, (h(0),)), basis_state(1))
        counts = sample_counts(as_stack([plus]), (0,), 5000, 5, NO_PATH)[0]
        # 3 sigma band for a fair coin at 5000 shots
        assert abs(counts[1] / 5000 - 0.5) < 3 * math.sqrt(0.25 / 5000)

    def test_bell_state_only_correlated_outcomes(self):
        bell = run_pure(bell_circuit(), basis_state(2))
        counts = sample_counts(as_stack([bell]), (0, 1), 2000, 7, NO_PATH)[0]
        assert np.flatnonzero(counts).tolist() == [0b00, 0b11]

    def test_same_seed_same_counts(self):
        psi = random_pure_state(np.random.default_rng(24), 2)
        a = sample_counts(as_stack([psi]), (0, 1), 1000, 99, NO_PATH, readout_flip=0.02)[0]
        b = sample_counts(as_stack([psi]), (0, 1), 1000, 99, NO_PATH, readout_flip=0.02)[0]
        assert np.array_equal(a, b)

    def test_large_sample_matches_exact_probabilities(self):
        rng = np.random.default_rng(25)
        psi = random_pure_state(rng, 2)
        shots = 10**6
        counts = sample_counts(as_stack([psi]), (0, 1), shots, 1, NO_PATH)[0]
        exact = exact_probabilities(as_stack([psi]), (0, 1))[0]
        for i, p in enumerate(exact):
            sigma = math.sqrt(p * (1 - p) / shots)
            assert abs(counts[i] / shots - p) < 5 * max(sigma, 1e-6)

    def test_readout_flip_changes_distribution(self):
        counts = sample_counts(as_stack([basis_state(1)]), (0,), 10000, 3, NO_PATH,
                               readout_flip=0.1)[0]
        assert abs(counts[1] / 10000 - 0.1) < 0.02

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sample_counts(as_stack([basis_state(1)]), (), 10, 0, NO_PATH)
        with pytest.raises(ValueError):
            sample_counts(as_stack([basis_state(1)]), (0,), 0, 0, NO_PATH)


class TestExactProbabilities:
    def test_bell_state(self):
        bell = run_pure(bell_circuit(), basis_state(2))
        probs = exact_probabilities(as_stack([bell]), (0, 1))[0]
        assert probs == pytest.approx([0.5, 0.0, 0.0, 0.5])

    def test_prepared_state_at_bell_point(self):
        chi = run_pure(prep_circuit(PrepParams(math.pi / 2, math.pi)), basis_state(2))
        probs = exact_probabilities(as_stack([chi]), (0, 1))[0]
        assert probs == pytest.approx([0.5, 0.0, 0.0, 0.5])

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            psi = random_pure_state(rng, 3)
            for qubits in ((0,), (2, 0), (0, 1, 2)):
                assert exact_probabilities(as_stack([psi]), qubits)[0].sum() == pytest.approx(
                    1.0, abs=1e-10
                )

    def test_readout_flip_is_the_distribution_sampling_draws(self):
        one = exact_probabilities(as_stack([basis_state(1)]), (0,), 0.1)
        assert one.shape == (1, 2)
        assert one[0] == pytest.approx([0.9, 0.1])
        psi = random_pure_state(np.random.default_rng(28), 3)
        p = exact_probabilities(as_stack([psi]), (2, 0), 0.07)[0]
        want = np.random.default_rng(5).multinomial(1000, p / p.sum())
        got = sample_counts(as_stack([psi]), (2, 0), 1000, 5, NO_PATH, readout_flip=0.07)[0]
        assert np.array_equal(got, want)

    def test_density_matrix_input_agrees_with_pure(self):
        rng = np.random.default_rng(27)
        psi = random_pure_state(rng, 3)
        a = exact_probabilities(as_stack([psi]), (1, 0))[0]
        b = exact_probabilities(as_stack([psi.density()]), (1, 0))[0]
        assert a == pytest.approx(b, abs=1e-10)


class TestPostselect:
    """The post-selection of one pure state, the test oracle
    (``helpers._postselect_or_raise``) that pins which ancilla outcome is
    which branch of the ideal branch data."""

    def test_bell_branch(self):
        bell = run_pure(bell_circuit(), basis_state(2))
        state, prob = _postselect_or_raise(bell, (1,), "1")
        assert prob == pytest.approx(0.5)
        np.testing.assert_allclose(state.amplitudes, [0, 1], atol=1e-12)

    def test_empty_branch_is_none(self):
        # the oracle refuses an empty branch, and the branches read from it
        # give it as no state of probability 0.0: circuit 1 at the Bell point
        with pytest.raises(_ZeroWeight):
            _postselect_or_raise(basis_state(2), (1,), "1")
        branches = simulated_branches(MeasurementSetting("concurrence1"),
                                      PrepParams(math.pi / 2, math.pi))
        assert [(state, prob) for _, state, prob in branches].count((None, 0.0)) == 1

    def test_recombined_branches_match_partial_trace(self):
        # summing prob * |cond><cond| over a complete ancilla readout must
        # reproduce the reduced state of the remaining qubits exactly
        rng = np.random.default_rng(28)
        for _ in range(10):
            psi = random_pure_state(rng, 3)
            mix = np.zeros((2, 2), dtype=complex)
            for outcome in ("00", "01", "10", "11"):
                try:
                    state, prob = _postselect_or_raise(psi, (0, 2), outcome)
                except _ZeroWeight:
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
