"""Direct observable definitions and their pure-state closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    concurrence_of,
    random_density_matrix,
    random_pure_state,
    random_real_pure_state,
    random_unitary_2x2,
    triality_defect,
)
from qndsim import observables
from qndsim.experiments import PHI_PLUS, PrepParams, bell_coefficients
from qndsim.observables import (
    concurrence_pure,
    concurrence_wootters,
    observable_set,
    predictability,
    visibility,
)
from qndsim.qmath import DensityMatrix, StateVector, basis_state, partial_trace, tensor

PHIS = np.linspace(0, 2 * math.pi, 17)


def plus_rho() -> np.ndarray:
    return np.full((2, 2), 0.5)


def werner(p: float) -> DensityMatrix:
    bell = np.outer(PHI_PLUS, PHI_PLUS.conj())
    return DensityMatrix(2, p * bell + (1 - p) * np.eye(4) / 4)


class TestVisibility:
    def test_plus_state(self):
        assert visibility(plus_rho()) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert visibility(np.eye(2) / 2) == pytest.approx(0.0)

    def test_product_state_marginal(self):
        for phi in PHIS:
            chi = bell_coefficients(PrepParams(phi)).state_vector()
            rho_a = partial_trace(chi.density().matrix, (0,))
            assert visibility(rho_a) == pytest.approx(abs(math.sin(phi)), abs=1e-10)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            visibility(basis_state(2).density().matrix)


class TestPredictability:
    def test_basis_state(self):
        assert predictability(basis_state(1, 0).density().matrix) == pytest.approx(1.0)

    def test_plus_state(self):
        assert predictability(plus_rho()) == pytest.approx(0.0)

    def test_entangled_marginal(self):
        for phi in PHIS:
            chi = bell_coefficients(PrepParams(phi, math.pi)).state_vector()
            rho_a = partial_trace(chi.density().matrix, (0,))
            assert predictability(rho_a) == pytest.approx(abs(math.cos(phi)), abs=1e-10)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            predictability(basis_state(2).density().matrix)


@pytest.mark.parametrize("measure", [visibility, predictability])
@pytest.mark.parametrize("shape", [(2,), (2, 3), (3, 2), (5, 2, 4), (0,)])
def test_single_qubit_measures_reject_other_shapes(measure, shape):
    with pytest.raises(ValueError, match="\\(\\.\\.\\., 2, 2\\)"):
        measure(np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("measure", [visibility, predictability])
def test_single_qubit_measures_work_slice_by_slice(measure):
    rng = np.random.default_rng(30)
    stack = np.stack([random_density_matrix(rng, 1).matrix for _ in range(6)]).reshape(3, 2, 2, 2)
    values = measure(stack)
    assert values.shape == (3, 2)
    for index in np.ndindex(3, 2):
        assert values[index] == measure(stack[index])


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence_of(StateVector(2, PHI_PLUS).density()) == pytest.approx(1.0)
        assert concurrence_pure(StateVector(2, PHI_PLUS)) == pytest.approx(1.0)

    def test_product_states_are_zero(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            a = random_pure_state(rng, 1).amplitudes
            b = random_pure_state(rng, 1).amplitudes
            psi = StateVector(2, np.kron(a, b))
            assert concurrence_pure(psi) == pytest.approx(0.0, abs=1e-10)
            assert concurrence_of(psi.density()) == pytest.approx(0.0, abs=1e-8)

    def test_werner_closed_form(self):
        # brute-force spin-flip formula vs the (3p - 1)/2 closed form
        for p in (0.0, 0.25, 1 / 3, 0.5, 0.8, 1.0):
            expected = max(0.0, (3 * p - 1) / 2)
            assert concurrence_of(werner(p)) == pytest.approx(expected, abs=1e-8)

    def test_pure_closed_form_on_sweep(self):
        for phi in PHIS:
            chi = bell_coefficients(PrepParams(phi, math.pi)).state_vector()
            assert concurrence_pure(chi) == pytest.approx(abs(math.sin(phi)), abs=1e-10)

    def test_pure_equals_wootters(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            psi = random_pure_state(rng, 2)
            assert concurrence_pure(psi) == pytest.approx(
                concurrence_of(psi.density()), abs=1e-8
            )

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            rho = random_density_matrix(rng, 2)
            u = tensor(random_unitary_2x2(rng), random_unitary_2x2(rng))
            rotated = DensityMatrix(2, u @ rho.matrix @ u.conj().T)
            assert concurrence_of(rotated) == pytest.approx(
                concurrence_of(rho), abs=1e-8
            )

    def test_basis_state_is_zero(self):
        assert concurrence_pure(basis_state(2, 2)) == pytest.approx(0.0)

    @pytest.mark.parametrize("num_qubits", [1, 3])
    def test_wrong_dimension(self, num_qubits):
        state = basis_state(num_qubits)
        for call in (lambda: concurrence_pure(state),
                     lambda: concurrence_of(state.density())):
            with pytest.raises(ValueError, match="^concurrence is defined on a two-qubit state$"):
                call()

    # test_wrong_dimension covers stacks of one- and three-qubit states
    @pytest.mark.parametrize("shape", [(4, 4), (2, 4, 4, 4), (3, 4, 2), (3, 2, 4)])
    def test_refuses_anything_but_a_stack_of_pairs(self, shape, monkeypatch):
        def no_work(*args):
            raise AssertionError("the shape is checked first")

        monkeypatch.setattr(observables, "matrix_sqrt_psd", no_work)
        with pytest.raises(ValueError, match="^concurrence is defined on a two-qubit state$"):
            concurrence_wootters(np.zeros(shape, dtype=complex))

    # random mixed, pure, product and Werner states: full rank, rank one
    # with a zero concurrence, and mixtures either side of separability
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kinds=st.lists(
        st.sampled_from(["mixed", "pure", "product", "werner"]), min_size=1, max_size=24))
    def test_each_slice_of_a_stack_is_its_stack_of_one(self, seed, kinds):
        # bit for bit: the mixed-fraction fit reads a whole stack, where it
        # read one state at a time
        rng = np.random.default_rng(seed)
        makers = {
            "mixed": lambda: random_density_matrix(rng, 2),
            "pure": lambda: random_pure_state(rng, 2).density(),
            "product": lambda: StateVector(2, np.kron(random_pure_state(rng, 1).amplitudes,
                                                      random_pure_state(rng, 1).amplitudes)
                                           ).density(),
            "werner": lambda: werner(float(rng.uniform())),
        }
        stack = np.stack([makers[kind]().matrix for kind in kinds])
        values = concurrence_wootters(stack)
        assert values.shape == (len(kinds),)
        for i in range(len(kinds)):
            one = concurrence_wootters(stack[i:i + 1])
            assert values[i].tobytes() == one[0].tobytes()


class TestTriality:
    def test_bell_state(self):
        assert triality_defect(StateVector(2, PHI_PLUS), "A") == pytest.approx(0.0, abs=1e-10)

    def test_product_basis_state(self):
        assert triality_defect(basis_state(2, 0), "B") == pytest.approx(0.0, abs=1e-10)

    def test_random_real_states(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            psi = random_real_pure_state(rng, 2)
            for k in ("A", "B"):
                assert abs(triality_defect(psi, k)) < 1e-8

    def test_linear_combination_does_not_close(self):
        # the un-squared sum overshoots 1 away from the extremal points:
        # at phi = pi/4, theta = pi it equals sin(pi/4) + cos(pi/4) = sqrt(2)
        chi = bell_coefficients(PrepParams(math.pi / 4, math.pi)).state_vector()
        vals = observable_set(chi.density().matrix[None])
        linear = float(vals["C"][0] + vals["VA"][0] + vals["PA"][0])
        assert linear == pytest.approx(math.sqrt(2), abs=1e-8)
        assert abs(linear - 1.0) > 0.1


class TestObservableSet:
    def test_values_stay_in_range(self):
        rng = np.random.default_rng(35)
        rho = np.stack([random_density_matrix(rng, 2).matrix for _ in range(20)])
        for v in observable_set(rho).values():
            assert v.shape == (20,)
            assert ((-1e-8 <= v) & (v <= 1 + 1e-8)).all()

    def test_marginal_values_are_the_single_qubit_measures(self):
        rng = np.random.default_rng(36)
        rho = np.stack([random_density_matrix(rng, 2).matrix for _ in range(5)])
        vals = observable_set(rho)
        for key, measure, keep in (("VA", visibility, (0,)), ("VB", visibility, (1,)),
                                   ("PA", predictability, (0,)), ("PB", predictability, (1,))):
            assert np.array_equal(vals[key], measure(partial_trace(rho, keep)))
        for i, slice_ in enumerate(rho):
            assert vals["C"][i] == pytest.approx(concurrence_of(DensityMatrix(2, slice_)),
                                                 abs=1e-12)

    @pytest.mark.parametrize("shape", [(1, 2, 2), (2, 4, 4, 4), (3, 4, 2), (0, 8, 8)])
    def test_rejects_anything_but_a_stack_of_pairs(self, shape, monkeypatch):
        def no_work(*args):
            raise AssertionError("the shape is checked first")

        monkeypatch.setattr(observables, "partial_trace", no_work)
        monkeypatch.setattr(observables, "matrix_sqrt_psd", no_work)
        with pytest.raises(ValueError, match="\\(K, 4, 4\\)"):
            observable_set(np.zeros(shape, dtype=complex))
