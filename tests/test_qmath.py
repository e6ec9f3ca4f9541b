"""Linear-algebra core: tensor products, partial trace, spectra, fidelity."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_density_matrix, random_pure_state
from qndsim import qmath
from qndsim.experiments import PHI_PLUS, PrepParams, bell_coefficients
from qndsim.qmath import (
    DensityMatrix,
    StateVector,
    basis_state,
    fidelity,
    matrix_sqrt_psd,
    partial_trace,
    tensor,
)

SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def bell_phi_plus() -> StateVector:
    return StateVector(2, PHI_PLUS)


class TestTensor:
    def test_identity_case(self):
        np.testing.assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4), atol=1e-15)

    def test_spin_flip_antidiagonal(self):
        m = tensor(SIGMA_Y, SIGMA_Y)
        expected = np.zeros((4, 4), dtype=complex)
        # anti-diagonal entries, reading from top-right to bottom-left
        expected[0, 3], expected[1, 2], expected[2, 1], expected[3, 0] = -1, 1, 1, -1
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_element_indexing_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        t = tensor(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for l in range(3):
                        assert t[i * 3 + k, j * 3 + l] == pytest.approx(a[i, j] * b[k, l])

    def test_associative_and_bilinear(self):
        rng = np.random.default_rng(12)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        np.testing.assert_allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)), atol=1e-12)
        np.testing.assert_allclose(
            tensor(a + b, c), tensor(a, c) + tensor(b, c), atol=1e-12
        )
        np.testing.assert_allclose(tensor(2.5 * a, c), 2.5 * tensor(a, c), atol=1e-12)

    def test_needs_a_factor(self):
        with pytest.raises(ValueError, match=r"^tensor\(\) needs at least one factor$"):
            tensor()


class TestPartialTrace:
    def test_bell_state_marginals_are_maximally_mixed(self):
        rho = bell_phi_plus().density().matrix
        for keep in ((0,), (1,)):
            np.testing.assert_allclose(partial_trace(rho, keep), np.eye(2) / 2, atol=1e-12)

    def test_product_state(self):
        rho = basis_state(2, 0).density().matrix  # |00>
        np.testing.assert_allclose(partial_trace(rho, (1,)), [[1, 0], [0, 0]], atol=1e-12)

    def test_prepared_state_marginal(self):
        # phi = pi/2, theta = lambda = 0 gives |+> on A times |0> on B
        chi = bell_coefficients(PrepParams(math.pi / 2)).state_vector()
        rho_a = partial_trace(chi.density().matrix, (0,))
        np.testing.assert_allclose(rho_a, np.full((2, 2), 0.5), atol=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        rho = random_density_matrix(rng, 2)
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expected[i, j] += rho.matrix[i * 2 + k, j * 2 + k]
        np.testing.assert_allclose(partial_trace(rho.matrix, (0,)), expected, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            rho = random_density_matrix(rng, 3)
            reduced = partial_trace(rho.matrix, (0, 2))
            assert np.trace(reduced).real == pytest.approx(1.0, abs=1e-10)

    def test_stack_is_traced_slice_by_slice(self):
        rng = np.random.default_rng(15)
        stack = np.stack([random_density_matrix(rng, 3).matrix for _ in range(6)]).reshape(
            2, 3, 8, 8)
        for keep in ((0,), (1,), (2,), (0, 2), (1, 2)):
            reduced = partial_trace(stack, keep)
            assert reduced.shape == (2, 3) + (2 ** len(keep),) * 2
            for index in np.ndindex(2, 3):
                assert np.array_equal(reduced[index], partial_trace(stack[index], keep))

    def test_rejects_empty_and_full_keep(self):
        rho = bell_phi_plus().density().matrix
        with pytest.raises(ValueError, match="nonempty proper subset"):
            partial_trace(rho, ())
        with pytest.raises(ValueError, match="nonempty proper subset"):
            partial_trace(rho, (0, 1))

    @pytest.mark.parametrize("keep", [(3,), (-1,), (0, 5)])
    def test_rejects_out_of_range_keep(self, keep):
        message = {(3,): "keep must be at most 2, got 3", (-1,): "keep must be >= 0, got -1",
                   (0, 5): "keep must be at most 2, got 5"}[keep]
        with pytest.raises(ValueError, match=message):
            partial_trace(basis_state(3).density().matrix, keep)

    @pytest.mark.parametrize("shape", [(4,), (4, 2), (2, 4, 2), (3, 3), (6, 6), (1, 1), (0, 0)])
    def test_rejects_non_square_or_non_power_of_two(self, shape):
        with pytest.raises(ValueError, match="2\\^n"):
            partial_trace(np.zeros(shape, dtype=complex), (0,))


class TestHermitianEigenvalues:
    """Spectra of Hermitian matrices the package builds."""

    def test_bell_spin_flip_form(self):
        # sqrt(rho) Sigma rho* Sigma sqrt(rho) for the maximally entangled
        # state has spectrum (1, 0, 0, 0); cross-checked against a general
        # eigensolver on the non-Hermitian product itself.
        rho = bell_phi_plus().density().matrix
        sigma = tensor(SIGMA_Y, SIGMA_Y)
        s = matrix_sqrt_psd(rho)
        herm = s @ sigma @ rho.conj() @ sigma @ s
        vals = np.clip(np.linalg.eigvalsh(herm)[::-1], 0.0, None)
        np.testing.assert_allclose(vals, [1, 0, 0, 0], atol=1e-10)
        general = np.sort(np.linalg.eigvals(rho @ sigma @ rho.conj() @ sigma).real)[::-1]
        np.testing.assert_allclose(vals, general, atol=1e-10)


class TestIsHermitian:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from([(4, 4), (1, 4, 4), (9, 2, 2), (3, 16, 16)]),
           atol=st.sampled_from([0.0, 1e-10, 1e-8]),
           step=st.sampled_from([0.5, 0.999, 1.0, 1.001, 2.0]))
    def test_finite_input_follows_allclose(self, seed, shape, atol, step):
        # a perturbation near np.allclose's threshold atol + 1e-5 |m_dag|,
        # on one entry of one slice, on either side of it
        rng = np.random.default_rng(seed)
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        m = g + np.swapaxes(g.conj(), -1, -2)
        index = tuple(int(rng.integers(n)) for n in shape)
        m_dag = np.swapaxes(m.conj(), -1, -2)
        m[index] += step * (atol + 1e-5 * abs(m_dag[index])) * np.exp(1j * rng.uniform(0, 6.3))
        want = np.allclose(m, np.swapaxes(m.conj(), -1, -2), atol=atol)
        assert qmath.is_hermitian(m, atol) == want


class TestMatrixSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            matrix_sqrt_psd(np.diag([4.0, 1.0, 0.0, 0.0])), np.diag([2.0, 1.0, 0, 0]), atol=1e-10
        )

    def test_werner_spectrum(self):
        # 0.5 * bell + 0.5 * I/4 has eigenvalues (0.625, 0.125, 0.125, 0.125)
        rho = 0.5 * bell_phi_plus().density().matrix + 0.5 * np.eye(4) / 4
        root = matrix_sqrt_psd(rho)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(root)[::-1],
            np.sqrt([0.625, 0.125, 0.125, 0.125]),
            atol=1e-10,
        )

    def test_square_recovers_input(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            m = random_density_matrix(rng, 2).matrix
            root = matrix_sqrt_psd(m)
            np.testing.assert_allclose(root @ root, m, atol=1e-8)

    def test_rejects_genuinely_negative(self):
        with pytest.raises(ValueError):
            matrix_sqrt_psd(np.diag([1.0, -0.01]))


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            rho = random_density_matrix(rng, 2).matrix
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-8)

    def test_orthogonal_pure_states(self):
        zero, one = basis_state(1, 0).density().matrix, basis_state(1, 1).density().matrix
        assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-10)

    def test_bell_vs_werner(self):
        # (1-p) bell + p I/4 at p = 0.2: pure-state fidelity (1-p) + p/4 = 0.85
        bell = bell_phi_plus().density().matrix
        mixed = 0.8 * bell + 0.2 * np.eye(4) / 4
        assert fidelity(bell, mixed) == pytest.approx(0.85, abs=1e-8)

    def test_pure_state_reduces_to_expectation(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            psi = random_pure_state(rng, 2)
            sigma = random_density_matrix(rng, 2).matrix
            expected = np.vdot(psi.amplitudes, sigma @ psi.amplitudes).real
            assert fidelity(psi.density().matrix, sigma) == pytest.approx(expected, abs=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(19)
        a, b = random_density_matrix(rng, 2).matrix, random_density_matrix(rng, 2).matrix
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(basis_state(1, 0).density().matrix, basis_state(2, 0).density().matrix)

    @pytest.mark.parametrize("shapes", [
        ((4, 4), (2, 2)),
        ((3, 4, 4), (2, 4, 4)),
        ((4, 4), (1, 4, 4)),  # would broadcast, but a stack pairs its slices one to one
        ((2, 1, 4, 4), (2, 4, 4)),
    ])
    def test_stacks_of_mismatched_shape_rejected_before_any_work(self, shapes, monkeypatch):
        def no_work(*args):
            raise AssertionError("the shapes are checked first")

        monkeypatch.setattr(qmath, "matrix_sqrt_psd", no_work)
        a, b = (np.broadcast_to(np.eye(shape[-1]) / shape[-1], shape) for shape in shapes)
        with pytest.raises(ValueError, match="shape mismatch"):
            fidelity(a, b)


class TestStateTypes:
    def test_state_vector_requires_normalization(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_state_vector_rejects_nan(self):
        # NaN compares false with any tolerance, so it must fail the check
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("shape", [(2,), (8,), (4, 1), (2, 2)])
    def test_state_vector_checks_its_shape(self, shape):
        amps = np.zeros(shape, dtype=complex)
        amps.flat[0] = 1.0
        message = f"^expected 4 amplitudes, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            StateVector(2, amps)

    @pytest.mark.parametrize("shape", [(2, 2), (8, 8), (4,), (4, 2), (1, 4, 4)])
    def test_density_matrix_checks_its_shape(self, shape):
        m = np.zeros(shape, dtype=complex)
        m.flat[0] = 1.0
        message = f"^expected 4x4 matrix, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            DensityMatrix(2, m)

    def test_density_matrix_requires_unit_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.eye(2))

    def test_density_matrix_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.diag([1.5, -0.5]))

    def test_values_are_frozen(self):
        psi = basis_state(2)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0
        # a basis index outside 0..3 is refused: -1 would wrap to |11>
        for index in (-1, 4):
            with pytest.raises(ValueError, match="basis index"):
                basis_state(2, index)
