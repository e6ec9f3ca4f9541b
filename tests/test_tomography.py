"""Tomography settings, linear inversion round trip, and PSD projection."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st

from helpers import (
    NO_PATH, as_stack, min_eigenvalue, path_array, random_density_matrix, random_pure_state,
    raw_estimate, tomograph, tomography_data,
)
from qndsim import circuits as circ
from qndsim import tomography as tom
from qndsim.experiments import PHI_PLUS, PrepParams, bell_coefficients
from qndsim.observables import observable_set
from qndsim.qmath import DensityMatrix, StateVector, basis_state, fidelity


def bell() -> StateVector:
    return StateVector(2, PHI_PLUS)


class TestSettings:
    def test_sixteen_unique_settings(self):
        settings = tom.tomography_settings()
        assert len(settings) == 16
        assert len({s.basis_a + s.basis_b for s in settings}) == 16

    def test_design_matrix_rank(self):
        assert np.linalg.matrix_rank(tom._design_matrix()) == 16

    def test_pre_rotation_maps_projector_state_to_00(self):
        # each setting's rotation brings its measurement axis onto the
        # computational (z) axis
        for s in tom.tomography_settings():
            ket = np.kron(tom._BASIS_KETS[s.basis_a], tom._BASIS_KETS[s.basis_b])
            rotated = circ.run_pure(s.pre_rotation(), StateVector(2, ket))
            assert abs(rotated.amplitudes[0]) == pytest.approx(1.0, abs=1e-10)


class TestCollect:
    def test_exact_mode_gives_16_probability_maps(self):
        maps = tom.setting_probabilities(as_stack([bell()]))[0]
        assert maps.shape == (16, 4)
        np.testing.assert_allclose(maps.sum(axis=1), 1.0, atol=1e-10)

    def test_bell_state_computational_setting(self):
        settings = tom.tomography_settings()
        hh = next(s for s in settings if s.basis_a + s.basis_b == "HH")
        probs = circ.exact_probabilities(
            as_stack([circ.run_pure(hh.pre_rotation(), bell())]), (0, 1)
        )[0]
        assert np.flatnonzero(probs > 1e-15).tolist() == [0, 3]

    def test_deterministic_under_fixed_seed(self):
        probs = tom.setting_probabilities(as_stack([bell()]))
        a = tom.collect(probs, 500, 5, NO_PATH)[0]
        b = tom.collect(probs, 500, 5, NO_PATH)[0]
        assert a.shape == (16, 4) and np.array_equal(a, b)

    def test_rejects_probabilities_of_another_shape(self):
        # a (states, settings, 2^n) stack
        with pytest.raises(ValueError, match="got shape"):
            tom.collect(np.full(4, 0.25), 100, 0, NO_PATH)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            tom.collect(tom.setting_probabilities(as_stack([bell()])), 0, 0, NO_PATH)


class TestLinearReconstruct:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            rho = random_density_matrix(rng, 2)
            raw = raw_estimate(tomography_data(rho, shots=None))
            np.testing.assert_allclose(raw, rho.matrix, atol=1e-8)

    def test_bell_exact_is_physical(self):
        data = tomography_data(bell(), shots=None)
        np.testing.assert_allclose(raw_estimate(data), bell().density().matrix, atol=1e-10)
        assert min_eigenvalue(data) >= -1e-10
        assert tom.linear_reconstruct(data).method == "linear"

    def test_finite_shots_can_go_negative(self):
        # the non-PSD artifact of plain linear inversion: flagged, not fatal
        data = tomography_data(bell(), shots=5000, master_seed=0)
        est = tom.linear_reconstruct(data)
        assert min_eigenvalue(data) < 0
        assert est.method == "linear+projection"
        assert np.trace(est.projected.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_raw_is_hermitian_trace_one(self):
        raw = raw_estimate(tomography_data(bell(), shots=300, master_seed=3))
        np.testing.assert_allclose(raw, raw.conj().T, atol=1e-12)
        assert np.trace(raw).real == pytest.approx(1.0, abs=1e-10)

    @hypothesis_settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), pure=st.booleans())
    def test_exact_data_return_the_state(self, seed, pure):
        rng = np.random.default_rng(seed)
        state = random_pure_state(rng, 2) if pure else random_density_matrix(rng, 2)
        raw = raw_estimate(tom.setting_probabilities(as_stack([state]))[0])
        rho = state.density() if pure else state
        assert np.max(np.abs(raw - rho.matrix)) <= 1e-12

    @hypothesis_settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shots=st.integers(1, 400),
           sets=st.integers(1, 24), probabilities=st.booleans())
    def test_raw_estimates_are_exactly_hermitian(self, seed, shots, sets, probabilities):
        # each entry and its mirror add the same terms, the imaginary ones
        # negated, in one order: the raw sum needs no Hermitization
        rng = np.random.default_rng(seed)
        states = [random_density_matrix(rng, 2) for _ in range(sets)]
        data = tom.setting_probabilities(as_stack(states))
        if not probabilities:
            data = tom.collect(data, shots, seed, path_array([(i,) for i in range(sets)]))
        try:
            _, raw = tom._linear_estimates(data)
        except tom.DegenerateReconstructionError:
            return
        assert np.array_equal(raw, np.swapaxes(raw.conj(), -1, -2))

    def test_incomplete_data_rejected(self):
        maps = tom.setting_probabilities(as_stack([bell()]))[0]
        with pytest.raises(ValueError):
            tom.linear_reconstruct(maps[:10])

    def test_probabilities_must_sum_to_one(self):
        # rows of 0.5 would otherwise read as the maximally mixed state
        with pytest.raises(ValueError, match="sum to 1"):
            tom.linear_reconstruct(np.full((16, 4), 0.5))
        data = np.stack([tom.setting_probabilities(as_stack([bell()]))[0]] * 2)
        data[1, 5] *= 1.01
        with pytest.raises(ValueError, match="sum to 1"):
            tom.reconstruct_stack(data)

    def test_zero_trace_is_degenerate(self):
        # no setting ever reads "00": every projector expectation vanishes
        with pytest.raises(tom.DegenerateReconstructionError):
            tom.linear_reconstruct(np.tile([0.0, 0.0, 0.0, 1.0], (16, 1)))
        assert issubclass(tom.DegenerateReconstructionError, ValueError)


class TestProjectPsd:
    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(52)
        rho = random_density_matrix(rng, 2)
        projected, _ = tom.project_psd(rho.matrix[None])
        np.testing.assert_allclose(projected[0], rho.matrix, atol=1e-10)

    @pytest.mark.parametrize("shape", [(4, 4), (4,), (1, 2, 4, 4)])
    def test_needs_a_stack_of_matrices(self, shape):
        with pytest.raises(ValueError, match=r"^need a \(K, d, d\) stack, got shape "
                           + re.escape(str(shape)) + "$"):
            tom.project_psd(np.zeros(shape))

    def test_eigenvalue_projection_example(self):
        np.testing.assert_allclose(
            tom.simplex_project(np.array([1.1, 0.2, -0.2, -0.1])),
            [0.95, 0.05, 0.0, 0.0],
            atol=1e-12,
        )

    def test_simplex_projection_against_qp_oracle(self):
        # imported here: scipy.optimize alone costs most of a second to
        # import, which every collection of the module would pay
        from scipy.optimize import minimize

        rng = np.random.default_rng(53)
        for _ in range(10):
            v = rng.normal(size=4)
            v += (1 - v.sum()) / 4  # trace-one input, like a raw estimate
            ours = tom.simplex_project(v)

            res = minimize(
                lambda x: np.sum((x - v) ** 2),
                np.full(4, 0.25),
                bounds=[(0, None)] * 4,
                constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1}],
                method="SLSQP",
            )
            np.testing.assert_allclose(ours, res.x, atol=1e-6)

    def test_trace_is_exactly_one(self):
        raw = np.diag([1.1, 0.2, -0.2, -0.1]).astype(complex)
        out, _ = tom.project_psd(raw[None])
        assert np.trace(out[0]).real == pytest.approx(1.0, abs=1e-14)

    @hypothesis_settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 4, 16]),
           k=st.integers(1, 8), spread=st.sampled_from([0.0, 1e-12, 0.1, 1.0, 10.0]))
    def test_projection_is_a_state(self, seed, d, k, spread):
        # project_psd does not validate its result, so every Hermitian,
        # trace-one stack, far from PSD included, must come out a state
        # within the benchmark's 1e-9 bounds
        rng = np.random.default_rng(seed)
        vals = rng.normal(scale=spread, size=(k, d)) + 1.0 / d
        vals += (1.0 - vals.sum(axis=-1, keepdims=True)) / d
        g = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
        vecs = np.linalg.qr(g)[0]
        raw = (vecs * vals[:, None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
        raw = (raw + np.swapaxes(raw.conj(), -1, -2)) / 2
        projected, eigenvalues = tom.project_psd(raw)
        DensityMatrix.validate(projected)
        assert np.abs(np.trace(projected, axis1=-2, axis2=-1) - 1.0).max() <= 1e-9
        assert np.linalg.eigvalsh(projected)[:, 0].min() >= -1e-9
        np.testing.assert_allclose(eigenvalues, np.sort(vals, axis=-1), atol=1e-8 * max(1, spread))

    def test_idempotent(self):
        raw = np.diag([1.1, 0.2, -0.2, -0.1]).astype(complex)
        once, _ = tom.project_psd(raw[None])
        twice, _ = tom.project_psd(once)
        np.testing.assert_allclose(once, twice, atol=1e-12)


class TestObservablesFromEstimate:
    def test_exact_concurrence_sweep(self):
        for phi in np.linspace(0, 2 * math.pi, 9):
            chi = bell_coefficients(PrepParams(phi, math.pi)).state_vector()
            est = tomograph(chi, shots=None)
            vals = observable_set(est.projected.matrix[None])
            assert vals["C"][0] == pytest.approx(abs(math.sin(phi)), abs=1e-8)

    def test_ground_state_values(self):
        est = tomograph(basis_state(2), shots=None)
        vals = observable_set(est.projected.matrix[None])
        assert vals["PA"][0] == pytest.approx(1.0, abs=1e-10)
        assert vals["PB"][0] == pytest.approx(1.0, abs=1e-10)
        assert vals["VA"][0] == pytest.approx(0.0, abs=1e-10)
        assert vals["C"][0] == pytest.approx(0.0, abs=1e-8)

    def test_bell_concurrence_band_at_5000_shots(self):
        # Monte Carlo calibrated band: within 0.07 of unity on >= 95% of seeds
        hits = 0
        for seed in range(60):
            est = tomograph(bell(), shots=5000, master_seed=seed)
            c = observable_set(est.projected.matrix[None])["C"][0]
            hits += (1.0 - c) <= 0.07
        assert hits / 60 >= 0.95


class TestFidelityVsShots:
    def test_mean_fidelity_non_decreasing(self):
        rho_bell = bell().density().matrix
        means = []
        for shots in (250, 1000, 5000, 20000):
            estimates = np.stack([tomograph(bell(), shots=shots, master_seed=s).projected.matrix
                                  for s in range(50)])
            means.append(np.mean(fidelity(np.broadcast_to(rho_bell, estimates.shape), estimates)))
        assert all(b >= a for a, b in zip(means, means[1:]))


COV_FALSE_ALARM = 1e-7
"""Two-sided false-alarm rate of each bound of the covariance test."""


@pytest.mark.parametrize("noise", [circ.NoiseModel(),
                                   circ.NoiseModel(depol_1q=0.005, depol_2q=0.05,
                                                   readout_flip=0.01)],
                         ids=["noiseless", "criterion 9"])
def test_raw_coefficient_covariance_is_the_binomial_one(noise):
    # The raw Pauli-pair coefficients are solve(B, f) of the 16 "00"
    # frequencies f, which are independent binomials of N shots each, so
    # their covariance is B^-1 diag(p(1 - p)/N) B^-T (James et al., PRA 64,
    # 052312, 2001). Over M fixed-seed draws of one random mixed state, each
    # sample variance, scaled by M - 1 and the analytic variance, is
    # chi-square on M - 1 degrees of freedom, and each sample correlation's
    # Fisher z is normal about the analytic one's with variance 1/(M - 3)
    from scipy.stats import chi2, norm  # the test extra

    m_draws, shots = 2000, 2000
    rho = random_density_matrix(np.random.default_rng(11), 2)
    probs = tom.setting_probabilities(as_stack([rho]), noise)
    counts = tom.collect(np.broadcast_to(probs, (m_draws, 16, 4)), shots, 12,
                         np.arange(m_draws)[:, None])
    b = tom._design_matrix()
    coeffs = np.linalg.solve(b, (counts[..., 0] / shots).T)
    p = probs[0, :, 0]
    b_inv = np.linalg.inv(b)
    want = b_inv @ np.diag(p * (1 - p) / shots) @ b_inv.T
    got = np.cov(coeffs)
    ratio = np.diag(got) / np.diag(want)
    dof = m_draws - 1
    low, high = chi2.ppf(COV_FALSE_ALARM / 2, dof) / dof, chi2.isf(COV_FALSE_ALARM / 2, dof) / dof
    assert ((low < ratio) & (ratio < high)).all(), (ratio.min(), ratio.max(), low, high)
    pairs = np.triu_indices(16, 1)
    z_got, z_want = (np.arctanh((c / np.sqrt(np.outer(np.diag(c), np.diag(c))))[pairs])
                     for c in (got, want))
    bound = norm.isf(COV_FALSE_ALARM / 2) / math.sqrt(m_draws - 3)
    assert np.abs(z_got - z_want).max() < bound, np.abs(z_got - z_want).max() / bound
