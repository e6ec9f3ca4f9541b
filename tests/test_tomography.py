"""Tomography settings, linear inversion round trip, and PSD projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st
from scipy.optimize import minimize

from helpers import random_density_matrix, random_pure_state, tomograph
from qndsim import circuits as circ
from qndsim import tomography as tom
from qndsim.experiments import PHI_PLUS, PSI_MINUS, PrepParams, bell_coefficients
from qndsim.qmath import StateVector, basis_state, fidelity


def bell() -> StateVector:
    return StateVector(2, PHI_PLUS)


class TestSettings:
    def test_sixteen_unique_settings(self):
        settings = tom.tomography_settings()
        assert len(settings) == 16
        assert len({s.label for s in settings}) == 16

    def test_design_matrix_rank(self):
        assert tom.design_matrix_rank() == 16

    def test_pre_rotation_maps_projector_state_to_00(self):
        # each setting's rotation brings its measurement axis onto the
        # computational (z) axis
        for s in tom.tomography_settings():
            ket = np.kron(tom._BASIS_KETS[s.basis_a], tom._BASIS_KETS[s.basis_b])
            rotated = circ.run_pure(s.pre_rotation(), StateVector(2, ket))
            assert abs(rotated.amplitudes[0]) == pytest.approx(1.0, abs=1e-10)


class TestCollect:
    def test_exact_mode_gives_16_probability_maps(self):
        maps = tom.setting_probabilities(bell(), tom.tomography_settings())
        assert maps.shape == (16, 4)
        np.testing.assert_allclose(maps.sum(axis=1), 1.0, atol=1e-10)

    def test_bell_state_computational_setting(self):
        settings = tom.tomography_settings()
        hh = next(s for s in settings if s.label == "HH")
        probs = circ.exact_probabilities(
            circ.run_pure(hh.pre_rotation(), bell()), (0, 1)
        )
        assert np.flatnonzero(probs > 1e-15).tolist() == [0, 3]

    def test_deterministic_under_fixed_seed(self):
        settings = tom.tomography_settings()
        probs = tom.setting_probabilities(bell(), settings)
        a = tom.collect(probs, 500, master_seed=5)
        b = tom.collect(probs, 500, master_seed=5)
        assert a.shape == (16, 4) and np.array_equal(a, b)

    def test_rejects_probabilities_of_another_shape(self):
        # one state's (settings, 2^n) array or a (states, settings, 2^n) stack
        with pytest.raises(ValueError, match="got shape"):
            tom.collect(np.full(4, 0.25), 100, master_seed=0)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            tom.collect(tom.setting_probabilities(bell(), tom.tomography_settings()), 0,
                        master_seed=0)


class TestLinearReconstruct:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            rho = random_density_matrix(rng, 2)
            est = tomograph(rho, shots=None)
            np.testing.assert_allclose(est.raw, rho.matrix, atol=1e-8)

    def test_bell_exact_is_physical(self):
        est = tomograph(bell(), shots=None)
        np.testing.assert_allclose(est.raw, bell().density().matrix, atol=1e-10)
        assert est.min_eigenvalue >= -1e-10

    def test_finite_shots_can_go_negative(self):
        # the non-PSD artifact of plain linear inversion: flagged, not fatal
        est = tomograph(bell(), shots=5000, master_seed=0)
        assert est.min_eigenvalue < 0
        assert est.method == "linear+projection"
        assert np.trace(est.projected.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_raw_is_hermitian_trace_one(self):
        est = tomograph(bell(), shots=300, master_seed=3)
        np.testing.assert_allclose(est.raw, est.raw.conj().T, atol=1e-12)
        assert np.trace(est.raw).real == pytest.approx(1.0, abs=1e-10)

    @hypothesis_settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), pure=st.booleans())
    def test_exact_data_return_the_state(self, seed, pure):
        rng = np.random.default_rng(seed)
        state = random_pure_state(rng, 2) if pure else random_density_matrix(rng, 2)
        est = tom.linear_reconstruct(tom.setting_probabilities(state, tom.tomography_settings()))
        rho = state.density() if pure else state
        assert np.max(np.abs(est.raw - rho.matrix)) <= 1e-12

    def test_incomplete_data_rejected(self):
        maps = tom.setting_probabilities(bell(), tom.tomography_settings())
        with pytest.raises(ValueError):
            tom.linear_reconstruct(maps[:10])

    def test_settings_argument_refused(self):
        # data rows follow the canonical grid; data collected over another
        # order cannot be passed in with its settings and be misread
        psi_minus = StateVector(2, PSI_MINUS)
        settings = tom.tomography_settings()[::-1]
        with pytest.raises(TypeError):
            tom.linear_reconstruct(tom.setting_probabilities(psi_minus, settings), settings)

    def test_zero_trace_is_degenerate(self):
        # no setting ever reads "00": every projector expectation vanishes
        with pytest.raises(tom.DegenerateReconstructionError):
            tom.linear_reconstruct(np.tile([0.0, 0.0, 0.0, 1.0], (16, 1)))
        assert issubclass(tom.DegenerateReconstructionError, ValueError)


class TestProjectPsd:
    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(52)
        rho = random_density_matrix(rng, 2)
        np.testing.assert_allclose(tom.project_psd(rho.matrix).matrix, rho.matrix, atol=1e-10)

    def test_eigenvalue_projection_example(self):
        np.testing.assert_allclose(
            tom.simplex_project(np.array([1.1, 0.2, -0.2, -0.1])),
            [0.95, 0.05, 0.0, 0.0],
            atol=1e-12,
        )

    def test_simplex_projection_against_qp_oracle(self):
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
        out = tom.project_psd(raw)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-14)

    def test_idempotent(self):
        raw = np.diag([1.1, 0.2, -0.2, -0.1]).astype(complex)
        once = tom.project_psd(raw)
        twice = tom.project_psd(once.matrix)
        np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-12)


class TestObservablesFromEstimate:
    def test_exact_concurrence_sweep(self):
        for phi in np.linspace(0, 2 * math.pi, 9):
            chi = bell_coefficients(PrepParams(phi, math.pi)).state_vector()
            est = tomograph(chi, shots=None)
            vals = tom.observables_from_estimate(est)
            assert vals["C"].value == pytest.approx(abs(math.sin(phi)), abs=1e-8)

    def test_ground_state_values(self):
        est = tomograph(basis_state(2), shots=None)
        vals = tom.observables_from_estimate(est)
        assert vals["PA"].value == pytest.approx(1.0, abs=1e-10)
        assert vals["PB"].value == pytest.approx(1.0, abs=1e-10)
        assert vals["VA"].value == pytest.approx(0.0, abs=1e-10)
        assert vals["C"].value == pytest.approx(0.0, abs=1e-8)

    def test_bell_concurrence_band_at_5000_shots(self):
        # Monte Carlo calibrated band: within 0.07 of unity on >= 95% of seeds
        hits = 0
        for seed in range(60):
            est = tomograph(bell(), shots=5000, master_seed=seed)
            c = tom.observables_from_estimate(est)["C"].value
            hits += (1.0 - c) <= 0.07
        assert hits / 60 >= 0.95


class TestFidelityVsShots:
    def test_mean_fidelity_non_decreasing(self):
        rho_bell = bell().density()
        means = []
        for shots in (250, 1000, 5000, 20000):
            fids = [
                fidelity(rho_bell, tomograph(bell(), shots=shots, master_seed=s).projected)
                for s in range(50)
            ]
            means.append(np.mean(fids))
        assert all(b >= a for a, b in zip(means, means[1:]))
