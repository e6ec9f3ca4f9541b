"""Preparation circuit, the two measurement circuits, estimators, and the
closed-form conditional outputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    append_ancillas, measurement_circuit_without_half_angle, post_measurement_pair_state,
    qnd_estimates_exact,
)
from qndsim import circuits as circ
from qndsim import experiments as ex
from qndsim.circuits import EmptyBranchError
from qndsim.observables import observable_set
from qndsim.qmath import DensityMatrix, StateVector, basis_state, partial_trace

GRID = np.linspace(0, 2 * math.pi, 9)
SQ2 = 1 / math.sqrt(2)


def chi_state(phi, theta=0.0, lam=0.0):
    return ex.bell_coefficients(ex.PrepParams(phi, theta, lam)).state_vector()


class TestBellCoefficients:
    def test_zero_angles_give_ground_state(self):
        c = ex.bell_coefficients(ex.PrepParams(0.0))
        assert (c.alpha, c.beta) == (0.0, 0.0)
        assert c.gamma == pytest.approx(-SQ2)
        assert c.eta == pytest.approx(SQ2)
        np.testing.assert_allclose(c.state_vector().amplitudes, [1, 0, 0, 0], atol=1e-12)

    def test_bell_point(self):
        c = ex.bell_coefficients(ex.PrepParams(math.pi / 2, math.pi))
        assert (c.alpha, c.beta, c.gamma) == pytest.approx((0, 0, 0), abs=1e-12)
        assert c.eta == pytest.approx(1.0)

    def test_excited_product_point(self):
        c = ex.bell_coefficients(ex.PrepParams(math.pi, math.pi))
        assert c.gamma == pytest.approx(SQ2)
        assert c.eta == pytest.approx(SQ2)
        np.testing.assert_allclose(c.state_vector().amplitudes, [0, 0, 0, 1], atol=1e-12)

    def test_normalization_everywhere(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            phi, theta, lam = rng.uniform(0, 2 * math.pi, size=3)
            c = ex.bell_coefficients(ex.PrepParams(phi, theta, lam))
            assert c.alpha**2 + c.beta**2 + c.gamma**2 + c.eta**2 == pytest.approx(
                1.0, abs=1e-10
            )

    def test_angle_range_validated(self):
        with pytest.raises(ValueError):
            ex.PrepParams(7.0)


class TestPrepCircuit:
    def test_matches_coefficients_grid_wide(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            phi, theta, lam = rng.uniform(0, 2 * math.pi, size=3)
            p = ex.PrepParams(phi, theta, lam)
            from_circuit = circ.run_pure(ex.prep_circuit(p), basis_state(2))
            from_coeffs = ex.bell_coefficients(p).state_vector()
            overlap = abs(np.vdot(from_circuit.amplitudes, from_coeffs.amplitudes))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_identity_point(self):
        out = circ.run_pure(ex.prep_circuit(ex.PrepParams(0.0)), basis_state(2))
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-12)


class TestCircuitOne:
    def run_probs(self, pair_amps):
        psi = append_ancillas(StateVector(2, pair_amps), 1)
        out = circ.run_pure(ex.qnd1_circuit(), psi)
        return circ.exact_probabilities(out, (2,))

    def test_bell_input_is_deterministic(self):
        probs = self.run_probs(ex.PHI_PLUS)
        assert abs(probs[1] - probs[0]) == pytest.approx(1.0, abs=1e-10)

    def test_ground_state_is_balanced(self):
        probs = self.run_probs(np.array([1, 0, 0, 0], dtype=complex))
        assert probs[0] == pytest.approx(0.5, abs=1e-10)
        assert probs[1] == pytest.approx(0.5, abs=1e-10)

    def test_separable_plus_state_estimates_zero(self):
        probs = self.run_probs(np.array([SQ2, 0, SQ2, 0], dtype=complex))
        est = ex.estimate_observable(ex.MeasurementSetting("concurrence1"), probs[None])["C1"][0]
        assert est == pytest.approx(0.0, abs=1e-10)


class TestCircuitTwoOutputs:
    @pytest.mark.parametrize("name", ["visibility", "predictability", "concurrence2"])
    def test_half_angle_reproduces_closed_form(self, name):
        s = ex.MeasurementSetting(name)
        worst = 0.0
        for phi in GRID:
            for theta in GRID:
                p = ex.PrepParams(phi, theta)
                full = ex.prep_circuit(p).widened(4).then(ex.measurement_circuit(s))
                out = circ.run_pure(full, basis_state(4))
                target = ex.qnd_output_state(s, ex.bell_coefficients(p))
                worst = max(worst, float(np.max(np.abs(out.amplitudes - target.amplitudes))))
        assert worst < 1e-10

    @pytest.mark.parametrize("name", ["visibility", "concurrence2"])
    def test_no_half_angle_convention_fails(self, name):
        # pins which rotation convention is algebraically correct: the
        # closed-form outputs are NOT reproduced without the half angle
        s = ex.MeasurementSetting(name)
        p = ex.PrepParams(1.1, 2.3)
        full = ex.prep_circuit(p).widened(4).then(measurement_circuit_without_half_angle(s))
        out = circ.run_pure(full, basis_state(4))
        target = ex.qnd_output_state(s, ex.bell_coefficients(p))
        assert float(np.max(np.abs(out.amplitudes - target.amplitudes))) > 0.1

    def test_visibility_zero_branches_at_half_pi(self):
        # at phi = pi/2, theta = 0 the 00 and 01 ancilla branches vanish
        c = ex.bell_coefficients(ex.PrepParams(math.pi / 2, 0.0))
        assert c.eta - c.beta == pytest.approx(0.0, abs=1e-12)
        assert c.alpha + c.gamma == pytest.approx(0.0, abs=1e-12)
        for outcome in ("00", "01"):
            with pytest.raises(EmptyBranchError):
                ex.conditional_target_state(ex.MeasurementSetting("visibility"), c, outcome)

    def test_predictability_on_ground_state(self):
        p = ex.PrepParams(0.0)
        full = ex.prep_circuit(p).widened(4).then(
            ex.measurement_circuit(ex.MeasurementSetting("predictability"))
        )
        out = circ.run_pure(full, basis_state(4))
        probs = circ.exact_probabilities(out, (2, 3))
        assert probs[0] == pytest.approx(1.0, abs=1e-10)

    def test_concurrence_on_bell_state_single_branch(self):
        p = ex.PrepParams(math.pi / 2, math.pi)
        full = ex.prep_circuit(p).widened(4).then(
            ex.measurement_circuit(ex.MeasurementSetting("concurrence2"))
        )
        out = circ.run_pure(full, basis_state(4))
        probs = circ.exact_probabilities(out, (2, 3))
        assert probs[1] == pytest.approx(1.0, abs=1e-10)

    def test_rejects_wrong_setting(self):
        with pytest.raises(ValueError):
            ex.qnd2_circuit(ex.MeasurementSetting("concurrence1"))


class TestEstimators:
    def test_c1_on_bell_state(self):
        chi = chi_state(math.pi / 2, math.pi)
        est = qnd_estimates_exact(ex.MeasurementSetting("concurrence1"), chi)["C1"]
        assert est == pytest.approx(1.0, abs=1e-10)

    def test_visibility_sweep(self):
        for phi in GRID:
            chi = chi_state(phi)
            est = qnd_estimates_exact(ex.MeasurementSetting("visibility"), chi)
            assert est["VA"] == pytest.approx(abs(math.sin(phi)), abs=1e-10)
            assert est["VB"] == pytest.approx(0.0, abs=1e-10)

    def test_predictability_sweep(self):
        for phi in GRID:
            chi = chi_state(phi, math.pi)
            est = qnd_estimates_exact(ex.MeasurementSetting("predictability"), chi)
            assert est["PA"] == pytest.approx(abs(math.cos(phi)), abs=1e-10)
            assert est["PB"] == pytest.approx(abs(math.cos(phi)), abs=1e-10)

    def test_estimators_match_direct_definitions(self):
        for phi in GRID:
            for theta in GRID:
                chi = chi_state(phi, theta)
                direct = observable_set(chi.density().matrix[None])
                for name in ex.OBSERVABLES:
                    est = qnd_estimates_exact(ex.setting_for(name), chi)[name]
                    key = "C" if name in ("C1", "C2") else name
                    assert est == pytest.approx(direct[key][0], abs=1e-8)

    def test_zero_shots_rejected(self):
        counts = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError):
            ex.estimate_observable(ex.MeasurementSetting("concurrence1"), counts[None])

    @pytest.mark.parametrize("data", [[10.0, 20.0, 30.0, 40.0], [0.25, 0.25, 0.25, 0.2]])
    def test_probabilities_must_sum_to_one(self, data):
        # float data are read as probabilities, so counts stored as floats
        # would otherwise be used as frequencies
        with pytest.raises(ValueError, match="sum to 1"):
            ex.estimate_observable(ex.MeasurementSetting("visibility"), np.array(data)[None])

    @pytest.mark.parametrize("name, data", [
        ("concurrence1", [10, 20, 30, 40]),
        ("visibility", [10, 20]),
        ("predictability", [0.5, 0.5]),
        ("concurrence2", [[10, 20, 30, 40]]),
    ])
    def test_data_of_the_wrong_width_rejected(self, name, data):
        # one entry per ancilla outcome, or the estimate reads missing outcomes
        # as zero; the estimator takes a stack, here a stack of one
        with pytest.raises(ValueError, match="shape"):
            ex.estimate_observable(ex.MeasurementSetting(name), np.array(data)[None])

    @settings(deadline=None)
    @given(st.sampled_from(["visibility", "predictability", "concurrence1", "concurrence2"]),
           st.data())
    def test_count_arrays_read_like_bitstring_frequencies(self, name, data):
        s = ex.MeasurementSetting(name)
        m = len(s.ancilla_qubits)
        counts = np.array(data.draw(st.lists(st.integers(0, 10**6), min_size=2**m, max_size=2**m)
                                    .filter(any)))
        stack = ex.estimate_observable(s, counts[None])
        assert all(v.shape == (1,) and v.dtype == float for v in stack.values())
        got = {name: v.tolist()[0] for name, v in stack.items()}
        want = _estimate_from_bitstring_map(s, counts)
        assert got == want


def _estimate_from_bitstring_map(s, counts):
    """The estimator as it read count arrays through outcome maps keyed by
    bitstring, outcomes of frequency at most 1e-15 left out."""
    probs = counts / counts.sum()
    m = len(probs).bit_length() - 1
    f = {format(i, f"0{m}b"): float(p) for i, p in enumerate(probs) if p > 1e-15}
    if s.observable == "concurrence1":
        signed = f.get("1", 0.0) - f.get("0", 0.0)
        return {"C1": abs(signed)}
    p00, p01, p10, p11 = (f.get(k, 0.0) for k in ("00", "01", "10", "11"))
    if s.observable == "concurrence2":
        signed = p01 - p00
        return {"C2": abs(signed)}
    sa = p00 + p01 - p10 - p11
    sb = p00 + p10 - p01 - p11
    a, b = ("VA", "VB") if s.observable == "visibility" else ("PA", "PB")
    return {a: abs(sa), b: abs(sb)}


class TestConditionalTargets:
    def test_visibility_plus_plus_branch(self):
        c = ex.bell_coefficients(ex.PrepParams(1.0, 0.5))
        state, prob = ex.conditional_target_state(ex.MeasurementSetting("visibility"), c, "11")
        assert prob == pytest.approx((c.eta + c.beta) ** 2 / 2, abs=1e-12)
        np.testing.assert_allclose(np.abs(state.amplitudes), [0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_predictability_branch(self):
        c = ex.bell_coefficients(ex.PrepParams(1.0, 0.5))
        s = ex.MeasurementSetting("predictability")
        state, prob = ex.conditional_target_state(s, c, "10")
        assert prob == pytest.approx((c.alpha + c.beta) ** 2 / 2, abs=1e-12)
        np.testing.assert_allclose(state.amplitudes, [0, 0, 1, 0], atol=1e-12)

    def test_concurrence_branch(self):
        c = ex.bell_coefficients(ex.PrepParams(1.0, 0.5))
        state, prob = ex.conditional_target_state(ex.MeasurementSetting("concurrence2"), c, "01")
        assert prob == pytest.approx(c.alpha**2 + c.eta**2, abs=1e-12)
        expected = (c.alpha * ex.PSI_MINUS + c.eta * ex.PHI_PLUS) / math.sqrt(prob)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_invalid_outcome(self):
        c = ex.bell_coefficients(ex.PrepParams(1.0))
        with pytest.raises(ValueError):
            ex.conditional_target_state(ex.MeasurementSetting("visibility"), c, "2")

    def test_branch_probabilities_sum_to_one(self):
        for phi in GRID:
            for theta in GRID:
                p = ex.PrepParams(phi, theta)
                for s in (
                    ex.MeasurementSetting("visibility"),
                    ex.MeasurementSetting("predictability"),
                    ex.MeasurementSetting("concurrence2"),
                    ex.MeasurementSetting("concurrence1"),
                ):
                    total = sum(b.probability for b in ex.branch_data(s, p))
                    assert total == pytest.approx(1.0, abs=1e-10)

    def test_simulated_branches_match_targets(self):
        # includes nonzero lambda: the closed forms hold for all three angles
        rng = np.random.default_rng(43)
        for _ in range(20):
            p = ex.PrepParams(*rng.uniform(0, 2 * math.pi, size=3))
            c = ex.bell_coefficients(p)
            for s in (
                ex.MeasurementSetting("visibility"),
                ex.MeasurementSetting("predictability"),
                ex.MeasurementSetting("concurrence2"),
            ):
                for outcome, state, prob in ex.simulated_branches(s, p):
                    if state is None:
                        continue
                    target, tprob = ex.conditional_target_state(s, c, outcome)
                    assert prob == pytest.approx(tprob, abs=1e-10)
                    overlap = abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2
                    assert overlap == pytest.approx(1.0, abs=1e-10)


class TestNondemolition:
    def test_repeated_measurement_gives_identical_estimate(self):
        for phi in GRID:
            for theta in GRID[::2]:
                chi = chi_state(phi, theta)
                for name in ex.OBSERVABLES:
                    s = ex.setting_for(name)
                    first = qnd_estimates_exact(s, chi)[name]
                    rho_post = post_measurement_pair_state(s, chi)
                    second = qnd_estimates_exact(s, rho_post)[name]
                    assert second == pytest.approx(first, abs=1e-8)


class TestStatePreparation:
    def test_reliable_branches_are_eigenstates(self):
        # every reliable branch carries the measured observable at unity
        for phi in GRID:
            for theta in GRID[::2]:
                p = ex.PrepParams(phi, theta)
                for name in ("VA", "PA", "C2", "C1"):
                    s = ex.setting_for(name)
                    for outcome, state, prob in ex.simulated_branches(s, p):
                        if state is None or prob < ex.RELIABLE_BRANCH_PROB:
                            continue
                        vals = observable_set(state.density().matrix[None])
                        key = "C" if name in ("C1", "C2") else name
                        assert vals[key][0] == pytest.approx(1.0, abs=1e-10)


class TestOutputMixture:
    def test_matches_traced_circuit_output(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            p = ex.PrepParams(*rng.uniform(0, 2 * math.pi, size=2))
            for name in ("VA", "PA", "C2", "C1"):
                s = ex.setting_for(name)
                full = ex.prep_circuit(p).widened(s.num_qubits).then(ex.measurement_circuit(s))
                out = circ.run_pure(full, basis_state(s.num_qubits))
                reduced = partial_trace(out.density().matrix, (0, 1))
                mixture = ex.output_mixture(ex.branch_data(s, p))
                np.testing.assert_allclose(mixture, reduced, atol=1e-10)

    @settings(deadline=None)
    @given(angles=st.tuples(*[st.floats(0.0, 2 * math.pi)] * 3))
    def test_is_a_density_matrix(self, angles):
        # the harness reads the array as a fidelity target without validating it
        p = ex.PrepParams(*angles)
        for name in ex.OBSERVABLES:
            DensityMatrix(2, ex.output_mixture(ex.branch_data(ex.setting_for(name), p)))


class TestOperatorIdentity:
    def test_trivial_point(self):
        assert ex.visibility_identity_deviation(ex.PrepParams(0.0)) < 1e-10

    def test_default_grid(self):
        # the command line's default: a 5x5 grid over (phi, theta)
        grid = np.linspace(0.0, 2 * math.pi, 5)
        assert ex.visibility_identity_check([ex.PrepParams(phi, theta) for phi in grid
                                             for theta in grid])

    def test_random_triple(self):
        assert ex.visibility_identity_check([ex.PrepParams(0.7, 4.0, 5.5)])

    def test_empty_parameter_list_rejected(self):
        # an empty check passes vacuously, so it must not report a pass
        with pytest.raises(ValueError, match="no parameters"):
            ex.visibility_identity_check([])

    @pytest.mark.parametrize("atol", [math.nan, -1.0, math.inf])
    def test_bad_tolerance_rejected(self, atol):
        # NaN fails every point and infinity passes every point
        with pytest.raises(ValueError, match="atol"):
            ex.visibility_identity_check([ex.PrepParams(0.0)], atol=atol)
