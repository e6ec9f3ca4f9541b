"""Preparation circuit, the two measurement circuits, estimators, and the
closed-form conditional outputs."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    append_ancillas, as_stack, full_circuit, measurement_circuit_without_half_angle,
    post_measurement_pair_state, qnd_estimates_exact, qnd_output_state, simulated_branches,
)
from qndsim import circuits as circ
from qndsim import experiments as ex
from qndsim.analysis import BranchResult
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

    def test_unnormalized_coefficients_rejected(self):
        for coeffs in ((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), (0.5, 0.5, 0.5, 0.5 + 1e-6)):
            with pytest.raises(ValueError, match="^coefficients not normalized: "):
                ex.BellCoefficients(*coeffs)


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
        out = circ.run_pure(ex.measurement_circuit(ex.MeasurementSetting("concurrence1")), psi)
        return circ.exact_probabilities(as_stack([out]), (2,))[0]

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
                out = circ.run_pure(full_circuit(s, p), basis_state(4))
                target = qnd_output_state(s, ex.bell_coefficients(p))
                worst = max(worst, float(np.max(np.abs(out.amplitudes - target.amplitudes))))
        assert worst < 1e-10

    @pytest.mark.parametrize("name", ["visibility", "concurrence2"])
    def test_no_half_angle_convention_fails(self, name):
        # pins which rotation convention is algebraically correct: the
        # closed-form outputs are NOT reproduced without the half angle
        s = ex.MeasurementSetting(name)
        p = ex.PrepParams(1.1, 2.3)
        full = circ.Circuit(4, ex.prep_circuit(p).gates
                            + measurement_circuit_without_half_angle(s).gates)
        out = circ.run_pure(full, basis_state(4))
        target = qnd_output_state(s, ex.bell_coefficients(p))
        assert float(np.max(np.abs(out.amplitudes - target.amplitudes))) > 0.1

    def test_visibility_zero_branches_at_half_pi(self):
        # at phi = pi/2, theta = 0 the 00 and 01 ancilla branches vanish,
        # to rounding: empty, probability 0.0 and a zero ket
        p = ex.PrepParams(math.pi / 2, 0.0)
        c = ex.bell_coefficients(p)
        assert c.eta - c.beta == pytest.approx(0.0, abs=1e-12)
        assert c.alpha + c.gamma == pytest.approx(0.0, abs=1e-12)
        probability, kets = ex.branch_data(ex.MeasurementSetting("visibility"), (p,))
        assert probability[0].tolist()[:2] == [0.0, 0.0] and not kets[0, :2].any()
        assert probability[0, 2:].sum() == pytest.approx(1.0, abs=1e-12)

    def test_predictability_on_ground_state(self):
        p = ex.PrepParams(0.0)
        out = circ.run_pure(full_circuit(ex.MeasurementSetting("predictability"), p),
                            basis_state(4))
        probs = circ.exact_probabilities(as_stack([out]), (2, 3))[0]
        assert probs[0] == pytest.approx(1.0, abs=1e-10)

    def test_concurrence_on_bell_state_single_branch(self):
        p = ex.PrepParams(math.pi / 2, math.pi)
        out = circ.run_pure(full_circuit(ex.MeasurementSetting("concurrence2"), p),
                            basis_state(4))
        probs = circ.exact_probabilities(as_stack([out]), (2, 3))[0]
        assert probs[1] == pytest.approx(1.0, abs=1e-10)

    def test_rejects_wrong_setting(self):
        # a setting is a row of the gate table, and an observable a row of
        # the observable table; any other name is refused
        for name in ("concurrence", "C2", ""):
            with pytest.raises(ValueError, match=f"^unknown measurement setting {name!r}$"):
                ex.MeasurementSetting(name)
        for name in ("visibility", "C", "", "va", ["VA"]):
            with pytest.raises(ValueError, match=f"^unknown observable {re.escape(repr(name))}$"):
                ex.setting_for(name)


class TestGateTable:
    """Each row of the gate table is the one source of its setting's gates,
    and through them of its ancillas; the observables its readout gives are
    the rows of the observable table that name it."""

    ROWS = {"visibility": (("VA", "VB"), (2, 3)), "predictability": (("PA", "PB"), (2, 3)),
            "concurrence1": (("C1",), (2,)), "concurrence2": (("C2",), (2, 3))}

    @pytest.mark.parametrize("name", ROWS)
    def test_a_row_names_its_observables_and_ancillas(self, name):
        s = ex.MeasurementSetting(name)
        observables, ancillas = self.ROWS[name]
        assert s.observables == observables
        assert s.ancilla_qubits == ancillas and s.num_qubits == 2 + len(ancillas)
        assert [ex.setting_for(o) for o in observables] == [s] * len(observables)
        width = 2 ** len(ancillas)
        assert tuple(ex.estimate_observable(s, np.full((1, width), 1 / width))) == observables

    def test_every_observable_has_one_row_in_its_order(self):
        # the CLI's choices, the golden fixtures and the criteria report
        # all read this order
        assert ex.OBSERVABLES == ("VA", "VB", "PA", "PB", "C1", "C2")
        assert sorted(o for s in map(ex.MeasurementSetting, self.ROWS)
                      for o in s.observables) == sorted(ex.OBSERVABLES)


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
        with pytest.raises(ValueError, match=r"^need \(K, \d+\) outcomes"):
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
    if s.name == "concurrence1":
        signed = f.get("1", 0.0) - f.get("0", 0.0)
        return {"C1": abs(signed)}
    p00, p01, p10, p11 = (f.get(k, 0.0) for k in ("00", "01", "10", "11"))
    if s.name == "concurrence2":
        signed = p01 - p00
        return {"C2": abs(signed)}
    sa = p00 + p01 - p10 - p11
    sb = p00 + p10 - p01 - p11
    a, b = ("VA", "VB") if s.name == "visibility" else ("PA", "PB")
    return {a: abs(sa), b: abs(sb)}


def _branch(name: str, p: ex.PrepParams, outcome: str):
    """One point's ideal branch for an outcome: its probability and ket."""
    s = ex.MeasurementSetting(name)
    probability, kets = ex.branch_data(s, (p,))
    j = ex.branch_outcomes(s).index(outcome)
    return probability[0, j], kets[0, j]


class TestConditionalTargets:
    def test_visibility_plus_plus_branch(self):
        p = ex.PrepParams(1.0, 0.5)
        c = ex.bell_coefficients(p)
        prob, ket = _branch("visibility", p, "11")
        assert prob == pytest.approx((c.eta + c.beta) ** 2 / 2, abs=1e-12)
        np.testing.assert_allclose(np.abs(ket), [0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_predictability_branch(self):
        p = ex.PrepParams(1.0, 0.5)
        c = ex.bell_coefficients(p)
        prob, ket = _branch("predictability", p, "10")
        assert prob == pytest.approx((c.alpha + c.beta) ** 2 / 2, abs=1e-12)
        np.testing.assert_allclose(ket, [0, 0, 1, 0], atol=1e-12)

    def test_concurrence_branch(self):
        p = ex.PrepParams(1.0, 0.5)
        c = ex.bell_coefficients(p)
        prob, ket = _branch("concurrence2", p, "01")
        assert prob == pytest.approx(c.alpha**2 + c.eta**2, abs=1e-12)
        expected = (c.alpha * ex.PSI_MINUS + c.eta * ex.PHI_PLUS) / math.sqrt(prob)
        np.testing.assert_allclose(ket, expected, atol=1e-12)

    def test_branch_probabilities_sum_to_one(self):
        params = tuple(ex.PrepParams(phi, theta) for phi in GRID for theta in GRID)
        for name in ("visibility", "predictability", "concurrence2", "concurrence1"):
            probability, _ = ex.branch_data(ex.MeasurementSetting(name), params)
            np.testing.assert_allclose(probability.sum(axis=1), 1.0, atol=1e-10)

    def test_simulated_branches_match_targets(self):
        # each point's circuit run alone and post-selected, against the
        # block's closed forms; includes nonzero lambda: the closed forms
        # hold for all three angles
        rng = np.random.default_rng(43)
        params = tuple(ex.PrepParams(*rng.uniform(0, 2 * math.pi, size=3)) for _ in range(20))
        for name in ("visibility", "predictability", "concurrence2", "concurrence1"):
            s = ex.MeasurementSetting(name)
            probability, kets = ex.branch_data(s, params)
            for i, p in enumerate(params):
                for j, (_, state, prob) in enumerate(simulated_branches(s, p)):
                    assert probability[i, j] == pytest.approx(prob, abs=1e-10)
                    if state is None:
                        assert not kets[i, j].any()
                        continue
                    overlap = abs(np.vdot(kets[i, j], state.amplitudes)) ** 2
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
                    for outcome, state, prob in simulated_branches(s, p):
                        if state is None or not BranchResult(outcome, prob).reliable:
                            continue
                        vals = observable_set(state.density().matrix[None])
                        key = "C" if name in ("C1", "C2") else name
                        assert vals[key][0] == pytest.approx(1.0, abs=1e-10)


class TestOutputMixture:
    def test_matches_traced_circuit_output(self):
        rng = np.random.default_rng(44)
        params = tuple(ex.PrepParams(*rng.uniform(0, 2 * math.pi, size=2)) for _ in range(10))
        for name in ("VA", "PA", "C2", "C1"):
            s = ex.setting_for(name)
            mixture = ex.output_mixture(*ex.branch_data(s, params))
            for i, p in enumerate(params):
                out = circ.run_pure(full_circuit(s, p), basis_state(s.num_qubits))
                reduced = partial_trace(out.density().matrix, (0, 1))
                np.testing.assert_allclose(mixture[i], reduced, atol=1e-10)

    @settings(deadline=None)
    @given(angles=st.tuples(*[st.floats(0.0, 2 * math.pi)] * 3))
    def test_is_a_density_matrix(self, angles):
        # the harness reads the array as a fidelity target without validating it
        p = ex.PrepParams(*angles)
        for name in ex.OBSERVABLES:
            mixture = ex.output_mixture(*ex.branch_data(ex.setting_for(name), (p,)))
            DensityMatrix(2, mixture[0])


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
