"""Sweep metrics, fits, and the criteria summary."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim.analysis import (
    BranchResult,
    SweepRecord,
    criteria_summary,
    fit_mixed_fraction,
    fit_scale,
    rms_error,
)
from qndsim.experiments import PrepParams, bell_coefficients
from qndsim.observables import concurrence_pure, concurrence_wootters
from qndsim.qmath import DensityMatrix

PHIS = np.linspace(0, 2 * math.pi, 17)[:-1]


def werner_concurrence(coeffs, p):
    chi = coeffs.state_vector().amplitudes
    m = (1 - p) * np.outer(chi, chi.conj()) + p * np.eye(4) / 4
    return concurrence_wootters(DensityMatrix(2, m))


ANGLE = st.floats(0.0, 2 * math.pi)
PREP = st.builds(PrepParams, ANGLE, ANGLE, ANGLE)
UNIT = st.floats(0.0, 1.0)
# measured concurrence; below zero too, where the loss can kink upwards
MEASURED = st.floats(-0.5, 1.0)


def closed_form_losses(ps, measured, coeffs):
    """Squared loss of the exact mixture concurrence at each p in ``ps``."""
    c = np.array([concurrence_pure(co.state_vector()) for co in coeffs])
    p = np.asarray(ps, dtype=float)[:, None]
    return np.sum((np.maximum((1 - p) * c - p / 2, 0.0) - np.asarray(measured)) ** 2, axis=1)


class TestRmsError:
    def test_zero_when_equal(self):
        assert rms_error([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == 0.0

    def test_constant_offset(self):
        theory = [0.2, 0.4, 0.6]
        assert rms_error([t + 0.05 for t in theory], theory) == pytest.approx(0.05)

    def test_hand_value(self):
        assert rms_error([0.1, 0.3], [0.2, 0.1]) == pytest.approx(
            math.sqrt((0.01 + 0.04) / 2), abs=1e-12
        )

    def test_permutation_invariant(self):
        m, t = [0.1, 0.7, 0.4], [0.2, 0.5, 0.6]
        assert rms_error(m, t) == pytest.approx(rms_error(m[::-1], t[::-1]))

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(61)
        m = rng.uniform(size=8)
        t = rng.uniform(size=8)
        assert rms_error(m, t) > 0
        assert rms_error(t, t) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rms_error([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rms_error([], [])


class TestFitScale:
    def test_identity(self):
        fit = fit_scale([0.1, 0.5], [0.1, 0.5])
        assert fit.parameter == pytest.approx(1.0)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-15)

    def test_simple_scaling(self):
        theory = [0.2, 0.6, 1.0]
        fit = fit_scale([0.8 * t for t in theory], theory)
        assert fit.parameter == pytest.approx(0.8)

    def test_residual_never_beats_unscaled(self):
        rng = np.random.default_rng(62)
        theory = np.abs(np.sin(PHIS))
        measured = 0.85 * theory + rng.normal(0, 0.02, size=theory.size)
        fit = fit_scale(measured, theory)
        assert fit.residual_rms <= rms_error(measured, theory) + 1e-12

    def test_rejects_zero_theory(self):
        with pytest.raises(ValueError):
            fit_scale([0.1, 0.2], [0.0, 0.0])


class TestFitMixedFraction:
    def coeffs(self):
        return [bell_coefficients(PrepParams(phi, math.pi)) for phi in PHIS]

    def test_noiseless_data_gives_zero(self):
        coeffs = self.coeffs()
        measured = [werner_concurrence(c, 0.0) for c in coeffs]
        fit = fit_mixed_fraction(measured, coeffs)
        assert abs(fit.parameter) < 1e-3

    def test_recovers_generating_fraction(self):
        coeffs = self.coeffs()
        for p_true in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
            measured = [werner_concurrence(c, p_true) for c in coeffs]
            fit = fit_mixed_fraction(measured, coeffs)
            assert abs(fit.parameter - p_true) < 1e-2

    def test_all_zero_measured_finds_separability_boundary(self):
        # smallest p with identically vanishing concurrence: 2/3 on a sweep
        # that reaches the maximally entangled state
        coeffs = self.coeffs()
        fit = fit_mixed_fraction([0.0] * len(coeffs), coeffs)
        assert fit.parameter == pytest.approx(2 / 3, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_mixed_fraction([0.1], self.coeffs())

    @settings(deadline=None)
    @given(PREP, UNIT)
    def test_werner_concurrence_closed_form(self, prep, p):
        coeffs = bell_coefficients(prep)
        c = concurrence_pure(coeffs.state_vector())
        expected = max(0.0, (1 - p) * c - p / 2)
        assert werner_concurrence(coeffs, p) == pytest.approx(expected, abs=1e-10)

    @settings(deadline=None)
    @given(st.lists(st.tuples(PREP, MEASURED), min_size=1, max_size=12))
    def test_fit_beats_dense_grid(self, points):
        coeffs = [bell_coefficients(prep) for prep, _ in points]
        measured = [m for _, m in points]
        fit = fit_mixed_fraction(measured, coeffs)
        assert 0.0 <= fit.parameter <= 1.0
        (fit_loss,) = closed_form_losses([fit.parameter], measured, coeffs)
        grid_losses = closed_form_losses(np.linspace(0.0, 1.0, 10_000), measured, coeffs)
        assert fit_loss <= grid_losses.min() + 1e-12


def make_record(obs, phi, theory, qnd, tomo_in, tomo_out, branches=()):
    return SweepRecord(
        observable=obs, phi=phi, theta=math.pi, lam=0.0, theory=theory,
        qnd_estimate=qnd, tomo_in=tomo_in, tomo_out=tomo_out,
        fidelity_in=1.0, fidelity_out=1.0, branches=branches, shots=0, seed=0,
    )


class TestCriteriaSummary:
    def test_noiseless_records_give_zero_errors(self):
        records = {
            "C2": [make_record("C2", phi, abs(math.sin(phi)), abs(math.sin(phi)),
                               abs(math.sin(phi)), abs(math.sin(phi))) for phi in PHIS]
        }
        report = criteria_summary(records)
        assert report["averages"]["E_qnd"] == 0.0
        assert report["averages"]["E_input_tomo"] == 0.0
        assert report["averages"]["E_output_tomo"] == 0.0

    def test_error_table_structure(self):
        branch = BranchResult("01", 1.0, True, 100, 0.97, 0.99)
        records = {
            "C2": [make_record("C2", phi, abs(math.sin(phi)), 0.9 * abs(math.sin(phi)),
                               abs(math.sin(phi)), 0.8 * abs(math.sin(phi)),
                               branches=(branch,)) for phi in PHIS],
            "VA": [make_record("VA", phi, abs(math.sin(phi)), abs(math.sin(phi)),
                               abs(math.sin(phi)), abs(math.sin(phi))) for phi in PHIS],
        }
        report = criteria_summary(records)
        c2 = report["per_observable"]["C2"]
        assert c2["E_qnd"] > 0
        assert c2["E_gap"] == pytest.approx(c2["E_output_tomo"] - c2["E_qnd"])
        assert c2["mean_conditional_value"] == pytest.approx(0.97)
        assert c2["mean_fidelity_post"] == pytest.approx(0.99)
        assert report["metadata"]["observable_weights"] == "equal"
        assert report["averages"]["E_qnd"] == pytest.approx(
            (c2["E_qnd"] + report["per_observable"]["VA"]["E_qnd"]) / 2
        )

    def test_incomplete_sweep_rejected(self):
        rec = SweepRecord(
            observable="C2", phi=0.0, theta=math.pi, lam=0.0, theory=0.0,
            qnd_estimate=0.0, tomo_in=None, tomo_out=None,
        )
        with pytest.raises(ValueError):
            criteria_summary({"C2": [rec]})
        with pytest.raises(ValueError):
            criteria_summary({"C2": []})

    def test_no_observable_rejected(self):
        with pytest.raises(ValueError, match="observable"):
            criteria_summary({})
