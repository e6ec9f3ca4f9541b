"""Sweep metrics, fits, and the criteria summary."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import concurrence_of

import qndsim
from qndsim.analysis import (
    BranchResult,
    FitResult,
    SweepRecord,
    _sorted_distinct,
    criteria_summary,
    fit_mixed_fraction,
    fit_scale,
    rms_error,
)
from qndsim.experiments import RELIABLE_BRANCH_PROB, PrepParams, bell_coefficients
from qndsim.harness import run_criteria_protocol
from qndsim.observables import concurrence_pure
from qndsim.qmath import DensityMatrix, basis_state

PHIS = np.linspace(0, 2 * math.pi, 17)[:-1]


def werner_concurrence(coeffs, p):
    chi = coeffs.state_vector().amplitudes
    m = (1 - p) * np.outer(chi, chi.conj()) + p * np.eye(4) / 4
    return concurrence_of(DensityMatrix(2, m))


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


class TestFitMixedFraction:
    def coeffs(self):
        return [bell_coefficients(PrepParams(phi, math.pi)) for phi in PHIS]

    def test_noiseless_data_gives_zero(self):
        coeffs = self.coeffs()
        measured = [werner_concurrence(c, 0.0) for c in coeffs]
        fit = fit_mixed_fraction(measured, coeffs)
        assert abs(fit.parameter) < 1e-3

    def test_entangled_noiseless_data_give_exactly_zero(self):
        # every point entangled, so p = 0 lies on the fit's first interval,
        # from 0 to the smallest breakpoint, where the loss is exactly 0
        coeffs = [bell_coefficients(PrepParams(phi, math.pi)) for phi in np.linspace(0.3, 2.8, 16)]
        measured = [concurrence_pure(c.state_vector()) for c in coeffs]
        assert min(measured) > 0.0
        assert fit_mixed_fraction(measured, coeffs).parameter == 0.0

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

    @settings(deadline=None)
    @given(st.lists(st.tuples(PREP, MEASURED), min_size=1, max_size=16))
    # p at the separability boundary of a point with C = 4.2e-14: 4.2e-14 off
    @example([(PrepParams(1.0, 1e-13, 0.0), 0.0)])
    # p = 3e-13 on a maximally entangled point: 2.25e-13 off
    @example([(PrepParams(math.pi / 2, math.pi, 0.0), 1.0 - 4.5e-13)])
    def test_residual_is_the_closed_form_rms(self, points):
        # the residual's Wootters concurrences against the closed form
        # max(0, (1 - p) C - p / 2): per point the two differ by up to
        # 3.0e-15 (13.5 eps over 200000 random mixtures), and the RMS by up
        # to 1.8e-15 over 20000 random fits, hence a bound of 1e-14.
        # Below p = 4e-13 the mixture's three eigenvalues p / 4 fall under
        # matrix_sqrt_psd's floor, 1e-13 times the largest (here below 1),
        # and snap to zero; its square root is then sqrt(1 - 3p/4) |chi><chi|
        # and Wootters' formula returns (1 - 3p/4) C. Against the closed form
        # that is off by C <= p / (2(1 - p)) on a separable point and by
        # p (C/4 + 1/2) <= 3p/4 on an entangled one; the RMS of the
        # differences bounds the difference of the RMS, so the bound there
        # is 3p/4 + 1e-14. The floor test sees eigh's eigenvalues, a few eps
        # off, hence the 1% margin
        coeffs = [bell_coefficients(prep) for prep, _ in points]
        measured = [m for _, m in points]
        fit = fit_mixed_fraction(measured, coeffs)
        c = np.array([concurrence_pure(co.state_vector()) for co in coeffs])
        p = fit.parameter
        closed = rms_error(measured, np.maximum((1 - p) * c - p / 2, 0.0))
        floor_noise = 3 * p / 4 if p / 4 < 1.01e-13 else 0.0
        assert fit.residual_rms == pytest.approx(closed, abs=floor_noise + 1e-14)

    @settings(deadline=None)
    @given(st.lists(st.tuples(PREP, MEASURED), min_size=1, max_size=16))
    # the paper's C1/C2 sweep, noiseless and with every point separable
    @example([(PrepParams(phi, math.pi), abs(math.sin(phi))) for phi in PHIS])
    @example([(PrepParams(phi, math.pi), 0.0) for phi in PHIS])
    def test_fit_is_the_per_point_fit(self, points):
        # the residual reads the Werner mixtures of all points as one stack;
        # the fit must be the one that validates and measures one point's
        # mixture at a time (``werner_concurrence``), bit for bit
        coeffs = [bell_coefficients(prep) for prep, _ in points]
        measured = [m for _, m in points]
        fit = fit_mixed_fraction(measured, coeffs)
        model = [werner_concurrence(c, fit.parameter) for c in coeffs]
        assert fit == FitResult("mixed_fraction", fit.parameter, rms_error(measured, model))

    # the breakpoints the fit sorts: 0, 1 and one per point, with ties and
    # both signed zeros, from arrays short enough for an insertion sort to
    # long enough for an introsort
    @settings(deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1 / 3, 0.5, 1.0]) | st.floats(-1.0, 2.0),
                    max_size=60))
    def test_edges_are_numpys_unique(self, breaks):
        values = np.concatenate(([0.0, 1.0], np.array(breaks, dtype=float)))
        edges, expected = _sorted_distinct(values), np.unique(values)
        assert edges.dtype == expected.dtype
        assert np.array_equal(edges.view(np.uint64), expected.view(np.uint64))

    def test_fit_does_not_import_numpy_ma(self, tmp_path):
        # on numpy 2, np.unique imports numpy.ma (16 ms) the first time it
        # runs; numpy 1.24 imports it with numpy itself
        src = os.path.dirname(os.path.dirname(os.path.abspath(qndsim.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        script = (
            "import json, sys, numpy\n"
            "preloaded = 'numpy.ma' in sys.modules\n"
            "import qndsim.cli\n"
            "status = qndsim.cli.main(['sweep', '--observable', 'C1', '--exact',\n"
            "                          '--phi-steps', '4', '--format', 'json', '--out', 's.json'])\n"
            "print(json.dumps({'preloaded': preloaded, 'loaded': 'numpy.ma' in sys.modules,\n"
            "                  'status': status}))\n"
        )
        res = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                             text=True, env=env)
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout.strip().splitlines()[-1])
        assert doc["status"] == 0
        assert "tomo_out_mixed_fraction" in json.load(open(tmp_path / "s.json"))["fits"]
        assert doc["preloaded"] or not doc["loaded"]


def make_record(obs, phi, theory, qnd, tomo_in, tomo_out, branches=()):
    return SweepRecord(
        observable=obs, phi=phi, theta=math.pi, lam=0.0, theory=theory,
        qnd_estimate=qnd, tomo_in=tomo_in, tomo_out=tomo_out,
        fidelity_in=1.0, fidelity_out=1.0, branches=branches, shots=0, seed=0,
    )


def test_reliability_floor_is_inclusive():
    # a branch is reliable exactly from the floor on: the one place the
    # flag is read from an ideal branch probability
    assert RELIABLE_BRANCH_PROB == 0.25
    below = float(np.nextafter(0.25, 0))
    assert BranchResult("01", 0.25).reliable
    assert not BranchResult("01", below).reliable


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
        branch = BranchResult("01", 1.0, 100, 0.97, 0.99)
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

    def test_no_observable_rejected(self):
        # refused before any sweep, so the summary never sees an empty set
        with pytest.raises(ValueError, match="^at least one observable is required$"):
            run_criteria_protocol(seeds=[0], observables=())
