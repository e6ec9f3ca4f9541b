"""Exact-mode input records against a reference that shares no engine code.

``reference.py`` computes each point's input estimate from first
principles; every observable's ``tomo_in`` and the ``fidelity_in`` of an
exact sweep must match it within 1e-12, over preparation angles and noise
models. The fidelity is read in its pure-target form <chi|rho|chi>, exact
where the general formula's square root of the rank-one target is not.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import reference as ref
from qndsim import experiments as ex
from qndsim.circuits import NoiseModel
from qndsim.harness import SweepConfig, run_sweep

TOLERANCE = 1e-12
ANGLE = st.floats(0.0, 2 * math.pi, exclude_max=True)
NOISE = st.one_of(
    st.sampled_from([NoiseModel(), NoiseModel(0.005, 0.05, 0.01), NoiseModel(0.03, 0.1, 0.04),
                     NoiseModel(readout_flip=0.2)]),
    st.builds(NoiseModel, st.floats(0.0, 0.1), st.floats(0.0, 0.2), st.floats(0.0, 0.1)),
)


@settings(max_examples=40, deadline=None)
@given(phi=ANGLE, theta=ANGLE, lam=ANGLE, noise=NOISE)
def test_exact_input_records_match_the_reference(phi, theta, lam, noise):
    p = ex.PrepParams(phi, theta, lam)
    estimate = ref.input_estimate(p, noise)
    fidelity = ref.pure_fidelity(p, estimate)
    for obs in ex.OBSERVABLES:
        config = SweepConfig(obs, theta=theta, lam=lam, phi_start=phi, phi_count=1,
                             exact_mode=True, noise=noise)
        (record,) = run_sweep(config)
        assert abs(record.tomo_in - ref.observable(obs, estimate)) <= TOLERANCE, obs
        assert abs(record.fidelity_in - fidelity) <= TOLERANCE, obs


@settings(max_examples=20, deadline=None)
@given(phi=ANGLE, theta=ANGLE, lam=ANGLE)
def test_the_noiseless_reference_recovers_the_ideal_input(phi, theta, lam):
    # the reference's gates and inversion agree with the closed-form kets
    p = ex.PrepParams(phi, theta, lam)
    chi = ex.bell_coefficients(p).state_vector().amplitudes
    estimate = ref.input_estimate(p, NoiseModel())
    assert np.abs(estimate - np.outer(chi, chi.conj())).max() <= TOLERANCE
    assert abs(ref.pure_fidelity(p, estimate) - 1.0) <= TOLERANCE
