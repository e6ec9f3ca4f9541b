"""Exact-mode records against a reference that shares no engine code.

``reference.py`` computes each point's input estimate, ancilla readout and
output estimate from first principles. Over preparation angles and noise
models, every observable's ``tomo_in``, ``qnd_estimate`` and ``tomo_out``
and the ``fidelity_in`` of an exact sweep must match it within 1e-12. The
input fidelity is read in its pure-target form <chi|rho|chi>, exact where
the general formula's square root of the rank-one target is not.
``fidelity_out`` is held within ``FIDELITY_OUT_TOLERANCE``, stated below.
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


# The output fidelity's target is mixed and rank-deficient, and the engine
# takes both states' square roots by eigendecomposition, snapping every
# eigenvalue below the noise floor (1e-13) to zero; the reference reads
# Uhlmann's form from exact factors, with no root of eigenvalue noise.
# Snapping an eigenvalue l moves Tr|sqrt(sigma) sqrt(rho)| by at most
# sqrt(l), since the other root has norm at most 1, and each 4 x 4 state has
# at most three eigenvalues below 1/4. So the trace norm T moves by at most
# 6 sqrt(1e-13), and F = T^2 by at most twice that plus its square
SNAPPED = 6 * math.sqrt(ref.NOISE_FLOOR)
FIDELITY_OUT_TOLERANCE = 2 * SNAPPED + SNAPPED**2 + TOLERANCE


@settings(max_examples=40, deadline=None)
@given(phi=ANGLE, theta=ANGLE, lam=ANGLE, noise=NOISE)
def test_exact_output_records_match_the_reference(phi, theta, lam, noise):
    p = ex.PrepParams(phi, theta, lam)
    for setting in map(ex.MeasurementSetting, ("visibility", "predictability",
                                               "concurrence1", "concurrence2")):
        rho = ref.measured(p, setting, noise)
        readout = ref.ancilla_distribution(rho, setting.ancilla_qubits, noise.readout_flip)
        estimate = ref.tomograph(ref.pair_state(rho), noise)
        fidelity = ref.uhlmann_fidelity(ref.output_factor(p, setting), estimate)
        for obs in (o for o in ex.OBSERVABLES if ex.setting_for(o) == setting):
            config = SweepConfig(obs, theta=theta, lam=lam, phi_start=phi, phi_count=1,
                                 exact_mode=True, noise=noise)
            (record,) = run_sweep(config)
            assert abs(record.qnd_estimate - ref.qnd_estimate(obs, readout)) <= TOLERANCE, obs
            tomo_out = ref.observable(obs, estimate @ estimate.conj().T)
            assert abs(record.tomo_out - tomo_out) <= TOLERANCE, obs
            assert abs(record.fidelity_out - fidelity) <= FIDELITY_OUT_TOLERANCE, obs


@settings(max_examples=20, deadline=None)
@given(phi=ANGLE, theta=ANGLE, lam=ANGLE)
def test_the_noiseless_reference_recovers_the_ideal_input(phi, theta, lam):
    # the reference's gates and inversion agree with the closed-form kets
    p = ex.PrepParams(phi, theta, lam)
    chi = ex.bell_coefficients(p).state_vector().amplitudes
    estimate = ref.input_estimate(p, NoiseModel())
    assert np.abs(estimate - np.outer(chi, chi.conj())).max() <= TOLERANCE
    assert abs(ref.pure_fidelity(p, estimate) - 1.0) <= TOLERANCE
