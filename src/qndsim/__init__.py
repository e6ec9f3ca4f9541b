"""Simulator and analysis harness for nondemolition measurements of
two-qubit complementarity (coherence, predictability, concurrence)."""

from .qmath import (
    DensityMatrix,
    StateVector,
    basis_state,
    fidelity,
    matrix_sqrt_psd,
    partial_trace,
    tensor,
)
from .circuits import (
    Circuit,
    Gate,
    NoiseModel,
    exact_probabilities,
    postselect_counts,
    run_noisy,
    run_pure,
    sample_counts,
)
from .observables import (
    concurrence_pure,
    concurrence_wootters,
    observable_set,
    predictability,
    visibility,
)
from .experiments import (
    BellCoefficients,
    MeasurementSetting,
    PrepParams,
    bell_coefficients,
    estimate_observable,
    measurement_circuit,
    prep_circuit,
    setting_for,
    visibility_identity_check,
)

__version__ = "0.1.0"
