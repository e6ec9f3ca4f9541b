"""Simulator and analysis harness for nondemolition measurements of
two-qubit complementarity (coherence, predictability, concurrence).

The public API is ``__all__``: the runs, their results and the readers of
the gate table. The runs and the value types check their inputs before any
work. The rest of the package is internal, and its docstrings state the
contracts those checks uphold. The command line is ``qndsim.cli.main``.
"""

from .analysis import BranchResult, FitResult, SweepRecord
from .circuits import NoiseModel
from .experiments import (
    OBSERVABLES, MeasurementSetting, PrepParams, bell_coefficients, measurement_circuit,
    observable_row, prep_circuit, setting_for, visibility_identity_check,
)
from .harness import (
    SweepConfig, compute_fits, emit, fixed_state_config, repeat_fixed_state,
    run_criteria_protocol, run_sweep,
)

__all__ = [
    # the runs
    "SweepConfig", "NoiseModel", "run_sweep", "fixed_state_config", "repeat_fixed_state",
    "run_criteria_protocol", "compute_fits", "emit",
    # their results
    "SweepRecord", "BranchResult", "FitResult",
    # the gate-table readers
    "OBSERVABLES", "observable_row", "setting_for", "MeasurementSetting", "PrepParams",
    "bell_coefficients", "prep_circuit", "measurement_circuit", "visibility_identity_check",
]

__version__ = "0.1.0"
