"""One checked-number rule at every entry point that takes a number.

Each numeric argument of each entry point is read by ``qmath._real`` or
``qmath._integer``. For every such argument:

* a numpy scalar gives the object its built-in twin gives, and that object
  is valid JSON: a numpy scalar's repr differs between numpy 1.24 and 2,
  and json cannot encode a numpy integer;
* a bool, a string, NaN, an infinity and an out-of-range value raise
  ValueError naming the argument, before any stage of a sweep runs.
"""

import argparse
import dataclasses
import json
import math

import numpy as np
import pytest

from helpers import STAGE_CACHES, as_stack
from qndsim import circuits as circ
from qndsim import cli
from qndsim import experiments as ex
from qndsim import harness
from qndsim import tomography as tom
from qndsim.circuits import Circuit, NoiseModel
from qndsim.harness import SweepConfig, repeat_fixed_state
from qndsim.qmath import DensityMatrix, StateVector, basis_state

PLUS = as_stack([StateVector(1, np.full(2, math.sqrt(0.5)))])


def _config(**kwargs):
    return SweepConfig("VA", exact_mode=True, **kwargs).to_dict()


def _noise(**kwargs):
    return dataclasses.asdict(NoiseModel(**kwargs))


def _state(num_qubits):
    # a two-qubit state: the register size is checked before the amplitudes
    return StateVector(num_qubits, np.eye(4)[0]).num_qubits


def _density(num_qubits):
    return DensityMatrix(num_qubits, np.diag(np.eye(4)[0])).num_qubits


def _repeat(repetitions):
    records = repeat_fixed_state(SweepConfig("VA", exact_mode=True), repetitions)
    return [harness._record_dict(r) for r in records]


def _identity_grid(grid):
    return cli._cmd_check_identity(argparse.Namespace(grid=grid, atol=1e-8))


REAL, INTEGER = "real", "integer"

# name: (kind, the entry point called with the value, its values out of range)
ENTRY_POINTS = {
    "SweepConfig.theta": (REAL, lambda v: _config(theta=v), ()),
    "SweepConfig.lam": (REAL, lambda v: _config(lam=v), ()),
    "SweepConfig.phi_start": (REAL, lambda v: _config(phi_start=v), ()),
    "SweepConfig.phi_step": (REAL, lambda v: _config(phi_step=v), (0.0, -0.5)),
    "SweepConfig.phi_count": (INTEGER, lambda v: _config(phi_count=v), (0, 2**32 + 1)),
    "SweepConfig.shots": (INTEGER, lambda v: SweepConfig("VA", shots=v).to_dict(),
                          (0, 2**63)),
    "SweepConfig.shots exact": (INTEGER, lambda v: _config(shots=v), (-1,)),
    "SweepConfig.master_seed": (INTEGER, lambda v: _config(master_seed=v), (-1,)),
    "NoiseModel.depol_1q": (REAL, lambda v: _noise(depol_1q=v), (-0.1, 1.5)),
    "NoiseModel.depol_2q": (REAL, lambda v: _noise(depol_2q=v), (-0.1, 1.5)),
    "NoiseModel.readout_flip": (REAL, lambda v: _noise(readout_flip=v), (-0.1, 1.5)),
    "Gate.angle": (REAL, lambda v: dataclasses.asdict(circ.ry(0, v)), ()),
    "Circuit.num_qubits": (INTEGER, lambda v: Circuit(v, ()).num_qubits, (0, 5)),
    "StateVector.num_qubits": (INTEGER, _state, (0, 5)),
    "DensityMatrix.num_qubits": (INTEGER, _density, (0, 5)),
    "PrepParams.phi": (REAL, lambda v: dataclasses.asdict(ex.PrepParams(v)), (-0.5, 7.0)),
    "PrepParams.theta": (REAL, lambda v: dataclasses.asdict(ex.PrepParams(0.0, v)),
                         (-0.5, 7.0)),
    "PrepParams.lam": (REAL, lambda v: dataclasses.asdict(ex.PrepParams(0.0, 0.0, v)),
                       (-0.5, 7.0)),
    "basis_state.num_qubits": (INTEGER, lambda v: basis_state(v).num_qubits, (0, 5)),
    "basis_state.index": (INTEGER, lambda v: basis_state(2, v).amplitudes.real.tolist(),
                          (-1, 4)),
    "exact_probabilities.readout_flip": (
        REAL, lambda v: circ.exact_probabilities(PLUS, (0,), v).tolist(), (-0.1, 1.5)),
    "sample_counts.readout_flip": (
        REAL, lambda v: circ.sample_counts(PLUS, (0,), 10, 0, [()], v).tolist(), (-0.1, 1.5)),
    "sample_batch.shots": (
        INTEGER, lambda v: circ.sample_batch(np.full((1, 2), 0.5), v, 0, [()]).tolist(),
        (0, 2**63)),
    "sample_batch.master_seed": (
        INTEGER, lambda v: circ.sample_batch(np.full((1, 2), 0.5), 10, v, [()]).tolist(),
        (-1,)),
    "collect.shots": (
        INTEGER, lambda v: tom.collect(np.full((1, 16, 4), 0.25), v, 0, [()]).tolist(),
        (0, 2**63)),
    "repeat_fixed_state.repetitions": (INTEGER, _repeat, (0, 2**32 + 1)),
    "visibility_identity_check.atol": (
        REAL, lambda v: ex.visibility_identity_check([ex.PrepParams(0.5)], atol=v), (-1.0,)),
    "check-identity --grid": (INTEGER, _identity_grid, (0, -2)),
}

# a valid value of every argument of each kind, and its numpy twins
VALID = {REAL: (0.25, 1), INTEGER: (2, 2)}
NUMPY = {REAL: (np.float64(0.25), np.int64(1)), INTEGER: (np.int64(2), np.uint32(2))}
BAD = (True, False, "1", math.nan, math.inf, -math.inf)

# the name a message gives an argument, where it is not the entry's last word
NAMES = {"SweepConfig.shots exact": "shots", "Gate.angle": "ry needs a finite real angle",
         "basis_state.index": "basis index", "check-identity --grid": "--grid"}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_numpy_scalar_gives_its_builtin_twin(entry, capsys):
    kind, call, _ = ENTRY_POINTS[entry]
    for builtin, scalar in zip(VALID[kind], NUMPY[kind]):
        expected, got = call(builtin), call(scalar)
        assert got == expected, entry
        assert json.dumps(got) == json.dumps(expected), entry


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_bad_value_is_refused_before_any_work(entry, capsys):
    kind, call, out_of_range = ENTRY_POINTS[entry]
    name = NAMES.get(entry, entry.split(".")[-1])
    for value in BAD + out_of_range:
        with pytest.raises(ValueError, match=name):
            call(value)
    assert all(cache.cache_info().misses == 0 for cache in STAGE_CACHES)
