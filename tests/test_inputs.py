"""One checked-number rule at every entry point that takes a number.

The entry points are the public API (``qndsim.__all__``), the value types
it is built from and the command line, and the functions behind them that
still check their arguments. Each numeric argument of each entry point is
read by ``qmath._real`` or ``qmath._integer``, and each qubit index by
``qmath._qubits``. For every such argument:

* a numpy scalar gives the object its built-in twin gives, and that object
  is valid JSON: a numpy scalar's repr differs between numpy 1.24 and 2,
  and json cannot encode a numpy integer;
* a bool, a string, NaN, an infinity and an out-of-range value raise
  ValueError naming the argument, before any stage of a sweep runs; a
  qubit index is refused for a non-integer real, a numpy bool and a repeat
  too, before any evolution, marginal or draw.

A value the boundary checked is not checked again behind it: the readout
flip that ``exact_probabilities`` and ``sample_counts`` take is a
``NoiseModel``'s, and ``UNCHECKED`` holds only their numpy-twin cases.

A noise model and a circuit's gates are checked for their type the same
way: anything but a ``NoiseModel``, or a tuple or list of ``Gate``, raises
ValueError naming the argument before any work (a noise model at
``SweepConfig`` and ``run_criteria_protocol``), where it used to fail
later with a TypeError or an AttributeError. So do a config that is not a
dict, a criteria run's seeds or observables that are not a list or tuple,
records that ``emit`` and ``compute_fits`` take that are not a nonempty
list of records, a config that ``run_sweep``, ``repeat_fixed_state``,
``fixed_state_config`` or ``emit`` takes that is not a ``SweepConfig``,
and fits that ``emit`` takes that are not a dict of ``FitResult``. The
gate-table readers refuse the same way an argument that is not a
``PrepParams`` (``bell_coefficients``, ``prep_circuit``), a
``MeasurementSetting`` (``measurement_circuit``), a string name
(``MeasurementSetting``) or a list of ``PrepParams``
(``visibility_identity_check``, before checking any point).
``compute_fits`` refuses records of more than one observable, or of an
unknown one, before any fit. A disabled noise model checks its
probabilities before it zeroes them, as an enabled one does. A density
matrix with an infinite or NaN entry is refused as not Hermitian, before
its eigenvalues.
"""

import argparse
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from helpers import NO_PATH, STAGE_CACHES, as_stack
from qndsim import circuits as circ
from qndsim import cli
from qndsim import experiments as ex
from qndsim import harness
from qndsim import tomography as tom
from qndsim.analysis import FitResult, SweepRecord
from qndsim.circuits import Circuit, NoiseModel
from qndsim.harness import SweepConfig, repeat_fixed_state, run_criteria_protocol
from qndsim.qmath import (
    DensityMatrix, StateVector, basis_state, fidelity, matrix_sqrt_psd, partial_trace)

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
    "NoiseModel(enabled=False).depol_1q": (
        REAL, lambda v: _noise(depol_1q=v, enabled=False), (-0.1, 1.5)),
    "NoiseModel(enabled=False).depol_2q": (
        REAL, lambda v: _noise(depol_2q=v, enabled=False), (-0.1, 1.5)),
    "NoiseModel(enabled=False).readout_flip": (
        REAL, lambda v: _noise(readout_flip=v, enabled=False), (-0.1, 1.5)),
    "config noise with enabled false.depol_2q": (
        REAL, lambda v: SweepConfig.from_dict({"observable": "VA", "exact_mode": True, "noise": {
            "enabled": False, "depol_2q": v}}).to_dict(), (-3.0, 1.5)),
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
    "sample_batch.shots": (
        INTEGER, lambda v: circ.sample_batch(np.full((1, 2), 0.5), v, 0, NO_PATH).tolist(),
        (0, 2**63)),
    "sample_batch.master_seed": (
        INTEGER, lambda v: circ.sample_batch(np.full((1, 2), 0.5), 10, v, NO_PATH).tolist(),
        (-1,)),
    "collect.shots": (
        INTEGER, lambda v: tom.collect(np.full((1, 16, 4), 0.25), v, 0, NO_PATH).tolist(),
        (0, 2**63)),
    "repeat_fixed_state.repetitions": (INTEGER, _repeat, (0, 2**32 + 1)),
    "visibility_identity_check.atol": (
        REAL, lambda v: ex.visibility_identity_check([ex.PrepParams(0.5)], atol=v), (-1.0,)),
    "check-identity --grid": (INTEGER, _identity_grid, (0, -2)),
}

# numbers behind the boundary: a ``NoiseModel`` checked the readout flip, and
# the draws take it unchecked, yet a numpy scalar still gives its twin's data
UNCHECKED = {
    "exact_probabilities.readout_flip": (
        REAL, lambda v: circ.exact_probabilities(PLUS, (0,), v).tolist(), ()),
    "sample_counts.readout_flip": (
        REAL, lambda v: circ.sample_counts(PLUS, (0,), 10, 0, NO_PATH, v).tolist(), ()),
}

# a valid value of every argument of each kind, and its numpy twins
VALID = {REAL: (0.25, 1), INTEGER: (2, 2)}
NUMPY = {REAL: (np.float64(0.25), np.int64(1)), INTEGER: (np.int64(2), np.uint32(2))}
BAD = (True, False, "1", math.nan, math.inf, -math.inf)

# the name a message gives an argument, where it is not the entry's last word
NAMES = {"SweepConfig.shots exact": "shots", "Gate.angle": "ry angle",
         "basis_state.index": "basis index", "check-identity --grid": "--grid"}


@pytest.mark.parametrize("entry", {**ENTRY_POINTS, **UNCHECKED})
def test_a_numpy_scalar_gives_its_builtin_twin(entry, capsys):
    kind, call, _ = {**ENTRY_POINTS, **UNCHECKED}[entry]
    for builtin, scalar in zip(VALID[kind], NUMPY[kind]):
        expected, got = call(builtin), call(scalar)
        assert got == expected, entry
        assert json.dumps(got) == json.dumps(expected), entry


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_bad_value_is_refused_before_any_work(entry, capsys):
    kind, call, out_of_range = ENTRY_POINTS[entry]
    name = NAMES.get(entry, entry.split(".")[-1])
    for value in BAD + out_of_range:
        # every rule's message starts "<name> must be"
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
            call(value)
    assert all(cache.cache_info().misses == 0 for cache in STAGE_CACHES)


MIXED = np.eye(8)[None] / 8  # a one-state 3-qubit density stack
COUNTS = np.arange(8).reshape(1, 8)  # one row of 3-bit outcome counts

# name: (the entry point called with one qubit index, the name its message
# gives the argument, the register size, and the index the entry point is
# given beside it, which a repeat of it must not be; None where it takes one)
INDEX_ENTRY_POINTS = {
    "Gate.targets": (lambda q: circ.Gate("cnot", (0, q)).targets, "cnot targets", 4, 0),
    "rx.qubit": (lambda q: circ.rx(q, 0.5).targets, "rx targets", 4, None),
    "ry.qubit": (lambda q: circ.ry(q, 0.5).targets, "ry targets", 4, None),
    "x.qubit": (lambda q: circ.x(q).targets, "x targets", 4, None),
    "h.qubit": (lambda q: circ.h(q).targets, "h targets", 4, None),
    "cnot.target": (lambda q: circ.cnot(0, q).targets, "cnot targets", 4, 0),
    "cry.control": (lambda q: circ.cry(q, 0, 0.5).targets, "cry targets", 4, 0),
    "Circuit.gates": (lambda q: [g.targets for g in Circuit(2, (circ.h(0), circ.x(q))).gates],
                      "x targets", 2, None),
    "partial_trace.keep": (lambda q: partial_trace(MIXED, (0, q)).real.tolist(), "keep", 3, 0),
    "exact_probabilities.measured_qubits": (
        lambda q: circ.exact_probabilities(MIXED, (0, q)).tolist(), "measured_qubits", 3, 0),
    "sample_counts.measured_qubits": (
        lambda q: circ.sample_counts(MIXED, (0, q), 10, 0, NO_PATH).tolist(), "measured_qubits",
        3, 0),
    "postselect_counts.ancilla_positions": (
        lambda q: circ.postselect_counts(COUNTS, (0, q), "01").tolist(), "ancilla_positions",
        3, 0),
}

BAD_INDICES = (True, False, np.bool_(True), 0.5, 1.0, math.nan, "1", -1)


@pytest.mark.parametrize("entry", INDEX_ENTRY_POINTS)
def test_a_numpy_index_gives_its_builtin_twin(entry):
    # numpy 1.24 and numpy 2 must both read a numpy integer index as its
    # built-in twin; json refuses a numpy integer left in the result
    call = INDEX_ENTRY_POINTS[entry][0]
    expected = call(1)
    for scalar in (np.int64(1), np.uint8(1)):
        got = call(scalar)
        assert got == expected, entry
        assert json.dumps(got) == json.dumps(expected), entry


@pytest.mark.parametrize("entry", INDEX_ENTRY_POINTS)
def test_a_bad_index_is_refused_before_any_work(entry, monkeypatch):
    call, name, register, beside = INDEX_ENTRY_POINTS[entry]

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for stage in ("_evolve_pure", "_evolve_density", "partial_trace", "sample_batch"):
        monkeypatch.setattr(circ, stage, no_work)
    for value in BAD_INDICES:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
            call(value)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be at most {register - 1}, "
                                                   f"got {register}")):
        call(register)
    if beside is not None:
        with pytest.raises(ValueError, match=re.escape(f"{name} must be 2 distinct qubits")):
            call(beside)


def test_a_gate_stores_its_targets_as_a_tuple_of_builtin_ints():
    gate = circ.Gate("x", [np.int64(0)])
    assert gate.targets == (0,) and type(gate.targets[0]) is int
    out = circ.run_pure(Circuit(1, (gate,)), basis_state(1))
    assert out.amplitudes.tolist() == [0, 1]


def test_a_non_finite_matrix_has_no_root():
    m = np.diag([np.inf, 0.0])
    for call in (matrix_sqrt_psd, lambda a: fidelity(a, np.eye(2) / 2)):
        with pytest.raises(ValueError, match="^matrix must be finite and Hermitian"):
            call(m)


NON_FINITE = ([[0.5, math.inf], [math.inf, 0.5]], [[math.inf, 1], [1, -math.inf]],
              [[0.5, math.inf], [-math.inf, 0.5]], [[0.5, math.nan], [math.nan, 0.5]])


@pytest.mark.parametrize("matrix", NON_FINITE, ids=["inf", "inf diagonal", "inf and -inf", "nan"])
def test_a_non_finite_density_matrix_is_refused(matrix, monkeypatch):
    # np.allclose counts inf as close to inf, and inf - (-inf) is within
    # its relative tolerance of an infinite entry; the eigensolver then
    # returns NaN, which no bound refuses, or on older numpy raises
    # LinAlgError. The Hermitian check refuses the matrix before either
    def no_eigenvalues(*args, **kwargs):
        raise AssertionError("eigenvalues computed")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigenvalues)
    with pytest.raises(ValueError, match="^matrix is not Hermitian, or not finite$"):
        DensityMatrix(1, matrix)
    with pytest.raises(ValueError, match="^matrix must be finite and Hermitian"):
        matrix_sqrt_psd(matrix)


def test_an_outcome_that_is_not_a_string_is_refused():
    with pytest.raises(ValueError, match="^outcome must be a bitstring with one bit per"):
        circ.postselect_counts(COUNTS, (0,), 0)


NOT_NOISE = ({"depol_1q": 0.1}, None, 0.1, "noisy", NoiseModel)


@pytest.mark.parametrize("noise", NOT_NOISE, ids=["dict", "None", "float", "str", "class"])
def test_a_noise_that_is_not_a_noise_model_is_refused(noise, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for stage in ("_evolve_pure", "_evolve_density"):
        monkeypatch.setattr(circ, stage, no_work)
    message = f"^noise must be a NoiseModel, got {re.escape(repr(noise))}$"
    calls = (
        lambda: SweepConfig("VA", noise=noise),
        lambda: run_criteria_protocol([0], observables=("VA",), phi_count=2, noise=noise),
    )
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    assert all(cache.cache_info().misses == 0 for cache in STAGE_CACHES)


@pytest.mark.parametrize("gates", [(("ry", 0),), (circ.x(0), "h"), (None,), circ.x(0),
                                   "x", {circ.x(0)}],
                         ids=["kind and qubit", "a string among gates", "None", "a bare gate",
                              "a string", "a set"])
def test_gates_that_are_not_gates_are_refused(gates):
    with pytest.raises(ValueError, match="^gates must be a tuple of Gate, got "):
        Circuit(2, gates)


def test_a_circuit_stores_its_gates_as_a_tuple():
    gates = [circ.x(0), circ.h(1)]
    circuit = Circuit(2, gates)
    gates.append(circ.x(1))
    assert type(circuit.gates) is tuple and circuit.gates == (circ.x(0), circ.h(1))
    assert hash(circuit) == hash(Circuit(2, (circ.x(0), circ.h(1))))


RECORD = SweepRecord("VA", phi=0.0, theta=0.0, lam=0.0, theory=1.0, qnd_estimate=1.0)
FIT = FitResult("scale", 1.0, 0.0)

# (entry point, a value of the wrong type, the start of its message): each
# used to fail later with an AttributeError or a TypeError, or with a
# message about the characters of a string
WRONG_TYPES = [
    ("SweepConfig.from_dict", ["observable"], "config must be a JSON object, got ['observable']"),
    ("SweepConfig.from_dict", "VA", "config must be a JSON object, got 'VA'"),
    ("SweepConfig.from_dict", None, "config must be a JSON object, got None"),
    ("SweepConfig.from_dict", 5, "config must be a JSON object, got 5"),
    ("SweepConfig.from_dict noise", [0.1], "noise must be a JSON object, got [0.1]"),
    ("SweepConfig.from_dict noise", "none", "noise must be a JSON object, got 'none'"),
    ("run_criteria_protocol seeds", 5, "seeds must be a list or tuple, got 5"),
    ("run_criteria_protocol seeds", range(2), "seeds must be a list or tuple, got range(0, 2)"),
    ("run_criteria_protocol observables", "VA", "observables must be a list or tuple, got 'VA'"),
    ("run_criteria_protocol observables", {"VA"},
     "observables must be a list or tuple, got {'VA'}"),
    ("emit", "abc", "records must be a list of SweepRecord, got str"),
    ("emit", None, "records must be a list of SweepRecord, got NoneType"),
    ("emit", [5], "records must be a list of SweepRecord, got int among them"),
    ("compute_fits", [], "no records to fit"),
    ("compute_fits", [5], "records must be a list of SweepRecord, got int among them"),
    ("compute_fits", "abc", "records must be a list of SweepRecord, got str"),
    ("emit config", "x", "config must be a SweepConfig, got str"),
    ("emit config", {"observable": "VA"}, "config must be a SweepConfig, got dict"),
    ("emit fits", [1], "fits must be a dict of str to FitResult, got [1]"),
    ("emit fits", {"qnd_scale": 1.0},
     "fits must be a dict of str to FitResult, got {'qnd_scale': 1.0}"),
    ("emit fits", {("qnd", "scale"): FIT},
     f"fits must be a dict of str to FitResult, got {{('qnd', 'scale'): {FIT!r}}}"),
    ("run_sweep", {"observable": "VA"}, "config must be a SweepConfig, got dict"),
    ("run_sweep", "VA", "config must be a SweepConfig, got str"),
    ("repeat_fixed_state", "VA", "config must be a SweepConfig, got str"),
    ("repeat_fixed_state", None, "config must be a SweepConfig, got NoneType"),
    ("fixed_state_config", {"observable": "VA"}, "config must be a SweepConfig, got dict"),
    ("bell_coefficients", 0.5, "p must be a PrepParams, got float"),
    ("bell_coefficients", (0.5, 0.0, 0.0), "p must be a PrepParams, got tuple"),
    ("prep_circuit", "VA", "p must be a PrepParams, got str"),
    ("measurement_circuit", "visibility", "s must be a MeasurementSetting, got str"),
    ("MeasurementSetting", ["x"], "name must be a str, got list"),
    ("MeasurementSetting", None, "name must be a str, got NoneType"),
    ("visibility_identity_check", ex.PrepParams(0.5),
     "params must be a list of PrepParams, got PrepParams"),
    ("visibility_identity_check", [ex.PrepParams(0.5), 0.5],
     "params must be a list of PrepParams, got float among them"),
]

CALLS = {
    "SweepConfig.from_dict": SweepConfig.from_dict,
    "SweepConfig.from_dict noise": lambda v: SweepConfig.from_dict({"observable": "VA",
                                                                    "noise": v}),
    "run_criteria_protocol seeds": lambda v: run_criteria_protocol(v, ("VA",), phi_count=2),
    "run_criteria_protocol observables": lambda v: run_criteria_protocol([0], v, phi_count=2),
    "emit": lambda v: harness.emit(v, "csv", "out.csv"),
    "compute_fits": harness.compute_fits,
    "emit config": lambda v: harness.emit([RECORD], "json", "out.json", config=v),
    "emit fits": lambda v: harness.emit([RECORD], "json", "out.json", fits=v),
    "run_sweep": harness.run_sweep,
    "repeat_fixed_state": lambda v: repeat_fixed_state(v, 2),
    "fixed_state_config": harness.fixed_state_config,
    "bell_coefficients": ex.bell_coefficients,
    "prep_circuit": ex.prep_circuit,
    "measurement_circuit": ex.measurement_circuit,
    "MeasurementSetting": ex.MeasurementSetting,
    "visibility_identity_check": ex.visibility_identity_check,
}


@pytest.mark.parametrize("entry, value, message", WRONG_TYPES)
def test_a_wrong_type_is_refused_naming_its_argument(entry, value, message, tmp_path,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CALLS[entry](value)
    assert all(cache.cache_info().misses == 0 for cache in STAGE_CACHES)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("records, message", [
    ([RECORD, dataclasses.replace(RECORD, observable="VB")],
     "records must be of one observable, got records of ['VA', 'VB']"),
    ([dataclasses.replace(RECORD, observable=obs) for obs in ("C2", "C1", "C2")],
     "records must be of one observable, got records of ['C1', 'C2']"),
    ([dataclasses.replace(RECORD, observable="XX")], "unknown observable 'XX'"),
], ids=["mixed", "mixed concurrences", "unknown observable"])
def test_compute_fits_refuses_an_observable_not_the_records_own(records, message, monkeypatch):
    # the records name the observable whose formula gives their fits, and
    # the records of two observables are no one curve
    fitted = []
    for name in ("fit_scale", "fit_mixed_fraction"):
        monkeypatch.setattr(harness, name, lambda *args: fitted.append(args))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        harness.compute_fits(records)
    assert fitted == []


def test_identity_check_refuses_a_bad_point_before_checking_any(monkeypatch):
    # a good point first: the bad second one is refused before either is checked
    def no_work(*args):
        raise AssertionError("the points are checked first")

    monkeypatch.setattr(ex, "visibility_identity_deviation", no_work)
    with pytest.raises(ValueError, match="^params must be a list of PrepParams, got str among"):
        ex.visibility_identity_check([ex.PrepParams(0.5), "VA"])
