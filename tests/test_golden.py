"""Golden records: sweep outputs pinned by a committed fixture.

Every observable runs a three-point phi grid in exact, noiseless-sampled
and noisy (acceptance criterion 9) mode. Sampled and noisy records must
match the fixture exactly, bit for bit: the same seed has to give the same
samples after every refactor. Exact records must match to 1e-12.

The grid includes VA at phi = 0 with master seed 11 under criterion-9
noise. Its output-tomography settings have outcomes of equal probability,
so a one-ULP change in a probability vector already swaps counts there.

The fixture was written once, by ``python tests/test_golden.py --write``.
A mismatch is a change of behaviour to explain, not a reason to rewrite it.
"""

import json
import math
import os
import sys
import tempfile

import pytest

from qndsim.circuits import NoiseModel
from qndsim.experiments import OBSERVABLES
from qndsim.harness import SweepConfig, emit, run_sweep

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_records.json")
CRITERION_9_NOISE = NoiseModel(depol_1q=0.005, depol_2q=0.05, readout_flip=0.01, enabled=True)
MODES = ("exact", "sampled", "noisy")
EXACT_ATOL = 1e-12


def case_config(mode: str, observable: str) -> SweepConfig:
    return SweepConfig(
        observable,
        phi_start=0.0,
        phi_count=3,
        phi_step=1.1,
        shots=2000,
        exact_mode=mode == "exact",
        noise=CRITERION_9_NOISE if mode == "noisy" else NoiseModel.none(),
        master_seed=11,
    )


def case_records(mode: str, observable: str) -> list[dict]:
    """The case's records as written by the JSON emitter."""
    records = run_sweep(case_config(mode, observable))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.json")
        emit(records, "json", path)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["records"]


def _assert_close(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert got is not None and math.isclose(got, want, rel_tol=0.0, abs_tol=EXACT_ATOL), (
            f"{where}: {got!r} != {want!r}"
        )
    else:
        assert got == want, where


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("observable", OBSERVABLES)
def test_records_match_golden(golden, mode, observable):
    got = case_records(mode, observable)
    want = golden[mode][observable]
    if mode == "exact":
        _assert_close(got, want, f"{mode}/{observable}")
    else:
        assert got == want


def test_fixture_covers_tie_point(golden):
    (first, *_) = golden["noisy"]["VA"]
    assert first["phi"] == 0.0 and first["seed"] == 11 and first["shots"] == 2000


def _write() -> None:
    doc = {mode: {obs: case_records(mode, obs) for obs in OBSERVABLES} for mode in MODES}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    _write()
