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
from dataclasses import replace

import pytest

from qndsim.circuits import NoiseModel
from qndsim.cli import main as cli_main
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
        noise=CRITERION_9_NOISE if mode == "noisy" else NoiseModel(),
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


# Config echoes as written before the workers knob and the enabled flag were
# removed, for the C1 cases of the fixture.
OLD_ECHO = (
    '{"observable": "C1", "theta": 3.141592653589793, "lambda": 0.0, "phi_start": 0.0, '
    '"phi_count": 3, "phi_step": 1.1, "shots": 2000, "shots_are_per_setting": true, '
    '"exact_mode": false, "noise": %s, "master_seed": 11, "workers": 1}'
)
OLD_NOISE = {
    "sampled": '{"enabled": false, "depol_1q": 0.0, "depol_2q": 0.0, "readout_flip": 0.0}',
    "noisy": '{"enabled": true, "depol_1q": 0.005, "depol_2q": 0.05, "readout_flip": 0.01}',
}


@pytest.mark.parametrize("mode", ["sampled", "noisy"])
def test_old_config_echo_reproduces_golden(golden, tmp_path, mode):
    config = tmp_path / "echo.json"
    config.write_text(OLD_ECHO % OLD_NOISE[mode])
    out = tmp_path / "out.json"
    assert cli_main(["sweep", "--config", str(config), "--format", "json",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["records"] == golden[mode]["C1"]


def test_no_noise_spellings_agree():
    # the all-zero model is noiseless however it is spelled, so it takes the
    # pure path and draws the same samples
    disabled = NoiseModel(enabled=False, depol_2q=0.5)
    assert NoiseModel() == disabled
    for observable in OBSERVABLES:
        config = case_config("sampled", observable)
        assert run_sweep(replace(config, noise=NoiseModel())) == run_sweep(
            replace(config, noise=disabled))


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
