"""Exact mode is the infinite-shot limit of sampled mode under the same noise.

Exact mode reads the outcome distributions that sampled mode draws from,
readout flip and noisy tomography pre-rotations included. So on random
configurations, each exact value must lie within a few standard errors of
the mean over many sampled seeds. Only quantities linear in the counts are
compared: the QND estimate where its sign cannot flip, and the entries of
the raw linear tomography estimates. The PSD projection and the absolute
value bias the recorded tomography values at finite shots.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import qnd_estimates_exact
from qndsim import circuits as circ
from qndsim import experiments as ex
from qndsim import tomography as tom
from qndsim.circuits import NoiseModel
from qndsim.harness import SweepConfig, _prep_params, run_sweep
from qndsim.qmath import basis_state

SEEDS = 20
SHOTS = 20000


def _random_config(case: int) -> SweepConfig:
    rng = np.random.default_rng(case)
    phi, theta, lam = rng.uniform(0, 2 * math.pi, 3)
    return SweepConfig(
        ex.OBSERVABLES[int(rng.integers(len(ex.OBSERVABLES)))],
        theta=float(theta), lam=float(lam), phi_start=float(phi), phi_count=1, shots=SHOTS,
        exact_mode=True, noise=NoiseModel(*(float(p) for p in rng.uniform(0, 0.1, 3))),
    )


def _one_point(config, monkeypatch):
    """A one-point sweep's QND estimate and the raw linear estimates of its
    input and its unconditional output data, as one real vector."""
    seen = []
    real = tom.reconstruct_stack

    def recording(data):
        est = real(data)
        seen.append(est)
        return est

    monkeypatch.setattr(tom, "reconstruct_stack", recording)
    (record,) = run_sweep(config)
    monkeypatch.setattr(tom, "reconstruct_stack", real)
    # one reconstruction of the input data and one of the output data, whose
    # first data set is the unconditional one (the rest are branches)
    assert len(seen) == 2 and all(est.rows[0] == 0 for est in seen)
    raw = np.concatenate([est.raw[0].ravel() for est in seen])
    return record.qnd_estimate, np.concatenate([raw.real, raw.imag])


@pytest.mark.parametrize("case", range(8))
def test_exact_is_the_mean_of_many_seeds(case, monkeypatch):
    config = _random_config(case)
    exact_qnd, exact_raw = _one_point(config, monkeypatch)
    sampled = [_one_point(replace(config, exact_mode=False, master_seed=seed), monkeypatch)
               for seed in range(SEEDS)]
    qnd = np.array([q for q, _ in sampled])
    raw = np.stack([r for _, r in sampled])
    # the record holds |signed estimate|, linear in the counts only away from zero
    if abs(qnd.mean()) > 6 * qnd.std():
        assert abs(exact_qnd - qnd.mean()) <= 5 * qnd.std() / math.sqrt(SEEDS)
    sem = raw.std(axis=0) / math.sqrt(SEEDS)
    assert (np.abs(exact_raw - raw.mean(axis=0)) <= 5 * sem + 1e-9).all()


@settings(max_examples=30, deadline=None)
@given(
    observable=st.sampled_from(ex.OBSERVABLES),
    angles=st.tuples(*[st.floats(0.0, 2 * math.pi)] * 3),
)
def test_noiseless_exact_sweep_reads_the_exact_estimator(observable, angles):
    phi, theta, lam = angles
    config = SweepConfig(observable, theta=theta, lam=lam, phi_start=phi, phi_count=1,
                         exact_mode=True)
    (record,) = run_sweep(config)
    chi = circ.run_pure(ex.prep_circuit(_prep_params(phi, theta, lam)), basis_state(2))
    want = qnd_estimates_exact(ex.setting_for(observable), chi)[observable]
    assert abs(record.qnd_estimate - want) <= 1e-12
