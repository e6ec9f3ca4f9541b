"""Sweeps run in blocks of stacked points, against the per-point protocol.

``_reference_point`` is the per-point measurement that the block path
replaced, kept as the reference: each point prepares its own states, runs
its own input tomography and reconstructs its own output estimates. The
stream tree (master seed, stage, point, setting) is the same in both, so
every record must come out ``==``, never merely close: a one-ULP change in
a probability can swap the counts of two equally likely outcomes.

In exact mode the reference is its own sampled path with each draw
replaced by the distribution it draws from, and no branch analyzed.

A block's seed-independent stage is cached (``harness._prepare_block``), so
each comparison runs from a cold cache, again from the warm one, and with
another seed drawn from the same entries.
"""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    marginalize_counts, postselect_branch, random_circuit, random_density_matrix,
    random_pure_state, rng_stream, tomograph,
)
from qndsim import circuits as circ
from qndsim import experiments as ex
from qndsim import harness
from qndsim import tomography as tom
from qndsim.analysis import BranchResult, SweepRecord
from qndsim.circuits import Circuit, EmptyBranchError, Gate, NoiseModel
from qndsim.harness import (
    BLOCK_POINTS,
    THETA_DEFAULTS,
    PreparedBlock,
    SweepConfig,
    _observable_key,
    _prep_params,
    _prepare_block,
    repeat_fixed_state,
    run_criteria_protocol,
    run_sweep,
    theory_value,
)
from qndsim.observables import observable_set
from qndsim.qmath import DensityMatrix, basis_state, fidelity

NOISE = {
    "none": NoiseModel(),
    "readout": NoiseModel(readout_flip=0.03),
    "criterion 9": NoiseModel(depol_1q=0.005, depol_2q=0.05, readout_flip=0.01),
}


def _reference_states(p, setting, noise):
    n = setting.num_qubits
    prep2 = ex.prep_circuit(p)
    full = prep2.widened(n).then(ex.measurement_circuit(setting))
    if noise.depol_1q or noise.depol_2q or noise.readout_flip:
        return (circ.run_noisy(prep2, basis_state(2).density(), noise),
                circ.run_noisy(full, basis_state(n).density(), noise))
    return circ.run_pure(prep2, basis_state(2)), circ.run_pure(full, basis_state(n))


def _reference_output(config, setting, out_state, index, ideal, key, rho_psi_theory):
    probs = tom.setting_probabilities([out_state], config.noise)[0]
    if config.exact_mode:
        # the pair's distribution: the full register's summed over the ancilla bits
        est = tom.linear_reconstruct(probs.reshape(16, 4, -1).sum(axis=-1))
        branches = tuple(BranchResult(b.outcome, b.probability, b.reliable) for b in ideal)
        rho = est.projected.matrix[None]
        return (float(observable_set(rho)[key][0]),
                float(fidelity(rho_psi_theory[None], rho)[0]), branches)
    counts = tom.collect(probs[None], config.shots, config.master_seed, [(2, index)])[0]
    data = [marginalize_counts(counts, (0, 1))]
    selected = []
    for b in ideal:
        try:
            data.append(postselect_branch(counts, setting.ancilla_qubits, b.outcome))
        except EmptyBranchError:
            continue
        selected.append(b)
    est = tom.reconstruct_stack(np.stack(data))
    assert est.rows[0] == 0
    analyzed = [selected[r - 1] for r in est.rows[1:]]
    values = observable_set(est.projected)[key].tolist()
    with_target = [0] + [i for i, b in enumerate(analyzed, 1) if b.state is not None]
    targets = [rho_psi_theory] + [
        np.outer(b.state.amplitudes, b.state.amplitudes.conj())
        for b in analyzed if b.state is not None
    ]
    fids = dict(zip(with_target, fidelity(np.stack(targets),
                                          est.projected[with_target]).tolist()))
    results = {
        b.outcome: BranchResult(
            b.outcome, b.probability, b.reliable,
            retained_shots=int(data[r].sum(axis=-1).min()),
            tomo_value=values[i], fidelity=fids.get(i),
        )
        for i, (b, r) in enumerate(zip(analyzed, est.rows[1:]), 1)
    }
    branches = tuple(
        results.get(b.outcome, BranchResult(b.outcome, b.probability, b.reliable)) for b in ideal
    )
    return values[0], fids[0], branches


def _reference_point(config, index, phi, seed_tag):
    obs = config.observable
    key = _observable_key(obs)
    setting = ex.setting_for(obs)
    noise, ms = config.noise, config.master_seed
    p = _prep_params(phi, config.theta_resolved, config.lam)
    chi_ideal = ex.bell_coefficients(p).state_vector()
    ideal = ex.branch_data(setting, p)
    chi_actual, out_state = _reference_states(p, setting, noise)
    if config.exact_mode:
        anc = circ.exact_probabilities(out_state, setting.ancilla_qubits, noise.readout_flip)
    else:
        p = circ.exact_probabilities(out_state, setting.ancilla_qubits, noise.readout_flip)
        anc = rng_stream(ms, 0, index).multinomial(config.shots, p / p.sum())
    est_in = tomograph(chi_actual, None if config.exact_mode else config.shots,
                       ms, noise, seed_path=(1, index))
    rho_psi_theory = ex.output_mixture(ideal)
    tomo_out, fidelity_out, branches = _reference_output(
        config, setting, out_state, index, ideal, key, rho_psi_theory)
    return SweepRecord(
        observable=obs, phi=phi, theta=config.theta_resolved, lam=config.lam,
        theory=theory_value(obs, chi_ideal),
        qnd_estimate=float(ex.estimate_observable(setting, anc[None])[obs][0]),
        tomo_in=float(observable_set(est_in.projected.matrix[None])[key][0]),
        tomo_out=tomo_out,
        fidelity_in=float(fidelity(chi_ideal.density().matrix[None],
                                   est_in.projected.matrix[None])[0]),
        fidelity_out=fidelity_out,
        branches=branches,
        shots=0 if config.exact_mode else config.shots,
        seed=seed_tag,
    )


def _reference_sweep(config):
    return [_reference_point(config, i, phi, config.master_seed)
            for i, phi in enumerate(config.phi_values())]


def _reference_repetitions(repetitions):
    def reference(config):
        fixed = replace(config, theta=math.pi, phi_start=math.pi / 2, phi_count=1)
        return [_reference_point(fixed, r, math.pi / 2, r) for r in range(repetitions)]
    return reference


def _check_cold_and_warm(run, config, reference):
    """``run(config)`` gives the reference records from a cold cache and
    again from the warm one, and another seed's records come out of the
    same entries without preparing anything."""
    _prepare_block.cache_clear()
    expected = reference(config)
    assert run(config) == expected  # cold: every block is prepared
    assert run(config) == expected  # warm: every block comes from the cache
    other = replace(config, master_seed=config.master_seed + 1)
    misses = _prepare_block.cache_info().misses
    assert run(other) == reference(other)
    assert _prepare_block.cache_info().misses == misses


# a single point, one block minus one, and one block plus one
COUNTS = (1, BLOCK_POINTS - 1, BLOCK_POINTS + 1)
POINT_COUNTS = st.sampled_from(COUNTS)
ANGLE = st.floats(0.0, 2 * math.pi)
# Every observable under every noise, each case through one of the two entry
# points. Entry point, mode and point count take turns, so that each entry
# point meets every observable, every noise, both modes and every count.
GRID = [
    (("sweep", "repeat")[k % 2], observable, noise, k // 2 % 2 == 1, COUNTS[k // 2 % 3])
    for k, (observable, noise) in enumerate(itertools.product(ex.OBSERVABLES, sorted(NOISE)))
]


@pytest.mark.parametrize("entry, observable, noise, exact, count", GRID)
def test_cached_blocks_match_per_point_reference(entry, observable, noise, exact, count):
    config = SweepConfig(observable, phi_start=0.2, phi_count=count, phi_step=0.4, shots=200,
                         exact_mode=exact, noise=NOISE[noise], master_seed=count)
    if entry == "sweep":
        _check_cold_and_warm(run_sweep, config, _reference_sweep)
    else:
        _check_cold_and_warm(lambda c: repeat_fixed_state(c, count), config,
                             _reference_repetitions(count))


def test_cache_keeps_observables_and_noise_apart_and_modes_share_a_block():
    # at the same angles PA and PB share their circuit and their states: only
    # the observable in the key tells their blocks apart; exact mode reads the
    # distributions sampled mode draws from, so the two modes share a block
    for observable, noise, exact in itertools.product(("PA", "PB"), sorted(NOISE), (False, True)):
        config = SweepConfig(observable, theta=1.1, lam=0.3, phi_start=0.9, phi_count=1,
                             shots=200, exact_mode=exact, noise=NOISE[noise], master_seed=4)
        assert run_sweep(config) == _reference_sweep(config)
    assert _prepare_block.cache_info().currsize == 6
    assert _prepare_block.cache_info().hits == 6


@settings(max_examples=14, deadline=None)
@given(
    observable=st.sampled_from(ex.OBSERVABLES),
    phi_count=POINT_COUNTS,
    noise=st.sampled_from(sorted(NOISE)),
    exact=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    theta=st.none() | ANGLE,
    lam=ANGLE,
    phi_start=ANGLE,
    phi_step=st.floats(0.01, 1.0),
)
def test_sweep_blocks_match_per_point_reference(
    observable, phi_count, noise, exact, seed, theta, lam, phi_start, phi_step
):
    config = SweepConfig(observable, theta=theta, lam=lam, phi_start=phi_start,
                         phi_count=phi_count, phi_step=phi_step, shots=300,
                         exact_mode=exact, noise=NOISE[noise], master_seed=seed)
    _check_cold_and_warm(run_sweep, config, _reference_sweep)


@settings(max_examples=6, deadline=None)
@given(
    observable=st.sampled_from(ex.OBSERVABLES),
    repetitions=POINT_COUNTS,
    noise=st.sampled_from(sorted(NOISE)),
    seed=st.integers(0, 2**32 - 1),
)
def test_repetitions_match_per_point_reference(observable, repetitions, noise, seed):
    config = SweepConfig(observable, shots=200, noise=NOISE[noise], master_seed=seed)
    _check_cold_and_warm(lambda c: repeat_fixed_state(c, repetitions), config,
                         _reference_repetitions(repetitions))


@settings(max_examples=3, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3, unique=True))
def test_criteria_seeds_match_single_seed_reports(seeds):
    kwargs = dict(observables=("VA", "C1", "C2"), phi_count=4, phi_step=math.pi / 4,
                  shots=200, noise=NOISE["criterion 9"])
    _prepare_block.cache_clear()
    report = run_criteria_protocol(seeds, **kwargs)
    singles = []
    for seed in seeds:
        _prepare_block.cache_clear()
        singles.append(run_criteria_protocol([seed], **kwargs))
    assert report["per_seed"] == [single["per_seed"][0] for single in singles]
    for name, mean in report["mean_average_errors"].items():
        assert mean == float(np.mean([single["mean_average_errors"][name] for single in singles]))


def _reachable(obj):
    """Every value reachable from a block through dataclass fields and tuples."""
    yield obj
    if isinstance(obj, tuple):
        for item in obj:
            yield from _reachable(item)
    elif hasattr(obj, "__dataclass_fields__"):
        for name in obj.__dataclass_fields__:
            yield from _reachable(getattr(obj, name))


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("noise", sorted(NOISE))
@pytest.mark.parametrize("observable", ex.OBSERVABLES)
def test_prepared_block_holds_owned_read_only_arrays(observable, noise, exact):
    # the block a sweep in either mode read, unchanged by the reading
    config = SweepConfig(observable, phi_count=3, phi_step=0.7, shots=100, exact_mode=exact,
                         noise=NOISE[noise])
    run_sweep(config)
    theta = THETA_DEFAULTS[observable]
    params = tuple(_prep_params(0.7 * k, theta, 0.0) for k in range(3))
    block = _prepare_block(observable, params, NOISE[noise])
    assert _prepare_block.cache_info().hits == 1
    assert isinstance(block, PreparedBlock)
    values = list(_reachable(block))
    arrays = [v for v in values if isinstance(v, np.ndarray)]
    assert len(arrays) >= 3
    for a in arrays:
        assert not a.flags.writeable and a.base is None
    # the readout measures the full register in either engine, and no other
    # density matrix is kept: the fidelity targets are arrays
    n = ex.setting_for(observable).num_qubits
    assert all(s.num_qubits == n for s in block.readout)
    assert all(v.num_qubits == n for v in values if isinstance(v, DensityMatrix))


@pytest.mark.parametrize("noise", ["none", "criterion 9"])
def test_a_sampled_block_analyzes_its_estimates_as_two_stacks(noise, monkeypatch):
    # one observable_set and one fidelity call for the block's input
    # estimates, then one each for its output estimates, branches included
    calls = []

    def counting(name):
        real = getattr(harness, name)

        def counted(*args):
            rows = args[-1]
            calls.append((name, len(rows) if isinstance(rows, np.ndarray) else 1))
            return real(*args)
        return counted

    for name in ("observable_set", "fidelity"):
        monkeypatch.setattr(harness, name, counting(name))
    config = SweepConfig("VA", phi_count=BLOCK_POINTS, shots=300, noise=NOISE[noise],
                         master_seed=2)
    records = run_sweep(config)
    assert len(records) == BLOCK_POINTS == 16
    analyzed = sum(b.tomo_value is not None for r in records for b in r.branches)
    with_target = sum(b.fidelity is not None for r in records for b in r.branches)
    assert analyzed > 0
    assert sorted(calls) == sorted([
        ("observable_set", 16), ("fidelity", 16),
        ("observable_set", 16 + analyzed), ("fidelity", 16 + with_target),
    ])


@pytest.mark.parametrize("noise", ["none", "criterion 9"])
def test_seeds_prepare_their_states_once(noise, monkeypatch):
    calls = []
    run_batch = circ.run_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(circ, "run_batch", counted)
    kwargs = dict(observables=("VA", "C1"), phi_count=4, phi_step=math.pi / 4, shots=100,
                  noise=NOISE[noise])
    run_criteria_protocol([0], **kwargs)
    one_seed = len(calls)
    _prepare_block.cache_clear()
    calls.clear()
    run_criteria_protocol([0, 1, 2], **kwargs)
    assert len(calls) == one_seed > 0


@pytest.mark.parametrize("noise", ["none", "criterion 9"])
def test_repetitions_prepare_their_state_once(noise, monkeypatch):
    # the repetitions of one state share its preparation, in every block
    calls = []
    for name in ("run_batch", "run_pure", "run_noisy"):
        def counted(*args, _name=name, _run=getattr(circ, name), **kwargs):
            calls.append(_name)
            return _run(*args, **kwargs)
        monkeypatch.setattr(circ, name, counted)
    config = SweepConfig("C2", shots=100, noise=NOISE[noise])
    repeat_fixed_state(config, 1)
    one = sorted(calls)
    _prepare_block.cache_clear()
    calls.clear()
    repeat_fixed_state(config, 3 * BLOCK_POINTS + 2)
    assert sorted(calls) == one
    assert _prepare_block.cache_info().misses == 1


def _variant(gate: Gate, rng) -> Gate | None:
    """The gate, the same kind on the same qubits at another angle, or none."""
    choice = int(rng.integers(3))
    if choice == 0:
        return None
    if choice == 1 and gate.angle is not None:
        return Gate(gate.kind, gate.targets, float(rng.uniform(0, 2 * np.pi)))
    return gate


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_qubits=st.integers(1, 4),
    batch=st.integers(1, 6),
    pure=st.booleans(),
    depol_1q=st.floats(0.0, 0.3),
    depol_2q=st.floats(0.0, 0.3),
)
def test_run_batch_from_a_stack_of_states(seed, num_qubits, batch, pure, depol_1q, depol_2q):
    rng = np.random.default_rng(seed)
    skeleton = random_circuit(rng, num_qubits)
    layers = [tuple(_variant(g, rng) for _ in range(batch)) for g in skeleton.gates]
    if pure:
        states = [random_pure_state(rng, num_qubits) for _ in range(batch)]
        noise = NoiseModel(readout_flip=0.1)
    else:
        states = [random_density_matrix(rng, num_qubits) for _ in range(batch)]
        noise = NoiseModel(depol_1q, depol_2q)
    stack = circ.run_batch(states, layers, noise)
    for i, state in enumerate(states):
        circuit = Circuit(num_qubits, tuple(g for g in (layer[i] for layer in layers) if g))
        if pure:
            assert np.array_equal(stack[i], circ.run_pure(circuit, state).amplitudes)
            assert abs(np.linalg.norm(stack[i]) - 1.0) < 1e-9
        else:
            assert np.array_equal(stack[i], circ.run_noisy(circuit, state, noise).matrix)
            assert abs(np.trace(stack[i]) - 1.0) < 1e-9
            assert np.linalg.eigvalsh(stack[i])[0] > -1e-9


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 5),
    pure=st.booleans(),
    num_qubits=st.sampled_from([2, 4]),
)
def test_collect_from_a_stack_of_states(seed, count, pure, num_qubits):
    rng = np.random.default_rng(seed)
    make = random_pure_state if pure else random_density_matrix
    states = [make(rng, num_qubits) for _ in range(count)]
    noise = NoiseModel(readout_flip=0.05) if pure else NoiseModel(0.01, 0.05, 0.05)
    paths = [(1, int(i)) for i in rng.permutation(count)]
    probs = tom.setting_probabilities(states, noise)
    counts = tom.collect(probs, 200, seed, paths)
    assert counts.shape == probs.shape == (count, 16, 2**num_qubits)
    for state, path, got, got_probs in zip(states, paths, counts, probs):
        one = tom.setting_probabilities([state], noise)
        assert np.array_equal(got_probs, one[0])
        assert np.array_equal(got, tom.collect(one, 200, seed, [path])[0])


@pytest.mark.parametrize("states, message", [
    ([], "at least one initial state"),
    ([basis_state(2), basis_state(2).density()], "all be pure or all mixed"),
    ([basis_state(2), basis_state(3)], "all be pure or all mixed"),
    ([basis_state(2)], "1 initial states for a batch of 2"),
])
def test_stack_arguments_rejected(states, message):
    with pytest.raises(ValueError, match=message):
        circ.run_batch(states, [(None, None)], NoiseModel())


def test_collect_needs_a_seed_path_per_state():
    psi = basis_state(2)
    with pytest.raises(ValueError, match="1 seed paths for 2 states"):
        tom.collect(tom.setting_probabilities([psi, psi]), 10, 0, [(1, 0)])


def test_sweep_memory_is_bounded_by_the_block():
    # a whole-sweep stack peaks at 2 MB or more here; blocks stay well below 1 MB
    noise = NOISE["criterion 9"]
    config = SweepConfig("C2", phi_count=64, shots=2000, noise=noise, master_seed=3)
    run_sweep(config)  # fills the gate caches, which later sweeps share
    _prepare_block.cache_clear()  # but the sweep prepares its own blocks
    tracemalloc.start()
    try:
        run_sweep(config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _prepare_block.cache_info().currsize == 4
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MB"
    # what stays is the four prepared blocks, which hold no evolved stacks:
    # distributions and branch data within 384 KB, plus the 64 full-register
    # states the readout measures, 4 KB each. One point's evolved stack of
    # 16 settings alone would add 64 KB
    assert held < 384 * 2**10 + 64 * 16 * 16 * 16, f"held {held / 2**10:.0f} KB"
