"""Sweeps run in blocks of stacked points, against the per-point protocol.

``_reference_point`` is the per-point measurement that the block path
replaced, kept as the reference: each point prepares its own states, runs
its own input tomography and reconstructs its own output estimates. The
stream tree (master seed, stage, point, setting) is the same in both, so
every record must come out ``==``, never merely close: a one-ULP change in
a probability can swap the counts of two equally likely outcomes.

In exact mode the reference is its own sampled path with each draw
replaced by the distribution it draws from, and no branch analyzed.

A block's seed-independent stages are cached (``harness._prepare_input``
and ``harness._prepare_block``), and so are its input and output analyses
(``harness._input_analysis`` and ``harness._output_analysis``). So each
comparison runs from cold caches, again from the warm ones, and with
another seed drawn from the same prepared entries. The input stage is
shared by the observables prepared at the same angles, and the
measurement stage and the output analysis by the two observables of one
setting: every observable's records must be the same whether another one
warmed those stages or not.
"""

import itertools
import math
import pickle
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    STAGE_CACHES, as_stack, clear_stage_caches, full_circuit, marginalize_counts, path_array,
    postselect_branch, random_circuit, random_density_matrix, random_pure_state, rng_stream,
    theory_value, tomograph, tuple_branch_data, tuple_output_mixture,
)
from qndsim import circuits as circ
from qndsim import experiments as ex
from qndsim import harness
from qndsim import observables
from qndsim import tomography as tom
from qndsim.analysis import BranchResult, SweepRecord
from qndsim.circuits import Circuit, Gate, NoiseModel
from qndsim.harness import (
    BLOCK_POINTS,
    PREPARED_BLOCKS,
    OutputAnalysis,
    PreparedBlock,
    SweepConfig,
    _input_analysis,
    _output_analysis,
    _prep_params,
    _prepare_block,
    _prepare_input,
    repeat_fixed_state,
    run_criteria_protocol,
    run_sweep,
)
from qndsim.observables import observable_set
from qndsim.qmath import basis_state, fidelity

NOISE = {
    "none": NoiseModel(),
    "readout": NoiseModel(readout_flip=0.03),
    "criterion 9": NoiseModel(depol_1q=0.005, depol_2q=0.05, readout_flip=0.01),
}


def _reference_states(p, setting, noise):
    n = setting.num_qubits
    prep2 = ex.prep_circuit(p)
    full = full_circuit(setting, p)
    if noise.depol_1q or noise.depol_2q or noise.readout_flip:
        return (circ.run_noisy(prep2, basis_state(2).density(), noise),
                circ.run_noisy(full, basis_state(n).density(), noise))
    return circ.run_pure(prep2, basis_state(2)), circ.run_pure(full, basis_state(n))


def _reference_output(config, setting, out_state, index, ideal, key, rho_psi_theory):
    probs = tom.setting_probabilities(as_stack([out_state]), config.noise)[0]
    if config.exact_mode:
        # the pair's distribution: the full register's summed over the ancilla bits
        est = tom.linear_reconstruct(probs.reshape(16, 4, -1).sum(axis=-1))
        branches = tuple(BranchResult(o, pr) for o, _, pr, _ in ideal)
        rho = est.projected.matrix[None]
        return (float(observable_set(rho)[key][0]),
                float(fidelity(rho_psi_theory[None], rho)[0]), branches)
    counts = tom.collect(probs[None], config.shots, config.master_seed,
                         path_array([(2, index)]))[0]
    data = [marginalize_counts(counts, (0, 1))]
    selected = []
    for b in ideal:
        kept = postselect_branch(counts, setting.ancilla_qubits, b[0])
        if kept is None:
            continue
        data.append(kept)
        selected.append(b)
    est = tom.reconstruct_stack(np.stack(data))
    assert est.rows[0] == 0
    analyzed = [selected[r - 1] for r in est.rows[1:]]
    values = observable_set(est.projected)[key].tolist()
    with_target = [0] + [i for i, (_, st, _, _) in enumerate(analyzed, 1) if st is not None]
    targets = [rho_psi_theory] + [
        np.outer(st.amplitudes, st.amplitudes.conj()) for _, st, _, _ in analyzed if st is not None
    ]
    fids = dict(zip(with_target, fidelity(np.stack(targets),
                                          est.projected[with_target]).tolist()))
    results = {
        o: BranchResult(
            o, pr,
            retained_shots=int(data[r].sum(axis=-1).min()),
            tomo_value=values[i], fidelity=fids.get(i),
        )
        for i, ((o, _, pr, _), r) in enumerate(zip(analyzed, est.rows[1:]), 1)
    }
    branches = tuple(results.get(o, BranchResult(o, pr)) for o, _, pr, _ in ideal)
    return values[0], fids[0], branches


def _reference_point(config, index, phi, seed_tag):
    obs = config.observable
    key = "C" if obs in ("C1", "C2") else obs
    setting = ex.setting_for(obs)
    noise, ms = config.noise, config.master_seed
    p = _prep_params(phi, config.theta_resolved, config.lam)
    chi_ideal = ex.bell_coefficients(p).state_vector()
    ideal = tuple_branch_data(setting, p)
    chi_actual, out_state = _reference_states(p, setting, noise)
    anc = circ.exact_probabilities(as_stack([out_state]), setting.ancilla_qubits,
                                   noise.readout_flip)[0]
    if not config.exact_mode:
        anc = rng_stream(ms, 0, index).multinomial(config.shots, anc / anc.sum())
    est_in = tomograph(chi_actual, None if config.exact_mode else config.shots,
                       ms, noise, seed_path=(1, index))
    rho_psi_theory = tuple_output_mixture(ideal)
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
    return [_reference_point(config, i, config.phi_start + i * config.phi_step, config.master_seed)
            for i in range(config.phi_count)]


def _reference_repetitions(repetitions):
    def reference(config):
        fixed = replace(config, theta=math.pi, phi_start=math.pi / 2, phi_count=1)
        return [_reference_point(fixed, r, math.pi / 2, r) for r in range(repetitions)]
    return reference


def _check_cold_and_warm(run, config, reference):
    """``run(config)`` gives the reference records from cold caches and
    again from the warm ones, and another seed's records come out of the
    same prepared entries without preparing anything."""
    clear_stage_caches()
    expected = reference(config)
    assert run(config) == expected  # cold: every block is prepared
    assert run(config) == expected  # warm: every block comes from the cache
    other = replace(config, master_seed=config.master_seed + 1)
    misses = [cache.cache_info().misses for cache in (_prepare_input, _prepare_block)]
    assert run(other) == reference(other)
    assert [cache.cache_info().misses for cache in (_prepare_input, _prepare_block)] == misses


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
] + [
    # a sweep in steps of pi, whose first block's 16 points reduce to only 4
    # distinct angles mod 2*pi (float rounding of k*pi mod 2*pi): repeated
    # angles inside a sweep block, not only across repetitions
    ("pi steps", "C2", "criterion 9", exact, BLOCK_POINTS + 1) for exact in (False, True)
]


@pytest.mark.parametrize("entry, observable, noise, exact, count", GRID)
def test_cached_blocks_match_per_point_reference(entry, observable, noise, exact, count):
    phi_start, phi_step = (0.0, math.pi) if entry == "pi steps" else (0.2, 0.4)
    config = SweepConfig(observable, phi_start=phi_start, phi_count=count, phi_step=phi_step,
                         shots=200, exact_mode=exact, noise=NOISE[noise], master_seed=count)
    if entry == "repeat":
        _check_cold_and_warm(lambda c: repeat_fixed_state(c, count), config,
                             _reference_repetitions(count))
    else:
        _check_cold_and_warm(run_sweep, config, _reference_sweep)


def test_observables_of_a_setting_share_its_stages_and_noise_keeps_them_apart():
    # at the same angles PA and PB share their circuit and their states: the
    # measurement stage has the setting, not the observable, in its key, so
    # PB reads PA's block; exact mode reads the distributions sampled mode
    # draws from, so the two modes share a block. The output analysis adds
    # the draw, so PB reads PA's, one per noise and mode. The input stage
    # has no observable in its key, so PB reads PA's, and its input analysis
    # too, one per noise and mode
    for observable, noise, exact in itertools.product(("PA", "PB"), sorted(NOISE), (False, True)):
        config = SweepConfig(observable, theta=1.1, lam=0.3, phi_start=0.9, phi_count=1,
                             shots=200, exact_mode=exact, noise=NOISE[noise], master_seed=4)
        assert run_sweep(config) == _reference_sweep(config)
    # the 12 sweeps and the 6 output analyses read the measurement stage; 3
    # of those 18 reads prepared it
    assert _prepare_block.cache_info().currsize == 3
    assert _prepare_block.cache_info().hits == 12 + 6 - 3
    assert _output_analysis.cache_info().currsize == 6
    assert _output_analysis.cache_info().hits == 6
    # the 12 sweeps and the 6 input analyses read the input stage; 3 of
    # those 18 reads prepared it
    assert _prepare_input.cache_info().currsize == 3
    assert _prepare_input.cache_info().hits == 12 + 6 - 3
    assert _input_analysis.cache_info().currsize == 6
    assert _input_analysis.cache_info().hits == 6


# Every observable under every noise in both modes, each case through one
# of the two entry points, in turn, so that each entry point meets every
# observable, every noise, both modes and every count.
WARM_GRID = [
    (("sweep", "repeat")[(k // 2) % 2], observable, noise, exact, COUNTS[k % 3])
    for k, (observable, noise, exact)
    in enumerate(itertools.product(ex.OBSERVABLES, sorted(NOISE), (False, True)))
]


@pytest.mark.parametrize("entry, observable, noise, exact, count", WARM_GRID)
def test_records_are_the_same_from_a_warm_input_stage(entry, observable, noise, exact, count):
    # another observable at the same angles and seed leaves the input stage
    # and its analysis warm; the records must be the ones a cold run gives,
    # bit for bit, signed zeros included
    other = ex.OBSERVABLES[(ex.OBSERVABLES.index(observable) + 1) % len(ex.OBSERVABLES)]
    config = SweepConfig(observable, theta=1.1, lam=0.3, phi_start=0.2, phi_count=count,
                         phi_step=0.4, shots=200, exact_mode=exact, noise=NOISE[noise],
                         master_seed=count)
    if entry == "sweep":
        run = run_sweep
    else:
        def run(c):
            return repeat_fixed_state(c, count)
    cold = pickle.dumps(run(config))
    clear_stage_caches()
    run(replace(config, observable=other))
    input_misses = _prepare_input.cache_info().misses
    hits = _input_analysis.cache_info().hits
    warm = pickle.dumps(run(config))
    assert warm == cold
    # the warm run prepared and analyzed no input state
    assert _prepare_input.cache_info().misses == input_misses
    assert _input_analysis.cache_info().hits == hits + (count > BLOCK_POINTS) + 1


@pytest.mark.parametrize("noise, exact", [("criterion 9", False), ("none", False),
                                          ("criterion 9", True)],
                         ids=["noisy sampled", "noiseless sampled", "exact"])
@pytest.mark.parametrize("first, second, theta", [("PA", "PB", None), ("VA", "VB", 1.1)])
def test_the_second_observable_of_a_setting_reads_the_first_ones_stages(
        first, second, theta, noise, exact):
    # one readout of a setting's circuit gives both of its observables: the
    # second, run right after the first at the same angles and seed, reads
    # the first one's measurement stage and output analysis, and its records
    # are those of a cold run, bit for bit, signed zeros included. PA and PB
    # share their default theta; VA and VB share an explicit one
    config = SweepConfig(second, theta=theta, lam=0.3, phi_start=0.2,
                         phi_count=BLOCK_POINTS + 1, phi_step=0.4, shots=200, exact_mode=exact,
                         noise=NOISE[noise], master_seed=7)
    cold = run_sweep(config)
    assert cold == _reference_sweep(config)
    clear_stage_caches()
    before = run_sweep(replace(config, observable=first))
    blocks, analyses = _prepare_block.cache_info(), _output_analysis.cache_info()
    warm = run_sweep(config)
    assert _prepare_block.cache_info().misses == blocks.misses
    assert _output_analysis.cache_info().misses == analyses.misses
    assert _output_analysis.cache_info().hits == analyses.hits + 2
    assert pickle.dumps(warm) == pickle.dumps(cold)
    # the two observables read different values from the shared entries
    for name in ("theory", "qnd_estimate", "tomo_out"):
        assert [getattr(r, name) for r in before] != [getattr(r, name) for r in warm], name


def test_input_caches_miss_on_every_change_of_their_key():
    params = (_prep_params(0.3, 1.1, 0.2), _prep_params(0.7, 1.1, 0.2))
    noise, draw = NOISE["criterion 9"], (200, 4, (0, 1))
    _input_analysis(params, noise, draw)
    # each variant: its key, and whether it needs another input stage
    variants = [
        ((params, NOISE["readout"], draw), True),  # noise
        (((params[0], _prep_params(0.7, 1.1, 0.3)), noise, draw), True),  # angle
        ((params, noise, (201, 4, (0, 1))), False),  # shots
        ((params, noise, (200, 5, (0, 1))), False),  # master seed
        ((params, noise, (200, 4, (0, 2))), False),  # a point index
        ((params, noise, None), False),  # exact
    ]
    for key, new_input in variants:
        before = _prepare_input.cache_info().misses, _input_analysis.cache_info().misses
        _input_analysis(*key)
        after = _prepare_input.cache_info().misses, _input_analysis.cache_info().misses
        assert after == (before[0] + new_input, before[1] + 1), key
    hits = _input_analysis.cache_info().hits
    _input_analysis(params, noise, draw)
    assert _input_analysis.cache_info().hits == hits + 1


def test_stage_caches_stay_within_their_bound():
    for k in range(PREPARED_BLOCKS + 3):
        run_sweep(SweepConfig("VA", phi_start=0.01 * k, phi_count=1, exact_mode=True))
    for cache in STAGE_CACHES:
        info = cache.cache_info()
        assert info.maxsize == PREPARED_BLOCKS
        assert info.currsize == PREPARED_BLOCKS
        assert info.misses == PREPARED_BLOCKS + 3


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
    clear_stage_caches()
    report = run_criteria_protocol(seeds, **kwargs)
    singles = []
    for seed in seeds:
        clear_stage_caches()
        singles.append(run_criteria_protocol([seed], **kwargs))
    assert report["per_seed"] == [single["per_seed"][0] for single in singles]
    for name, mean in report["mean_average_errors"].items():
        assert mean == float(np.mean([single["mean_average_errors"][name] for single in singles]))


def _reachable(obj):
    """Every value reachable from a stage entry through dataclass fields,
    tuples and dict values."""
    yield obj
    if isinstance(obj, tuple):
        for item in obj:
            yield from _reachable(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _reachable(item)
    elif hasattr(obj, "__dataclass_fields__"):
        for name in obj.__dataclass_fields__:
            yield from _reachable(getattr(obj, name))


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("noise", sorted(NOISE))
@pytest.mark.parametrize("observable", ex.OBSERVABLES)
def test_prepared_block_holds_owned_read_only_arrays(observable, noise, exact):
    # the block a sweep in either mode read, unchanged by the reading: the
    # measurement stage of the observable's setting, read by the output
    # analysis and by the records
    config = SweepConfig(observable, phi_count=3, phi_step=0.7, shots=100, exact_mode=exact,
                         noise=NOISE[noise])
    run_sweep(config)
    theta = config.theta_resolved
    params = tuple(_prep_params(0.7 * k, theta, 0.0) for k in range(3))
    setting = ex.setting_for(observable)
    block = _prepare_block(setting, params, NOISE[noise])
    assert _prepare_block.cache_info().hits == 2
    assert isinstance(block, PreparedBlock)
    # every field is an array, no branch or density matrix object: the
    # ideal branch data are the producer's probabilities and kets, and the
    # ideal unconditional outputs their mixture
    values = list(_reachable(block))
    arrays = [v for v in values if isinstance(v, np.ndarray)]
    assert len(arrays) == len(values) - 1 == 5
    for a in arrays:
        assert not a.flags.writeable and a.base is None
    width = len(ex.branch_outcomes(setting))
    assert block.probability.shape == (3, width) and block.probability.dtype == np.float64
    assert block.kets.shape == (3, width, 4) and block.mixture.shape == (3, 4, 4)
    measured = [o for o in ex.OBSERVABLES if ex.setting_for(o) == setting]
    # so are the output analysis's arrays, one row per point, for the same
    # observables as the estimator's
    out = _output_analysis(setting, params, NOISE[noise], None if exact else (100, 0, (0, 1, 2)))
    assert _output_analysis.cache_info().hits == 1
    assert isinstance(out, OutputAnalysis)
    assert list(out.qnd) == list(out.values) == measured
    assert all(v.shape == (3,) for v in out.qnd.values())
    assert all(v.shape == (3, 1 + width) for v in out.values.values())
    assert out.fidelity.shape == (3, 1 + width) and out.retained.shape == (3, width)
    out_arrays = [v for v in _reachable(out) if isinstance(v, np.ndarray)]
    assert len(out_arrays) == 2 + 2 * len(measured)
    for a in out_arrays:
        assert not a.flags.writeable and a.base is None
    # so are the input stage's arrays, the theory of every observable among
    # them, and the input estimates
    target_in, probs_in, theory = _prepare_input(params, NOISE[noise])
    assert _prepare_input.cache_info().hits == 2  # the analysis read it too
    assert target_in.shape == (3, 4, 4) and probs_in.shape == (3, 16, 4)
    assert list(theory) == list(ex.OBSERVABLES)
    assert theory["C1"] is theory["C2"]
    for a in theory.values():
        assert a.shape == (3,) and a.dtype == np.float64
        assert not a.flags.writeable and a.base is None
    est_in, fidelity_in = _input_analysis(params, NOISE[noise],
                                          None if exact else (100, 0, (0, 1, 2)))
    assert _input_analysis.cache_info().hits == 1
    assert est_in.shape == (3, 4, 4)
    assert fidelity_in.shape == (3,) and fidelity_in.dtype == np.float64
    for a in (target_in, probs_in, est_in, fidelity_in):
        assert not a.flags.writeable and a.base is None
    # the readout is the batch's stack of full-register states, amplitudes
    # or density matrices
    d = 2 ** setting.num_qubits
    pure = NOISE[noise] == NoiseModel()
    assert block.readout.shape == ((3, d) if pure else (3, d, d))


@pytest.mark.parametrize("noise", ["none", "criterion 9"])
@pytest.mark.parametrize("observable", ["VA", "C2"])
def test_a_sampled_block_analyzes_its_estimates_as_two_stacks(observable, noise, monkeypatch):
    # one fidelity call for the block's input estimates, then one for its
    # output estimates, branches included. Only the concurrence needs the
    # whole two-qubit state: its stacks go through observable_set and the
    # spin-flip roots, and a visibility reads one single-qubit state
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            rows = args[-1]
            calls.append((name, len(rows) if isinstance(rows, np.ndarray) else 1))
            return real(*args)
        return counted

    for module, name in ((harness, "observable_set"), (harness, "fidelity"),
                         (observables, "_spin_flip_roots")):
        monkeypatch.setattr(module, name, counting(module, name))
    config = SweepConfig(observable, phi_count=BLOCK_POINTS, shots=300, noise=NOISE[noise],
                         master_seed=2)
    records = run_sweep(config)
    assert len(records) == BLOCK_POINTS == 16
    analyzed = sum(b.tomo_value is not None for r in records for b in r.branches)
    with_target = sum(b.fidelity is not None for r in records for b in r.branches)
    assert analyzed > 0
    expected = [("fidelity", 16), ("fidelity", 16 + with_target)]
    if observable == "C2":
        expected += [(name, rows) for name in ("observable_set", "_spin_flip_roots")
                     for rows in (16, 16 + analyzed)]
    assert sorted(calls) == sorted(expected)


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
    clear_stage_caches()
    calls.clear()
    run_criteria_protocol([0, 1, 2], **kwargs)
    assert len(calls) == one_seed > 0


@pytest.mark.parametrize("noise", ["none", "criterion 9"])
def test_full_blocks_of_repetitions_share_one_preparation(noise, monkeypatch):
    # a block's stages are keyed on its points' angles, so every full block
    # of repetitions has one key, prepared once, and the tail block another
    calls = []
    for name in ("run_batch", "run_pure", "run_noisy"):
        def counted(*args, _name=name, _run=getattr(circ, name), **kwargs):
            calls.append(_name)
            return _run(*args, **kwargs)
        monkeypatch.setattr(circ, name, counted)
    config = SweepConfig("C2", shots=100, noise=NOISE[noise])
    separate = []
    for repetitions in (BLOCK_POINTS, 2):
        clear_stage_caches()
        calls.clear()
        repeat_fixed_state(config, repetitions)
        separate += calls
    clear_stage_caches()
    calls.clear()
    repeat_fixed_state(config, 3 * BLOCK_POINTS + 2)
    assert sorted(calls) == sorted(separate)
    # the input stage runs each point's preparation of each distinct block
    engine = "run_noisy" if harness._noisy(NOISE[noise]) else "run_pure"
    assert calls.count(engine) == BLOCK_POINTS + 2
    assert _prepare_block.cache_info().misses == 2
    assert _prepare_input.cache_info().misses == 2


def _variant(gate: Gate, rng) -> Gate | None:
    """The gate, the same kind on the same qubits at another angle, or none."""
    choice = int(rng.integers(3))
    if choice == 0:
        return None
    if choice == 1 and gate.angle is not None:
        return Gate(gate.kind, gate.targets, float(rng.uniform(0, 2 * np.pi)))
    return gate


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_qubits=st.integers(1, 4),
    batch=st.integers(1, 6),
    pure=st.booleans(),
    depol_1q=st.floats(0.0, 1.0),
    depol_2q=st.floats(0.0, 1.0),
)
def test_run_batch_from_a_stack_of_states(seed, num_qubits, batch, pure, depol_1q, depol_2q):
    # run_batch validates no state, so this pins what it returns: each slice
    # is what a batch of one gives, and a state to the benchmark's 1e-9
    rng = np.random.default_rng(seed)
    skeleton = random_circuit(rng, num_qubits)
    layers = [tuple(_variant(g, rng) for _ in range(batch)) for g in skeleton.gates]
    if pure:
        states = [random_pure_state(rng, num_qubits) for _ in range(batch)]
        noise = NoiseModel(readout_flip=0.1)
    else:
        states = [random_density_matrix(rng, num_qubits) for _ in range(batch)]
        noise = NoiseModel(depol_1q, depol_2q)
    initial = as_stack(states)
    stack = circ.run_batch(initial, layers, noise)
    assert np.array_equal(initial, as_stack(states))  # the input is left alone
    for i, state in enumerate(states):
        circuit = Circuit(num_qubits, tuple(g for g in (layer[i] for layer in layers) if g))
        if pure:
            assert np.array_equal(stack[i], circ.run_pure(circuit, state).amplitudes)
            assert abs(np.linalg.norm(stack[i]) - 1.0) < 1e-9
        else:
            assert np.array_equal(stack[i], circ.run_noisy(circuit, state, noise).matrix)
            assert np.abs(stack[i] - stack[i].conj().T).max() <= 1e-9
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
    probs = tom.setting_probabilities(as_stack(states), noise)
    counts = tom.collect(probs, 200, seed, path_array(paths))
    assert counts.shape == probs.shape == (count, 16, 2**num_qubits)
    for state, path, got, got_probs in zip(states, paths, counts, probs):
        one = tom.setting_probabilities(as_stack([state]), noise)
        assert np.array_equal(got_probs, one[0])
        assert np.array_equal(got, tom.collect(one, 200, seed, path_array([path]))[0])


@pytest.mark.parametrize("states, message", [
    (np.zeros((0, 4)), "at least one initial state"),
    (as_stack([basis_state(2)]), "one entry per slice, 1 in all"),
    (as_stack([basis_state(2)] * 3), "one entry per slice, 3 in all"),
    (basis_state(2).amplitudes, "got shape (4,)"),
    (np.ones((2, 3)), "got shape (2, 3)"),
    (np.ones((2, 4, 2)), "got shape (2, 4, 2)"),
    (np.ones((2, 1)), "with n in 1..4"),
    (np.ones((2, 32)), "with n in 1..4"),
    (np.ones((2, 2, 2, 2)), "got shape"),
])
def test_stack_arguments_rejected(states, message, monkeypatch):
    def no_work(*args):
        raise AssertionError("evolution started")

    for name in ("_evolve_pure", "_evolve_density"):
        monkeypatch.setattr(circ, name, no_work)
    with pytest.raises(ValueError, match=re.escape(message)):
        circ.run_batch(states, [(None, None)], NoiseModel())


@pytest.mark.parametrize("gate, message", [
    (circ.cnot(0, 2), "dimension mismatch"),
    (circ.x(3), "dimension mismatch"),
    (circ.x(1), "act on the same qubits"),
])
def test_bad_layers_rejected_before_any_work(gate, message, monkeypatch):
    # the bad gate sits in the second layer, after a valid first one; x(3)
    # is the highest target a gate takes, outside this 2-qubit stack
    def no_work(*args):
        raise AssertionError("evolution started")

    monkeypatch.setattr(circ, "_evolve_density", no_work)
    layers = [(circ.h(0), circ.h(0)), (circ.x(0), gate)]
    with pytest.raises(ValueError, match=message):
        circ.run_batch(as_stack([basis_state(2).density()] * 2), layers, NoiseModel())


@pytest.mark.parametrize("layers, message", [
    ([("x",)], "a layer entry must be a Gate or None, got 'x'"),
    ([circ.x(0)], "one entry per slice, 1 in all"),
    ([(None,), 5], "one entry per slice, 1 in all"),
    ([(circ.x(0),), ()], "one entry per slice, 1 in all"),
], ids=["a string entry", "a bare gate", "a number", "one entry short"])
@pytest.mark.parametrize("pure", [True, False])
def test_malformed_layers_rejected_before_any_work(layers, message, pure, monkeypatch):
    # each used to fail late, with a TypeError or an AttributeError
    def no_work(*args):
        raise AssertionError("evolution started")

    for name in ("_evolve_pure", "_evolve_density"):
        monkeypatch.setattr(circ, name, no_work)
    psi = basis_state(1)
    with pytest.raises(ValueError, match=re.escape(message)):
        circ.run_batch(as_stack([psi if pure else psi.density()]), layers, NoiseModel())


def test_a_negative_target_is_refused_when_the_gate_is_made():
    # the gate refuses it when made, so run_batch never sees a negative target
    with pytest.raises(ValueError, match=re.escape("x targets must be >= 0, got -1")):
        circ.x(-1)


def test_collect_needs_a_seed_path_per_state():
    # sample_batch refuses it: one path per state is one per setting's row
    psi = basis_state(2)
    with pytest.raises(ValueError, match="^16 seed paths for 32 rows$"):
        tom.collect(tom.setting_probabilities(as_stack([psi, psi])), 10, 0, path_array([(1, 0)]))


def test_sweep_memory_is_bounded_by_the_block():
    # a whole-sweep stack peaks at 2 MB or more here; blocks stay well below 1 MB
    noise = NOISE["criterion 9"]
    config = SweepConfig("C2", phi_count=64, shots=2000, noise=noise, master_seed=3)
    run_sweep(config)  # fills the gate caches, which later sweeps share
    clear_stage_caches()  # but the sweep prepares its own blocks
    tracemalloc.start()
    try:
        run_sweep(config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [cache.cache_info().currsize for cache in STAGE_CACHES] == [4, 4, 4, 4]
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MB"
    # what stays is the four prepared blocks, their input stages, input
    # estimates and output analyses, which hold no evolved stacks:
    # distributions, branch data, estimates and output values within 384 KB, plus the 64 full-register states the readout
    # measures, 4 KB each. One point's evolved stack of 16 settings alone
    # would add 64 KB
    assert held < 384 * 2**10 + 64 * 16 * 16 * 16, f"held {held / 2**10:.0f} KB"


class _FirstBlock(Exception):
    """Raised by a stub in place of the first block's measurement."""


def test_each_blocks_points_are_built_when_it_runs(monkeypatch):
    # a sweep or a repeat run of a million points holds one block's points
    # at a time, not a list of every point: stopped at its first block, it
    # peaks within a few KB. A list of the million points alone takes
    # about 130 MB
    blocks = []

    def first_block(config, points):
        blocks.append(points)
        raise _FirstBlock

    monkeypatch.setattr(harness, "_measure_block", first_block)
    count = 10**6
    config = SweepConfig("VA", phi_start=0.1, phi_step=1e-6, phi_count=count, master_seed=5)
    for run in (run_sweep, lambda c: repeat_fixed_state(c, count)):
        tracemalloc.start()
        try:
            with pytest.raises(_FirstBlock):
                run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10, f"peak {peak / 2**10:.0f} KB"
    # each point is the one the whole grid would give, phi the same float
    assert blocks == [[(i, 0.1 + i * 1e-6, 5) for i in range(BLOCK_POINTS)],
                      [(r, math.pi / 2, r) for r in range(BLOCK_POINTS)]]
