"""Seed streams: ``circuits.sample_batch`` hashes every row's seed in bulk,
and each row must draw exactly what numpy's own generator for that seed
path draws (``helpers.rng_stream``), bit for bit.

The bulk hash reproduces numpy's ``SeedSequence`` and ``PCG64`` seeding,
which numpy's stream-compatibility policy fixes; these tests are the ones
to run against the oldest supported numpy. A call's seed paths are one
(rows, W) integer array, every element one 32-bit word (0..2**32 - 1);
master seeds may have any number of words. Any other form or element is
refused before any draw, its bounds compared as built-in ints, which
numpy 1.24 would otherwise compare with a uint64 through float; and the
sweep and repeat configs bound their point counts so that every point
index is such a word.

A pooled G-test checks the draws as distributions, which no stream layout
changes: each row's counts against the distribution it was drawn from.
"""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    as_stack, full_circuit, path_array, random_density_matrix, random_pure_state, rng_stream)
from qndsim import circuits as circ
from qndsim import cli, harness
from qndsim import experiments as ex
from qndsim import tomography as tom
from qndsim.harness import SweepConfig, repeat_fixed_state, run_sweep
from qndsim.qmath import basis_state


def _oracle(probs: np.ndarray, shots: int, master_seed: int, paths) -> np.ndarray:
    """One numpy generator per row, each row normalized on its own."""
    return np.stack([rng_stream(master_seed, *path).multinomial(shots, p / p.sum())
                     for p, path in zip(probs, paths)])


def _assert_rows_match(probs, shots, master_seed, paths):
    got = circ.sample_batch(probs, shots, master_seed, path_array(paths))
    want = _oracle(probs, shots, master_seed, paths)
    assert got.dtype == want.dtype
    for row, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), f"row {row}, path {paths[row]}"


@pytest.fixture
def no_draw(monkeypatch):
    # every draw needs a generator
    def refuse(*args, **kwargs):
        raise AssertionError("made a generator before checking the seed input")
    monkeypatch.setattr(np.random, "Generator", refuse)


def _tied(rng: np.random.Generator, outcomes: int) -> np.ndarray:
    """A distribution with exactly equal outcomes, as many prepared states have."""
    p = np.zeros(outcomes)
    p[rng.choice(outcomes, size=2, replace=False)] = 0.5
    return p


# a path element: any 32-bit word, or one of its edges
ELEMENT = st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2**32 - 1]))


@st.composite
def same_length_paths(draw):
    """1 to 12 paths of one length, 0 to 4 elements each."""
    width = draw(st.integers(0, 4))
    path = st.lists(ELEMENT, min_size=width, max_size=width).map(tuple)
    return draw(st.lists(path, min_size=1, max_size=12))


@settings(max_examples=60, deadline=None)
@given(
    # one to four master-seed words fill the hash pool; five or more extend it
    master_seed=st.one_of(st.integers(0, 2**128 - 1), st.integers(2**128, 2**200 - 1)),
    paths=same_length_paths(),
    outcomes=st.sampled_from([2, 4, 16]),
    shots=st.integers(1, 3000),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_bulk_streams_match_numpy(master_seed, paths, outcomes, shots, draw_seed):
    rng = np.random.default_rng(draw_seed)
    probs = rng.random((len(paths), outcomes))
    probs[::2] = [_tied(rng, outcomes) for _ in probs[::2]]
    _assert_rows_match(probs, shots, master_seed, paths)


@pytest.mark.parametrize("master_seed", [0, 1, 2**32, 2**64 + 3, 2**128 - 1, 2**128,
                                         2**128 + 7, 2**160 + 5, 2**199 * 3])
def test_master_seeds_of_every_word_count(master_seed):
    # 2^128 and up have five or more words, which shift the hash constants
    paths = [(0, 0, 0), (1, 2, 3), (2**32 - 1,) * 3, (5, 0, 2**32 - 1), (7, 7, 7)]
    probs = np.random.default_rng(1).random((len(paths), 4))
    _assert_rows_match(probs, 2000, master_seed, paths)


def test_path_elements_beyond_one_word(no_draw):
    # the bounds are compared as built-in ints: np.uint64(2**63) is refused,
    # not wrapped to a negative int64 or misjudged through float
    for dtype, bad in ((np.int64, 2**32), (np.int64, -1), (np.int64, 2**63 - 1),
                       (np.uint64, 2**63), (np.uint64, 2**32), (np.uint64, 2**64 - 1)):
        paths = np.array([(1, 5), (bad, 5)], dtype=dtype)
        with pytest.raises(ValueError, match=r"seed path elements must be in 0\.\.2\*\*32 - 1"):
            circ.sample_batch(np.full((2, 2), 0.5), 10, 0, paths)
    # paths of two lengths have no array form, and a list is refused
    with pytest.raises(ValueError, match=r"seed paths must be a \(rows, W\) integer array"):
        circ.sample_batch(np.full((2, 2), 0.5), 10, 0, [(1,), (1, 2)])


@pytest.mark.parametrize("master_seed", [0, 3, 2**70])
def test_empty_path_is_the_master_seeds_generator(master_seed):
    # a (B, 0) array: every row draws the master seed's own stream
    p = np.array([0.25, 0.25, 0.5, 0.0])
    want = np.random.default_rng(master_seed).multinomial(1000, p)
    got = circ.sample_batch(np.stack([p, p]), 1000, master_seed, np.zeros((2, 0), dtype=np.uint8))
    assert np.array_equal(got, [want, want])


def test_numpy_integer_seeds_match_python_integers():
    # every integer dtype and memory layout of one array of paths draws the
    # same rows, under a numpy or a built-in master seed
    probs = np.random.default_rng(3).random((2, 4))
    paths = [(1, 2), (3, 2**32 - 1)]
    want = circ.sample_batch(probs, 500, 4, path_array(paths))
    for dtype in (np.uint32, np.uint64, np.int64):
        for layout in (np.ascontiguousarray, np.asfortranarray):
            got = circ.sample_batch(probs, 500, np.int64(4), layout(np.array(paths, dtype=dtype)))
            assert np.array_equal(got, want)
    strided = np.repeat(np.array(paths, dtype=np.uint64), 2, axis=1)[:, ::2]
    assert np.array_equal(circ.sample_batch(probs, 500, 4, strided), want)
    small = np.array([(1, 2), (3, 255)], dtype=np.uint8)
    assert np.array_equal(circ.sample_batch(probs, 500, 4, small),
                          circ.sample_batch(probs, 500, 4, path_array([(1, 2), (3, 255)])))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 40),
    outcomes=st.sampled_from([2, 4, 8, 16, 32]),
    layout=st.sampled_from(["c", "fortran", "strided"]),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_stacked_normalization_is_the_per_row_one(rows, outcomes, layout, draw_seed):
    # sample_batch normalizes the stack at once; it must round like p / p.sum()
    rng = np.random.default_rng(draw_seed)
    probs = rng.random((rows, outcomes)) * rng.choice([1e-3, 1.0, 7.0], size=(rows, 1))
    if layout == "fortran":
        probs = np.asfortranarray(probs)
    elif layout == "strided":
        probs = np.repeat(probs, 2, axis=1)[:, ::2]
    stacked = np.ascontiguousarray(probs, dtype=float)
    stacked = stacked / stacked.sum(axis=-1, keepdims=True)
    assert np.array_equal(stacked, np.stack([p / p.sum() for p in probs]))
    _assert_rows_match(probs, 1000, draw_seed, [(row,) for row in range(rows)])


def test_stacked_sample_counts_equal_per_state_draws():
    # a stack of amplitudes and a stack of density matrices
    rng = np.random.default_rng(4)
    for make in (random_pure_state, random_density_matrix):
        states = as_stack([make(rng, 3) for _ in range(5)])
        paths = [(0, i) for i in range(len(states))]
        got = circ.sample_counts(states, (2, 0), 700, 12, path_array(paths), readout_flip=0.03)
        assert got.shape == (len(states), 4)
        for i, (path, counts) in enumerate(zip(paths, got)):
            alone = circ.sample_counts(states[i:i + 1], (2, 0), 700, 12, path_array([path]),
                                       readout_flip=0.03)[0]
            assert np.array_equal(counts, alone)
            p = circ.exact_probabilities(states[i:i + 1], (2, 0), 0.03)[0]
            assert np.array_equal(counts, rng_stream(12, *path).multinomial(700, p / p.sum()))


def test_collect_draws_setting_k_of_state_i_from_its_path():
    rng = np.random.default_rng(5)
    states = as_stack([random_pure_state(rng, 2) for _ in range(3)])
    probs = tom.setting_probabilities(states)
    paths = [(1, 4), (1, 9), (2, 2**32 - 1)]
    counts = tom.collect(probs, 400, 6, path_array(paths))
    for i, path in enumerate(paths):
        assert np.array_equal(counts[i], _oracle(probs[i], 400, 6, [(*path, k) for k in range(16)]))


def test_a_sampled_block_builds_one_seed_sequence_per_draw(monkeypatch):
    made = {"SeedSequence": 0, "Generator": 0, "default_rng": 0, "draws": 0}
    for name in ("SeedSequence", "Generator", "default_rng"):
        def counted(*args, _name=name, _make=getattr(np.random, name), **kwargs):
            made[_name] += 1
            return _make(*args, **kwargs)
        monkeypatch.setattr(np.random, name, counted)
    sample_batch = circ.sample_batch

    def draw(*args, **kwargs):
        made["draws"] += 1
        return sample_batch(*args, **kwargs)
    monkeypatch.setattr(circ, "sample_batch", draw)
    records = run_sweep(SweepConfig("C2", phi_count=16, phi_step=math.pi / 8, shots=300))
    assert len(records) == 16
    # the ancilla readout, the input and the output tomography of the block
    assert made["draws"] == 3
    assert made["SeedSequence"] <= made["draws"]
    assert made["Generator"] <= made["draws"] and made["default_rng"] == 0


# The draws as distributions, whatever the stream layout: every row of
# counts must be a multinomial draw from the distribution it was drawn from.
G_SEED = 20261019  # fixed before the test first ran
G_SHOTS = 2000
G_FALSE_ALARM = 1e-6
G_FLIP = 0.04
G_PREPARED = [ex.PrepParams(phi, theta, lam) for phi, theta, lam in
              [(0.0, 0.0, 0.0), (0.08, 0.0, 0.0), (1.1, math.pi, 0.0), (2.0, 1.3, 0.4),
               (math.pi / 2, math.pi, math.pi / 2)]]


def _flipped(probs: np.ndarray, flip: float) -> np.ndarray:
    """Each recorded bit of (..., 2^m) distributions flipped independently
    with probability ``flip``, computed apart from the engine's readout."""
    bit = np.array([[1 - flip, flip], [flip, 1 - flip]])
    return probs @ functools.reduce(np.kron, [bit] * (probs.shape[-1].bit_length() - 1))


def _pooled_g(counts: np.ndarray, probs: np.ndarray) -> tuple[float, int, int]:
    """The G statistic of (rows, k) counts against the (rows, k)
    distributions they were drawn from, its degrees of freedom and the
    number of pooled bins. Each row pools its smallest bins until every bin
    expects at least 5 counts; a row of n bins adds n - 1 degrees of
    freedom."""
    g, dof, pooled = 0.0, 0, 0
    for o, p in zip(counts, probs):
        e = o.sum() * p / p.sum()
        order = np.argsort(e)
        m = np.count_nonzero(e < 5)
        if m:
            m = max(m, int(np.searchsorted(np.cumsum(e[order]), 5.0)) + 1)
        obs, exp = o[order[m:]], e[order[m:]]
        if m:
            obs, exp = np.append(obs, o[order[:m]].sum()), np.append(exp, e[order[:m]].sum())
        g += 2.0 * float(np.sum(obs[obs > 0] * np.log(obs[obs > 0] / exp[obs > 0])))
        dof += len(obs) - 1
        pooled += m
    return g, dof, pooled


def test_draws_follow_their_distributions():
    # a pooled G-test: the 16 tomography settings of a few prepared pairs and
    # the ancilla readout of each measurement circuit, with and without the
    # readout flip, which the expected distributions apply apart from the
    # engine. One statistic over every row, against the chi-square
    # threshold of false-alarm rate G_FALSE_ALARM
    from scipy.stats import chi2  # the test extra; most of this test's time

    pairs = as_stack([circ.run_pure(ex.prep_circuit(p), basis_state(2)) for p in G_PREPARED])
    drawn, expected = [], []
    for f, flip in enumerate((0.0, G_FLIP)):
        probs = tom.setting_probabilities(pairs, circ.NoiseModel(readout_flip=flip))
        paths = [(f, i) for i in range(len(pairs))]
        drawn.append(tom.collect(probs, G_SHOTS, G_SEED, path_array(paths)).reshape(-1, 4))
        expected.append(_flipped(tom.setting_probabilities(pairs), flip).reshape(-1, 4))
        for k, name in enumerate(("visibility", "predictability", "concurrence1",
                                  "concurrence2")):
            s = ex.MeasurementSetting(name)
            states = as_stack([circ.run_pure(full_circuit(s, p), basis_state(s.num_qubits))
                               for p in G_PREPARED])
            paths = [(2 + f, k, i) for i in range(len(states))]
            counts = circ.sample_counts(states, s.ancilla_qubits, G_SHOTS, G_SEED,
                                        path_array(paths), flip)
            p = _flipped(circ.exact_probabilities(states, s.ancilla_qubits), flip)
            # pad the one-ancilla rows with never-drawn outcomes
            drawn.append(np.pad(counts, ((0, 0), (0, 4 - counts.shape[1]))))
            expected.append(np.pad(p, ((0, 0), (0, 4 - p.shape[1]))))
    counts, probs = np.concatenate(drawn), np.concatenate(expected)
    assert (counts.sum(axis=1) == G_SHOTS).all()
    impossible = probs == 0
    assert impossible.any() and not counts[impossible].any()
    g, dof, pooled = _pooled_g(counts, probs)
    assert pooled > impossible.sum()  # some possible outcome was pooled too
    assert g < chi2.isf(G_FALSE_ALARM, dof), f"G = {g:.1f} on {dof} degrees of freedom"


class TestSeedInput:
    """Bad seed input or shot counts are rejected with ValueError before any
    row is drawn."""

    @pytest.mark.parametrize("paths", [np.zeros((2, 1), dtype=int), np.zeros((4, 1), dtype=int),
                                       np.zeros((0, 1), dtype=int)])
    def test_one_path_per_row(self, paths, no_draw):
        with pytest.raises(ValueError, match="seed paths for 3 rows"):
            circ.sample_batch(np.full((3, 2), 0.5), 10, 0, paths)

    @pytest.mark.parametrize("shots", [0, True, 2.5, np.float64(3.0)])
    def test_shots(self, shots, no_draw):
        # multinomial would draw 1 shot for True and 2 for 2.5
        message = (re.escape(f"shots must be an integer, got {shots!r}") if shots
                   else "shots must be >= 1, got 0")
        with pytest.raises(ValueError, match=message):
            circ.sample_batch(np.full((2, 2), 0.5), shots, 0, path_array([(), ()]))

    @pytest.mark.parametrize("shots", [2**63, 10**20, np.uint64(2**63)])
    def test_shots_beyond_int64(self, shots, no_draw):
        # multinomial counts in int64, and overflowed converting the count;
        # the bound is compared with the built-in int, exactly, on any numpy
        with pytest.raises(ValueError,
                           match=rf"shots must be at most 2\*\*63 - 1, got {int(shots)}"):
            circ.sample_batch(np.full((2, 2), 0.5), shots, 0, path_array([(), ()]))

    def test_the_most_shots_int64_holds(self):
        counts = circ.sample_batch(np.full((1, 2), 0.5), 2**63 - 1, 0, path_array([()]))
        assert counts.sum() == 2**63 - 1

    @pytest.mark.parametrize("probs", [np.full(2, 0.5), np.full((1, 2, 2), 0.25),
                                       np.float64(1.0)])
    def test_a_2d_stack(self, probs, no_draw):
        with pytest.raises(ValueError, match=r"\(rows, outcomes\) stack"):
            circ.sample_batch(probs, 10, 0, np.zeros((len(np.atleast_1d(probs)), 0), dtype=int))

    @pytest.mark.parametrize("bad_row", [[0.5, -0.1], [np.nan, 1.0], [np.inf, 1.0],
                                         [0.0, 0.0], [1e308, 1e308]])
    def test_rows_with_a_positive_finite_total(self, bad_row, no_draw):
        # the first row is valid: no row may be drawn before the bad one is
        # seen; the last bad row is finite, but its total is not
        probs = np.array([[0.5, 0.5], bad_row])
        with pytest.raises(ValueError, match="nonnegative and finite with a positive total"):
            circ.sample_batch(probs, 10, 0, path_array([(0,), (1,)]))

    @pytest.mark.parametrize("master_seed", [-1, 1.0, True, "3", None, 2.5])
    def test_master_seed(self, master_seed, no_draw):
        with pytest.raises(ValueError, match="master_seed"):
            circ.sample_batch(np.full((2, 2), 0.5), 10, master_seed, path_array([(), ()]))

    @pytest.mark.parametrize("bad", [-1, 1.0, 2.5, True, np.bool_(False), "1", None,
                                     np.float64(3.0)])
    def test_path_elements(self, bad, no_draw):
        # an array of the bad element's own dtype: int (-1 is out of range),
        # float, bool, string and object (None) arrays are each refused
        paths = np.array([(1, 2), (3, bad)], dtype=np.asarray(bad).dtype)
        with pytest.raises(ValueError, match="^seed path elements must be "):
            circ.sample_batch(np.full((2, 2), 0.5), 10, 0, paths)

    @pytest.mark.parametrize("paths", [
        np.array([1, 2]), np.zeros((2, 1, 1), dtype=int), np.int64(0), [(1,), (2,)], ((1,), (2,)),
    ], ids=["1-D", "3-D", "scalar", "list", "tuple"])
    def test_a_2d_array(self, paths, no_draw):
        with pytest.raises(ValueError, match=r"^seed paths must be a \(rows, W\) integer array"):
            circ.sample_batch(np.full((2, 2), 0.5), 10, 0, paths)

    def test_an_object_array_of_integers(self, no_draw):
        with pytest.raises(ValueError, match="elements must be integers, got dtype object"):
            circ.sample_batch(np.full((2, 2), 0.5), 10, 0, np.array([(1,), (2,)], dtype=object))

    def test_collect_and_sample_counts_check_too(self, no_draw):
        probs = np.full((2, 16, 4), 0.25)
        for shots in (None, "3", 2.5):
            with pytest.raises(ValueError, match="shots must be an integer"):
                tom.collect(probs, shots, 0, path_array([(1, 0), (1, 1)]))
        with pytest.raises(ValueError, match="seed path elements"):
            tom.collect(probs, 10, 0, np.array([(1, 0), (1, 0.5)]))
        with pytest.raises(ValueError, match="seed path elements must be in"):
            tom.collect(probs, 10, 0, path_array([(1, 0), (1, 2**32)]))
        with pytest.raises(ValueError, match="seed paths for 2 rows"):
            circ.sample_counts(as_stack([basis_state(1)] * 2), (0,), 10, 0, path_array([()]))
        with pytest.raises(ValueError, match="seed path elements must be integers"):
            circ.sample_counts(as_stack([basis_state(1)] * 2), (0,), 10, 0,
                               np.zeros((2, 1), dtype=bool))


class TestShotsAConfigCanDraw:
    """A sampled sweep's shot count must fit numpy's int64 draw: the config
    refuses a larger one, and the command line exits 2 with one line."""

    def test_config(self):
        with pytest.raises(ValueError, match="shots must be at most 2\\*\\*63 - 1"):
            SweepConfig("VA", shots=2**63)
        SweepConfig("VA", shots=2**63 - 1)
        SweepConfig("VA", shots=2**63, exact_mode=True)  # exact mode draws nothing

    def test_command_line(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("prepared a block before checking the shots")
        monkeypatch.setattr(circ, "run_batch", refuse)
        out = tmp_path / "x.csv"
        code = cli.main(["sweep", "--observable", "VA", "--shots", str(10**20),
                         "--phi-steps", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: shots") and err.count("\n") == 1
        assert not out.exists()


class TestPointsAConfigCanSeed:
    """A point's index is an element of its seed paths, which hold 32-bit
    words: the configs refuse more than 2**32 points before any work."""

    def test_sweep_config(self):
        SweepConfig("VA", phi_count=2**32)  # constructed only, never run
        with pytest.raises(ValueError, match=r"phi_count must be at most 2\*\*32"):
            SweepConfig("VA", phi_count=2**32 + 1)

    def test_repetitions(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("began the run before checking the repetitions")
        monkeypatch.setattr(circ, "run_batch", refuse)
        # the fixed config comes before the list of points: without the check
        # that list would take 2**32 + 1 entries
        monkeypatch.setattr(harness, "replace", refuse)
        with pytest.raises(ValueError, match=r"repetitions must be at most 2\*\*32"):
            repeat_fixed_state(SweepConfig("VA", shots=100), 2**32 + 1)
