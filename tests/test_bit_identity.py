"""The seed stage's faster code against the code it replaced, bit for bit.

Sampled records are reproducible only if every estimate comes out the
same to the last bit, so each comparison here reads bit patterns
(``.view(np.uint64)``, which tells 0.0 from -0.0), never a tolerance:

* the four-term Pauli-pair gather against the 16-step loop over every
  operator (``helpers.pauli_loop_sum``), on coefficient stacks with exact
  zeros, -0.0 and non-contiguous layouts;
* the raw estimates and their projections against the loop's, on count
  and probability data;
* the raw estimates, solved with the design matrix broadcast by
  ``np.linalg.solve``, against a solve on a broadcast copy of it
  (``helpers.broadcast_linear_estimates``), with data sets left out and
  without;
* the sweep's observable read from one single-qubit state, or from
  ``observable_set`` for the concurrence, against ``observable_set`` on
  the whole stack, and the theory value of one point
  (``helpers.theory_value``) against the formula on the one matrix;
* the input stage's theory, every observable on the block's whole stack
  of ideal inputs, against the theory value of each point;
* the flat-index simplex threshold against ``np.take_along_axis``;
* a block's post-selection, one call per ancilla outcome, against one
  point and one branch at a time (``helpers.postselected_sets``), empty
  branches included (``test_stack.py`` checks ``postselect_counts``'s
  empty rows against the dictionary code), and the measurement stage's
  branch arrays and output mixtures against the producer's;
* the estimator on a stack against the scalar estimator on each row;
* the Born-rule marginal, and the outcome distribution read from it, of a
  stack of states in one call against one state at a time
  (``helpers.marginal_probabilities``), pure and mixed;
* a block's ideal branch data and output mixtures, built as arrays for
  the whole block, against each point's tuples, empty-branch exceptions
  and mixture summed one branch at a time (``helpers.tuple_branch_data``
  and ``helpers.tuple_output_mixture``), on blocks of distinct points, of
  identical points and with empty branches;
* the depolarizing channel, its mixed term gathered from the marginal by
  a cached index map, against the broadcast product put in qubit order
  by a transpose (``helpers.transposed_depolarize``), on every support
  of every register, entries of -0.0 included.

The claims must hold on every numpy the package supports, so CI also
runs this file on the oldest one.
"""

import itertools

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from helpers import (
    as_stack, broadcast_linear_estimates, loop_linear_estimates, marginal_probabilities,
    pauli_loop_sum, postselected_sets, random_density_matrix, random_pure_state, theory_value,
    transposed_depolarize, tuple_branch_data, tuple_output_mixture,
)
from qndsim import circuits as circ
from qndsim import experiments as ex
from qndsim import harness
from qndsim import tomography as tom
from qndsim.circuits import NoiseModel
from qndsim.experiments import PrepParams
from qndsim.observables import observable_set, predictability, visibility
from qndsim.qmath import DensityMatrix, StateVector, basis_state, partial_trace


def _bits(a) -> np.ndarray:
    """The bit patterns of a float or complex array, signed zeros apart."""
    a = np.ascontiguousarray(a)
    return a.view(np.uint64)


def _layout(a: np.ndarray, layout: str) -> np.ndarray:
    """The same values in another memory layout."""
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "strided":
        wide = np.repeat(a, 2, axis=-1)
        return wide[..., ::2]
    return np.ascontiguousarray(a)


LAYOUTS = st.sampled_from(["C", "F", "strided"])
ANGLE = st.floats(0.0, 2 * np.pi)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 80), layout=LAYOUTS,
       scale=st.sampled_from([1e-300, 1e-8, 0.25, 1.0, 1e8]))
def test_pauli_sum_matches_the_loop(seed, k, layout, scale):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(scale=scale, size=(k, 16))
    kind = rng.integers(0, 3, size=coeffs.shape)
    coeffs[kind == 1] = 0.0
    coeffs[kind == 2] = -0.0
    coeffs = _layout(coeffs, layout)
    got = tom._pauli_sum(coeffs)
    want = pauli_loop_sum(coeffs)
    assert got.flags.c_contiguous
    assert np.array_equal(_bits(got), _bits(want))
    trace = np.trace(got, axis1=-2, axis2=-1)
    assert np.array_equal(_bits(trace), _bits(np.trace(want, axis1=-2, axis2=-1)))


def _counts(rng: np.random.Generator, k: int, sparse: bool) -> np.ndarray:
    """(k, 16, 4) counts, many of them zero, with a shot in every setting."""
    counts = rng.integers(0, 4 if sparse else 600, size=(k, 16, 4))
    counts[rng.random(counts.shape) < (0.5 if sparse else 0.05)] = 0
    empty = counts.sum(axis=-1) == 0
    counts[empty, rng.integers(0, 4)] = 1
    return counts


def _probabilities(rng: np.random.Generator, k: int) -> np.ndarray:
    """(k, 16, 4) exact distributions of random mixed and pure states, and
    of basis states, whose distributions hold exact zeros."""
    kinds = rng.integers(0, 3, size=k)
    states = [random_density_matrix(rng, 2) if kind == 0
              else random_pure_state(rng, 2).density() if kind == 1
              else basis_state(2, int(rng.integers(4))).density() for kind in kinds]
    return tom.setting_probabilities(as_stack(states))


def _reference_simplex(values: np.ndarray) -> np.ndarray:
    """``tomography.simplex_project`` as it read the threshold with
    ``np.take_along_axis``."""
    v = np.asarray(values, dtype=float)
    u = np.sort(v, axis=-1)[..., ::-1]
    cssv = np.cumsum(u, axis=-1) - 1.0
    n = v.shape[-1]
    positive = u - cssv / np.arange(1, n + 1) > 0
    rho = n - np.argmax(positive[..., ::-1], axis=-1)
    tau = np.take_along_axis(cssv, rho[..., None] - 1, axis=-1) / rho[..., None]
    return np.clip(v - tau, 0.0, None)


def _reference_project(raw: np.ndarray):
    herm = (raw + np.swapaxes(raw.conj(), -1, -2)) / 2
    vals, vecs = np.linalg.eigh(herm)
    m = (vecs * _reference_simplex(vals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    return (m + np.swapaxes(m.conj(), -1, -2)) / 2, vals


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40), layout=LAYOUTS,
       kind=st.sampled_from(["counts", "sparse counts", "probabilities"]))
def test_estimates_match_the_loop(seed, k, layout, kind):
    rng = np.random.default_rng(seed)
    if kind == "probabilities":
        data = _probabilities(rng, k)
    else:
        data = _counts(rng, k, sparse=kind == "sparse counts")
    data = _layout(data, layout)
    try:
        want_rows, want_raw = loop_linear_estimates(data)
    except tom.DegenerateReconstructionError:
        event("no data set fixes a state")
        with pytest.raises(tom.DegenerateReconstructionError):
            tom.reconstruct_stack(data)
        return
    rows, raw = tom._linear_estimates(data)
    assert rows.tolist() == want_rows.tolist()
    assert np.array_equal(_bits(raw), _bits(want_raw))
    est = tom.reconstruct_stack(data)
    projected, vals = _reference_project(want_raw)
    assert np.array_equal(_bits(est.projected), _bits(projected))
    assert np.array_equal(_bits(est.min_eigenvalue), _bits(vals[:, 0]))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40), layout=LAYOUTS,
       kind=st.sampled_from(["counts", "sparse counts", "probabilities"]),
       dropped=st.sampled_from([0, 0, 0, 1, 3, 40]))
def test_linear_estimates_match_the_broadcast_copy(seed, k, layout, kind, dropped):
    rng = np.random.default_rng(seed)
    if kind == "probabilities":
        data = _probabilities(rng, k)
        unfixed = [0.0, 0.5, 0.25, 0.25]
    else:
        data = _counts(rng, k, sparse=kind == "sparse counts")
        unfixed = [0, 3, 1, 0]
    # a data set that reads "00" in no setting has a zero estimate, left out
    drop = rng.choice(k, size=min(dropped, k), replace=False)
    data[drop] = unfixed
    data = _layout(data, layout)
    try:
        want_rows, want_raw = broadcast_linear_estimates(data)
    except tom.DegenerateReconstructionError:
        event("no data set fixes a state")
        with pytest.raises(tom.DegenerateReconstructionError):
            tom._linear_estimates(data)
        return
    event("every data set kept" if len(want_rows) == k else "data sets left out")
    rows, raw = tom._linear_estimates(data)
    assert rows.tolist() == want_rows.tolist()
    assert raw.flags.c_contiguous
    assert np.array_equal(_bits(raw), _bits(want_raw))


def _two_qubit_stack(rng: np.random.Generator, k: int, kind: str) -> np.ndarray:
    """k two-qubit states as the seed stage meets them: projected linear
    estimates of count data, or random mixed, pure and basis states."""
    if kind == "estimates":
        return tom.reconstruct_stack(_counts(rng, k, sparse=False)).projected
    makers = {
        "mixed": lambda: random_density_matrix(rng, 2),
        "pure": lambda: random_pure_state(rng, 2).density(),
        "basis": lambda: basis_state(2, int(rng.integers(4))).density(),
    }
    return as_stack([makers[kind]() for _ in range(k)])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 24),
       observable=st.sampled_from(ex.OBSERVABLES),
       kind=st.sampled_from(["estimates", "mixed", "pure", "basis"]))
def test_observable_values_match_observable_set(seed, k, observable, kind):
    rho = _two_qubit_stack(np.random.default_rng(seed), k, kind)
    key = "C" if observable in ("C1", "C2") else observable
    got = harness._observable_values(observable, rho)
    assert got.shape == (len(rho),)
    assert np.array_equal(_bits(got), _bits(observable_set(rho)[key]))


@settings(max_examples=200, deadline=None)
@given(observable=st.sampled_from(["VA", "VB", "PA", "PB"]), phi=ANGLE, theta=ANGLE,
       lam=ANGLE)
@example(observable="VA", phi=0.0, theta=0.0, lam=0.0)
@example(observable="PB", phi=np.pi / 2, theta=np.pi, lam=0.0)
def test_theory_value_matches_the_matrix_formula(observable, phi, theta, lam):
    chi = ex.bell_coefficients(PrepParams(phi, theta, lam)).state_vector()
    a = chi.amplitudes
    rho = np.outer(a, a.conj())
    # the formula on the one (4, 4) matrix
    reduced = partial_trace(rho, (0,) if observable in ("VA", "PA") else (1,))
    formula = float(visibility(reduced) if observable in ("VA", "VB") else predictability(reduced))
    got = theory_value(observable, chi)
    assert isinstance(got, float)
    assert _bits(np.float64(got)) == _bits(np.float64(formula))
    assert _bits(np.float64(got)) == _bits(observable_set(rho[None])[observable][0])


@settings(max_examples=100, deadline=None)
@given(angles=st.lists(st.tuples(ANGLE, ANGLE, ANGLE), min_size=1, max_size=16))
@example(angles=[(0.0, 0.0, 0.0), (np.pi / 2, np.pi, 0.0), (np.pi, np.pi, np.pi)])
def test_input_stage_theory_matches_each_point(angles):
    # the stage reads every observable's theory from the block's stack of
    # ideal inputs at once; each value must be the one point's, bit for bit
    params = tuple(PrepParams(*a) for a in angles)
    _, _, theory = harness._prepare_input(params, NoiseModel())
    assert list(theory) == list(ex.OBSERVABLES)
    chi = [ex.bell_coefficients(p).state_vector() for p in params]
    for observable, values in theory.items():
        want = np.array([theory_value(observable, c) for c in chi])
        assert np.array_equal(_bits(values), _bits(want)), observable


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(4,), (1, 4), (7, 2), (3, 5, 16)]),
       spread=st.sampled_from([0.0, 0.1, 1.0, 10.0]))
def test_simplex_threshold_matches_take_along_axis(seed, shape, spread):
    rng = np.random.default_rng(seed)
    v = rng.normal(scale=spread, size=shape) + 1.0 / shape[-1]
    v[rng.random(shape) < 0.2] = -0.0
    got = tom.simplex_project(v)
    assert got.shape == v.shape
    assert np.array_equal(_bits(got), _bits(_reference_simplex(v)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), points=st.integers(1, 16),
       observable=st.sampled_from(ex.OBSERVABLES), high=st.sampled_from([2, 4, 200]),
       bell=st.booleans())
def test_block_postselection_matches_one_branch_at_a_time(seed, points, observable, high, bell):
    rng = np.random.default_rng(seed)
    setting = ex.setting_for(observable)
    counts = rng.integers(0, high, size=(points, 16, 2**setting.num_qubits))
    counts[..., 0] += 1  # the pair data read "00" in every setting, so they fix a state
    params = tuple(PrepParams(*rng.uniform(0, 2 * np.pi, size=3)) for _ in range(points))
    if bell:  # the Bell point empties a branch of every setting
        params = (PrepParams(np.pi / 2, np.pi),) + params[1:]
    # the measurement stage holds the producer's arrays
    block = harness._prepare_block(setting, params, NoiseModel())
    probability, kets = ex.branch_data(setting, params)
    width = len(ex.branch_outcomes(setting))
    assert probability.shape == (points, width) and kets.shape == (points, width, 4)
    assert np.array_equal(_bits(block.probability), _bits(probability))
    assert np.array_equal(_bits(block.kets), _bits(kets))
    assert np.array_equal(_bits(block.mixture), _bits(ex.output_mixture(probability, kets)))
    if not probability.all():
        event("empty branch")
    outcomes = ex.branch_outcomes(setting)
    want, owners, retained = postselected_sets(counts, outcomes, setting.ancilla_qubits)

    stacks = []
    real = tom.reconstruct_stack

    def spy(data):
        stacks.append(data)
        return real(data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tom, "reconstruct_stack", spy)
        _, _, kept = harness._output_tomography(setting, counts, block)
    (got,) = stacks
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    analyzed = {owners[r]: retained[r]
                for r in real(want).rows.tolist() if owners[r][1] is not None}
    # an analyzed branch retained a shot in every setting, so 0 marks one
    # that was not analyzed
    assert all(shots > 0 for shots in analyzed.values())
    assert kept.shape == (points, width)
    for i in range(points):
        for j, outcome in enumerate(outcomes):
            assert kept[i, j] == analyzed.get((i, outcome), 0)
            event("branch analyzed" if (i, outcome) in analyzed else "branch left out")


def _reference_estimate(s, row) -> dict[str, float]:
    """The estimator as it read one row of ancilla data."""
    f = circ._frequencies(np.asarray(row)).tolist()
    if s.name in ("visibility", "predictability"):
        a, b = ("VA", "VB") if s.name == "visibility" else ("PA", "PB")
        return {a: abs(f[0] + f[1] - f[2] - f[3]), b: abs(f[0] + f[2] - f[1] - f[3])}
    return {"C1" if s.name == "concurrence1" else "C2": abs(f[1] - f[0])}


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 20),
       name=st.sampled_from(["visibility", "predictability", "concurrence1", "concurrence2"]),
       probabilities=st.booleans(), layout=LAYOUTS)
def test_estimator_stack_matches_each_row(seed, k, name, probabilities, layout):
    rng = np.random.default_rng(seed)
    s = ex.MeasurementSetting(name)
    width = 2 ** len(s.ancilla_qubits)
    if probabilities:
        data = rng.dirichlet(np.ones(width), size=k)
        zero = rng.random(data.shape) < 0.3
        zero[:, rng.integers(width)] = False
        data[zero] = 0.0
        data /= data.sum(axis=-1, keepdims=True)
    else:
        data = rng.integers(0, 5, size=(k, width))
        data[:, rng.integers(width)] += 1
    data = _layout(data, layout)
    got = ex.estimate_observable(s, data)
    rows = [_reference_estimate(s, row) for row in data]
    for name_, values in got.items():
        assert values.shape == (len(data),)
        want = np.array([r[name_] for r in rows])
        assert np.array_equal(_bits(values), _bits(want))



# measured qubits of a 4-qubit register, and each case's counterpart on 3
# qubits; "all" measures every qubit
MEASURED = {(2, 3): (1, 2), (2,): (2,), (2, 0): (2, 0), (3,): (2,), "all": "all"}


def _marginal_stack(rng: np.random.Generator, n: int, pure: bool, k: int) -> np.ndarray:
    """A stack of k random states and basis states of n qubits: amplitudes,
    with -0.0 for every zero, or density matrices with -0.0 for half of
    their zero diagonal entries, which the Born rule must keep apart."""
    states = []
    for _ in range(k):
        if rng.integers(2):
            states.append(random_pure_state(rng, n) if pure else random_density_matrix(rng, n))
        else:
            basis = basis_state(n, int(rng.integers(2**n)))
            states.append(basis if pure else basis.density())
    stack = as_stack(states)
    if pure:
        stack[stack == 0] = -0.0
    else:
        diagonal = np.einsum("kii->ki", stack)  # a view that writes through
        diagonal[(diagonal == 0) & (rng.random(diagonal.shape) < 0.5)] = -0.0
    return stack


def _reference_distribution(state, measured, flip: float) -> np.ndarray:
    """One state's recorded-outcome distribution as ``exact_probabilities``
    computed it, from a (1, 2^m) stack of its marginal."""
    probs = np.clip(marginal_probabilities(state, measured)[None], 0.0, None)
    if flip > 0.0:
        confusion = circ._confusion(len(measured), flip)
        probs = np.matmul(confusion, probs[:, :, None])[:, :, 0]
    return probs[0]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4]), pure=st.booleans(),
       k=st.integers(1, 12), measured=st.sampled_from(sorted(MEASURED, key=str)),
       flip=st.sampled_from([0.0, 0.01, 0.3]))
def test_stacked_marginal_matches_one_state_at_a_time(seed, n, pure, k, measured, flip):
    measured = measured if n == 4 else MEASURED[measured]
    measured = tuple(range(n)) if measured == "all" else measured
    rng = np.random.default_rng(seed)
    stack = _marginal_stack(rng, n, pure, k)
    states = [StateVector(n, row) if pure else DensityMatrix(n, row) for row in stack]
    got = circ._marginal_probabilities(stack, measured)
    want = np.stack([marginal_probabilities(state, measured) for state in states])
    assert got.shape == (k, 2 ** len(measured))
    assert np.array_equal(_bits(got), _bits(want))
    if len(measured) == n:  # every qubit: |amplitude|^2, or the diagonal
        born = np.abs(stack) ** 2 if pure else np.einsum("kii->ki", stack).real
        assert np.array_equal(_bits(got), _bits(born))
    got = circ.exact_probabilities(stack, measured, flip)
    want = np.stack([_reference_distribution(state, measured, flip) for state in states])
    assert np.array_equal(_bits(got), _bits(want))


def _assert_point_matches(s, p, probability, kets, mixture) -> int:
    """Compare one point's row of a block's branch arrays and its output
    mixture with the tuple code's, bit for bit; return the number of empty
    branches."""
    want = tuple_branch_data(s, p)
    assert [o for o, *_ in want] == list(ex.branch_outcomes(s))
    assert np.array_equal(_bits(mixture), _bits(tuple_output_mixture(want)))
    for j, (_, state, prob, _) in enumerate(want):
        assert _bits(probability[j]) == _bits(np.float64(prob))
        if state is None:
            assert probability[j] == 0.0 and not kets[j].any()
        else:
            assert np.array_equal(_bits(kets[j]), _bits(state.amplitudes))
    return sum(state is None for _, state, _, _ in want)


SETTINGS = ("visibility", "predictability", "concurrence1", "concurrence2")
# the Bell point (phi = pi/2, theta = pi) empties a branch of every setting,
# circuit 1's included; phi = 0 empties predictability and concurrence2 ones
EMPTYING = (PrepParams(np.pi / 2, np.pi), PrepParams(0.0), PrepParams(0.0, np.pi),
            PrepParams(np.pi / 2), PrepParams(np.pi, np.pi))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(SETTINGS), seed=st.integers(0, 2**32 - 1),
       points=st.integers(1, 16), kind=st.sampled_from(["distinct", "identical", "emptying"]))
@example(name="concurrence1", seed=0, points=16, kind="identical")
@example(name="predictability", seed=0, points=5, kind="emptying")
def test_branch_data_matches_the_tuple_code(name, seed, points, kind):
    # a block's arrays against each point's tuples: distinct angles, one
    # point repeated (so circuit 1's run shares each gate across the
    # block), and points that empty branches mixed in among random ones
    rng = np.random.default_rng(seed)
    s = ex.MeasurementSetting(name)
    params = tuple(PrepParams(*rng.uniform(0, 2 * np.pi, size=3)) for _ in range(points))
    if kind == "identical":
        params = params[:1] * points
    elif kind == "emptying":
        params = tuple(EMPTYING[k] if k < len(EMPTYING) else p
                       for k, p in zip(rng.integers(0, 2 * len(EMPTYING), size=points), params))
    probability, kets = ex.branch_data(s, params)
    mixture = ex.output_mixture(probability, kets)
    width = len(ex.branch_outcomes(s))
    assert probability.shape == (points, width) and probability.dtype == np.float64
    assert kets.shape == (points, width, 4) and kets.dtype == complex
    assert mixture.shape == (points, 4, 4)
    for i, p in enumerate(params):
        if _assert_point_matches(s, p, probability[i], kets[i], mixture[i]):
            event("empty branch")


@pytest.mark.parametrize("phi, theta", [(0.0, 0.0), (0.0, np.pi), (np.pi / 2, np.pi),
                                        (np.pi / 2, 0.0), (np.pi, np.pi)])
def test_branch_data_matches_the_tuple_code_on_empty_branches(phi, theta):
    # each point the block test mixes in, alone, against the tuple code: the
    # Bell point empties a branch of every setting, and every one of these
    # points empties two predictability and two concurrence2 branches
    assert PrepParams(phi, theta) in EMPTYING
    empty = {}
    for name in SETTINGS:
        s = ex.MeasurementSetting(name)
        p = PrepParams(phi, theta)
        probability, kets = ex.branch_data(s, (p,))
        mixture = ex.output_mixture(probability, kets)
        empty[name] = _assert_point_matches(s, p, probability[0], kets[0], mixture[0])
    assert empty["predictability"] >= 2 and empty["concurrence2"] >= 2
    if (phi, theta) == (np.pi / 2, np.pi):
        assert min(empty.values()) >= 1


def _supports(num_qubits: int) -> list[tuple[int, ...]]:
    """Every support of a one- or two-qubit gate, in either order."""
    qubits = range(num_qubits)
    return [(q,) for q in qubits] + list(itertools.permutations(qubits, 2))


@settings(max_examples=200, deadline=None)
@given(register=st.integers(1, 4).flatmap(
           lambda n: st.tuples(st.just(n), st.sampled_from(_supports(n)))),
       p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       k=st.integers(1, 6), zeros=st.floats(0.0, 1.0))
@example(register=(2, (1, 0)), p=0.05, seed=0, k=2, zeros=0.5)
def test_depolarize_matches_the_transpose(register, p, seed, k, zeros):
    num_qubits, support = register
    rng = np.random.default_rng(seed)
    d = 2**num_qubits
    m = np.stack([random_density_matrix(rng, num_qubits).matrix for _ in range(k)]
                 + [basis_state(num_qubits, int(rng.integers(d))).density().matrix])
    # signed zeros in both parts, where an entry's product may keep the sign
    m.real[rng.random(m.shape) < zeros / 2] = -0.0
    m.imag[rng.random(m.shape) < zeros] = -0.0
    want = transposed_depolarize(m.copy(), num_qubits, support, p)
    got = circ._depolarize(m.copy(), num_qubits, support, p)
    event("the whole register" if len(support) == num_qubits else "a marginal kept")
    assert np.array_equal(_bits(got), _bits(want))
