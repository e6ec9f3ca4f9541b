"""The seed stage's faster code against the code it replaced, bit for bit.

Sampled records are reproducible only if every estimate comes out the
same to the last bit, so each comparison here reads bit patterns
(``.view(np.uint64)``, which tells 0.0 from -0.0), never a tolerance:

* the four-term Pauli-pair gather against the 16-step loop over every
  operator (``helpers.pauli_loop_sum``), on coefficient stacks with exact
  zeros, -0.0 and non-contiguous layouts;
* the raw estimates and their projections against the loop's, on count
  and probability data;
* the flat-index simplex threshold against ``np.take_along_axis``;
* a block's post-selection, one call per ancilla outcome, against one
  point and one branch at a time (``helpers.postselected_sets``), empty
  branches included (``test_stack.py`` checks ``postselect_counts``'s
  empty rows against the dictionary code);
* the estimator on a stack against the scalar estimator on each row.

The claims must hold on every numpy the package supports, so CI also
runs this file on the oldest one.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from helpers import (
    loop_linear_estimates, pauli_loop_sum, postselected_sets,
    random_density_matrix, random_pure_state,
)
from qndsim import circuits as circ
from qndsim import experiments as ex
from qndsim import harness
from qndsim import tomography as tom
from qndsim.experiments import PrepParams
from qndsim.qmath import basis_state


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
    return tom.setting_probabilities(states)


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
       observable=st.sampled_from(ex.OBSERVABLES), high=st.sampled_from([2, 4, 200]))
def test_block_postselection_matches_one_branch_at_a_time(seed, points, observable, high):
    rng = np.random.default_rng(seed)
    setting = ex.setting_for(observable)
    counts = rng.integers(0, high, size=(points, 16, 2**setting.num_qubits))
    counts[..., 0] += 1  # the pair data read "00" in every setting, so they fix a state
    params = [PrepParams(*rng.uniform(0, 2 * np.pi, size=3)) for _ in range(points)]
    ideal = [ex.branch_data(setting, p) for p in params]
    target_out = np.stack([ex.output_mixture(bs) for bs in ideal])
    want, owners, retained = postselected_sets(counts, ideal, setting.ancilla_qubits)

    stacks = []
    real = tom.reconstruct_stack

    def spy(data):
        stacks.append(data)
        return real(data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tom, "reconstruct_stack", spy)
        _, _, branches = harness._output_tomography(
            setting, counts, ideal, ideal, target_out, harness._observable_key(observable))
    (got,) = stacks
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    analyzed = {(owners[r][0], owners[r][1].outcome): retained[r]
                for r in real(want).rows.tolist() if owners[r][1] is not None}
    for i, results in enumerate(branches):
        for result in results:
            assert result.retained_shots == analyzed.get((i, result.outcome))
            event("branch analyzed" if (i, result.outcome) in analyzed else "branch left out")


def _reference_estimate(s, row) -> dict[str, float]:
    """The estimator as it read one row of ancilla data."""
    f = circ._frequencies(np.asarray(row)).tolist()
    if s.observable in ("visibility", "predictability"):
        a, b = ("VA", "VB") if s.observable == "visibility" else ("PA", "PB")
        return {a: abs(f[0] + f[1] - f[2] - f[3]), b: abs(f[0] + f[2] - f[1] - f[3])}
    return {"C1" if s.observable == "concurrence1" else "C2": abs(f[1] - f[0])}


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
