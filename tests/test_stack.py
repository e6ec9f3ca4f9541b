"""Count arrays and the stacked tomography analysis against the code they replaced.

The references below are copies of the dictionary-based post-selection and
marginalization and of the single-estimate analysis (linear inversion,
simplex projection, observables, fidelity) that count arrays and stacks
replaced. Sampled records are only reproducible if every estimate comes out
bit for bit the same, so everything here compares with ``np.array_equal``
or ``==``, never with a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from helpers import (
    as_stack, marginalize_counts, min_eigenvalue, random_density_matrix, random_pure_state,
    raw_estimate,
)
from qndsim import circuits as circ
from qndsim import tomography as tom
from qndsim.circuits import NoiseModel
from qndsim.harness import SweepConfig, run_sweep
from qndsim.observables import SPIN_FLIP, observable_set
from qndsim.qmath import fidelity, partial_trace

# --- the dictionary-based count filtering -------------------------------------


def _as_dict(row: np.ndarray) -> dict[str, int]:
    m = len(row).bit_length() - 1
    return {format(i, f"0{m}b"): int(c) for i, c in enumerate(row) if c > 0}


def _reference_marginalize(counts: dict[str, int], keep) -> dict[str, int]:
    merged: dict[str, int] = {}
    for key, c in counts.items():
        short = "".join(key[p] for p in keep)
        merged[short] = merged.get(short, 0) + c
    return merged


def _reference_postselect(counts: dict[str, int], positions, outcome: str) -> dict[str, int] | None:
    kept: dict[str, int] = {}
    total = 0
    for key, c in counts.items():
        if all(key[p] == bit for p, bit in zip(positions, outcome)):
            stripped = "".join(ch for i, ch in enumerate(key) if i not in positions)
            kept[stripped] = kept.get(stripped, 0) + c
            total += c
    return kept if total else None


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_bits=st.integers(2, 5),
    rows=st.integers(1, 16),
    sparse=st.booleans(),
)
def test_count_arrays_match_dict_filtering(seed, num_bits, rows, sparse):
    rng = np.random.default_rng(seed)
    high = 3 if sparse else 400
    counts = rng.integers(0, high, size=(rows, 2**num_bits))
    counts[rng.random(counts.shape) < (0.6 if sparse else 0.1)] = 0
    positions = tuple(int(p) for p in rng.permutation(num_bits)[: rng.integers(1, num_bits)])
    outcome = "".join(rng.choice(["0", "1"], size=len(positions)))
    keep = tuple(int(p) for p in rng.permutation(num_bits)[: rng.integers(1, num_bits + 1)])

    marg = marginalize_counts(counts, keep)
    assert marg.shape == (rows, 2 ** len(keep))
    for row, got in zip(counts, marg):
        assert _as_dict(got) == _reference_marginalize(_as_dict(row), keep)

    kept = circ.postselect_counts(counts, positions, outcome)
    assert kept.shape == (rows, 2 ** (num_bits - len(positions)))
    for row, got in zip(counts, kept):
        if not got.any():
            # a row that retained no shots is kept as zeros
            event("empty branch")
            assert _reference_postselect(_as_dict(row), positions, outcome) is None
            continue
        assert _as_dict(got) == _reference_postselect(_as_dict(row), positions, outcome)


# --- the single-estimate analysis ---------------------------------------------

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_PAIRS = [np.kron(a, b) for a in _PAULIS for b in _PAULIS]
_DESIGN = np.array(
    [[np.trace(s.projector() @ p).real / 4.0 for p in _PAIRS] for s in tom.tomography_settings()]
)


def _reference_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    rho = int(np.max(np.nonzero(u - cssv / idx > 0)[0])) + 1
    return np.clip(v - cssv[rho - 1] / rho, 0.0, None)


def _reference_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    floor = 1e-13 * max(1.0, float(vals[-1]))
    root = np.sqrt(np.where(vals < floor, 0.0, vals))
    return (vecs * root) @ vecs.conj().T


def _reference_estimate(data: np.ndarray):
    """(raw, projected, min eigenvalue) of one (16, 4) count or probability
    array, or None when the estimate has zero trace."""
    if np.issubdtype(data.dtype, np.integer):
        freqs = np.array([int(row[0]) / int(row.sum()) for row in data])
    else:
        freqs = np.array([float(row[0]) for row in data])
    coeffs = np.linalg.solve(_DESIGN, freqs)
    raw = sum(c * p for c, p in zip(coeffs, _PAIRS)) / 4.0
    raw = (raw + raw.conj().T) / 2
    trace = float(np.trace(raw).real)
    if abs(trace) < 1e-9:
        return None
    raw /= trace
    herm = (raw + raw.conj().T) / 2
    vals, vecs = np.linalg.eigh(herm)
    m = (vecs * _reference_simplex(vals)) @ vecs.conj().T
    return raw, (m + m.conj().T) / 2, float(vals[0])


def _reference_observables(rho: np.ndarray) -> dict[str, float]:
    rho_a = partial_trace(rho, (0,))
    rho_b = partial_trace(rho, (1,))
    s = _reference_sqrt(rho)
    r = np.linalg.svd(s @ SPIN_FLIP @ s.conj(), compute_uv=False)
    c = float(r[0] - r[1] - r[2] - r[3])
    out = {}
    for kind, red in (("A", rho_a), ("B", rho_b)):
        out["V" + kind] = float(2.0 * abs(red[0, 1]))
        out["P" + kind] = abs(float(red[1, 1].real - red[0, 0].real))
    out["C"] = min(max(c, 0.0), 1.0)
    return out


def _reference_trace_norm(a: np.ndarray, b: np.ndarray) -> np.float64:
    prod = _reference_sqrt(a) @ _reference_sqrt(b)
    return np.sum(np.linalg.svd(prod, compute_uv=False))


def _reference_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return max(float(_reference_trace_norm(a, b) ** 2), 0.0)


def _data_set(rng: np.random.Generator, probs: np.ndarray, kind: str) -> np.ndarray:
    """A (16, 4) count array: many shots, a branch that kept a handful,
    counts with no relation to any state, or counts that never read "00"
    (their estimate has zero trace)."""
    if kind in ("random", "no 00"):
        data = rng.integers(0, 4, size=(16, 4))
        data[:, int(rng.integers(1, 4))] += 1
        if kind == "no 00":
            data[:, 0] = 0
        return data
    if kind == "few":
        shots = rng.integers(1, 6, size=16)
    else:
        shots = np.full(16, int(rng.integers(50, 3000)))
    return np.stack([rng.multinomial(n, p / p.sum()) for n, p in zip(shots, probs)])


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pure=st.booleans(),
    kinds=st.lists(st.sampled_from(["many", "few", "random", "no 00"]), min_size=1, max_size=5),
)
def test_stacked_analysis_matches_stack_of_one(seed, pure, kinds):
    rng = np.random.default_rng(seed)
    state = random_pure_state(rng, 2) if pure else random_density_matrix(rng, 2)
    probs = tom.setting_probabilities(as_stack([state]))[0]
    data = np.stack([_data_set(rng, probs, kind) for kind in kinds])
    references = [_reference_estimate(d) for d in data]
    rows = [i for i, ref in enumerate(references) if ref is not None]
    if not rows:
        event("no data set fixes a state")
        with pytest.raises(tom.DegenerateReconstructionError):
            tom.reconstruct_stack(data)
        return
    stack = tom.reconstruct_stack(data)
    assert stack.rows.tolist() == rows
    observables = observable_set(stack.projected)
    targets = np.stack([random_density_matrix(rng, 2).matrix for _ in rows])
    fids = fidelity(targets, stack.projected)
    _, stack_raw = tom._linear_estimates(data)
    for i, row in enumerate(rows):
        raw, projected, min_eig = references[row]
        single = tom.linear_reconstruct(data[row])
        for est_raw, est_projected in ((stack_raw[i], stack.projected[i]),
                                       (raw_estimate(data[row]), single.projected.matrix)):
            assert np.array_equal(est_raw, raw)
            assert np.array_equal(est_projected, projected)
        assert stack.min_eigenvalue[i] == min_eig == min_eigenvalue(data[row])
        assert single.method == ("linear" if min_eig > -1e-12 else "linear+projection")
        event(single.method)
        want = _reference_observables(projected)
        assert {k: v[i] for k, v in observables.items()} == want
        singles = observable_set(single.projected.matrix[None])
        assert {k: v[0] for k, v in singles.items()} == want
        fid = _reference_fidelity(targets[i], projected)
        assert fids[i] == fid == fidelity(targets[i][None], single.projected.matrix[None])[0]
    for row in set(range(len(data))) - set(rows):
        event("degenerate data set")
        with pytest.raises(tom.DegenerateReconstructionError):
            tom.linear_reconstruct(data[row])


def test_stack_covers_projection_and_degenerate_rows():
    # the cases the property test must see: an estimate that needs the
    # simplex projection and a branch whose estimate has zero trace
    psi = random_pure_state(np.random.default_rng(8), 2)
    bell = tom.setting_probabilities(as_stack([psi]))[0]
    rng = np.random.default_rng(9)
    many = _data_set(rng, bell, "many")
    none_00 = np.tile([0, 1, 0, 2], (16, 1))
    stack = tom.reconstruct_stack(np.stack([many, none_00, many]))
    assert stack.rows.tolist() == [0, 2]
    assert stack.min_eigenvalue[0] < -1e-12
    assert np.array_equal(stack.projected[0], _reference_estimate(many)[1])
    assert math.isclose(np.trace(stack.projected[0]).real, 1.0, abs_tol=1e-12)


def test_probabilities_are_used_as_given():
    # exact records depend on the "00" probabilities as computed: a row
    # whose sum is not exactly 1 must not be renormalized
    rng = np.random.default_rng(21)
    probs = tom.setting_probabilities(as_stack([random_density_matrix(rng, 2) for _ in range(8)]))
    assert any((p.sum(axis=-1) != 1.0).any() for p in probs)  # a telling case
    for p in probs:
        est = tom.linear_reconstruct(p)
        raw, projected, min_eig = _reference_estimate(p)
        assert np.array_equal(raw_estimate(p), raw)
        assert np.array_equal(est.projected.matrix, projected)
        assert min_eigenvalue(p) == min_eig


def test_noisy_sweep_estimates_are_states(monkeypatch):
    # every estimate of a noisy sweep, input and output, single or stacked,
    # is trace-one and PSD to 1e-9
    seen = []
    real = tom.reconstruct_stack

    def checked(data):
        est = real(data)
        seen.append(est.projected)
        return est

    monkeypatch.setattr(tom, "reconstruct_stack", checked)
    noise = NoiseModel(depol_1q=0.005, depol_2q=0.05, readout_flip=0.01, enabled=True)
    records = run_sweep(SweepConfig("C2", phi_count=3, shots=300, noise=noise, master_seed=3))
    projected = np.concatenate(seen)
    analyzed = sum(b.tomo_value is not None for r in records for b in r.branches)
    assert len(projected) == 2 * len(records) + analyzed
    trace = np.trace(projected, axis1=-2, axis2=-1)
    assert np.abs(trace - 1.0).max() <= 1e-9
    assert np.linalg.eigvalsh(projected)[:, 0].min() >= -1e-9


def test_stack_rejects_bad_data():
    good = np.ones((16, 4), dtype=np.int64)
    with pytest.raises(ValueError, match="all 16 settings"):
        tom.reconstruct_stack(np.ones((2, 10, 4)))
    with pytest.raises(ValueError, match="positive total"):
        bad = np.stack([good, good.copy()])
        bad[1, 3] = 0
        tom.reconstruct_stack(bad)
    with pytest.raises(ValueError, match="(K, 4, 4)"):
        observable_set(np.eye(4))


def test_fidelity_stack_matches_single_fidelities():
    # squaring by multiplication and by pow() differ in the last bit for
    # about one value in a thousand, so this needs many pairs
    rng = np.random.default_rng(14)
    g = rng.normal(size=(2, 4000, 4, 4)) + 1j * rng.normal(size=(2, 4000, 4, 4))
    g[0, ::2, 1:] = 0  # pure first states in every other pair
    m = g @ np.swapaxes(g.conj(), -1, -2)
    m /= np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    norms = np.array([_reference_trace_norm(a, b) for a, b in zip(m[0], m[1])])
    assert (norms * norms != np.array([t**2 for t in norms.tolist()])).any()  # a telling case
    want = [_reference_fidelity(a, b) for a, b in zip(m[0], m[1])]
    assert fidelity(m[0], m[1]).tolist() == want
