"""Shared helpers for the test suite: seeded random-object generators, and
the exact oracles the acceptance criteria compare the package against
(the exact QND estimator on a given pair state, the pair state after one
measurement pass, the closed-form state before the ancilla readout, the
measurement circuit read without the half angle, one point's branches
simulated alone and post-selected, which pins which outcome is which,
the general count marginalization, the triality defect, and the theory
value of one point), and copies of code the package replaced by faster
or simpler code that must agree with it bit for bit (the 16-step
Pauli-pair loop of the raw estimate, the post-selection of one point's
branch at a time, the Born-rule marginal of one state at a time, one
point's branch data built from tuples and an empty-branch exception and
its output mixture summed a branch at a time, the linear estimates
solved against a broadcast copy of the design matrix, and the
depolarizing channel's mixed term built by a transpose), the
depolarizing channel written as a Pauli twirl, the CSV writer that
formats every cell of every row and writes one row at a time, the JSON
document the indented writer wrote, and a reset of the sweep's stage
caches."""

import csv
import itertools
import math
from dataclasses import replace

import numpy as np

from qndsim import circuits as circ
from qndsim import experiments as ex
from qndsim import harness
from qndsim import tomography as tom
from qndsim.circuits import Circuit, NoiseModel, _count_bits, cnot, cry, h, rx, ry, x
from qndsim.experiments import MeasurementSetting, estimate_observable, measurement_circuit
from qndsim.observables import concurrence_pure, predictability, visibility
from qndsim.qmath import DensityMatrix, StateVector, basis_state, partial_trace, tensor


STAGE_CACHES = (harness._prepare_input, harness._input_analysis, harness._prepare_block,
                harness._output_analysis)
"""The sweep's stage caches: the input stage, the input analysis, the
measurement stage and the output analysis."""


def clear_stage_caches() -> None:
    """Empty every stage cache, so that the next sweep runs every stage."""
    for cache in STAGE_CACHES:
        cache.cache_clear()


def as_stack(states) -> np.ndarray:
    """The ``run_batch`` stack of a sequence of states, all pure or all
    mixed: (B, d) amplitudes or (B, d, d) density matrices."""
    return np.stack([s.amplitudes if isinstance(s, StateVector) else s.matrix for s in states])


def random_pure_state(rng: np.random.Generator, num_qubits: int = 2) -> StateVector:
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def random_real_pure_state(rng: np.random.Generator, num_qubits: int = 2) -> StateVector:
    amps = rng.normal(size=2**num_qubits).astype(complex)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def random_density_matrix(rng: np.random.Generator, num_qubits: int = 2) -> DensityMatrix:
    d = 2**num_qubits
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(num_qubits, m / np.trace(m).real)


def random_circuit(rng: np.random.Generator, num_qubits: int, max_gates: int = 12) -> Circuit:
    gates = []
    for _ in range(int(rng.integers(1, max_gates + 1))):
        kind = rng.choice(["rx", "ry", "x", "h", "cnot", "cry"])
        q = int(rng.integers(num_qubits))
        if kind in ("cnot", "cry") and num_qubits >= 2:
            t = int(rng.integers(num_qubits - 1))
            t = t if t != q else num_qubits - 1
            gates.append(cnot(q, t) if kind == "cnot" else cry(q, t, float(rng.uniform(0, 2 * np.pi))))
        elif kind == "rx":
            gates.append(rx(q, float(rng.uniform(0, 2 * np.pi))))
        elif kind == "ry":
            gates.append(ry(q, float(rng.uniform(0, 2 * np.pi))))
        elif kind == "x":
            gates.append(x(q))
        else:
            gates.append(h(q))
    return Circuit(num_qubits, tuple(gates))


def random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def path_array(paths) -> np.ndarray:
    """Equal-length seed paths as the (rows, W) integer array every draw
    takes; ``[()]`` is the one-row (1, 0) array of the master seed's own
    stream."""
    return np.array(list(paths), dtype=np.int64)


NO_PATH = path_array([()])
"""One row's empty seed path, a (1, 0) array: the master seed's own stream."""
NO_PATH.flags.writeable = False


def rng_stream(master_seed: int, *path: int) -> np.random.Generator:
    """numpy's own generator for a point in the seed tree: the stream
    ``circuits.sample_batch`` must reproduce for that row's seed path."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(path)))


def tomography_data(
    state: StateVector | DensityMatrix,
    shots: int | None,
    master_seed: int = 0,
    noise: NoiseModel = NoiseModel(),
    seed_path: tuple[int, ...] = (),
) -> np.ndarray:
    """One state's (16, 4) tomography data: every setting's outcome
    distribution, drawn (or read exactly when ``shots`` is None)."""
    probs = tom.setting_probabilities(as_stack([state]), noise)
    if shots is None:
        return probs[0]
    return tom.collect(probs, shots, master_seed, path_array([seed_path]))[0]


def tomograph(
    state: StateVector | DensityMatrix,
    shots: int | None,
    master_seed: int = 0,
    noise: NoiseModel = NoiseModel(),
    seed_path: tuple[int, ...] = (),
) -> tom.TomographyEstimate:
    """Tomograph one state: ``linear_reconstruct`` of its tomography data."""
    return tom.linear_reconstruct(tomography_data(state, shots, master_seed, noise, seed_path))


def raw_estimate(data: np.ndarray) -> np.ndarray:
    """The raw (trace-normalized, possibly non-PSD) linear estimate of one
    (16, 4) data set, as ``reconstruct_stack`` computes it."""
    _, raw = tom._linear_estimates(np.asarray(data)[None])
    return raw[0]


def min_eigenvalue(data: np.ndarray) -> float:
    """The smallest eigenvalue of one data set's raw estimate."""
    return float(tom.reconstruct_stack(np.asarray(data)[None]).min_eigenvalue[0])


def pauli_loop_sum(coeffs: np.ndarray) -> np.ndarray:
    """sum_j coeffs[:, j] P_j / 4, Hermitized, of a (K, 16) coefficient
    stack: the 16-step loop over the Pauli-pair operators that
    ``tomography._pauli_sum`` replaced."""
    raw = np.zeros((len(coeffs), 4, 4), dtype=complex)
    for j, p in enumerate(tom._pauli_pairs()):
        raw = raw + coeffs[:, j, None, None] * p
    raw = raw / 4.0
    return (raw + np.swapaxes(raw.conj(), -1, -2)) / 2


def loop_linear_estimates(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``tomography._linear_estimates`` with the raw estimates summed by
    ``pauli_loop_sum``: the rows that fix a state and their estimates."""
    freqs = tom._frequencies_00(data)
    b = np.broadcast_to(tom._design_matrix(), (len(freqs), 16, 16))
    raw = pauli_loop_sum(np.linalg.solve(b, freqs[:, :, None])[:, :, 0])
    trace = np.trace(raw, axis1=-2, axis2=-1).real
    rows = np.flatnonzero(np.abs(trace) >= 1e-9)
    if not rows.size:
        raise tom.DegenerateReconstructionError("estimated trace is zero")
    return rows, raw[rows] / trace[rows, None, None]


def broadcast_linear_estimates(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``tomography._linear_estimates`` as it solved against a broadcast
    (K, 16, 16) copy of the design matrix."""
    freqs = tom._frequencies_00(data)
    b = np.broadcast_to(tom._design_matrix(), (len(freqs), 16, 16))
    raw = tom._pauli_sum(np.linalg.solve(b, freqs[:, :, None])[:, :, 0])
    trace = np.trace(raw, axis1=-2, axis2=-1).real
    rows = np.flatnonzero(np.abs(trace) >= 1e-9)
    if not rows.size:
        raise tom.DegenerateReconstructionError("estimated trace is zero")
    return rows, raw[rows] / trace[rows, None, None]


def marginal_probabilities(state: StateVector | DensityMatrix, measured_qubits) -> np.ndarray:
    """The (2^m,) Born-rule probabilities of one state over the measured
    qubits, in listed-bit order: the per-state code that
    ``circuits._marginal_probabilities`` replaced by one call on a stack."""
    measured_qubits = tuple(measured_qubits)
    n = state.num_qubits
    if isinstance(state, StateVector):
        probs_t = np.abs(state.amplitudes.reshape([2] * n)) ** 2
        drop = tuple(q for q in range(n) if q not in measured_qubits)
        probs_t = probs_t.sum(axis=drop) if drop else probs_t
        remaining = sorted(measured_qubits)
        probs_t = probs_t.transpose([remaining.index(q) for q in measured_qubits])
        return probs_t.reshape(-1)
    if len(measured_qubits) == n:
        reduced = state.matrix
        remaining = list(range(n))
    else:
        remaining = sorted(measured_qubits)
        reduced = partial_trace(state.matrix, remaining)
    probs_t = np.diag(reduced).real.reshape([2] * len(remaining))
    probs_t = probs_t.transpose([remaining.index(q) for q in measured_qubits])
    return probs_t.reshape(-1)


PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pauli_twirl(rho: np.ndarray, num_qubits: int, support, p: float) -> np.ndarray:
    """The depolarizing channel on the qubits of ``support`` as a Pauli
    twirl: (1 - p) rho + p / 4^s sum_P P rho P^dagger over the 4^s Pauli
    strings P on the support (identity elsewhere), for a (d, d) matrix or
    a (B, d, d) stack."""
    support = tuple(support)
    twirled = np.zeros_like(rho, dtype=complex)
    for paulis in itertools.product(PAULIS, repeat=len(support)):
        on = dict(zip(support, paulis))
        op = tensor(*[on.get(q, PAULIS[0]) for q in range(num_qubits)])
        twirled = twirled + op @ rho @ op.conj().T
    return (1.0 - p) * rho + p * twirled / 4 ** len(support)


def transposed_depolarize(m: np.ndarray, num_qubits: int, support, p: float) -> np.ndarray:
    """The depolarizing channel as ``circuits._depolarize`` computed it
    before its gather map: the Kronecker product I/2^s (x) the marginal by
    broadcasting, put back in qubit order by a transpose, on a (B, d, d)
    stack."""
    keep = [q for q in range(num_qubits) if q not in support]
    s = len(support)
    if not keep:
        mixed = np.eye(2**num_qubits, dtype=complex) / 2**num_qubits
    else:
        marginal = partial_trace(m, keep)
        b = len(m)
        eye = np.eye(2**s, dtype=complex) / 2**s
        mixed = eye[:, None, :, None] * marginal[:, None, :, None, :]
        order = list(support) + keep
        src = [order.index(q) for q in range(num_qubits)]
        mixed = mixed.reshape((b,) + (2,) * (2 * num_qubits))
        mixed = mixed.transpose([0] + [1 + i for i in src] + [1 + num_qubits + i for i in src])
        mixed = mixed.reshape(b, 2**num_qubits, 2**num_qubits)
    return (1.0 - p) * m + p * mixed


def postselect_branch(counts: np.ndarray, ancilla_positions, outcome: str) -> np.ndarray | None:
    """The counts of one branch, ancilla bits stripped, as
    ``circuits.postselect_counts`` gives them; None when any row retains
    no shots, a branch the analysis of one point's branch at a time
    dropped."""
    counts = np.asarray(counts)
    m, positions = _count_bits(counts, "ancilla_positions", ancilla_positions)
    lead = counts.shape[:-1]
    index = [slice(None)] * m
    for p, bit in zip(positions, outcome):
        index[p] = int(bit)
    kept = counts.reshape(lead + (2,) * m)[(Ellipsis, *index)]
    kept = kept.reshape(lead + (2 ** (m - len(positions)),))
    return kept if kept.sum(axis=-1).all() else None


def postselected_sets(data: np.ndarray, outcomes, ancilla_positions):
    """The output analysis's data sets as it built them one point and one
    branch at a time: per point, its pair data, then each listed outcome's
    branch whose every setting retained a shot. Returns the (K, 16, 4)
    stack, the (point, outcome or None) owner of each row, and each branch
    row's fewest retained shots."""
    pair = data.reshape(*data.shape[:2], 4, -1).sum(axis=-1)
    sets, owners, retained = [], [], []
    for i, point_data in enumerate(data):
        sets.append(pair[i])
        owners.append((i, None))
        retained.append(None)
        for outcome in outcomes:
            kept = postselect_branch(point_data, ancilla_positions, outcome)
            if kept is None:
                continue
            sets.append(kept)
            owners.append((i, outcome))
            retained.append(int(kept.sum(axis=-1).min()))
    return np.stack(sets), owners, retained


def full_circuit(s: MeasurementSetting, p) -> Circuit:
    """One point's full circuit on the setting's register: the pair
    preparation, then the measurement circuit."""
    return Circuit(s.num_qubits, ex.prep_circuit(p).gates + measurement_circuit(s).gates)


class _ZeroWeight(ValueError):
    """A branch of (numerically) zero weight, as the code below signals it."""


def _postselect_or_raise(state: StateVector, ancilla_qubits, outcome: str):
    """Condition a pure state on a computational outcome of the ancillas:
    the renormalized state of the remaining qubits (original order) and the
    Born probability of the branch. Raises on an empty branch, as the
    post-selection of single states did before empty branches were data."""
    ancillas = tuple(ancilla_qubits)
    n = state.num_qubits
    t = state.amplitudes.reshape([2] * n)
    index: list[object] = [slice(None)] * n
    for q, bit in zip(ancillas, outcome):
        index[q] = int(bit)
    branch = t[tuple(index)].reshape(-1)
    prob = float(np.sum(np.abs(branch) ** 2))
    if prob < 1e-12:
        raise _ZeroWeight(outcome)
    return StateVector(n - len(ancillas), branch / math.sqrt(prob)), prob


def _target_or_raise(s: MeasurementSetting, c, outcome: str):
    """One closed-form conditional pair state as it was built: a (state,
    probability) tuple, raising on an empty branch."""
    if s.observable in ("visibility", "predictability"):
        table = ex._VIS_BRANCHES if s.observable == "visibility" else ex._PRED_BRANCHES
        coeff_fn, ket_a, ket_b = table[outcome]
        coeff = coeff_fn(c)
        prob = coeff * coeff / 2.0
        if prob < 1e-12:
            raise _ZeroWeight(outcome)
        return StateVector(2, tensor(ket_a.reshape(2, 1), ket_b.reshape(2, 1)).reshape(-1)), prob
    vec = ex._conc2_branch_vectors(c)[outcome]
    prob = float(np.sum(np.abs(vec) ** 2))
    if prob < 1e-12:
        raise _ZeroWeight(outcome)
    return StateVector(2, vec / math.sqrt(prob)), prob


def _caught(build, outcome: str):
    """(outcome, state, probability) of one branch, an empty branch caught
    as the exception and given as (outcome, None, 0.0)."""
    try:
        return (outcome, *build(outcome))
    except _ZeroWeight:
        return outcome, None, 0.0


def simulated_branches(s: MeasurementSetting, p) -> tuple[tuple, ...]:
    """One point's branches obtained by running its full circuit alone and
    post-selecting the output on each ancilla outcome: (outcome, state or
    None, probability) per outcome. The oracle of which outcome is which,
    for every setting."""
    out = circ.run_pure(full_circuit(s, p), basis_state(s.num_qubits))
    return tuple(_caught(lambda o: _postselect_or_raise(out, s.ancilla_qubits, o), o)
                 for o in ex.branch_outcomes(s))


def tuple_branch_data(s: MeasurementSetting, p) -> tuple[tuple, ...]:
    """One point's ideal branch data as they were built before a block's
    were arrays: (state, probability) tuples, each empty branch caught as
    an exception and converted, circuit 1's simulated alone and the others
    in closed form, and the reliability flag computed here. Returns
    (outcome, state or None, probability, reliable) per outcome."""
    if s.observable == "concurrence1":
        entries = simulated_branches(s, p)
    else:
        c = ex.bell_coefficients(p)
        entries = tuple(_caught(lambda o: _target_or_raise(s, c, o), o)
                        for o in ex.branch_outcomes(s))
    return tuple((o, st, pr, pr >= ex.RELIABLE_BRANCH_PROB) for o, st, pr in entries)


def tuple_output_mixture(entries) -> np.ndarray:
    """One point's ideal unconditional output, a (4, 4) matrix, from its
    ``tuple_branch_data`` entries, summed as it was one point at a time."""
    m = np.zeros((4, 4), dtype=complex)
    for _, state, prob, _ in entries:
        if state is not None:
            m += prob * np.outer(state.amplitudes, state.amplitudes.conj())
    m /= np.trace(m).real
    return m


def append_ancillas(state: StateVector, count: int) -> StateVector:
    """Adjoin ``count`` fresh |0> qubits after the existing register."""
    amps = np.kron(state.amplitudes, basis_state(count).amplitudes)
    return StateVector(state.num_qubits + count, amps)


def append_ancillas_rho(rho: DensityMatrix, count: int) -> DensityMatrix:
    """Adjoin ``count`` fresh |0><0| qubits after the existing register."""
    anc = np.zeros((2**count, 2**count), dtype=complex)
    anc[0, 0] = 1.0
    return DensityMatrix(rho.num_qubits + count, np.kron(rho.matrix, anc))


def measurement_circuit_without_half_angle(s: MeasurementSetting) -> Circuit:
    """``measurement_circuit(s)`` with each setting rotation read as
    exp(-i sigma.vec), without the half angle: its ``rx``/``ry`` gates at
    twice the angle. Circuit 1 has no setting rotation and is unchanged.
    """
    mc = measurement_circuit(s)
    if s.observable == "concurrence1":
        return mc
    return Circuit(mc.num_qubits, tuple(
        replace(g, angle=2 * g.angle) if g.kind in ("rx", "ry") else g for g in mc.gates
    ))


def qnd_output_state(s: MeasurementSetting, c: ex.BellCoefficients) -> StateVector:
    """Closed-form four-qubit state right before the ancilla readout of a
    two-ancilla setting, the oracle its measurement circuit is checked
    against.

    Given in the same basis the measurement happens in, i.e. including the
    Bell rotation for the two-ancilla concurrence setting, so it can be
    compared directly against :func:`measurement_circuit` output.
    """
    amps = np.zeros(16, dtype=complex)
    if s.observable in ("visibility", "predictability"):
        table = ex._VIS_BRANCHES if s.observable == "visibility" else ex._PRED_BRANCHES
        for outcome, (coeff_fn, ket_a, ket_b) in table.items():
            anc = int(outcome, 2)
            pair = np.kron(ket_a, ket_b)
            for i in range(4):
                amps[i * 4 + anc] += ex.SQRT_HALF * coeff_fn(c) * pair[i]
    elif s.observable == "concurrence2":
        for outcome, vec in ex._conc2_branch_vectors(c).items():
            anc = int(outcome, 2)
            for i in range(4):
                amps[i * 4 + anc] += vec[i]
    else:
        raise ValueError("no closed-form output state for this setting")
    return StateVector(4, amps)


def theory_value(observable: str, chi: StateVector) -> float:
    """Defining-formula value of the observable on one ideal pure input:
    the per-point oracle of the input stage's theory. The concurrence is
    ``concurrence_pure``; any other observable is read from the one (4, 4)
    matrix by the kernel the stage applies to its whole stack."""
    if observable in ("C1", "C2"):
        return concurrence_pure(chi)
    a = chi.amplitudes
    return float(harness._observable_values(observable, np.outer(a, a.conj())[None])[0])


def qnd_estimates_exact(
    s: MeasurementSetting, pair_state: StateVector | DensityMatrix, half_angle: bool = True
) -> dict[str, float]:
    """Infinite-shot estimator values for a given two-qubit input state.

    Adjoins fresh |0> ancillas, runs the measurement circuit exactly, and
    feeds the exact ancilla probabilities to the estimator. Accepts a mixed
    input so repeated (nondemolition) measurements can be chained.
    """
    n_anc = s.num_qubits - 2
    mc = measurement_circuit(s) if half_angle else measurement_circuit_without_half_angle(s)
    if isinstance(pair_state, StateVector):
        full = append_ancillas(pair_state, n_anc)
        out: StateVector | DensityMatrix = circ.run_pure(mc, full)
    else:
        full_rho = append_ancillas_rho(pair_state, n_anc)
        out = circ.run_noisy(mc, full_rho, circ.NoiseModel())
    probs = circ.exact_probabilities(as_stack([out]), s.ancilla_qubits)
    return {name: float(v[0]) for name, v in estimate_observable(s, probs).items()}


def post_measurement_pair_state(
    s: MeasurementSetting, pair_state: StateVector | DensityMatrix
) -> DensityMatrix:
    """Unconditional pair state after one exact measurement-circuit pass."""
    n_anc = s.num_qubits - 2
    mc = measurement_circuit(s)
    if isinstance(pair_state, StateVector):
        out = circ.run_pure(mc, append_ancillas(pair_state, n_anc)).density()
    else:
        out = circ.run_noisy(mc, append_ancillas_rho(pair_state, n_anc), circ.NoiseModel())
    return DensityMatrix(2, partial_trace(out.matrix, (0, 1)))


def marginalize_counts(counts: np.ndarray, keep_positions) -> np.ndarray:
    """Discard bit positions, summing counts over the dropped bits.

    ``counts`` is a (..., 2^m) integer array indexed by outcome (bit
    position 0 the most significant); the result indexes the kept bits in
    the listed order.
    """
    counts = np.asarray(counts)
    m, keep = _count_bits(counts, "keep_positions", keep_positions)
    lead = counts.shape[:-1]
    b = len(lead)
    t = counts.reshape(lead + (2,) * m)
    drop = tuple(b + p for p in range(m) if p not in keep)
    if drop:
        t = t.sum(axis=drop)
    remaining = sorted(keep)
    t = t.transpose(tuple(range(b)) + tuple(b + remaining.index(p) for p in keep))
    return t.reshape(lead + (2 ** len(keep),))


def triality_defect(psi: StateVector, subsystem: str) -> float:
    """C^2 + V_k^2 + P_k^2 - 1 for a pure two-qubit state (zero when exact).

    The squared combination is the identity that actually closes for
    real-amplitude pure states; the linear combination C + V + P does not
    (e.g. cos(phi/2)|00> + sin(phi/2)|11> gives C + P = sin + cos > 1).
    """
    if subsystem not in ("A", "B"):
        raise ValueError("subsystem must be 'A' or 'B'")
    keep = (0,) if subsystem == "A" else (1,)
    rho_k = partial_trace(psi.density().matrix, keep)
    c = concurrence_pure(psi)
    v = float(visibility(rho_k))
    p = float(predictability(rho_k))
    return c * c + v * v + p * p - 1.0


def csv_cell(value) -> str:
    """A CSV cell's text as the row-at-a-time writer formatted it: ``repr``
    for a float, which names a numpy float's type."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_record_rows(rec) -> list[dict]:
    """The record's CSV rows as dicts, each a full copy of the record's JSON
    object: the unconditional row, then one per analyzed branch."""
    base = harness._record_dict(rec)
    branches = base.pop("branches")
    base.update(tomo_post=None, fidelity_post=None, branch="", branch_reliable=None)
    return [base] + [
        {**base, "tomo_post": b["tomo_post"], "fidelity_post": b["fidelity_post"],
         "branch": b["outcome"], "branch_reliable": b["reliable"]}
        for b in branches if b["tomo_post"] is not None
    ]


def rowwise_csv(records, path) -> None:
    """``harness.emit``'s CSV as the row-at-a-time writer wrote it, the byte
    oracle of the writer that formats each record once: every row's 16
    cells formatted by ``csv_cell``, the rows sorted by (phi, seed, branch)
    and written one ``writerow`` call each."""
    ordered = sorted(records, key=lambda r: (r.phi, r.seed))
    rows = [row for rec in ordered for row in csv_record_rows(rec)]
    rows.sort(key=lambda r: (r["phi"], r["seed"], r["branch"]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(harness.CSV_COLUMNS)
        for row in rows:
            writer.writerow([csv_cell(row[c]) for c in harness.CSV_COLUMNS])


def indented_json_document(records, config=None, fits=None) -> dict:
    """The document ``harness.emit`` wrote as ``json.dumps(doc, indent=2)``
    before it wrote one record per line, built here from the dataclass
    fields alone: the config's echo or None, the fits by name, and the
    records ordered by (phi, seed) with ties in the records' order."""
    def branch(b):
        return {"outcome": b.outcome, "probability": b.probability, "reliable": b.reliable,
                "retained_shots": b.retained_shots, "tomo_post": b.tomo_value,
                "fidelity_post": b.fidelity}

    def record(r):
        return {"phi": r.phi, "theta": r.theta, "lambda": r.lam, "observable": r.observable,
                "theory": r.theory, "qnd_estimate": r.qnd_estimate, "tomo_in": r.tomo_in,
                "tomo_out": r.tomo_out, "fidelity_in": r.fidelity_in,
                "fidelity_out": r.fidelity_out, "shots": r.shots, "seed": r.seed,
                "branches": [branch(b) for b in r.branches]}

    return {
        "config": config.to_dict() if config is not None else None,
        "fits": {name: {"kind": f.kind, "parameter": f.parameter,
                        "residual_rms": f.residual_rms} for name, f in (fits or {}).items()},
        "records": [record(r) for r in sorted(records, key=lambda r: (r.phi, r.seed))],
    }
