"""Sweep driver: configure, run the three-stage protocol, emit results.

The protocol for every sweep point mirrors the experimental procedure:

1. prepare the input state and tomograph it (accuracy reference),
2. run the nondemolition circuit and estimate the observable from the
   ancilla statistics,
3. tomograph the unconditional output state (nondemolition check), and
4. re-analyze the same output-tomography data post-selected on each ancilla
   outcome (state-preparation check).

Points run in blocks of ``BLOCK_POINTS``, each block in two stages:

* The seed-independent stage (``_prepare_block``) is a function of the
  observable, the block's distinct preparation angles reduced mod 2*pi
  and the noise model, and is cached on exactly that key. It runs the
  full circuits of all those points as one batch and keeps, per point,
  the theory value, the ideal branch data, the fidelity targets, the state
  the ancilla readout measures, and every tomography setting's outcome
  distribution, readout flip included, for the input pair and for the
  output register. The last ``PREPARED_BLOCKS`` blocks stay cached, so the
  seeds of a criteria run, like any sweeps that differ only in their seed
  or their mode, prepare each block once.
* The seed stage (``_measure_block``) draws the ancilla readout and the
  input and output tomography counts from those distributions and
  analyzes them: each input estimate on its own, and the sampled output
  estimates of every point and branch as one stack. Exact mode reads the
  same distributions instead, the infinite-shot limit of the draws, and
  analyzes no branch.

Each mixed point's output-tomography evolution runs on its own (pure
points, 16 state vectors each, run as one stack), so memory depends on the
block size, not on the sweep length.

Every random draw comes from a stream derived from
(master_seed, stage, point, setting), so results are byte-reproducible
regardless of execution order and block layout.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache

import numpy as np

from . import circuits as circ
from . import experiments as ex
from . import tomography as tom
from .analysis import BranchResult, FitResult, SweepRecord, fit_mixed_fraction, fit_scale
from .circuits import EmptyBranchError, NoiseModel
from .observables import concurrence_pure, observable_stack, predictability, visibility
from .qmath import DensityMatrix, StateVector, basis_state, fidelity, fidelity_stack, partial_trace

THETA_DEFAULTS = {
    "VA": 0.0,
    "VB": 3 * math.pi / 2,
    "PA": math.pi,
    "PB": math.pi,
    "C1": math.pi,
    "C2": math.pi,
}

CSV_COLUMNS = (
    "phi", "theta", "lambda", "observable", "theory", "qnd_estimate",
    "tomo_in", "tomo_out", "tomo_post", "fidelity_in", "fidelity_out",
    "fidelity_post", "branch", "branch_reliable", "shots", "seed",
)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: which observable, the angle grid, and the sampling setup.

    ``shots`` applies per circuit configuration, i.e. per tomography setting
    and per ancilla-readout run (echoed in emitted metadata).
    """

    observable: str
    theta: float | None = None
    lam: float = 0.0
    phi_start: float = 0.0
    phi_count: int = 64
    phi_step: float = math.pi / 32
    shots: int = 5000
    exact_mode: bool = False
    noise: NoiseModel = field(default_factory=NoiseModel)
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.observable not in ex.OBSERVABLES:
            raise ValueError(f"unknown observable {self.observable!r}")
        for name in ("theta", "lam", "phi_start", "phi_step"):
            value = getattr(self, name)
            if value is None and name == "theta":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("phi_count", "shots", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.exact_mode, bool):
            raise ValueError(f"exact_mode must be true or false, got {self.exact_mode!r}")
        if self.phi_step <= 0:
            raise ValueError("phi_step must be positive")
        if self.phi_count < 1:
            raise ValueError("phi_count must be >= 1")
        if not self.exact_mode and self.shots < 1:
            raise ValueError("shots must be >= 1 unless exact_mode")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")

    @property
    def theta_resolved(self) -> float:
        return THETA_DEFAULTS[self.observable] if self.theta is None else self.theta

    def phi_values(self) -> list[float]:
        return [self.phi_start + i * self.phi_step for i in range(self.phi_count)]

    def to_dict(self) -> dict:
        return {
            "observable": self.observable,
            "theta": self.theta_resolved,
            "lambda": self.lam,
            "phi_start": self.phi_start,
            "phi_count": self.phi_count,
            "phi_step": self.phi_step,
            "shots": self.shots,
            "shots_are_per_setting": True,
            "exact_mode": self.exact_mode,
            "noise": {
                "depol_1q": self.noise.depol_1q,
                "depol_2q": self.noise.depol_2q,
                "readout_flip": self.noise.readout_flip,
            },
            "master_seed": self.master_seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        """Parse a config echo or config file: the inverse of ``to_dict``.

        Every key but ``observable`` may be left out. ``shots_are_per_setting``
        (echo only), ``output_path`` (read by the command line) and
        ``workers`` (written by older versions) are ignored; an older
        ``noise.enabled`` goes to ``NoiseModel``. Any other key raises
        ValueError.
        """
        _check_keys("config", d, _CONFIG_KEYS | _IGNORED_KEYS)
        if "observable" not in d:
            raise ValueError("an observable is required")
        kwargs = {"lam" if k == "lambda" else k: v for k, v in d.items() if k not in _IGNORED_KEYS}
        if "noise" in kwargs:
            noise = kwargs["noise"]
            if not isinstance(noise, dict):
                raise ValueError(f"noise must be a JSON object, got {noise!r}")
            _check_keys("noise", noise, _NOISE_KEYS)
            kwargs["noise"] = NoiseModel(**noise)
        return cls(**kwargs)


_CONFIG_KEYS = {"lambda" if f.name == "lam" else f.name for f in fields(SweepConfig)}
_IGNORED_KEYS = {"shots_are_per_setting", "workers", "output_path"}
_NOISE_KEYS = {f.name for f in fields(NoiseModel)} | {"enabled"}


def _check_keys(what: str, d: dict, allowed: set[str]) -> None:
    unknown = sorted(str(k) for k in d if k not in allowed)
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")


def _observable_key(observable: str) -> str:
    return "C" if observable in ("C1", "C2") else observable


def theory_value(observable: str, chi: StateVector) -> float:
    """Defining-formula value of the observable on the ideal pure input."""
    rho = chi.density()
    if observable == "VA":
        return visibility(partial_trace(rho, (0,)))
    if observable == "VB":
        return visibility(partial_trace(rho, (1,)))
    if observable == "PA":
        return predictability(partial_trace(rho, (0,)))
    if observable == "PB":
        return predictability(partial_trace(rho, (1,)))
    return concurrence_pure(chi)


def _prepare_states(
    params: list[ex.PrepParams], setting: ex.MeasurementSetting, noise: NoiseModel
) -> tuple[list[StateVector | DensityMatrix], list[StateVector | DensityMatrix]]:
    """Input pair states, one run per point, and full post-circuit states,
    one batch for all points; pure unless noise is on."""
    n = setting.num_qubits
    preps = [ex.prep_circuit(p) for p in params]
    # the circuits differ only in their preparation angles, so they run as
    # one batch with a layer per gate position
    layers = [*zip(*(prep.gates for prep in preps))]
    layers += [(g,) * len(preps) for g in ex.measurement_circuit(setting).gates]
    if noise.depol_1q or noise.depol_2q or noise.readout_flip:
        rho0 = basis_state(2).density()
        chi_actual = [circ.run_noisy(prep, rho0, noise) for prep in preps]
        out = circ.run_batch(basis_state(n).density(), layers, noise)
        return chi_actual, [DensityMatrix(n, m) for m in out]
    psi0 = basis_state(2)
    chi_actual = [circ.run_pure(prep, psi0) for prep in preps]
    out = circ.run_batch(basis_state(n), layers, noise)
    return chi_actual, [StateVector(n, a) for a in out]


def _prep_params(phi: float, theta: float, lam: float) -> ex.PrepParams:
    """Preparation angles reduced mod 2*pi.

    The preparation is 2*pi periodic (an extra period only flips a global
    phase), so grids spanning several periods are fine; records keep the
    nominal angles.
    """
    two_pi = 2 * math.pi
    return ex.PrepParams(phi % two_pi, theta % two_pi, lam % two_pi)


BLOCK_POINTS = 16
"""Sweep points measured as one stack. Larger blocks save little more time
and hold more memory; the stacks must stay bounded however long the sweep."""


Point = tuple[int, float, int]
"""A sweep point: its index, which selects its seed streams; its phi; and
the seed tag its record carries."""


def _measure_points(config: SweepConfig, points: list[Point]) -> list[SweepRecord]:
    """Records of the points, measured BLOCK_POINTS at a time."""
    records: list[SweepRecord] = []
    for start in range(0, len(points), BLOCK_POINTS):
        records += _measure_block(config, points[start:start + BLOCK_POINTS])
    return records


PREPARED_BLOCKS = 32
"""Prepared blocks kept by ``_prepare_block``, least recently used first out.

One criteria seed, like one benchmark unit, visits a block per observable
and per 16 phi points, six or more in turn, and the next seed visits them
again in the same order: a cache smaller than one pass misses on every
call. A 16-point block holds 50 to 80 KB."""


@dataclass(frozen=True, eq=False)
class PreparedBlock:
    """The seed-independent stage of a block. Every field but
    ``readout_qubits`` has one entry per prepared state.

    ``theory`` and ``branches`` are the observable's defining-formula value
    and the ideal branch data. The fidelity targets are ``target_in``, the
    ideal input states, and ``target_out``, a (B, 4, 4) stack of the ideal
    unconditional outputs.

    ``readout`` holds the states whose ``readout_qubits`` the ancilla
    readout measures: the full register when pure, its ancilla marginal
    when mixed. ``probs_in`` and ``probs_out`` hold each setting's outcome
    distribution, readout flip included, (B, 16, 4) for the input pair and
    (B, 16, 2^n) for the full output register. Sampled mode draws from
    them and exact mode reads them, so one block serves both modes.

    Every array is owned and read-only, so an entry pins nothing else.
    """

    theory: tuple[float, ...]
    branches: tuple[tuple[ex.Branch, ...], ...]
    target_in: tuple[DensityMatrix, ...]
    target_out: np.ndarray
    readout: tuple[StateVector | DensityMatrix, ...]
    readout_qubits: tuple[int, ...]
    probs_in: np.ndarray
    probs_out: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.target_out, self.probs_in, self.probs_out):
            a.flags.writeable = False


@lru_cache(maxsize=PREPARED_BLOCKS)
def _prepare_block(
    observable: str, params: tuple[ex.PrepParams, ...], noise: NoiseModel
) -> PreparedBlock:
    """Everything the seed does not change: the states, their ideal
    counterparts and the outcome distributions of every measurement."""
    setting = ex.setting_for(observable)
    chi_ideal = [ex.bell_coefficients(p).state_vector() for p in params]
    ideal = tuple(ex.branch_data(setting, p) for p in params)
    chi_actual, out_states = _prepare_states(list(params), setting, noise)
    settings = tom.tomography_settings()
    ancillas = setting.ancilla_qubits
    if isinstance(out_states[0], StateVector):
        readout = tuple(out_states)
        probs_out = tom.setting_probabilities(out_states, settings, noise)
    else:
        readout = tuple(partial_trace(s, ancillas) for s in out_states)
        ancillas = tuple(range(len(ancillas)))
        # one state at a time: the evolved stack of a point is 16 full-register
        # density matrices, and the block's would be 16 times that
        probs_out = np.stack([tom.setting_probabilities(s, settings, noise) for s in out_states])
    return PreparedBlock(
        theory=tuple(theory_value(observable, chi) for chi in chi_ideal),
        branches=ideal,
        target_in=tuple(chi.density() for chi in chi_ideal),
        target_out=np.stack([ex.output_mixture(bs).matrix for bs in ideal]),
        readout=readout,
        readout_qubits=ancillas,
        probs_in=tom.setting_probabilities(chi_actual, settings, noise),
        probs_out=probs_out,
    )


def _measure_block(config: SweepConfig, points: list[Point]) -> list[SweepRecord]:
    """The seed stage: draw from the block's prepared distributions, or read
    them in exact mode, and analyze the data."""
    obs = config.observable
    key = _observable_key(obs)
    setting = ex.setting_for(obs)
    ms, shots, flip = config.master_seed, config.shots, config.noise.readout_flip
    indices = [index for index, _, _ in points]
    params = [_prep_params(phi, config.theta_resolved, config.lam) for _, phi, _ in points]
    # points at the same angles, like the repetitions of one state, share a slot
    slot_of = {p: k for k, p in enumerate(dict.fromkeys(params))}
    slots = [slot_of[p] for p in params]
    block = _prepare_block(obs, tuple(slot_of), config.noise)
    readouts = [block.readout[k] for k in slots]
    ideal = [block.branches[k] for k in slots]
    probs_in, probs_out = block.probs_in[slots], block.probs_out[slots]
    target_out = block.target_out[slots]

    # the ancilla readout, the input tomography data and the output analysis
    if config.exact_mode:
        anc_stats = [circ.exact_probabilities(r, block.readout_qubits, flip) for r in readouts]
        data_in = probs_in
        tomo_out, fidelity_out, branches = _exact_output(probs_out, ideal, target_out, key)
    else:
        anc_stats = [
            circ.sample_counts(r, block.readout_qubits, shots, circ.rng_stream(ms, 0, index), flip)
            for r, index in zip(readouts, indices)
        ]
        data_in = tom.collect(probs_in, shots, ms, seed_path=[(1, index) for index in indices])
        counts = tom.collect(probs_out, shots, ms, seed_path=[(2, index) for index in indices])
        tomo_out, fidelity_out, branches = _output_tomography(
            setting, counts, ideal, target_out, key)
    qnd_estimates = [ex.estimate_observable(setting, a)[obs].value for a in anc_stats]
    tomo_in, est_in = _estimate_each(data_in, key)
    fidelity_in = [fidelity(block.target_in[k], est) for k, est in zip(slots, est_in)]

    return [
        SweepRecord(
            observable=obs,
            phi=phi,
            theta=config.theta_resolved,
            lam=config.lam,
            theory=block.theory[slots[i]],
            qnd_estimate=qnd_estimates[i],
            tomo_in=tomo_in[i],
            tomo_out=tomo_out[i],
            fidelity_in=fidelity_in[i],
            fidelity_out=fidelity_out[i],
            branches=branches[i],
            shots=0 if config.exact_mode else shots,
            seed=seed_tag,
        )
        for i, (_, phi, seed_tag) in enumerate(points)
    ]


def _exact_output(probs_out, ideal, target_out, key: str):
    """The unconditional output estimates of exact data: each point's
    full-register distributions summed over the ancilla bits. No branch is
    analyzed; the records carry the ideal branch data only.

    Returns, per point, the observable value, its fidelity and the branches.
    """
    data = probs_out.reshape(*probs_out.shape[:2], 4, -1).sum(axis=-1)
    tomo_out, est_out = _estimate_each(data, key)
    fidelity_out = fidelity_stack(target_out, np.stack([est.matrix for est in est_out]))
    branches = [
        tuple(BranchResult(b.outcome, b.probability, b.reliable) for b in bs) for bs in ideal
    ]
    return tomo_out, fidelity_out.tolist(), branches


def _estimate_each(data, key: str) -> tuple[list[float], list[DensityMatrix]]:
    """Each (16, 4) data set's linear estimate: its observable value and its
    physical state."""
    values, states = [], []
    for d in data:
        est = tom.linear_reconstruct(d)
        values.append(tom.observables_from_estimate(est)[key].value)
        states.append(est.projected)
    return values, states


def _output_tomography(setting, counts, ideal, target_out, key: str):
    """Analyze each point's output-tomography counts unconditionally and
    post-selected on each ancilla outcome, for every point of the block as
    one stack of estimates.

    Returns, per point, the unconditional observable value, its fidelity,
    and the branch results.
    """
    data, owners = [], []  # each data set and its (point, branch); no branch: unconditional
    for i, point_counts in enumerate(counts):
        data.append(circ.marginalize_counts(point_counts, (0, 1)))
        owners.append((i, None))
        for b in ideal[i]:
            try:
                data.append(circ.postselect_counts(point_counts, setting.ancilla_qubits, b.outcome))
            except EmptyBranchError:
                continue  # some setting retained no shots in this branch
            owners.append((i, b))
    est = tom.reconstruct_stack(np.stack(data))
    rows = est.rows.tolist()
    # a data set left out of the stack retained too few shots to fix a state
    analyzed = [owners[r] for r in rows]
    if sum(b is None for _, b in analyzed) != len(counts):
        raise tom.DegenerateReconstructionError("an unconditional output estimate has zero trace")
    values = observable_stack(est.projected)[key][0].tolist()
    targets = {
        k: target_out[i] if b is None
        else np.outer(b.state.amplitudes, b.state.amplitudes.conj())
        for k, (i, b) in enumerate(analyzed) if b is None or b.state is not None
    }
    fids = dict(zip(targets, fidelity_stack(
        np.stack(list(targets.values())), est.projected[list(targets)]
    ).tolist()))
    tomo_out, fidelity_out = [0.0] * len(counts), [0.0] * len(counts)
    results: list[dict[str, BranchResult]] = [{} for _ in counts]
    for k, (r, (i, b)) in enumerate(zip(rows, analyzed)):
        if b is None:
            tomo_out[i], fidelity_out[i] = values[k], fids[k]
        else:
            results[i][b.outcome] = BranchResult(
                b.outcome, b.probability, b.reliable,
                retained_shots=int(data[r].sum(axis=-1).min()),
                tomo_value=values[k], fidelity=fids.get(k),
            )
    branches = [
        tuple(res.get(b.outcome, BranchResult(b.outcome, b.probability, b.reliable)) for b in bs)
        for res, bs in zip(results, ideal)
    ]
    return tomo_out, fidelity_out, branches


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Run the full protocol over the phi grid. Deterministic per config."""
    ms = config.master_seed
    return _measure_points(config, [(i, phi, ms) for i, phi in enumerate(config.phi_values())])


def repeat_fixed_state(config: SweepConfig, repetitions: int) -> list[SweepRecord]:
    """Repeat the protocol on the fixed maximally-entangled input state.

    Uses phi = pi/2, theta = pi (the Bell-state point) with one derived seed
    stream per repetition; the record's ``seed`` field carries the
    repetition index.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    fixed = replace(config, theta=math.pi, phi_start=math.pi / 2, phi_count=1)
    return _measure_points(fixed, [(r, math.pi / 2, r) for r in range(repetitions)])


def compute_fits(records: list[SweepRecord], observable: str) -> dict[str, FitResult]:
    """Scale fit of the QND estimates, plus output-state fits when present.

    Concurrence output curves get the fully-mixed-component fit (mix into
    the ideal state, recompute concurrence) since plain scaling cannot track
    the purity loss. Scale fits are left out when the theory curve is
    identically zero, where no scale factor is defined.
    """
    records = sorted(records, key=lambda r: (r.phi, r.seed))
    theory = [r.theory for r in records]
    scalable = any(theory)
    fits: dict[str, FitResult] = {}
    if scalable:
        fits["qnd_scale"] = fit_scale([r.qnd_estimate for r in records], theory)
    if all(r.tomo_out is not None for r in records):
        if scalable:
            fits["tomo_out_scale"] = fit_scale([r.tomo_out for r in records], theory)
        if observable in ("C1", "C2"):
            coeffs = [ex.bell_coefficients(_prep_params(r.phi, r.theta, r.lam)) for r in records]
            fits["tomo_out_mixed_fraction"] = fit_mixed_fraction(
                [r.tomo_out for r in records], coeffs
            )
    return fits


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _record_rows(rec: SweepRecord) -> list[dict]:
    """The record's CSV rows: the unconditional one, then one per analyzed
    branch, each from the record's JSON object."""
    base = _record_dict(rec)
    branches = base.pop("branches")
    base.update(tomo_post=None, fidelity_post=None, branch="", branch_reliable=None)
    return [base] + [
        {**base, "tomo_post": b["tomo_post"], "fidelity_post": b["fidelity_post"],
         "branch": b["outcome"], "branch_reliable": b["reliable"]}
        for b in branches if b["tomo_post"] is not None
    ]


def _record_dict(rec: SweepRecord) -> dict:
    return {
        "phi": rec.phi,
        "theta": rec.theta,
        "lambda": rec.lam,
        "observable": rec.observable,
        "theory": rec.theory,
        "qnd_estimate": rec.qnd_estimate,
        "tomo_in": rec.tomo_in,
        "tomo_out": rec.tomo_out,
        "fidelity_in": rec.fidelity_in,
        "fidelity_out": rec.fidelity_out,
        "shots": rec.shots,
        "seed": rec.seed,
        "branches": [
            {
                "outcome": b.outcome,
                "probability": b.probability,
                "reliable": b.reliable,
                "retained_shots": b.retained_shots,
                "tomo_post": b.tomo_value,
                "fidelity_post": b.fidelity,
            }
            for b in rec.branches
        ],
    }


def emit(
    records: list[SweepRecord],
    fmt: str,
    path: str,
    config: SweepConfig | None = None,
    fits: dict[str, FitResult] | None = None,
) -> None:
    """Write records to ``path`` as CSV or JSON.

    CSV rows are ordered by (phi, seed, branch); post-selected results get
    one row per analyzed branch. JSON additionally echoes the configuration
    and any fit results.
    """
    if not records:
        raise ValueError("no records to emit")
    ordered = sorted(records, key=lambda r: (r.phi, r.seed))
    if fmt == "csv":
        rows = [row for rec in ordered for row in _record_rows(rec)]
        rows.sort(key=lambda r: (r["phi"], r["seed"], r["branch"]))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    elif fmt == "json":
        doc = {
            "config": config.to_dict() if config is not None else None,
            "fits": {
                name: {"kind": f.kind, "parameter": f.parameter, "residual_rms": f.residual_rms}
                for name, f in (fits or {}).items()
            },
            "records": [_record_dict(r) for r in ordered],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def parse_csv(path: str) -> list[dict]:
    """Read back an emitted CSV as a list of per-row dicts (strings kept)."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_criteria_protocol(
    seeds: list[int],
    observables: tuple[str, ...] = ex.OBSERVABLES,
    phi_count: int = 16,
    phi_step: float = math.pi / 8,
    shots: int = 2000,
    noise: NoiseModel = NoiseModel(),
) -> dict:
    """Full three-criteria pipeline: sweeps for every observable and seed,
    summarized per seed and averaged across seeds. The seeds differ only in
    their draws, so every seed after the first reuses the first one's
    prepared blocks.

    Raises ValueError for an empty ``seeds`` or ``observables`` list,
    which has no mean.
    """
    from .analysis import criteria_summary

    if not seeds:
        raise ValueError("at least one seed is required")
    if not observables:
        raise ValueError("at least one observable is required")
    per_seed = []
    for seed in seeds:
        records_by_obs = {}
        for obs in observables:
            cfg = SweepConfig(
                observable=obs, phi_count=phi_count, phi_step=phi_step,
                shots=shots, noise=noise, master_seed=seed,
            )
            records_by_obs[obs] = run_sweep(cfg)
        per_seed.append(criteria_summary(records_by_obs))
    mean = {
        e: float(np.mean([r["averages"][e] for r in per_seed])) for e in per_seed[0]["averages"]
    }
    return {"seeds": list(seeds), "mean_average_errors": mean, "per_seed": per_seed}
