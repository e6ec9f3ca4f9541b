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
  the theory value, the ideal branch data, the fidelity targets, the
  full-register state whose ancillas the readout measures, and every
  tomography setting's outcome distribution, readout flip included, for
  the input pair and for the output register. The last
  ``PREPARED_BLOCKS`` blocks stay cached, so the seeds of a criteria run,
  like any sweeps that differ only in their seed or their mode, prepare
  each block once.
* The seed stage (``_measure_block``) draws the ancilla readout and the
  input and output tomography counts from those distributions and
  analyzes them: the input estimates of every point as one stack, and the
  output estimates of every point and branch as another
  (``_output_tomography``, which post-selects the whole block once per
  ancilla outcome). Exact mode runs the same analysis with each
  draw replaced by the distribution it draws from, the infinite-shot
  limit. Its data depend on the prepared state alone, so it analyzes each
  distinct state of the block once and post-selects no branch.

Each mixed point's output-tomography evolution runs on its own (pure
points, 16 state vectors each, run as one stack), so memory depends on the
block size, not on the sweep length.

Every random draw comes from a stream derived from its seed path: a
tomography setting's from (master_seed, stage, point, setting), the
ancilla readout's from (master_seed, 0, point), which has no setting. So
results are byte-reproducible regardless of execution order and block
layout, and each stage draws a whole block in one call.
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
from .circuits import NoiseModel
from .observables import concurrence_pure, observable_set, predictability, visibility
from .qmath import DensityMatrix, StateVector, basis_state, fidelity, partial_trace

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
        try:
            finite = math.isfinite(self.phi_start + (self.phi_count - 1) * self.phi_step)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ValueError("the last phi, phi_start + (phi_count - 1) * phi_step, "
                             "must be finite")
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
    if observable in ("C1", "C2"):
        return concurrence_pure(chi)
    a = chi.amplitudes
    reduced = partial_trace(np.outer(a, a.conj()), (0,) if observable in ("VA", "PA") else (1,))
    return float(visibility(reduced) if observable in ("VA", "VB") else predictability(reduced))


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
        out = circ.run_batch([basis_state(n).density()] * len(preps), layers, noise)
        return chi_actual, [DensityMatrix(n, m) for m in out]
    psi0 = basis_state(2)
    chi_actual = [circ.run_pure(prep, psi0) for prep in preps]
    out = circ.run_batch([basis_state(n)] * len(preps), layers, noise)
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
call. A 16-point block holds 50 to 150 KB."""


@dataclass(frozen=True, eq=False)
class PreparedBlock:
    """The seed-independent stage of a block. Every field has one entry
    per prepared state.

    ``theory`` and ``branches`` are the observable's defining-formula value
    and the ideal branch data. The fidelity targets are ``target_in`` and
    ``target_out``, (B, 4, 4) stacks of the ideal input states and of the
    ideal unconditional outputs.

    ``readout`` holds the full-register states whose ancillas the readout
    measures. ``probs_in`` and ``probs_out`` hold each setting's outcome
    distribution, readout flip included, (B, 16, 4) for the input pair and
    (B, 16, 2^n) for the full output register. Sampled mode draws from
    them and exact mode reads them, so one block serves both modes.

    Every array is owned and read-only, so an entry pins nothing else.
    """

    theory: tuple[float, ...]
    branches: tuple[tuple[ex.Branch, ...], ...]
    target_in: np.ndarray
    target_out: np.ndarray
    readout: tuple[StateVector | DensityMatrix, ...]
    probs_in: np.ndarray
    probs_out: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.target_in, self.target_out, self.probs_in, self.probs_out):
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
    if isinstance(out_states[0], StateVector):
        probs_out = tom.setting_probabilities(out_states, noise)
    else:
        # one state at a time: the evolved stack of a point is 16 full-register
        # density matrices, and the block's would be 16 times that
        probs_out = np.concatenate([tom.setting_probabilities([s], noise) for s in out_states])
    return PreparedBlock(
        theory=tuple(theory_value(observable, chi) for chi in chi_ideal),
        branches=ideal,
        target_in=np.stack([np.outer(chi.amplitudes, chi.amplitudes.conj()) for chi in chi_ideal]),
        target_out=np.stack([ex.output_mixture(bs) for bs in ideal]),
        readout=tuple(out_states),
        probs_in=tom.setting_probabilities(chi_actual, noise),
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

    # the ancilla readout and the input and output tomography data
    if config.exact_mode:
        # exact data are a function of the slot alone: each slot is analyzed
        # once, unconditionally only, and a point reads its slot's results
        rows = slots
        anc_stats = np.stack([circ.exact_probabilities(r, setting.ancilla_qubits, flip)
                              for r in block.readout])
        data_in, data_out = block.probs_in, block.probs_out
        target_in, ideal, target_out = block.target_in, block.branches, block.target_out
        postselected = [()] * len(ideal)
    else:
        rows = range(len(points))
        anc_stats = circ.sample_counts([block.readout[k] for k in slots], setting.ancilla_qubits,
                                       shots, ms, [(0, index) for index in indices], flip)
        data_in = tom.collect(block.probs_in[slots], shots, ms, [(1, index) for index in indices])
        data_out = tom.collect(block.probs_out[slots], shots, ms, [(2, index) for index in indices])
        target_in, target_out = block.target_in[slots], block.target_out[slots]
        ideal = postselected = [block.branches[k] for k in slots]
    tomo_out, fidelity_out, branches = _output_tomography(
        setting, data_out, ideal, postselected, target_out, key)
    qnd_estimates = ex.estimate_observable(setting, anc_stats)[obs].tolist()
    # one linear estimate per input data set, analyzed as one stack
    est_in = np.stack([tom.linear_reconstruct(d).projected.matrix for d in data_in])
    tomo_in = observable_set(est_in)[key].tolist()
    fidelity_in = fidelity(target_in, est_in).tolist()

    return [
        SweepRecord(
            observable=obs,
            phi=phi,
            theta=config.theta_resolved,
            lam=config.lam,
            theory=block.theory[k],
            qnd_estimate=qnd_estimates[r],
            tomo_in=tomo_in[r],
            tomo_out=tomo_out[r],
            fidelity_in=fidelity_in[r],
            fidelity_out=fidelity_out[r],
            branches=branches[r],
            shots=0 if config.exact_mode else shots,
            seed=seed_tag,
        )
        for (_, phi, seed_tag), k, r in zip(points, slots, rows)
    ]


def _output_tomography(setting, data, ideal, postselected, target_out, key: str):
    """Analyze each point's full-register output-tomography data, counts or
    distributions, unconditionally and post-selected on each ancilla outcome
    of its ``postselected`` branches, for every point of the block as one
    stack of estimates. A branch not listed there, one in which some
    setting retained no shot, or one that retained too few shots to fix a
    state, carries its ideal data only.

    Returns, per point, the unconditional observable value, its fidelity,
    and the branch results.
    """
    # the pair data: each outcome summed over the trailing ancilla bits
    pair = data.reshape(*data.shape[:2], 4, -1).sum(axis=-1)
    # each listed outcome post-selected on the whole block at once, and the
    # fewest shots any setting of each point retained in it
    outcomes = dict.fromkeys(b.outcome for listed in postselected for b in listed)
    selected = {o: circ.postselect_counts(data, setting.ancilla_qubits, o) for o in outcomes}
    retained = {o: kept.sum(axis=-1).min(axis=-1).tolist() for o, kept in selected.items()}
    sets, owners = [], []  # each data set and its (point, branch); no branch: unconditional
    for i, listed in enumerate(postselected):
        sets.append(pair[i])
        owners.append((i, None))
        for b in listed:
            if retained[b.outcome][i]:
                sets.append(selected[b.outcome][i])
                owners.append((i, b))
    est = tom.reconstruct_stack(np.stack(sets))
    # a data set left out of the stack retained too few shots to fix a state
    analyzed = [owners[r] for r in est.rows.tolist()]
    if sum(b is None for _, b in analyzed) != len(data):
        raise tom.DegenerateReconstructionError("an unconditional output estimate has zero trace")
    values = observable_set(est.projected)[key].tolist()
    targets = {
        k: target_out[i] if b is None
        else np.outer(b.state.amplitudes, b.state.amplitudes.conj())
        for k, (i, b) in enumerate(analyzed) if b is None or b.state is not None
    }
    fids = dict(zip(targets, fidelity(
        np.stack(list(targets.values())), est.projected[list(targets)]
    ).tolist()))
    tomo_out, fidelity_out = [0.0] * len(data), [0.0] * len(data)
    results: list[dict[str, BranchResult]] = [{} for _ in data]
    for k, (i, b) in enumerate(analyzed):
        if b is None:
            tomo_out[i], fidelity_out[i] = values[k], fids[k]
        else:
            results[i][b.outcome] = BranchResult(
                b.outcome, b.probability, b.reliable, retained_shots=retained[b.outcome][i],
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
    if isinstance(repetitions, bool) or not isinstance(repetitions, numbers.Integral):
        raise ValueError(f"repetitions must be an integer, got {repetitions!r}")
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
            # one write: json.dump writes every token on its own
            fh.write(json.dumps(doc, indent=2) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


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
    which has no mean, and for any seed and observable whose sweep config
    is invalid, before the first sweep runs.
    """
    from .analysis import criteria_summary

    if not seeds:
        raise ValueError("at least one seed is required")
    if not observables:
        raise ValueError("at least one observable is required")
    configs = [
        [SweepConfig(observable=obs, phi_count=phi_count, phi_step=phi_step,
                     shots=shots, noise=noise, master_seed=seed) for obs in observables]
        for seed in seeds
    ]
    per_seed = [
        criteria_summary({cfg.observable: run_sweep(cfg) for cfg in seed_configs})
        for seed_configs in configs
    ]
    mean = {
        e: float(np.mean([r["averages"][e] for r in per_seed])) for e in per_seed[0]["averages"]
    }
    return {"seeds": list(seeds), "mean_average_errors": mean, "per_seed": per_seed}
