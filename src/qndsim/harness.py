"""Sweep driver: configure, run the three-stage protocol, emit results.

The protocol for every sweep point mirrors the experimental procedure:

1. prepare the input state and tomograph it (accuracy reference),
2. run the nondemolition circuit and estimate the observable from the
   ancilla statistics,
3. tomograph the unconditional output state (nondemolition check), and
4. re-analyze the same output-tomography data post-selected on each ancilla
   outcome (state-preparation check).

Points run in blocks of ``BLOCK_POINTS``, each block in four stages cached
on exactly what they depend on, so that no stage runs twice for one key.
Every stage is keyed on the block's per-point preparation angles, reduced
mod 2*pi, and keeps one entry per point:

* The input stage (``_prepare_input``) is a function of those angles and
  the noise model. It runs each point's input pair preparation and keeps
  the ideal input (the fidelity target), every tomography setting's
  outcome distribution, readout flip included, and the theory: every
  observable's defining-formula value on the ideal input. The observable
  is not in its key: observables prepared at the same angles, like PA,
  PB, C1 and C2 at their default theta, share one entry.
* The input analysis (``_input_analysis``) draws the input tomography
  counts from those distributions, or reads them in exact mode, and
  keeps each point's input estimate and its fidelity. Its key adds the
  draw (shots, master seed and the points' indices), or None in exact
  mode. So the observables of one seed that share an input stage share
  its estimates too, and each sweep point reads the observable it
  measures from its estimate.
* The measurement stage (``_prepare_block``) is a function of the
  measurement setting (the circuit), the angles and the noise model, not
  of the observable: PA and PB, or VA and VB, read one readout of one
  circuit. It runs the full circuits of the block's points as one batch
  and keeps, per point, the ideal branch data as the producer's arrays
  (``experiments.branch_data``: branch probabilities and unit kets), the
  ideal unconditional output and every tomography setting's outcome
  distribution over the output register; the full-register states whose
  ancillas the readout measures stay the one stack the batch returned.
* The output analysis (``_output_analysis``) adds the draw to the
  measurement stage's key, as the input analysis does to the input
  stage's. It draws the ancilla readout and the output tomography counts
  from the measurement stage's distributions, or reads them in exact
  mode, and analyzes the output estimates of every point and branch as one
  stack (``_output_tomography``, which post-selects the whole block once
  per ancilla outcome and forms the projectors of the branches it scores)
  for every observable the setting measures. Exact data are the
  infinite-shot limit, and no branch is post-selected on them.

The seed stage (``_measure_block``) then only reads each point's record
from these entries. Each cache keeps its last ``PREPARED_BLOCKS`` entries,
so the seeds of a criteria run, or sweeps that differ only in seed or
mode, prepare each block once, the two observables of a setting share one
draw and one analysis per seed, and the full blocks of a repeat run share
one entry.

Each block's points are built when it runs, and each mixed point's
output-tomography evolution runs on its own (pure points: 16 state vectors
as one stack), so memory depends on the block size, not the sweep length.

Every random draw comes from a stream derived from its seed path: a
tomography setting's from (master_seed, stage, point, setting), the
ancilla readout's from (master_seed, 0, point), which has no setting; a
stage passes a block's paths as one (P, 2) integer array (``_block_paths``),
the form every draw takes. No path holds the observable, so the observables
of one setting draw the same data. Results are byte-reproducible regardless
of execution order and block layout, and each stage draws a whole block in
one call.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache, partial

import numpy as np

from . import circuits as circ
from . import experiments as ex
from . import tomography as tom
from .analysis import (
    BranchResult, FitResult, SweepRecord, criteria_summary, fit_mixed_fraction, fit_scale,
)
from .circuits import NoiseModel
from .observables import concurrence_pure, observable_set
from .qmath import _integer, _real, basis_state, fidelity, partial_trace

CSV_COLUMNS = (
    "phi", "theta", "lambda", "observable", "theory", "qnd_estimate",
    "tomo_in", "tomo_out", "tomo_post", "fidelity_in", "fidelity_out",
    "fidelity_post", "branch", "branch_reliable", "shots", "seed",
)

MAX_POINTS = 2**32
"""The most points a sweep or a repeat run takes: a point's index is an
element of its seed paths, which ``circuits.sample_batch`` holds to 32 bits."""


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: which observable, the angle grid, and the sampling setup.

    ``shots`` applies per circuit configuration, i.e. per tomography setting
    and per ancilla-readout run (echoed in emitted metadata).

    Each number, numpy scalars included, is checked by ``qmath._real`` or
    ``qmath._integer`` and stored as the built-in ``float`` or ``int`` it
    returns, so an integer given for an angle is stored, written and echoed
    as a float. ``shots`` is 1..2**63 - 1, or any count >= 0 in exact mode,
    and ``noise`` a ``NoiseModel``.
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
        ex.observable_row(self.observable)  # refuses an unknown observable
        if not isinstance(self.exact_mode, bool):
            raise ValueError(f"exact_mode must be true or false, got {self.exact_mode!r}")
        store = partial(object.__setattr__, self)
        if self.theta is not None:
            store("theta", _real("theta", self.theta))
        for name in ("lam", "phi_start"):
            store(name, _real(name, getattr(self, name)))
        # at least the smallest positive float: a positive step
        store("phi_step", _real("phi_step", self.phi_step, math.ulp(0.0)))
        # the last phi is checked before the count's bound, which a count
        # beyond the float range also breaks: the grid is the fault to report
        count = _integer("phi_count", self.phi_count, 1)
        try:
            last = self.phi_start + (count - 1) * self.phi_step
        except OverflowError:  # a count beyond the float range
            last = math.inf
        _real("the last phi, phi_start + (phi_count - 1) * phi_step", last)
        store("phi_count", _integer("phi_count", count, 1, MAX_POINTS))
        # exact mode draws nothing: any nonnegative count, only echoed
        low, high = (0, math.inf) if self.exact_mode else (1, circ.MAX_SHOTS)
        store("shots", _integer("shots", self.shots, low, high))
        store("master_seed", _integer("master_seed", self.master_seed, 0))
        if not isinstance(self.noise, NoiseModel):
            raise ValueError(f"noise must be a NoiseModel, got {self.noise!r}")

    @property
    def theta_resolved(self) -> float:
        """``theta``, or when it is None the observable's row's default."""
        return ex.observable_row(self.observable).theta if self.theta is None else self.theta

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
        ValueError, as does anything but a dict.
        """
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
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


def _observable_values(observable: str, rho: np.ndarray) -> np.ndarray:
    """The observable's (K,) values on a (K, 4, 4) stack of two-qubit
    states, by its row's formula: its kernel on the reduced state of its
    qubit, or with no kernel the concurrence from ``observable_set``. The
    kernels are the ones ``observable_set`` applies, so each value is its
    value, bit for bit."""
    row = ex.observable_row(observable)
    if row.kernel is None:
        return observable_set(rho)["C"]
    return row.kernel(partial_trace(rho, (row.qubit,)))


def _noisy(noise: NoiseModel) -> bool:
    """Whether states run on the density engine: for any nonzero
    probability, a readout flip alone included."""
    return bool(noise.depol_1q or noise.depol_2q or noise.readout_flip)


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


def _measure_points(config: SweepConfig, count: int,
                    point: Callable[[int], Point]) -> list[SweepRecord]:
    """Records of point(0) to point(count - 1), each block built when it runs."""
    records: list[SweepRecord] = []
    for start in range(0, count, BLOCK_POINTS):
        stop = min(start + BLOCK_POINTS, count)
        records += _measure_block(config, [point(i) for i in range(start, stop)])
    return records


PREPARED_BLOCKS = 32
"""Entries kept by each stage cache (``_prepare_input``, ``_input_analysis``,
``_prepare_block`` and ``_output_analysis``), least recently used first out.

One criteria seed, like one benchmark unit, visits a block per observable
and per 16 phi points, six or more in turn, and the next seed visits them
again in the same order: a cache smaller than one pass misses on every
call. A 16-point block holds 25 to 105 KB, its input stage 13 KB, its
input analysis 4 KB and its output analysis 3 to 4 KB."""


@lru_cache(maxsize=PREPARED_BLOCKS)
def _prepare_input(
    params: tuple[ex.PrepParams, ...], noise: NoiseModel
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """The input stage of a block's points: the (P, 4, 4) ideal input
    states, the fidelity targets; the (P, 16, 4) outcome distributions of
    every tomography setting on the states actually prepared, readout flip
    included; and the theory, each observable's (P,) defining-formula
    values on the ideal inputs. Every array is owned and read-only."""
    preps = [ex.prep_circuit(p) for p in params]
    if _noisy(noise):
        rho0 = basis_state(2).density()
        actual = np.stack([circ.run_noisy(prep, rho0, noise).matrix for prep in preps])
    else:
        psi0 = basis_state(2)
        actual = np.stack([circ.run_pure(prep, psi0).amplitudes for prep in preps])
    chi = [ex.bell_coefficients(p).state_vector() for p in params]
    target = np.stack([np.outer(c.amplitudes, c.amplitudes.conj()) for c in chi])
    probs = tom.setting_probabilities(actual, noise)
    concurrence = np.array([concurrence_pure(c) for c in chi])
    theory = {obs: concurrence if ex.observable_row(obs).kernel is None
              else _observable_values(obs, target) for obs in ex.OBSERVABLES}
    for a in (target, probs, *theory.values()):
        a.flags.writeable = False
    return target, probs, theory


def _block_paths(stage: int, indices: tuple[int, ...]) -> np.ndarray:
    """The (P, 2) integer array of a block's seed paths (stage, index)."""
    return np.column_stack([np.full(len(indices), stage, dtype=np.int64), indices])


@lru_cache(maxsize=PREPARED_BLOCKS)
def _input_analysis(
    params: tuple[ex.PrepParams, ...],
    noise: NoiseModel,
    draw: tuple[int, int, tuple[int, ...]] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each point's input estimate, a (P, 4, 4) stack, and its fidelity
    with the ideal input, a (P,) array; both owned and read-only.

    Sampled, ``draw`` is (shots, master seed, the points' indices) and
    point i's data come from streams (master seed, 1, index i, setting).
    Exact, ``draw`` is None and the data are the outcome distributions.
    """
    target, probs, _ = _prepare_input(params, noise)
    if draw is None:
        data = probs
    else:
        shots, master_seed, indices = draw
        data = tom.collect(probs, shots, master_seed, _block_paths(1, indices))
    # one linear estimate per input data set, analyzed as one stack
    est = np.stack([tom.linear_reconstruct(d).projected.matrix for d in data])
    est.flags.writeable = False
    fid = fidelity(target, est)
    fid.flags.writeable = False
    return est, fid


@dataclass(frozen=True, eq=False)
class PreparedBlock:
    """The measurement stage of a block: what the setting's circuit does to
    each point's prepared state, whatever the seed. Every field has one
    entry per point; the input states are ``_prepare_input``'s.

    ``probability`` and ``kets`` are the block's ``branch_data``: the (P, B)
    ideal branch probabilities, 0.0 for an empty branch, and the (P, B, 4)
    unit kets of the branch states, zero for an empty branch. ``mixture``
    holds the (P, 4, 4) ideal unconditional outputs (``output_mixture``).
    They are the fidelity targets of the output analysis.

    ``readout`` is the ``run_batch`` stack of the full-register states
    whose ancillas the readout measures: (P, 2^n) amplitudes or
    (P, 2^n, 2^n) density matrices, never validated again. ``probs_out``
    holds each setting's outcome distribution over the full output
    register, readout flip included, (P, 16, 2^n). Sampled mode draws from
    these distributions and the readout's, exact mode reads them, so one
    block serves both modes.

    Every array is owned and read-only, so an entry pins nothing else.
    """

    probability: np.ndarray
    kets: np.ndarray
    mixture: np.ndarray
    readout: np.ndarray
    probs_out: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False


@lru_cache(maxsize=PREPARED_BLOCKS)
def _prepare_block(
    setting: ex.MeasurementSetting, params: tuple[ex.PrepParams, ...], noise: NoiseModel
) -> PreparedBlock:
    """The measurement stage of a block's points: their full circuits as
    one batch, the states' ideal counterparts and the outcome distributions
    of every measurement."""
    n = setting.num_qubits
    initial = basis_state(n).density().matrix if _noisy(noise) else basis_state(n).amplitudes
    readout = circ.run_batch(np.broadcast_to(initial, (len(params),) + initial.shape),
                             ex.block_layers(setting, params), noise)
    # density matrices one state at a time: the evolved stack of a point is
    # 16 full-register density matrices, and the block's would be 16 times that
    step = 1 if readout.ndim == 3 else len(readout)
    probs_out = np.concatenate([tom.setting_probabilities(readout[i:i + step], noise)
                                for i in range(0, len(readout), step)])
    # the ideal branch data after the evolution, whose peak memory they then miss
    probability, kets = ex.branch_data(setting, params)
    return PreparedBlock(probability, kets, ex.output_mixture(probability, kets), readout,
                         probs_out)


@dataclass(frozen=True, eq=False)
class OutputAnalysis:
    """The output analysis of a block for one draw: arrays with a row per
    point, for every observable the setting measures.

    ``qnd`` maps each observable to its (P,) ancilla estimates. ``values``
    maps each observable to its (P, 1 + B) output values and ``fidelity``
    holds the (P, 1 + B) output fidelities: column 0 is the unconditional
    estimate, column 1 + j the one post-selected on the point's ideal
    branch j. ``retained`` holds the (P, B) fewest shots any setting kept in
    each branch, 0 where the branch was not analyzed (an analyzed branch
    kept a shot in every setting); a branch column is read only where the
    branch was analyzed, and its fidelity only where the branch has an
    ideal state.

    Every array is owned and read-only, so an entry pins nothing else.
    """

    qnd: dict[str, np.ndarray]
    values: dict[str, np.ndarray]
    fidelity: np.ndarray
    retained: np.ndarray

    def __post_init__(self) -> None:
        for a in (*self.qnd.values(), *self.values.values(), self.fidelity, self.retained):
            a.flags.writeable = False


@lru_cache(maxsize=PREPARED_BLOCKS)
def _output_analysis(
    setting: ex.MeasurementSetting,
    params: tuple[ex.PrepParams, ...],
    noise: NoiseModel,
    draw: tuple[int, int, tuple[int, ...]] | None,
) -> OutputAnalysis:
    """The ancilla readout and the output tomography of a block, drawn and
    analyzed once for every observable the setting measures.

    Sampled, ``draw`` is (shots, master seed, the points' indices): point
    i's readout comes from stream (master seed, 0, index i) and its output
    tomography from streams (master seed, 2, index i, setting). Exact,
    ``draw`` is None and the data are the outcome distributions.
    """
    block = _prepare_block(setting, params, noise)
    flip = noise.readout_flip
    if draw is None:
        anc_stats = circ.exact_probabilities(block.readout, setting.ancilla_qubits, flip)
        data_out = block.probs_out
    else:
        shots, ms, indices = draw
        anc_stats = circ.sample_counts(block.readout, setting.ancilla_qubits,
                                       shots, ms, _block_paths(0, indices), flip)
        data_out = tom.collect(block.probs_out, shots, ms, _block_paths(2, indices))
    return OutputAnalysis(ex.estimate_observable(setting, anc_stats),
                          *_output_tomography(setting, data_out, block))


def _measure_block(config: SweepConfig, points: list[Point]) -> list[SweepRecord]:
    """The seed stage: each point's record, read from the block's stages."""
    obs, theta = config.observable, config.theta_resolved
    setting = ex.setting_for(obs)
    indices = tuple(index for index, _, _ in points)
    params = tuple(_prep_params(phi, theta, config.lam) for _, phi, _ in points)
    draw = None if config.exact_mode else (config.shots, config.master_seed, indices)
    # the input stage first, as the protocol runs it: its evolution then
    # shares the peak memory with no stack of the measurement stage
    theory = _prepare_input(params, config.noise)[2][obs].tolist()
    out = _output_analysis(setting, params, config.noise, draw)
    probability = _prepare_block(setting, params, config.noise).probability.tolist()
    est_in, fid_in = _input_analysis(params, config.noise, draw)
    tomo_in = _observable_values(obs, est_in).tolist()
    fidelity_in = fid_in.tolist()
    qnd_estimates = out.qnd[obs].tolist()
    values, fids, kept = out.values[obs].tolist(), out.fidelity.tolist(), out.retained.tolist()

    return [
        SweepRecord(
            observable=obs,
            phi=phi,
            theta=theta,
            lam=config.lam,
            theory=theory[i],
            qnd_estimate=qnd_estimates[i],
            tomo_in=tomo_in[i],
            tomo_out=values[i][0],
            fidelity_in=fidelity_in[i],
            fidelity_out=fids[i][0],
            branches=tuple(
                BranchResult(outcome, p, retained_shots=kept[i][j], tomo_value=values[i][1 + j],
                             fidelity=fids[i][1 + j] if p > 0 else None)
                if kept[i][j] else BranchResult(outcome, p)
                for j, (outcome, p) in enumerate(zip(ex.branch_outcomes(setting), probability[i]))
            ),
            shots=0 if config.exact_mode else config.shots,
            seed=seed_tag,
        )
        for i, (_, phi, seed_tag) in enumerate(points)
    ]


def _output_tomography(setting, data, block):
    """Analyze a block's full-register output-tomography data as one stack
    of estimates, its data sets laid out on a (point, column) grid. Column
    0 holds each point's pair data. For integer counts (not the exact
    distributions; the dtype rule of ``circuits._frequencies``), column
    1 + j holds the data post-selected on the j-th outcome of
    ``experiments.branch_outcomes``. A data set that retained no shot in
    some setting, or too few to fix a state, is not analyzed. Column 0 is
    scored against the measurement stage's ``mixture``, and column 1 + j
    against the projector on branch j's ket, only where the branch's
    ``probability`` is positive.

    Returns the fields of ``OutputAnalysis`` but ``qnd``: each observable's
    (P, 1 + B) values, the (P, 1 + B) fidelities and the (P, B) retained
    shots, a branch that was not analyzed reading 0.
    """
    # the pair data: each outcome summed over the trailing ancilla bits
    pair = data.reshape(*data.shape[:2], 4, -1).sum(axis=-1)
    outcomes = ex.branch_outcomes(setting) if np.issubdtype(data.dtype, np.integer) else ()
    sets = np.stack([pair, *(circ.postselect_counts(data, setting.ancilla_qubits, o)
                             for o in outcomes)], axis=1)
    # the fewest shots any setting kept in each cell; the cells that kept one
    # are stacked in row-major order, and reconstruct_stack leaves out a set
    # whose estimate has zero trace, too few shots to fix a state
    kept = sets.sum(axis=-1).min(axis=-1)
    est = tom.reconstruct_stack(sets[kept > 0])
    points, columns = (a[est.rows] for a in np.nonzero(kept > 0))
    if np.count_nonzero(columns == 0) != len(data):
        raise tom.DegenerateReconstructionError("an unconditional output estimate has zero trace")
    shape = (len(data), 1 + block.probability.shape[1])
    values = {}
    for obs in setting.observables:
        values[obs] = np.zeros(shape)
        values[obs][points, columns] = _observable_values(obs, est.projected)
    scored = np.insert(block.probability > 0, 0, True, axis=1)[points, columns]
    at, col = points[scored], columns[scored]
    targets = block.mixture[at]
    branch = col > 0
    ket = block.kets[at[branch], col[branch] - 1]
    targets[branch] = ket[:, :, None] * ket[:, None, :].conj()
    fids = np.zeros(shape)
    fids[at, col] = fidelity(targets, est.projected[scored])
    shots = np.zeros(shape, dtype=np.int64)
    shots[points, columns] = kept[points, columns]
    return values, fids, shots[:, 1:].copy()


def _check_config(config: SweepConfig) -> None:
    if not isinstance(config, SweepConfig):
        raise ValueError(f"config must be a SweepConfig, got {type(config).__name__}")


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Run the full protocol over the phi grid. Deterministic per config.
    Raises ValueError unless ``config`` is a ``SweepConfig``."""
    _check_config(config)
    return _measure_points(config, config.phi_count, lambda i: (
        i, config.phi_start + i * config.phi_step, config.master_seed))


def fixed_state_config(config: SweepConfig) -> SweepConfig:
    """The config a repeat run measures: ``config`` at the maximally
    entangled input, phi = pi/2 and theta = pi (the Bell-state point), its
    one phi point. Raises ValueError unless ``config`` is a ``SweepConfig``."""
    _check_config(config)
    return replace(config, theta=math.pi, phi_start=math.pi / 2, phi_count=1)


def repeat_fixed_state(config: SweepConfig, repetitions: int) -> list[SweepRecord]:
    """Repeat the protocol at ``fixed_state_config(config)``'s point with
    one derived seed stream per repetition; the record's ``seed`` field
    carries the repetition index. ``config`` is a ``SweepConfig`` and
    ``repetitions`` an integer in 1..2**32, both checked before any work.
    """
    repetitions = _integer("repetitions", repetitions, 1, MAX_POINTS)
    fixed = fixed_state_config(config)
    return _measure_points(fixed, repetitions, lambda r: (r, fixed.phi_start, r))


def compute_fits(records: list[SweepRecord]) -> dict[str, FitResult]:
    """Fits of the records of one observable, the one they name
    (``SweepRecord.observable``): a scale fit of the QND estimates, plus
    output-state fits when present, as its row's formula asks.

    An observable whose formula is the concurrence gets the fully-mixed-
    component fit (mix into the ideal state, recompute the concurrence,
    Wootters' closed form) since plain scaling cannot track the purity
    loss. Scale fits are left out when the sum of the squared theory values
    is 0 (identically zero or underflowing), where no scale factor is
    defined. Raises ValueError, before any fit, unless ``records`` is a
    nonempty list of records that all name one known observable.
    """
    _check_records(records, "fit")
    held = sorted({r.observable for r in records})
    if len(held) > 1:
        raise ValueError(f"records must be of one observable, got records of {held}")
    row = ex.observable_row(held[0])
    records = sorted(records, key=lambda r: (r.phi, r.seed))
    theory = np.asarray([r.theory for r in records], dtype=float)
    # fit_scale's divisor
    scalable = float(np.dot(theory, theory)) > 0.0
    fits: dict[str, FitResult] = {}
    if scalable:
        fits["qnd_scale"] = fit_scale([r.qnd_estimate for r in records], theory)
    if all(r.tomo_out is not None for r in records):
        if scalable:
            fits["tomo_out_scale"] = fit_scale([r.tomo_out for r in records], theory)
        if row.kernel is None:
            coeffs = [ex.bell_coefficients(_prep_params(r.phi, r.theta, r.lam)) for r in records]
            fits["tomo_out_mixed_fraction"] = fit_mixed_fraction(
                [r.tomo_out for r in records], coeffs
            )
    return fits


def _fmt(value) -> str:
    """A CSV cell's text: empty for None, JSON's literal for a bool, and
    ``float.__repr__`` for a float, the text ``json`` writes, so a cell and
    its JSON value read the same even for a float subclass such as a numpy
    scalar, whose own ``repr`` names its type."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


_BRANCH_CELLS = tuple(CSV_COLUMNS.index(c)
                      for c in ("tomo_post", "fidelity_post", "branch", "branch_reliable"))
"""Where a branch row's own cells sit; every other cell is its point row's."""


def _record_rows(rec: SweepRecord) -> list[tuple[tuple, list[str]]]:
    """The record's CSV rows, each with its (phi, seed, branch) sort key: the
    unconditional row, then one per analyzed branch, all from the record's
    JSON object. The shared cells are formatted once, for the point row; a
    branch row is a copy of it with the branch's four cells formatted."""
    d = _record_dict(rec)
    branches = d.pop("branches")
    d.update(tomo_post=None, fidelity_post=None, branch="", branch_reliable=None)
    point = [_fmt(d[c]) for c in CSV_COLUMNS]
    phi, seed = d["phi"], d["seed"]
    rows = [((phi, seed, ""), point)]
    tomo, fid, outcome, reliable = _BRANCH_CELLS
    for b in branches:
        if b["tomo_post"] is not None:
            row = point.copy()
            row[tomo], row[fid] = _fmt(b["tomo_post"]), _fmt(b["fidelity_post"])
            row[outcome], row[reliable] = _fmt(b["outcome"]), _fmt(b["reliable"])
            rows.append(((phi, seed, b["outcome"]), row))
    return rows


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


def _check_records(records: list[SweepRecord], what: str) -> None:
    """Refuse anything but a nonempty list or tuple of ``SweepRecord``."""
    if not isinstance(records, (list, tuple)):
        raise ValueError(f"records must be a list of SweepRecord, got {type(records).__name__}")
    if not records:
        raise ValueError(f"no records to {what}")
    bad = [type(r).__name__ for r in records if not isinstance(r, SweepRecord)]
    if bad:
        raise ValueError(f"records must be a list of SweepRecord, got {bad[0]} among them")


def emit(
    records: list[SweepRecord],
    fmt: str,
    path: str,
    config: SweepConfig | None = None,
    fits: dict[str, FitResult] | None = None,
) -> None:
    """Write records to ``path`` as CSV or JSON.

    CSV: one row per record, plus one per analyzed branch, each built from
    the record's JSON object (``_record_rows``), ordered by the raw
    (phi, seed, branch) values with ties kept in the records' order. So for
    equal (phi, seed) all point rows come first, then each branch's rows.
    A cell's text is ``_fmt``'s; the header and every row go out in one
    ``writerows`` call.

    JSON: one object whose ``config`` (the configuration's echo, or null),
    ``fits`` and ``records`` each start a line, with one record on each
    line after ``records``, indented by four spaces::

        {
          "config": {...},
          "fits": {...},
          "records": [
            {...},
            {...}
          ]
        }

    Each value is written by ``json.dumps`` with its defaults, so keys, key
    order, values and escaping are those of the ``json.dumps(doc,
    indent=2)`` that earlier versions wrote, and ``json.loads`` reads
    either file to the same object. The layout is for speed: Python's C
    encoder takes no indent, and this layout leaves all the encoding to it.
    The file goes out in one write and holds len(records) + 6 lines.

    Raises ValueError, before the file is opened, unless ``records`` is a
    nonempty list of records, ``config`` a ``SweepConfig`` or None, and
    ``fits`` None or a dict of ``FitResult`` keyed by name.
    """
    _check_records(records, "emit")
    if config is not None:
        _check_config(config)
    if fits is not None and not (isinstance(fits, dict) and all(
            isinstance(k, str) and isinstance(f, FitResult) for k, f in fits.items())):
        raise ValueError(f"fits must be a dict of str to FitResult, got {fits!r}")
    ordered = sorted(records, key=lambda r: (r.phi, r.seed))
    if fmt == "csv":
        keyed = [row for rec in ordered for row in _record_rows(rec)]
        keyed.sort(key=lambda kr: kr[0])  # stable: ties keep the records' order
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([CSV_COLUMNS, *(row for _, row in keyed)])
    elif fmt == "json":
        echo = config.to_dict() if config is not None else None
        fitted = {
            name: {"kind": f.kind, "parameter": f.parameter, "residual_rms": f.residual_rms}
            for name, f in (fits or {}).items()
        }
        lines = [
            "{",
            f'  "config": {json.dumps(echo)},',
            f'  "fits": {json.dumps(fitted)},',
            '  "records": [',
            ",\n".join("    " + json.dumps(_record_dict(r)) for r in ordered),
            "  ]",
            "}",
        ]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
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

    Raises ValueError, before the first sweep runs, unless ``seeds`` and
    ``observables`` are each a list or tuple; for an empty one, which has
    no mean; for a repeated seed or observable, which would be counted
    twice or reported once; and for any seed and observable whose sweep
    config is invalid.
    """
    for name, items in (("seed", seeds), ("observable", observables)):
        if not isinstance(items, (list, tuple)):
            raise ValueError(f"{name}s must be a list or tuple, got {items!r}")
        if not items:
            raise ValueError(f"at least one {name} is required")
    configs = [
        [SweepConfig(observable=obs, phi_count=phi_count, phi_step=phi_step,
                     shots=shots, noise=noise, master_seed=seed) for obs in observables]
        for seed in seeds
    ]
    for name, items in (("seed", seeds), ("observable", observables)):
        if len(set(items)) != len(items):
            raise ValueError(f"a repeated {name} in {list(items)!r}")
    per_seed = [
        criteria_summary({cfg.observable: run_sweep(cfg) for cfg in seed_configs})
        for seed_configs in configs
    ]
    mean = {
        e: float(np.mean([r["averages"][e] for r in per_seed])) for e in per_seed[0]["averages"]
    }
    return {"seeds": [cfgs[0].master_seed for cfgs in configs], "mean_average_errors": mean,
            "per_seed": per_seed}
