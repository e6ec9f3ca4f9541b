"""The three benchmark workloads: inputs derived from a seed, one unit of
work, and the unit's outputs in a JSON-able form.

Each workload is a closed loop with one client: the worker runs unit 0,
then unit 1, and so on, each starting only after the previous one ended.
A unit makes one call into the program per observable; for
``criteria_noisy`` that is ``run_criteria_protocol`` restricted to the
observable, so each call is short enough to pair closely with the
baseline's. Units of one run share the phi grid, so the gate-matrix caches
fill in the first unit and memory stays flat however many units a run
completes. The sampled workloads draw a fresh ``master_seed`` per unit; the
exact workload has no randomness, so all its units are the same sweep.

The program sees only the generated inputs. No unit passes ``workers``.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import time
from contextlib import redirect_stdout
from dataclasses import dataclass

OBSERVABLES = ("VA", "VB", "PA", "PB", "C1", "C2")
DEFAULT_SEED = 0

# Depolarizing and readout noise of acceptance criterion 9.
CRITERIA_NOISE = {"depol_1q": 0.005, "depol_2q": 0.05, "readout_flip": 0.01}

# Closed-form value of each observable along phi at the program's default
# preparation angle theta for it (the acceptance suite's curves, criterion 1).
THEORY_CURVES = {
    "VA": lambda phi: abs(math.sin(phi)),
    "VB": lambda phi: math.sin(phi / 2) ** 2,
    "PA": lambda phi: abs(math.cos(phi)),
    "PB": lambda phi: abs(math.cos(phi)),
    "C1": lambda phi: abs(math.sin(phi)),
    "C2": lambda phi: abs(math.sin(phi)),
}


@dataclass(frozen=True)
class Size:
    phi_count: int
    phi_step: float
    shots: int


@dataclass(frozen=True)
class Workload:
    name: str
    full: Size
    tiny: Size
    per_unit_seeds: bool  # False: every unit repeats the same inputs
    # Units of a traced run. The traced run does a fixed amount of work, not
    # a fixed time, so its counts compare exactly across commits.
    trace_units: int

    def size(self, tiny: bool) -> Size:
        return self.tiny if tiny else self.full

    def points_per_unit(self, tiny: bool) -> int:
        return len(OBSERVABLES) * self.size(tiny).phi_count


WORKLOADS = {
    w.name: w
    for w in (
        Workload("criteria_noisy", Size(16, math.pi / 8, 2000), Size(4, math.pi / 2, 200),
                 per_unit_seeds=True, trace_units=4),
        Workload("sweep_sampled", Size(16, math.pi / 8, 5000), Size(4, math.pi / 2, 500),
                 per_unit_seeds=True, trace_units=8),
        Workload("sweep_exact_fits", Size(16, math.pi / 8, 0), Size(4, math.pi / 2, 0),
                 per_unit_seeds=False, trace_units=1),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything a run of one workload feeds the program."""

    workload: str
    seed: int
    tiny: bool
    phi_start: float
    out_dir: str

    @property
    def spec(self) -> Workload:
        return WORKLOADS[self.workload]

    def master_seed(self, unit: int) -> int:
        if not self.spec.per_unit_seeds:
            return 0
        return random.Random(f"{self.workload}/{self.seed}/unit{unit}").randrange(2**31)


def build_inputs(workload: str, seed: int, tiny: bool, out_dir: str) -> Inputs:
    """Derive the run's inputs from its seed: same seed, same inputs."""
    spec = WORKLOADS[workload]
    size = spec.size(tiny)
    rng = random.Random(f"{workload}/{seed}")
    # run_criteria_protocol always starts its grid at phi = 0. The sweeps
    # start at a seeded offset below one grid step, which keeps the whole
    # grid inside [0, 2*pi] as the JSON fits require.
    phi_start = 0.0 if workload == "criteria_noisy" else rng.uniform(0.0, size.phi_step)
    return Inputs(workload, seed, tiny, phi_start, out_dir)


def _calls(inputs: Inputs, unit: int):
    """The unit's calls into the program: (label, call(package, inputs))."""
    size = inputs.spec.size(inputs.tiny)
    master_seed = inputs.master_seed(unit)
    def criteria(obs):
        def call(pkg, inp):
            noise = pkg.circuits.NoiseModel(enabled=True, **CRITERIA_NOISE)
            return pkg.harness.run_criteria_protocol(
                seeds=[master_seed], observables=(obs,), phi_count=size.phi_count,
                phi_step=size.phi_step, shots=size.shots, noise=noise,
            )
        return call

    def sweep(obs):
        def call(pkg, inp):
            harness = pkg.harness
            cfg = harness.SweepConfig(
                observable=obs, phi_start=inp.phi_start, phi_count=size.phi_count,
                phi_step=size.phi_step, shots=size.shots, master_seed=master_seed,
            )
            records = harness.run_sweep(cfg)
            harness.emit(records, "csv", _out_path(inp, obs, "csv"))
            return records
        return call

    def cli_sweep(obs):
        def call(pkg, inp):
            status = pkg.cli.main([
                "sweep", "--observable", obs, "--exact",
                "--phi-start", repr(inp.phi_start),
                "--phi-steps", str(size.phi_count), "--phi-step", repr(size.phi_step),
                "--format", "json", "--out", _out_path(inp, obs, "json"),
            ])
            if status != 0:
                raise RuntimeError(f"qndsim sweep --observable {obs} exited {status}")
        return call

    make = {"criteria_noisy": criteria, "sweep_sampled": sweep,
            "sweep_exact_fits": cli_sweep}[inputs.workload]
    return [(obs, make(obs)) for obs in OBSERVABLES]


def run_unit(sides, unit: int):
    """One unit of work on each side: every observable once.

    ``sides`` lists (package, Inputs) pairs: the program, and optionally the
    frozen baseline. Each call into the program runs on every side back to
    back, alternating which side goes first, so that both sides see the
    same machine. Returns, per side, the raw output and the measured
    seconds of each call, keyed by observable. Functions are looked up on
    their modules at call time, so a tracer's rebinding takes effect.
    """
    raws = [{} for _ in sides]
    parts = [{} for _ in sides]
    for k, (label, call) in enumerate(_calls(sides[0][1], unit)):
        order = list(range(len(sides)))
        if (unit + k) % 2:
            order.reverse()
        for j in order:
            pkg, inputs = sides[j]
            # the CLI's one-line progress message is not part of the output
            with redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                raws[j][label] = call(pkg, inputs)
                parts[j][label] = time.perf_counter() - t0
    return raws, parts


def collect_output(inputs: Inputs, raw) -> dict:
    """The unit's outputs as plain JSON data, read after the timed call."""
    if inputs.workload == "criteria_noisy":
        return {"reports": raw}
    if inputs.workload == "sweep_sampled":
        out = {"records": {}, "csv": {}}
        for obs, records in raw.items():
            out["records"][obs] = [record_dict(r) for r in records]
            with open(_out_path(inputs, obs, "csv"), encoding="utf-8") as fh:
                out["csv"][obs] = fh.read()
        return out
    docs = {}
    for obs in OBSERVABLES:
        with open(_out_path(inputs, obs, "json"), encoding="utf-8") as fh:
            docs[obs] = json.load(fh)
    return {"docs": docs}


def record_dict(rec) -> dict:
    """A SweepRecord with the keys of the program's JSON output."""
    return {
        "phi": rec.phi, "theta": rec.theta, "lambda": rec.lam,
        "observable": rec.observable, "theory": rec.theory,
        "qnd_estimate": rec.qnd_estimate, "tomo_in": rec.tomo_in,
        "tomo_out": rec.tomo_out, "fidelity_in": rec.fidelity_in,
        "fidelity_out": rec.fidelity_out, "shots": rec.shots, "seed": rec.seed,
        "branches": [
            {
                "outcome": b.outcome, "probability": b.probability,
                "reliable": b.reliable, "retained_shots": b.retained_shots,
                "tomo_post": b.tomo_value, "fidelity_post": b.fidelity,
            }
            for b in rec.branches
        ],
    }


def _out_path(inputs: Inputs, obs: str, ext: str) -> str:
    return os.path.join(inputs.out_dir, f"{inputs.workload}-{obs}.{ext}")
