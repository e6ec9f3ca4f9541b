"""Output checks behind ``failed``: reference comparison and invariants.

Each unit's output is split into groups of values, each group covering the
sweep points it describes (one record, one observable's criteria summary,
one observable's fits). A point fails when any group covering it fails.

The reference is the frozen baseline (``baseline/qndsim_base``, the program
as it was when the benchmark was defined) run on the same inputs in the
same process: each group must match it within the tolerances below, for
every seed. The seed-independent invariants must hold as well: every value
finite, theory equal to the closed-form curves, exact noiseless estimates
equal to theory (acceptance criteria 1 and 2), every projected tomography
state trace-one and PSD, and the same seed giving identical records twice.
"""

from __future__ import annotations

import csv
import io
import json
import math

import workloads
from workloads import OBSERVABLES, THEORY_CURVES

# Absolute tolerances against the reference. Sampled values repeat exactly
# for a given seed, so 1e-9 only absorbs summation-order changes.
# fit_mixed_fraction documents a resolution of 1e-4, so an exact
# closed-form fit passes too.
TOL_VALUE = 1e-9
TOL_MIXED_FRACTION_FIT = 1e-4

# Invariant tolerances.
TOL_THEORY = 1e-9          # theory and exact estimates vs closed-form curves
TOL_EXACT_TOMOGRAPHY = 1e-7  # exact input tomography vs theory, fidelity vs 1
TOL_STATE = 1e-9           # projected states: |trace - 1| and -min eigenvalue
SAMPLING_SIGMAS = 8        # |sampled estimate - theory| <= 8 / sqrt(shots)

CSV_COLUMNS = (
    "phi", "theta", "lambda", "observable", "theory", "qnd_estimate",
    "tomo_in", "tomo_out", "tomo_post", "fidelity_in", "fidelity_out",
    "fidelity_post", "branch", "branch_reliable", "shots", "seed",
)
RECORD_FIELDS = ("phi", "theta", "lambda", "theory", "qnd_estimate", "tomo_in",
                 "tomo_out", "fidelity_in", "fidelity_out", "shots", "seed")
BRANCH_FIELDS = ("probability", "reliable", "retained_shots", "tomo_post", "fidelity_post")


# --- flattening ---------------------------------------------------------------

def _record_values(rec: dict) -> list[tuple[str, object]]:
    values = [(f, rec[f]) for f in RECORD_FIELDS]
    for b in rec["branches"]:
        values += [(f"branch.{b['outcome']}.{f}", b[f]) for f in BRANCH_FIELDS]
    return values


def groups(workload: str, output: dict, phi_count: int):
    """Yield (group id, point ids covered, [(name, value), ...])."""
    if workload == "criteria_noisy":
        for obs in OBSERVABLES:
            report = output["reports"][obs]
            seed_report = report["per_seed"][0]
            values = sorted(seed_report["per_observable"][obs].items())
            values += [(f"mean.{k}", v) for k, v in sorted(report["mean_average_errors"].items())]
            values += [(f"averages.{k}", v) for k, v in sorted(seed_report["averages"].items())]
            yield obs, [f"{obs}@{i}" for i in range(phi_count)], values
        return
    if workload == "sweep_sampled":
        per_obs = output["records"]
    else:
        per_obs = {obs: doc["records"] for obs, doc in output["docs"].items()}
    for obs in OBSERVABLES:
        records = per_obs[obs]
        for i, rec in enumerate(records):
            yield f"{obs}@{i}", [f"{obs}@{i}"], _record_values(rec)
        if workload == "sweep_exact_fits":
            fits = output["docs"][obs]["fits"]
            values = [(f"fits.{name}.{k}", fits[name][k])
                      for name in sorted(fits) for k in ("kind", "parameter", "residual_rms")]
            yield f"{obs}.fits", [f"{obs}@{i}" for i in range(len(records))], values


# --- comparisons --------------------------------------------------------------

def _tolerance(name: str) -> float:
    if ".tomo_out_mixed_fraction." in f".{name}":
        return TOL_MIXED_FRACTION_FIT
    return TOL_VALUE


def _same(name: str, got, want) -> bool:
    if isinstance(got, bool) or isinstance(want, bool) or got is None or want is None:
        return got is want or got == want and type(got) is type(want)
    if isinstance(got, (int, float)) and isinstance(want, (int, float)):
        if isinstance(got, int) and isinstance(want, int):
            return got == want
        return abs(got - want) <= _tolerance(name)
    return got == want


def compare_reference(values, reference) -> str | None:
    if [n for n, _ in values] != [n for n, _ in reference]:
        return "the values present differ from the reference's"
    for (name, got), (_, want) in zip(values, reference):
        if not _same(name, got, want):
            return f"{name} = {got!r}, reference {want!r}"
    return None


def _finite(values) -> str | None:
    for name, v in values:
        if isinstance(v, float) and not math.isfinite(v):
            return f"{name} is not finite"
    return None


def _record_invariants(workload: str, rec: dict, shots: int) -> str | None:
    obs = rec["observable"]
    theory = THEORY_CURVES[obs](rec["phi"])
    if abs(rec["theory"] - theory) > TOL_THEORY:
        return f"theory {rec['theory']!r} != closed form {theory!r}"
    unit_values = [rec[k] for k in ("qnd_estimate", "tomo_in", "tomo_out",
                                    "fidelity_in", "fidelity_out")]
    unit_values += [b[k] for b in rec["branches"] for k in ("tomo_post", "fidelity_post")]
    if any(v is not None and not -TOL_THEORY <= v <= 1 + TOL_THEORY for v in unit_values):
        return "an estimate or fidelity lies outside [0, 1]"
    probs = [b["probability"] for b in rec["branches"]]
    if abs(sum(probs) - 1.0) > TOL_THEORY:
        return f"branch probabilities sum to {sum(probs)!r}"
    if any(b["reliable"] != (b["probability"] >= 0.25) for b in rec["branches"]):
        return "a branch's reliable flag disagrees with its probability"
    if rec["shots"] != shots:
        return f"shots {rec['shots']} != {shots}"
    if workload == "sweep_exact_fits":
        if abs(rec["qnd_estimate"] - theory) > TOL_THEORY:
            return f"exact estimate {rec['qnd_estimate']!r} != theory {theory!r}"
        if abs(rec["tomo_in"] - theory) > TOL_EXACT_TOMOGRAPHY:
            return f"exact input tomography {rec['tomo_in']!r} != theory {theory!r}"
        if abs(rec["fidelity_in"] - 1.0) > TOL_EXACT_TOMOGRAPHY:
            return f"exact input fidelity {rec['fidelity_in']!r} != 1"
    elif abs(rec["qnd_estimate"] - theory) > SAMPLING_SIGMAS / math.sqrt(shots):
        return f"estimate {rec['qnd_estimate']!r} is over {SAMPLING_SIGMAS} sigma from {theory!r}"
    if any(b["retained_shots"] is not None and not 0 < b["retained_shots"] <= shots
           for b in rec["branches"]):
        return "retained shots outside (0, shots]"
    return None


def _fit_invariants(fits: dict) -> str | None:
    if abs(fits["qnd_scale"]["parameter"] - 1.0) > TOL_THEORY:
        return f"exact estimates fit scale {fits['qnd_scale']['parameter']!r} != 1"
    mixed = fits.get("tomo_out_mixed_fraction")
    if mixed is not None and not 0.0 <= mixed["parameter"] <= 1.0:
        return f"mixed fraction {mixed['parameter']!r} outside [0, 1]"
    return None


def _criteria_invariants(stats: dict) -> str | None:
    for k, v in stats.items():
        if v is None:
            continue
        if k.startswith("E_") and k != "E_gap" and v < 0:
            return f"{k} is negative"
        if k.startswith("mean_fidelity") and not 0.0 <= v <= 1 + TOL_THEORY:
            return f"{k} outside [0, 1]"
    if abs(stats["E_gap"] - (stats["E_output_tomo"] - stats["E_qnd"])) > TOL_THEORY:
        return "E_gap != E_output_tomo - E_qnd"
    return None


def _csv_mismatch(text: str, records: list[dict]) -> set[int]:
    """Indices of records whose CSV rows differ from the record values."""
    expected = {}
    for i, rec in enumerate(records):
        base = dict(rec, tomo_post=None, fidelity_post=None, branch="", branch_reliable=None)
        expected[(repr(rec["phi"]), "")] = (i, base)
        for b in rec["branches"]:
            if b["tomo_post"] is not None:
                expected[(repr(rec["phi"]), b["outcome"])] = (i, dict(
                    base, tomo_post=b["tomo_post"], fidelity_post=b["fidelity_post"],
                    branch=b["outcome"], branch_reliable=b["reliable"]))
    bad = set()
    rows = list(csv.DictReader(io.StringIO(text)))
    seen = set()
    for row in rows:
        key = (row.get("phi"), row.get("branch"))
        if key not in expected:
            bad.update(range(len(records)))
            continue
        i, want = expected[key]
        seen.add(key)
        if any(row[c] != _csv_text(want[c]) for c in CSV_COLUMNS):
            bad.add(i)
    bad.update(i for key, (i, _) in expected.items() if key not in seen)
    return bad


def _csv_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# --- the check ----------------------------------------------------------------

class Checker:
    """Accumulates attempted and failed points over a run's units."""

    def __init__(self, inputs: workloads.Inputs) -> None:
        self.inputs = inputs
        self.size = inputs.spec.size(inputs.tiny)
        self.attempted = 0
        # failed point ids per (worker run, unit index)
        self.failed_by_unit: dict[tuple[str, int], set[str]] = {}
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return sum(len(points) for points in self.failed_by_unit.values())

    def _all_points(self) -> set[str]:
        return {f"{o}@{i}" for o in OBSERVABLES for i in range(self.size.phi_count)}

    def _fail(self, unit: int, where: str, why: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"unit {unit} {where}: {why}")

    def _fail_all(self, run: str, unit: int, where: str, why: str) -> None:
        self._fail(unit, where, why)
        self.failed_by_unit.setdefault((run, unit), set()).update(self._all_points())

    def unit(self, run: str, line: dict) -> None:
        """Check one unit's line from the worker run named ``run``.

        The line's first output is the program's; a second one, when
        present, is the baseline's on the same inputs.
        """
        unit = line["unit"]
        self.attempted += line["points"]
        if line["error"]:
            self._fail_all(run, unit, "raised", line["error"].strip().splitlines()[-1])
            return
        output, *baseline = line["outputs"]
        reference = baseline[0] if baseline else None
        self.failed_by_unit[(run, unit)] = self.failed_points(unit, output, reference)

    def _groups(self, output):
        return list(groups(self.inputs.workload, output, self.size.phi_count))

    def failed_points(self, unit: int, output: dict, reference: dict | None) -> set[str]:
        wl = self.inputs.workload
        failed: set[str] = set()
        try:
            all_groups = self._groups(output)
            stored = {gid: values for gid, _, values in self._groups(reference)} \
                if reference is not None else None
        except (KeyError, IndexError, TypeError) as exc:
            self._fail(unit, "output", f"malformed: {exc!r}")
            return self._all_points()
        covered = {p for _, pts, _ in all_groups for p in pts}
        if covered != self._all_points():
            self._fail(unit, "output", f"{len(covered)} points, expected "
                       f"{len(self._all_points())}")
            failed |= self._all_points()
        records = {}
        if wl == "sweep_sampled":
            records = output["records"]
        elif wl == "sweep_exact_fits":
            records = {o: d["records"] for o, d in output["docs"].items()}
        for gid, pts, values in all_groups:
            why = _finite(values)
            if why is None and stored is not None:
                why = compare_reference(values, stored.get(gid, []))
            if why is None:
                try:
                    why = self._invariants(unit, gid, output, records)
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    why = f"malformed: {exc!r}"
            if why is not None:
                self._fail(unit, gid, why)
                failed.update(pts)
        if wl == "sweep_sampled":
            for obs in OBSERVABLES:
                try:
                    bad = _csv_mismatch(output["csv"][obs], records[obs])
                except (KeyError, csv.Error) as exc:
                    self._fail(unit, obs, f"CSV malformed: {exc!r}")
                    bad = range(self.size.phi_count)
                for i in bad:
                    self._fail(unit, f"{obs}@{i}", "CSV row differs from the record")
                    failed.add(f"{obs}@{i}")
        return failed

    def _invariants(self, unit, gid, output, records) -> str | None:
        wl = self.inputs.workload
        if wl == "criteria_noisy":
            report = output["reports"][gid]
            return _criteria_invariants(report["per_seed"][0]["per_observable"][gid])
        if gid.endswith(".fits"):
            return _fit_invariants(output["docs"][gid[:-5]]["fits"])
        obs, i = gid.split("@")
        rec = records[obs][int(i)]
        if wl == "sweep_sampled" and rec["seed"] != self.inputs.master_seed(unit):
            return f"seed {rec['seed']} != master seed {self.inputs.master_seed(unit)}"
        return _record_invariants(wl, rec, self.size.shots)

    def same_outputs(self, run: str, unit: int, first: dict, second: dict, what: str) -> None:
        """Two runs of the same inputs must give identical outputs."""
        if first != second:
            self._fail_all(run, unit, what, "outputs differ between two runs of the same inputs")

    def states(self, run: str, tally: dict) -> None:
        """Every projected tomography state was trace-one and PSD."""
        if (tally["estimates"] == 0 or tally["max_trace_dev"] > TOL_STATE
                or tally["min_eigenvalue"] < -TOL_STATE):
            self._fail_all(run, 0, "projected states", json.dumps(tally))
