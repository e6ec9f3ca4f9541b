"""Smoke test of the benchmark itself, at a tiny size (about a minute).

    python3 perfbench/smoke.py

For every workload, with tracing off and on, it checks that the run exits
0, passes its output check, and emits every metric named in BENCHMARK.json
with its unit. On the traced runs it checks which layers must be busy and
which must be idle, so a refactor that moves work past the tracer's
wrappers fails here instead of reading as a speed-up. Last, it checks that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUSY, IDLE = "busy", "idle"
# Per-layer expectations: metric -> state on each workload. Every listed
# metric is a call count or a count of work done, so idle means exactly 0.
EXPECT = {
    "circuits.run_noisy.calls": {"criteria_noisy": BUSY, "sweep_sampled": IDLE},
    "qmath.density_matrix.count": dict.fromkeys(
        ("criteria_noisy", "sweep_sampled", "sweep_exact_fits"), BUSY),
    "circuits.gates_applied": dict.fromkeys(
        ("criteria_noisy", "sweep_sampled", "sweep_exact_fits"), BUSY),
    "circuits.run_pure.calls": {"sweep_sampled": BUSY, "sweep_exact_fits": BUSY},
    "circuits.sample_counts.calls": {
        "criteria_noisy": BUSY, "sweep_sampled": BUSY, "sweep_exact_fits": IDLE},
    "circuits.shots_drawn": {
        "criteria_noisy": BUSY, "sweep_sampled": BUSY, "sweep_exact_fits": IDLE},
    "circuits.postselect_counts.calls": {
        "criteria_noisy": BUSY, "sweep_sampled": BUSY, "sweep_exact_fits": IDLE},
    "circuits.exact_probabilities.calls": {
        "criteria_noisy": IDLE, "sweep_sampled": IDLE, "sweep_exact_fits": BUSY},
    "tomography.collect.calls": {
        "criteria_noisy": BUSY, "sweep_sampled": BUSY, "sweep_exact_fits": IDLE},
    "tomography.linear_reconstruct.calls": dict.fromkeys(
        ("criteria_noisy", "sweep_sampled", "sweep_exact_fits"), BUSY),
    "tomography.project_psd.calls": dict.fromkeys(
        ("criteria_noisy", "sweep_sampled", "sweep_exact_fits"), BUSY),
    "analysis.fit_mixed_fraction.calls": {
        "criteria_noisy": IDLE, "sweep_sampled": IDLE, "sweep_exact_fits": BUSY},
    "observables.concurrence_wootters.calls": {
        "criteria_noisy": IDLE, "sweep_sampled": IDLE, "sweep_exact_fits": BUSY},
    "experiments.branch_data.calls": dict.fromkeys(
        ("criteria_noisy", "sweep_sampled", "sweep_exact_fits"), BUSY),
    "observables.observable_set.calls": dict.fromkeys(
        ("criteria_noisy", "sweep_sampled", "sweep_exact_fits"), BUSY),
    "qmath.fidelity.calls": dict.fromkeys(
        ("criteria_noisy", "sweep_sampled", "sweep_exact_fits"), BUSY),
    "qmath.partial_trace.calls": dict.fromkeys(
        ("criteria_noisy", "sweep_sampled", "sweep_exact_fits"), BUSY),
    "harness.points": dict.fromkeys(
        ("criteria_noisy", "sweep_sampled", "sweep_exact_fits"), BUSY),
    "harness.emit.bytes": {
        "criteria_noisy": IDLE, "sweep_sampled": BUSY, "sweep_exact_fits": BUSY},
    "analysis.criteria_summary.self_s": {
        "criteria_noisy": BUSY, "sweep_sampled": IDLE, "sweep_exact_fits": IDLE},
    "cli.main.self_s": {
        "criteria_noisy": IDLE, "sweep_sampled": IDLE, "sweep_exact_fits": BUSY},
}


def _run(cwd: str, workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for w in (w["name"] for w in bench["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            status, lines = _run(ROOT, w, trace)
            where = f"{w} --trace {trace}"
            if status != 0 or not lines:
                problems.append(f"{where}: exit status {status}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: output check failed: {lines[-2][:200]}")
            metrics = result["metrics"]
            for m in bench[kind]:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{where}: metric {m['name']} missing or unit differs")
            if set(metrics) != {m["name"] for m in bench[kind]}:
                problems.append(f"{where}: undeclared metrics "
                                f"{sorted(set(metrics) - {m['name'] for m in bench[kind]})}")
            if trace:
                for name, states in EXPECT.items():
                    state = states.get(w)
                    value = metrics.get(name, {}).get("value", 0)
                    if state == BUSY and not value > 0:
                        problems.append(f"{where}: {name} is {value}, expected > 0")
                    if state == IDLE and value != 0:
                        problems.append(f"{where}: {name} is {value}, expected 0")
        print(f"{w}: done")

    # Without the program's sources the benchmark must fail and print no result.
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        status, lines = _run(bare, "sweep_sampled", 0)
        if status == 0 or any(line.startswith("{") for line in lines):
            problems.append(f"without sources: exit status {status}, output {lines[-1:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
