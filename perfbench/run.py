"""qndsim benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/qndsim`` next to
``perfbench``). Every run first runs one unit of the program alone in a
fresh process, for its peak memory and a check of every projected
tomography state. With ``--trace 0`` it then measures set-up time in pairs
of fresh processes (program, frozen baseline) and runs the closed loop for
``--seconds`` with every call paired with the baseline's, and reports the
end-to-end metrics. With ``--trace 1`` it runs a fixed number of units (so
that counts compare exactly across commits) once with every public
function of the eight layers wrapped in spans and once untraced and
paired, and reports the per-layer metrics and the tracing overhead.

Every run checks the program's outputs (see ``check.py``). The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count sweep points, ``metrics`` maps names to value and unit.
See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_PAIRS = 5

# The baseline's own figures at full size, measured on the machine that
# defined the benchmark (2 shared cores, Python 3.11.7, numpy 2.4.6, scipy
# 1.17.1) while the benchmark was being built; the machine's speed varied by
# a third over that time, so they fix a scale, not a precise speed. A run
# reports the program's figure as the baseline's times the program's speed
# ratio over the baseline, measured side by side, so that load from other
# tenants of the machine cancels out.
REFERENCE_POINTS_PER_S = {"criteria_noisy": 57.3, "sweep_sampled": 127.2,
                          "sweep_exact_fits": 41.5}
REFERENCE_SETUP_S = 0.53
# One thread, and never more than the machine has.
BLAS_THREADS = "1"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A run must end within 180 s; every worker gets what is left of this.
RUN_BUDGET_S = 170


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for key in BLAS_ENV:
        env[key] = BLAS_THREADS
    return env


def _worker(args: argparse.Namespace, tmp: str, tag: str, extra: list[str]) -> list[dict]:
    """Run worker.py to completion and return the JSON lines it wrote."""
    result = os.path.join(tmp, f"{tag}.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--out-dir", tmp, "--result", result, *extra]
    if args.tiny:
        cmd.append("--tiny")
    timeout = max(1.0, args.deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag} process did not finish within the run's time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{tag} process exited with status {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _setup_ratio(args, tmp) -> float:
    """Median over fresh-process pairs of the program's set-up time over the
    baseline's, the two processes of a pair started back to back."""
    ratios = []
    for i in range(1 if args.tiny else SETUP_PAIRS):
        times = {}
        order = ("program", "baseline") if i % 2 == 0 else ("baseline", "program")
        for side in order:
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            (line,) = _worker(args, tmp, f"setup-{side}{i}", ["--setup-only", side])
            times[side] = line["ready"] - start
        ratios.append(times["program"] / times["baseline"])
    return statistics.median(ratios)


def _measure(args, tmp, tag, extra, checker):
    lines = _worker(args, tmp, tag, extra)
    *units, summary = lines
    if not summary.get("summary"):
        raise BenchError(f"{tag} process wrote no summary")
    for line in units:
        checker.unit(tag, line)
    if "states" in summary:
        checker.states(tag, summary["states"])
    return units, summary


def _speed_ratio(units: list[dict]) -> float:
    """How many times faster the program ran than the baseline.

    Every call ran on both sides back to back, so both sides' totals cover
    the same stretches of the machine's load; their ratio is the program's
    speed-up weighted by time, as a unit weights its calls.
    """
    done = _completed(units)
    return (sum(sum(u["parts"][1].values()) for u in done)
            / sum(sum(u["parts"][0].values()) for u in done))


def _typical_unit_s(units: list[dict]) -> float:
    """Sum over a unit's calls of the program's median time for the call."""
    done = _completed(units)
    return sum(statistics.median(u["parts"][0][name] for u in done)
               for name in done[0]["parts"][0])


def _completed(units: list[dict]) -> list[dict]:
    done = [u for u in units if not u["error"]]
    if not done:
        raise BenchError("no unit completed: " + (
            units[0]["error"].strip().splitlines()[-1] if units else "none ran"))
    return done


def _context(summary: dict) -> dict:
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        **summary["versions"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: BLAS_THREADS for k in BLAS_ENV},
        "git_commit": _git_commit(),
        "src_lines": src_lines,
        **{k: summary[k] for k in ("units", "speed_ratio", "setup_ratio", "raw_points_per_s")
           if k in summary},
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(args: argparse.Namespace) -> dict:
    if not os.path.isfile(os.path.join(SRC, "qndsim", "__init__.py")):
        raise BenchError(f"no qndsim sources under {SRC}; run from a source checkout")
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        inputs = workloads.build_inputs(args.workload, args.seed, args.tiny, tmp)
        checker = check.Checker(inputs)
        # One unit of the program alone, in a fresh process: its peak memory,
        # and every projected tomography state checked.
        (first,), alone = _measure(args, tmp, "alone", ["--max-units", "1", "--check-states"],
                                   checker)
        if args.trace:
            trace_file = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz")
            count = ["--max-units", "1" if args.tiny else str(inputs.spec.trace_units)]
            traced, summary = _measure(args, tmp, "traced", [*count, "--trace", trace_file],
                                       checker)
            paired, _ = _measure(args, tmp, "paired", [*count, "--baseline"], checker)
            for a, b in zip(traced, paired):
                if not a["error"] and not b["error"]:
                    checker.same_outputs("traced", a["unit"], a["outputs"][0],
                                         b["outputs"][0], "traced vs untraced")
            metrics = {name: _metric(summary["layer_metrics"].get(name, 0), unit)
                       for name, unit in _declared("per_layer")}
            metrics["trace.overhead_frac"] = _metric(
                _typical_unit_s(traced) / _typical_unit_s(paired) - 1.0, "ratio")
        else:
            setup_ratio = _setup_ratio(args, tmp)
            paired, summary = _measure(args, tmp, "paired",
                                       ["--seconds", str(args.seconds), "--baseline"], checker)
            speed = _speed_ratio(paired)
            metrics = {
                "points_per_s": _metric(REFERENCE_POINTS_PER_S[args.workload] * speed, "1/s"),
                "setup_s": _metric(REFERENCE_SETUP_S * setup_ratio, "s"),
                "peak_rss_mb": _metric(alone["peak_rss_mb"], "MB"),
            }
            summary["speed_ratio"] = speed
            summary["setup_ratio"] = setup_ratio
            summary["raw_points_per_s"] = paired[0]["points"] / _typical_unit_s(paired)
        if not first["error"] and not paired[0]["error"]:
            checker.same_outputs("alone", 0, first["outputs"][0], paired[0]["outputs"][0],
                                 "separate processes")
        context = _context(summary)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("context " + json.dumps(context))
    fail_frac = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"checked {checker.attempted} points, {checker.failed} failed "
          f"(fail_frac {fail_frac:.4g})")
    for problem in checker.problems:
        print("  " + problem)
    return {
        "correct": checker.attempted > 0 and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def _declared(kind: str) -> list[tuple[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny grids and shot counts, for the smoke test")
    args = ap.parse_args()
    args.deadline = time.monotonic() + RUN_BUDGET_S
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
