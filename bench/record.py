"""Record one point of the benchmark trajectory.

    python3 bench/record.py LABEL

Runs ``python3 perfbench/run.py --workload W --seed k`` for seeds 1 to 5 on
every workload that ``BENCHMARK.json`` declares, each for its
``run_seconds``, one run at a time, then the Tier-1 tests once. Writes
``BENCH_<LABEL>.json`` at the root of the checkout with, per workload, the
median and quartiles of each end-to-end metric and every run's figures and
output check; the ``context`` line that ``run.py`` prints (versions,
``nproc``, commit, ``src_lines``); and the Tier-1 wall time.

Run it from a clean checkout of the commit it describes: ``run.py`` reads
the commit from ``.git``, and measures the sources as they are on disk.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 6)
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def _run(workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its result object and its context line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    context = next(json.loads(line[len("context "):]) for line in lines
                   if line.startswith("context "))
    return {"seed": seed, **json.loads(lines[-1]), "context": context}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": round(wall_s, 2), "exit_code": proc.returncode, "summary": summary}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    workloads, context = {}, None
    for w in spec["workloads"]:
        runs = [_run(w["name"], seed, spec["run_seconds"]) for seed in SEEDS]
        context = context or runs[0]["context"]
        workloads[w["name"]] = {
            "metrics": {
                name: {"unit": unit, "better": better,
                       **_spread([r["metrics"][name]["value"] for r in runs])}
                for name, unit, better in metrics
            },
            "all_correct": all(r["correct"] for r in runs),
            "runs": runs,
        }
    doc = {
        "label": argv[0],
        "command": spec["command"] + ["--workload", "W", "--seed", "k",
                                      "--seconds", str(spec["run_seconds"])],
        "seeds": list(SEEDS),
        "context": {k: v for k, v in context.items()
                    if k not in ("units", "speed_ratio", "setup_ratio", "raw_points_per_s")},
        "workloads": workloads,
        "tier1": _tier1(),
    }
    path = os.path.join(ROOT, f"BENCH_{argv[0]}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
