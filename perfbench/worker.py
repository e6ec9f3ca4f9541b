"""One workload process: import the program, build the inputs, run units.

Started by ``run.py``; not meant to be run by hand. It writes one JSON line
per unit to ``--result`` as the unit finishes, so its memory does not grow
with the number of units, and a last line with the run summary.

With ``--baseline`` every call into the program is paired with the same
call into the frozen baseline (``baseline/qndsim_base``), back to back.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(HERE, "baseline"))

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-units", type=int, help="run exactly this many units")
    ap.add_argument("--baseline", action="store_true",
                    help="pair every call with the frozen baseline")
    ap.add_argument("--trace", help="record spans and write them to this file")
    ap.add_argument("--check-states", action="store_true",
                    help="check every tomography estimate's projected state")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", choices=("program", "baseline"),
                    help="import one package, stop at the first timed call, report the clock")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    if args.setup_only == "baseline":
        import qndsim_base.cli  # noqa: F401  (imports harness, analysis, scipy)
    else:
        import qndsim
        import qndsim.cli  # noqa: F401
    inputs = workloads.build_inputs(args.workload, args.seed, args.tiny, args.out_dir)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"ready": ready}) + "\n")
        return 0

    sides = [(qndsim, inputs)]
    if args.baseline:
        import qndsim_base
        import qndsim_base.cli  # noqa: F401
        base_dir = os.path.join(args.out_dir, "baseline")
        os.makedirs(base_dir, exist_ok=True)
        sides.append((qndsim_base, dataclasses.replace(inputs, out_dir=base_dir)))

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(qndsim)
    states = _check_states(qndsim) if args.check_states else None

    points = inputs.spec.points_per_unit(args.tiny)
    spent = 0.0
    unit = 0
    with open(args.result, "w", encoding="utf-8") as fh:
        while (unit < args.max_units) if args.max_units is not None else (spent < args.seconds):
            line = {"unit": unit, "points": points, "error": None}
            try:
                raws, parts = workloads.run_unit(sides, unit)
                spent += sum(sum(p.values()) for p in parts)
                line["parts"] = parts
                line["outputs"] = [workloads.collect_output(inp, raw)
                                   for (_, inp), raw in zip(sides, raws)]
            except Exception:
                line["error"] = traceback.format_exc()
            fh.write(json.dumps(line) + "\n")
            unit += 1
            if line["error"]:
                break  # later units would fail the same way
        summary = {"summary": True, "units": unit,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if tracer is not None:
            tracer.uninstall()
            summary["layer_metrics"] = tracer.metrics()
            tracer.write(args.trace)
        if states is not None:
            summary["states"] = states

        import numpy
        import scipy
        summary["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                               "scipy": scipy.__version__}
        fh.write(json.dumps(summary) + "\n")
    return 0


def _check_states(qndsim) -> dict:
    """Wrap ``linear_reconstruct`` so every estimate's projected state is checked.

    Returns the running tally: the number of estimates, the largest
    |trace - 1| and the smallest eigenvalue seen.
    """
    import numpy as np
    from tracer import rebind

    tally = {"estimates": 0, "max_trace_dev": 0.0, "min_eigenvalue": 1.0}
    original = qndsim.tomography.linear_reconstruct

    def checked(*args, **kwargs):
        est = original(*args, **kwargs)
        m = np.asarray(est.projected.matrix)
        tally["estimates"] += 1
        tally["max_trace_dev"] = max(tally["max_trace_dev"], abs(complex(np.trace(m)) - 1.0))
        tally["min_eigenvalue"] = min(tally["min_eigenvalue"],
                                      float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0]))
        return est

    rebind(original, checked)
    return tally


if __name__ == "__main__":
    sys.exit(main())
