"""Span tracer that wraps the program's public functions from outside.

Every public function of the eight ``qndsim`` modules is replaced by a
wrapper that records a span (name, start, end, parent). The wrapper is
bound wherever the original function object is bound in a ``qndsim.*``
module namespace, matched by identity, so ``from .qmath import fidelity``
in another module is caught as well. ``DensityMatrix.__post_init__`` (the
validation every density matrix pays) is wrapped on its class.

Spans live in flat arrays in memory and are written out when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import sys
import time
from array import array

LAYERS = ("qmath", "circuits", "experiments", "observables", "tomography",
          "analysis", "harness", "cli")

# Functions whose spans are reported together as one group.
GROUPS = {
    "experiments.branch_table": "experiments.branch_data",
    "experiments.ideal_output_mixture": "experiments.branch_data",
    "experiments.simulated_branches": "experiments.branch_data",
    "experiments.conditional_target_state": "experiments.branch_data",
}
DENSITY_MATRIX = "qmath.density_matrix"


def rebind(old, new) -> list[tuple[object, str, object]]:
    """Bind ``new`` wherever ``old`` is bound in a qndsim module namespace.

    Returns the (module, name, old) triples needed to undo it.
    """
    undo = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "qndsim" or modname.startswith("qndsim.")):
            continue
        for name, value in list(vars(module).items()):
            if value is old:
                setattr(module, name, new)
                undo.append((module, name, old))
    return undo


def restore(undo) -> None:
    for target, name, old in reversed(undo):
        setattr(target, name, old)


def public_functions(qndsim) -> list[tuple[str, object]]:
    """(layer.name, function) for every public function the layers define."""
    found = []
    for layer in LAYERS:
        module = getattr(qndsim, layer)
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                found.append((f"{layer}.{name}", obj))
    return found


def _argument(fn, name):
    """Reads argument ``name`` of ``fn`` from a call's (args, kwargs)."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        return sig.bind(*args, **kwargs).arguments.get(name)
    return get


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.errors: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._undo: list = []

    def _nid(self, name: str) -> int:
        if name not in self.name_of:
            self.name_of[name] = len(self.names)
            self.names.append(name)
        return self.name_of[name]

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """A span-recording wrapper; ``after(args, kwargs, result)`` updates counters."""
        nid = self._nid(GROUPS.get(name, name))
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def install(self, qndsim) -> None:
        hooks = self._hooks(qndsim)
        for name, fn in public_functions(qndsim):
            self._undo += rebind(fn, self.wrap(name, fn, hooks.get(name)))
        cls = qndsim.qmath.DensityMatrix
        post_init = cls.__post_init__
        cls.__post_init__ = self.wrap(DENSITY_MATRIX, post_init)
        self._undo.append((cls, "__post_init__", post_init))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _hooks(self, qndsim) -> dict:
        circuits, harness = qndsim.circuits, qndsim.harness
        shots_of = _argument(circuits.sample_counts, "shots")
        path_of = _argument(harness.emit, "path")

        def gates(args, kwargs, result):
            circuit = args[0] if args else kwargs["circuit"]
            self._count("circuits.gates_applied", len(circuit.gates))

        def shots(args, kwargs, result):
            self._count("circuits.shots_drawn", shots_of(args, kwargs))

        def estimate(args, kwargs, result):
            self._count("tomography.estimates")
            if result.method == "linear+projection":
                self._count("tomography.projected_estimates")

        def sweep(args, kwargs, result):
            self._count("harness.points", len(result))
            for rec in result:
                self._count("harness.branches", len(rec.branches))
                self._count("harness.branches_unanalyzed",
                            sum(b.tomo_value is None for b in rec.branches))

        def emitted(args, kwargs, result):
            self._count("harness.emit.bytes", os.path.getsize(path_of(args, kwargs)))

        return {
            "circuits.run_pure": gates,
            "circuits.run_noisy": gates,
            "circuits.sample_counts": shots,
            "tomography.linear_reconstruct": estimate,
            "harness.run_sweep": sweep,
            "harness.emit": emitted,
        }

    def metrics(self) -> dict[str, float]:
        """Per-name calls and self time, per-layer self time, and counters."""
        import numpy as np

        n = len(self.span_name)
        name = np.frombuffer(self.span_name, dtype=np.int32)[:n].astype(np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)[:n].astype(np.int64)
        dur = (np.frombuffer(self.span_end, dtype=np.int64)[:n]
               - np.frombuffer(self.span_start, dtype=np.int64)[:n]) / 1e9
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child

        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_by_name = np.bincount(name, weights=self_s, minlength=k)
        # Spans are stored in entry order, so a parent precedes its children
        # and one forward pass can propagate "inside a span named X" flags.
        fit = self.name_of.get("analysis.fit_mixed_fraction", -1)
        group = self.name_of.get("experiments.branch_data", -1)
        conc = self.name_of.get("observables.concurrence_wootters", -1)
        in_fit = np.zeros(n, dtype=bool)
        in_group = np.zeros(n, dtype=bool)
        name_l, parent_l = name.tolist(), parent.tolist()
        for i in range(n):
            p = parent_l[i]
            if p >= 0:
                in_fit[i] = in_fit[p] or name_l[p] == fit
                in_group[i] = in_group[p] or name_l[p] == group

        out: dict[str, float] = {}
        for nid, nm in enumerate(self.names):
            out[f"{nm}.calls"] = int(calls[nid])
            out[f"{nm}.self_s"] = float(self_by_name[nid])
        if group >= 0:
            out["experiments.branch_data.calls"] = int(np.sum((name == group) & ~in_group))
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(sum(
                self_by_name[nid] for nid, nm in enumerate(self.names)
                if nm.startswith(layer + ".")))
        out["qmath.density_matrix.count"] = out.get(f"{DENSITY_MATRIX}.calls", 0)

        c = self.counters
        fits = out.get("analysis.fit_mixed_fraction.calls", 0)
        out["analysis.concurrence_evals_per_fit"] = (
            int(np.sum((name == conc) & in_fit)) / fits if fits else 0.0)
        ps_calls = out.get("circuits.postselect_counts.calls", 0)
        out["circuits.empty_branch_frac"] = (
            self.errors.get("circuits.postselect_counts", 0) / ps_calls if ps_calls else 0.0)
        out["circuits.gates_applied"] = c.get("circuits.gates_applied", 0)
        out["circuits.shots_drawn"] = c.get("circuits.shots_drawn", 0)
        est = c.get("tomography.estimates", 0)
        out["tomography.estimates"] = est
        out["tomography.projection_frac"] = (
            c.get("tomography.projected_estimates", 0) / est if est else 0.0)
        out["harness.points"] = c.get("harness.points", 0)
        out["harness.branches"] = c.get("harness.branches", 0)
        out["harness.branch_unanalyzed_frac"] = (
            c.get("harness.branches_unanalyzed", 0) / out["harness.branches"]
            if out["harness.branches"] else 0.0)
        out["harness.emit.bytes"] = c.get("harness.emit.bytes", 0)
        sweep = self.name_of.get("harness.run_sweep", -1)
        sweeps = dur[name == sweep]
        out["harness.sweep_s.p50"] = float(np.percentile(sweeps, 50)) if sweeps.size else 0.0
        out["harness.sweep_s.p90"] = float(np.percentile(sweeps, 90)) if sweeps.size else 0.0
        out["trace.spans"] = n
        return out

    def write(self, path: str) -> None:
        """Spans as gzipped JSON columns: name index, parent span index, start
        and end in ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({
                "names": self.names,
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start_ns": self.span_start.tolist(),
                "end_ns": self.span_end.tolist(),
            }, fh)
