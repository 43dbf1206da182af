"""Spans around the fdcurves public functions, installed from outside the library.

``install(tracer)`` replaces each wrapped function wherever a module of the
package holds it, so by-name imports such as ``fdcurves.sim.solve_drift``
or ``fdcurves.cli.simulate`` are traced as well as the defining module's
name; methods are wrapped on every class that defines them. Wrappers cost
one attribute test while the tracer is inactive, so output checks run
between traced batches record nothing.

A span is (name, start, end, parent id), kept in flat arrays in memory.
``Tracer.summary()`` turns them into per-function calls, total and self
time, where self time is a span's duration minus the time its child spans
cover, plus the work counters recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("qe", "families", "noarb", "sim", "cli")
BASIS_USERS = ("families.curve_matrix", "families.derivative_tables")


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._inside: dict[str, int] = defaultdict(int)
        self._basis_stack: list[int] = []
        self._basis_missed: set[int] = set()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self._inside[name] += 1
        if name in BASIS_USERS:
            self._basis_stack.append(sid)
        elif name == "qe.QEFunction.eval_grid" and self._basis_stack:
            self._basis_missed.add(self._basis_stack[-1])
        elif name == "noarb.solve_drift" and self._inside["sim.simulate"]:
            self.counts["sim.lattice.solves"] += 1
        elif name == "noarb.scc_probe" and self._inside["noarb.reconstruct_from_eta"]:
            self.counts["noarb.scc_probe.under_reconstruct"] += 1
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int, name: str) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        self._inside[name] -= 1
        if name in BASIS_USERS:
            self._basis_stack.pop()

    def summary(self) -> dict[str, float]:
        """Per-name calls/total_s/self_s, module self time and counters."""
        out: dict[str, float] = dict(self.counts)
        n = len(self.start)
        if n == 0:
            return out
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        total = np.bincount(nid, weights=dur, minlength=len(self.names))
        self_s = np.bincount(nid, weights=own, minlength=len(self.names))
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = float(calls[i])
            out[f"{name}.total_s"] = float(total[i])
            out[f"{name}.self_s"] = float(self_s[i])
            module = name.split(".", 1)[0]
            out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + float(self_s[i])
        basis_calls = sum(out.get(f"{b}.calls", 0.0) for b in BASIS_USERS)
        out["families.basis_misses"] = float(len(self._basis_missed))
        out["families.basis_calls"] = basis_calls
        return out


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    total: dict[str, float] = defaultdict(float)
    for part in parts:
        for key, value in part.items():
            total[key] += value
    return dict(total)


def _traced(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid, name)
        if count is not None:
            count(tracer.counts, args, result)
        return result
    return wrapper


def _counted(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.counts[f"{name}.calls"] += 1
            if count is not None:
                count(tracer.counts, args, None)
        return fn(*args, **kwargs)
    return wrapper


def _add(key, fn):
    def count(counts, args, result):
        counts[key] += fn(args, result)
    return count


def _file_bytes(key):
    return _add(key, lambda args, result: os.path.getsize(args[1]))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every fdcurves layer (see module doc)."""
    import fdcurves
    from fdcurves import cli, families, noarb, qe, sim

    modules = [fdcurves, qe, families, noarb, sim, cli]

    def function(module, attr, name, count=None):
        original = getattr(module, attr)
        wrapper = _traced(tracer, name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def method(classes, attr, name, count=None, span=True):
        make = _traced if span else _counted
        for cls in classes:
            if attr in vars(cls):
                setattr(cls, attr, make(tracer, name, vars(cls)[attr], count))

    function(qe, "mat_exp", "qe.mat_exp")
    method([qe.QEFunction], "eval_grid", "qe.QEFunction.eval_grid",
           _add("qe.QEFunction.eval_grid.points", lambda a, r: np.size(a[1])))

    curve_classes = [families.CurveFamily, families.AffineModel,
                     families.GaussianExampleModel, families.NumericCurveFamily]
    method(curve_classes, "curve_matrix", "families.curve_matrix",
           _add("families.curve_matrix.states", lambda a, r: np.atleast_2d(a[2]).shape[0]))
    method(curve_classes, "derivative_tables", "families.derivative_tables")
    method([families.IdentityMap, families.ExpMinusOneMap,
            families.ComponentwiseCubicMap], "value", "families.FactorMap.value",
           span=False)

    for attr in ("solve_drift", "scc_probe", "reconstruct_from_eta", "detect_affine"):
        function(noarb, attr, f"noarb.{attr}")

    function(sim, "simulate", "sim.simulate",
             _add("sim.simulate.path_steps", lambda a, r: r.n_paths * (r.n_times - 1)))
    function(sim, "martingale_test", "sim.martingale_test",
             _add("sim.martingale_test.states", lambda a, r: a[1].n_paths * a[1].n_times))
    function(sim, "estimate_vol", "sim.estimate_vol")
    function(sim, "scc_loop", "sim.scc_loop")
    method([sim.PathSet], "save", "sim.PathSet.save", _file_bytes("sim.PathSet.save.bytes"))
    method([sim.PathSet], "export_csv", "sim.PathSet.export_csv",
           _file_bytes("sim.PathSet.export_csv.bytes"))
    method([sim.LatticeDrift], "__call__", "sim.drift", span=False,
           count=_add("sim.drift.rows", lambda a, r: np.atleast_2d(a[1]).shape[0]))
    function(cli, "main", "cli.main")
