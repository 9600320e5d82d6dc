"""Per-layer tracing of npatch from outside the package.

Tracer.install() replaces the public callables named in SPANS with
timing wrappers, in this process only; uninstall() puts the originals
back.  A module function is replaced wherever a module of the package
holds it (so `from .mesher import mesh_patch` in another module is
traced too), a method on its class.  A name missing from the package
(removed by a later refactor) is recorded as absent instead of failing.

Each call is a span.  Spans nest on a stack; a span's self time is its
duration minus the time covered by its child spans, which in this
single-threaded program is the sum of the children's durations.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# (module, callable) pairs traced, in layer order
SPANS = [
    ("cli", "main"),
    ("fileio", "read_loop"),
    ("fileio", "write_obj"),
    ("fileio", "write_ply_scalar"),
    ("loop", "make_loop"),
    ("loop", "opposite_curve"),
    ("surface", "make_patch"),
    ("surface", "Patch.eval_many"),
    ("surface", "Patch.eval"),
    ("surface", "Patch.eval_boundary"),
    ("ribbon", "Ribbon.eval_many"),
    ("curves", "BezierCurve.eval_many"),
    ("curves", "BezierCurve.eval"),
    ("domain", "DomainPolygon.wachspress_many"),
    ("domain", "DomainPolygon.edge_distances_many"),
    ("domain", "local_params"),
    ("mesher", "tessellate_domain"),
    ("mesher", "mesh_patch"),
    ("mesher", "TriMesh.edges"),
    ("analysis", "curvature_map"),
    ("analysis", "mean_curvature"),
    ("analysis", "harmonic_fill"),
    ("analysis", "dirichlet_energy"),
    ("analysis", "contours"),
]

# sparse-solver entry points the harmonic fill may call; their time is
# reported as harmonic_fill.solver_share, cg's iterations as cg_iters
SOLVERS = ["cg", "spsolve", "splu", "factorized"]

# derived per-call counters: span name -> (counter, fn(args, result) -> value)
COUNTERS = {
    "surface.Patch.eval_many": ("points", lambda a, r: len(a[1])),
    "curves.BezierCurve.eval_many": ("points", lambda a, r: np.size(a[1])),
    "fileio.write_obj": ("bytes", lambda a, r: len(r)),
    "analysis.contours": ("polylines", lambda a, r: len(r.polylines)),
}

# per-layer metrics reported on the result line: name -> (unit, better)
LAYER_METRICS = {}
for _name, _stats in [
    ("surface.Patch.eval_many", ["calls", "points", "self_share", "total_share"]),
    ("surface.Patch.eval", ["calls", "total_share"]),
    ("surface.Patch.eval_boundary", ["calls"]),
    ("surface.make_patch", ["total_share"]),
    ("ribbon.Ribbon.eval_many", ["calls", "self_share"]),
    ("curves.BezierCurve.eval_many", ["calls", "points", "self_share"]),
    ("curves.BezierCurve.eval", ["calls"]),
    ("domain.DomainPolygon.wachspress_many", ["self_share"]),
    ("domain.DomainPolygon.edge_distances_many", ["self_share"]),
    ("domain.local_params", ["self_share", "valid_frac"]),
    ("mesher.tessellate_domain", ["calls", "total_share", "calls_per_job"]),
    ("mesher.mesh_patch", ["self_share"]),
    ("mesher.TriMesh.edges", ["total_share"]),
    ("analysis.curvature_map", ["self_share"]),
    ("analysis.mean_curvature", ["calls", "self_share"]),
    ("analysis.harmonic_fill", ["self_share", "solver_share", "cg_iters"]),
    ("analysis.dirichlet_energy", ["total_share"]),
    ("analysis.contours", ["self_share", "polylines"]),
    ("fileio.read_loop", ["total_share"]),
    ("fileio.write_obj", ["total_share", "bytes"]),
    ("fileio.write_ply_scalar", ["total_share"]),
    ("loop.make_loop", ["self_share"]),
    ("loop.opposite_curve", ["calls"]),
    ("cli.main", ["calls", "self_share"]),
]:
    for _stat in _stats:
        _unit = ("frac" if _stat.endswith(("_share", "_frac"))
                 else "count/job" if _stat == "calls_per_job" else "count")
        _better = "higher" if _stat == "valid_frac" else "lower"
        LAYER_METRICS["%s.%s" % (_name, _stat)] = (_unit, _better)
LAYER_METRICS["trace.overhead_frac"] = ("frac", "lower")
LAYER_METRICS["trace.busy_ms"] = ("ms", "lower")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.absent = set()
        self._stack = []   # [name, child seconds] of the open spans
        self._undo = []    # (owner, attribute, original)

    # -- spans -----------------------------------------------------------
    def _wrap(self, name, fn, counter=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
            if counter is not None:
                self._count(name, counter, args, result)
            return result
        return traced

    def _count(self, name, counter, args, result):
        key, fn = counter
        try:
            self.counters[name + "." + key] += fn(args, result)
        except (TypeError, AttributeError, IndexError):
            self.absent.add(name + "." + key)

    def _local_params(self, fn):
        traced = self._wrap("domain.local_params", fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            valid = getattr(result, "valid", None)
            if valid is None:
                self.absent.add("domain.local_params.valid_frac")
            else:
                self.counters["domain.local_params.valid"] += int(np.count_nonzero(valid))
                self.counters["domain.local_params.terms"] += np.size(valid)
            return result
        return counted

    def _solver(self, name, fn):
        traced = self._wrap("scipy." + name, fn)
        counters = self.counters

        @functools.wraps(fn)
        def solver(*args, **kwargs):
            if name == "cg":
                user = kwargs.get("callback")

                def step(xk):
                    counters["analysis.harmonic_fill.cg_iters"] += 1
                    if user is not None:
                        user(xk)
                kwargs["callback"] = step
            return traced(*args, **kwargs)
        return solver

    # -- patching ----------------------------------------------------------
    def _replace_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "npatch" and not modname.startswith("npatch."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self):
        for module, qualname in SPANS:
            name = module + "." + qualname
            try:
                mod = importlib.import_module("npatch." + module)
            except ModuleNotFoundError:
                self.absent.add(name)
                continue
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                owner = getattr(mod, cls_name, None)
                fn = owner is not None and inspect.getattr_static(owner, meth, None)
                if not inspect.isfunction(fn):
                    self.absent.add(name)
                    continue
                setattr(owner, meth, self._wrap(name, fn, COUNTERS.get(name)))
                self._undo.append((owner, meth, fn))
                continue
            fn = getattr(mod, qualname, None)
            if not inspect.isfunction(fn):
                self.absent.add(name)
                continue
            if name == "domain.local_params":
                wrapper = self._local_params(fn)
            else:
                wrapper = self._wrap(name, fn, COUNTERS.get(name))
            self._replace_everywhere(fn, wrapper)
        spla = importlib.import_module("scipy.sparse.linalg")
        for solver in SOLVERS:
            fn = getattr(spla, solver)
            wrapper = self._solver(solver, fn)
            setattr(spla, solver, wrapper)
            self._undo.append((spla, solver, fn))
            self._replace_everywhere(fn, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- report ------------------------------------------------------------
    def spans(self):
        """Absolute figures for every span seen: calls, total_ms, self_ms."""
        return {
            name: {"calls": self.calls[name],
                   "total_ms": 1e3 * self.total[name],
                   "self_ms": 1e3 * self.self_time[name]}
            for name in sorted(self.calls)
        }

    def layer_metrics(self, busy_s, jobs, overhead_frac):
        """Values of LAYER_METRICS; times as shares of the traced busy time."""
        solver_s = sum(self.total["scipy." + s] for s in SOLVERS)
        out = {}
        for metric, (unit, _) in LAYER_METRICS.items():
            name, stat = metric.rsplit(".", 1)
            if stat == "calls":
                value = self.calls[name]
            elif stat == "self_share":
                value = self.self_time[name] / busy_s
            elif stat == "total_share":
                value = self.total[name] / busy_s
            elif stat == "calls_per_job":
                value = self.calls[name] / max(jobs, 1)
            elif stat == "solver_share":
                value = solver_s / busy_s
            elif stat == "valid_frac":
                terms = self.counters[name + ".terms"]
                value = self.counters[name + ".valid"] / terms if terms else 0.0
            elif metric == "trace.overhead_frac":
                value = overhead_frac
            elif metric == "trace.busy_ms":
                value = 1e3 * busy_s
            else:
                value = self.counters[metric]
            out[metric] = {"value": value, "unit": unit}
        return out

    def absent_metrics(self):
        """Result-line metrics whose callable or counter the package lacks."""
        return sorted(m for m in LAYER_METRICS
                      if m.rsplit(".", 1)[0] in self.absent or m in self.absent)
