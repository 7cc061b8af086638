"""Span tracer that times calls into the mdbench layers from outside.

Nothing under ``src/`` is edited. ``install`` replaces the names the library
looks up at call time (module attributes such as ``mdbench.solvers.norm``
and methods on classes such as ``ScheduleState.step_size``) with timing
wrappers, and ``uninstall`` puts the originals back.

Two kinds of call are traced:

* coarse calls (``cli.main``, the ``bench`` entry points, solver calls) are
  kept as spans: id, name, start, end, parent span, operation id, thread and
  the thread's CPU time, plus facts read from the returned value (solver
  iterations). Wall time minus CPU time is time spent waiting, mostly for
  the interpreter lock while the library's pool runs cells side by side;
* leaf calls (oracles, norms, step rules, mirror steps, projections) happen
  up to a few million times per operation, so each is folded into its
  nearest coarse ancestor as a count, a total duration, a self time and an
  optional work amount (constraint rows, computed bytes).

Self time is a span's duration minus the time its children cover. Children
in the same thread run one after another, so their durations add up; spans
started in a pool thread are parented to the span the main thread has open
and are counted through the union of their intervals.
"""
from __future__ import annotations

import itertools
import json
import threading
from time import perf_counter, thread_time

# (module, attribute, span name, leaf?)
_FUNCTIONS = (
    ("mdbench.cli", "main", "cli.main", False),
    ("mdbench.cli", "run_experiment", "bench.run_experiment", False),
    ("mdbench.cli", "run_single_cell", "bench.run_single_cell", False),
    ("mdbench.cli", "sweep_m", "bench.sweep_m", False),
    ("mdbench.cli", "_prepare_problem", "bench.prepare_problem", False),
    ("mdbench.bench", "reference_solution", "bench.reference_solution", False),
    ("mdbench.bench", "grid_refine_minimize", "bench.grid_refine_minimize", False),
    ("mdbench.bench", "mirror_descent", "solvers.mirror_descent", False),
    ("mdbench.solvers", "constrained_md", "solvers.constrained_md", False),
    ("mdbench.solvers", "constrained_md_multi", "solvers.constrained_md_multi", False),
    ("mdbench.solvers", "mirror_step", "geometry.mirror_step", True),
    ("mdbench.solvers", "norm", "space.norm", True),
)

SOLVER_SPANS = frozenset(
    {"solvers.mirror_descent", "solvers.constrained_md", "solvers.constrained_md_multi"}
)
BENCH_SPANS = frozenset(
    {"bench.run_experiment", "bench.run_single_cell", "bench.sweep_m",
     "bench.prepare_problem"}
)
POOL_SPANS = frozenset({"bench.run_experiment", "bench.sweep_m"})


def _objective_bytes(obj, x):
    """Bytes an objective call reads, computed from array sizes: the
    instance data plus the query point. Cache misses are not counted."""
    data = 0
    for name in ("a", "b", "points"):
        arr = getattr(obj, name, None)
        if arr is not None:
            data += arr.nbytes
    return data + x.nbytes


def _methods(mdbench):
    p = mdbench.problems
    g = mdbench.geometry
    out = []
    for cls in (p.DistanceToPoint, p.MeanDistance, p.MaxDistance, p.MaxAffine):
        out.append((cls, "value", "problems.objective_value",
                    lambda args, res: _objective_bytes(args[0], args[1])))
        out.append((cls, "subgrad", "problems.objective_subgrad",
                    lambda args, res: _objective_bytes(args[0], args[1])))
    full_scan = lambda args, res: args[0].p  # noqa: E731
    out += [
        (p.AffineConstraints, "value", "problems.constraint_scan", full_scan),
        (p.AffineConstraints, "subgrad", "problems.constraint_scan", full_scan),
        (p.AffineConstraints, "first_violation", "problems.constraint_scan",
         lambda args, res: res[1]),
        (p.AffineConstraints, "subgrad_one", "problems.constraint_row_grad", None),
        (mdbench.schedules.ScheduleState, "step_size", "schedules.step_size", None),
        (g.Ball, "project", "geometry.project", None),
        (g.Simplex, "project", "geometry.project", None),
    ]
    return out


def _solver_facts(res):
    return {"iterations": res.iterations, "productive": res.productive_count}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self._tls = threading.local()
        self._main_stack = None
        self._ids = itertools.count(1)  # next() on it is atomic in CPython
        self._saved = []
        self._leaf_tables = []
        self.spans = []
        self.op_id = None

    # -- bookkeeping -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
            self._tls.leaves = {}
            self._leaf_tables.append(self._tls.leaves)
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _span_wrapper(self, name, fn):
        tracer = self
        facts = _solver_facts if name in SOLVER_SPANS else None

        def traced(*args, **kwargs):
            stack = tracer._stack()
            cross = not stack
            parent = stack[-1] if stack else None
            main = tracer._main_stack
            if cross and main and stack is not main:
                parent = main[-1]  # a pool thread: the span the main thread has open
            sid = next(tracer._ids)
            # frame: [child seconds, anchor span id]
            frame = [0.0, sid]
            stack.append(frame)
            cpu = thread_time()
            start = perf_counter()
            info = None
            try:
                out = fn(*args, **kwargs)
                if facts is not None:
                    info = facts(out)
                return out
            finally:
                end = perf_counter()
                cpu = thread_time() - cpu
                stack.pop()
                if parent is not None and not cross:
                    parent[0] += end - start
                tracer.spans.append({
                    "id": sid,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent[1] if parent is not None else None,
                    "cross_thread": cross and parent is not None,
                    "op": tracer.op_id,
                    "thread": threading.get_ident(),
                    "child_s": frame[0],
                    "cpu_s": cpu,
                    "info": info,
                })

        traced.__wrapped__ = fn
        return traced

    def _leaf_wrapper(self, name, fn, work=None):
        tracer = self

        def traced(*args, **kwargs):
            tls = tracer._tls
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [0.0, parent[1] if parent is not None else 0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[0] += dur
                key = (frame[1], name)
                row = tls.leaves.get(key)
                if row is None:
                    row = tls.leaves[key] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[0]
            if work is not None:
                row[3] += work(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall ----------------------------------------------

    def install(self, mdbench):
        if self._saved:
            raise RuntimeError("tracer already installed")
        import importlib

        for modname, attr, name, leaf in _FUNCTIONS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            wrapped = self._leaf_wrapper(name, fn) if leaf else self._span_wrapper(name, fn)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrapped)
        for cls, attr, name, work in _methods(mdbench):
            fn = cls.__dict__[attr]
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, self._leaf_wrapper(name, fn, work))
        self._stack()

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    # -- results ------------------------------------------------------------

    def leaf_rows(self):
        """Merged leaf aggregates: {(anchor span id, name): [count,
        seconds, self seconds, work]}."""
        merged = {}
        for table in self._leaf_tables:
            for key, row in list(table.items()):
                acc = merged.setdefault(key, [0, 0.0, 0.0, 0])
                for i in range(4):
                    acc[i] += row[i]
        return merged

    def self_times(self):
        """Self seconds per recorded span id."""
        cross = {}
        for s in self.spans:
            if s["cross_thread"]:
                cross.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered = s["child_s"] + _union_length(cross.get(s["id"], ()))
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def write(self, path, extra=None):
        doc = {
            "spans": self.spans,
            "leaves": [
                {"anchor": k[0], "name": k[1], "count": v[0], "seconds": v[1],
                 "self_seconds": v[2], "work": v[3]}
                for k, v in sorted(self.leaf_rows().items())
            ],
        }
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _union_length(intervals):
    total = 0.0
    end_so_far = None
    for a, b in sorted(intervals):
        if end_so_far is None or a > end_so_far:
            total += b - a
            end_so_far = b
        elif b > end_so_far:
            total += b - end_so_far
            end_so_far = b
    return total
