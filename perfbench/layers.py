"""Per-layer metrics computed from a traced run.

Each metric is listed with the end-to-end metric it should move, and where
(see also README.md). Counts come from whole traced rounds, so they repeat
exactly between runs with the same seed. A metric that a workload does not
exercise reads 0.
"""
from __future__ import annotations

import os
import statistics
import time

import mdbench.bench

from tracer import BENCH_SPANS, POOL_SPANS, SOLVER_SPANS

UNITS = {
    "cli.overhead_ms": "ms",                     # op_p50_s, plan-sweep
    "bench.reference_s": "s",                    # op_p50_s, reference-longrun, grid-reference
    "bench.reference_share": "ratio",
    "bench.reference_iters": "count/op",
    "bench.grid_value_calls": "count/op",        # op_p50_s, grid-reference
    "bench.grid_value_us": "us",
    "bench.csv_us_per_row": "us",                # iters_per_s, plan-sweep
    "bench.bytes_written": "B/op",
    "bench.pool_overlap": "ratio",
    "solvers.iterations": "count/op",            # iters_per_s, plan-sweep
    "solvers.us_per_iter": "us",
    "solvers.self_us_per_iter": "us",
    "solvers.cpu_us_per_iter": "us",
    "solvers.trace_overhead_ratio": "ratio",
    "solvers.productive_ratio": "ratio",         # alg3/alg4 time to eps, constrained
    "problems.objective_calls_per_iter": "count/iter",  # op_p50_s, reference-longrun
    "problems.objective_us": "us",
    "problems.objective_share": "ratio",
    "problems.objective_bytes_per_call": "B/call",      # computed from array sizes
    "problems.constraint_calls_per_iter": "count/iter",  # alg3/alg4 time to eps
    "problems.constraint_rows_per_iter": "count/iter",
    "problems.constraint_us": "us",
    "problems.constraint_share": "ratio",
    "geometry.mirror_step_us": "us",             # op_p50_s, reference-longrun, grid
    "geometry.mirror_step_share": "ratio",
    "geometry.project_calls_per_iter": "count/iter",
    "schedules.step_size_us": "us",              # iters_per_s, plan-sweep
    "schedules.step_share": "ratio",
    "space.norm_us": "us",
    "trace_overhead_ratio": "ratio",
}

_OBJECTIVE = ("problems.objective_value", "problems.objective_subgrad")
_CONSTRAINT = ("problems.constraint_scan", "problems.constraint_row_grad")
PROBE_REPEATS = 3
CSV_REPEATS = 5


def _ratio(a, b):
    return a / b if b else 0.0


def _leaf_totals(leaves, anchors, names):
    count = seconds = work = 0
    for (anchor, name), row in leaves.items():
        if anchor in anchors and name in names:
            count += row[0]
            seconds += row[1]
            work += row[3]
    return count, seconds, work


def record_trace_ratio(probe):
    """Wall time of the same solve with the library's trace on over off,
    medians of alternating repeats."""
    on, off = [], []
    for _ in range(PROBE_REPEATS):
        for flag, sink in ((False, off), (True, on)):
            t0 = time.perf_counter()
            probe(flag)
            sink.append(time.perf_counter() - t0)
    return statistics.median(on) / statistics.median(off)


def csv_us_per_row(probe):
    """Median time of the public write_trace_csv per row, on the trace of
    the workload's probe solve."""
    res = probe(True)
    reference = mdbench.bench.ReferenceSolution(res.f_hat, mdbench.bench.METHOD_ANALYTIC, 0.0)
    rows = res.trace.rows()
    times = []
    for _ in range(CSV_REPEATS):
        t0 = time.perf_counter()
        mdbench.bench.write_trace_csv("csv_probe.csv", res.trace, reference)
        times.append(time.perf_counter() - t0)
    os.remove("csv_probe.csv")
    return statistics.median(times) / rows * 1e6


def per_layer(records, tracer, workload):
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    n_ops = len(traced)
    spans = tracer.spans
    by_id = {s["id"]: s for s in spans}
    self_s = tracer.self_times()
    leaves = tracer.leaf_rows()

    def dur(s):
        return s["end"] - s["start"]

    def under(s, name):
        parent = s["parent"]
        while parent is not None:
            p = by_id[parent]
            if p["name"] == name:
                return True
            parent = p["parent"]
        return False

    solvers = [s for s in spans if s["name"] in SOLVER_SPANS]
    solver_ids = {s["id"] for s in solvers}
    iters = sum(s["info"]["iterations"] for s in solvers if s["info"])
    productive = sum(s["info"]["productive"] for s in solvers if s["info"])
    solver_s = sum(dur(s) for s in solvers)

    cli_overhead = []
    for s in spans:
        if s["name"] == "cli.main":
            inner = sum(dur(c) for c in spans
                        if c["parent"] == s["id"] and c["name"] in BENCH_SPANS)
            cli_overhead.append(dur(s) - inner)

    ref_spans = [s for s in spans if s["name"] == "bench.reference_solution"]
    ref_by_op = {r.op_id: 0.0 for r in traced}
    for s in ref_spans:
        ref_by_op[s["op"]] = ref_by_op.get(s["op"], 0.0) + dur(s)
    ref_iters = sum(s["info"]["iterations"] for s in solvers
                    if s["info"] and under(s, "bench.reference_solution"))

    grid_ids = {s["id"] for s in spans if s["name"] == "bench.grid_refine_minimize"}
    grid_calls, grid_s, _ = _leaf_totals(leaves, grid_ids, ("problems.objective_value",))

    pools = [s for s in spans if s["name"] in POOL_SPANS]
    pool_ids = {s["id"] for s in pools}
    cell_s = sum(dur(s) for s in solvers if s["cross_thread"] and s["parent"] in pool_ids)

    obj_n, obj_s, obj_bytes = _leaf_totals(leaves, solver_ids, _OBJECTIVE)
    scan_n, _, scan_rows = _leaf_totals(leaves, solver_ids, ("problems.constraint_scan",))
    con_n, con_s, _ = _leaf_totals(leaves, solver_ids, _CONSTRAINT)
    ms_n, ms_s, _ = _leaf_totals(leaves, solver_ids, ("geometry.mirror_step",))
    proj_n, _, _ = _leaf_totals(leaves, solver_ids, ("geometry.project",))
    step_n, step_s, _ = _leaf_totals(leaves, solver_ids, ("schedules.step_size",))
    norm_n, norm_s, _ = _leaf_totals(leaves, solver_ids, ("space.norm",))

    return {
        "cli.overhead_ms": statistics.median(cli_overhead) * 1e3 if cli_overhead else 0.0,
        "bench.reference_s": statistics.median(ref_by_op.values()),
        "bench.reference_share": _ratio(sum(ref_by_op.values()), sum(r.seconds for r in traced)),
        "bench.reference_iters": ref_iters / n_ops,
        "bench.grid_value_calls": grid_calls / n_ops,
        "bench.grid_value_us": _ratio(grid_s, grid_calls) * 1e6,
        "bench.csv_us_per_row": csv_us_per_row(workload.probe),
        "bench.bytes_written": sum(r.outcome.bytes for r in traced) / n_ops,
        "bench.pool_overlap": _ratio(cell_s, sum(dur(s) for s in pools)),
        "solvers.iterations": iters / n_ops,
        "solvers.us_per_iter": _ratio(solver_s, iters) * 1e6,
        "solvers.self_us_per_iter": _ratio(sum(self_s[i] for i in solver_ids), iters) * 1e6,
        "solvers.cpu_us_per_iter": _ratio(sum(s["cpu_s"] for s in solvers), iters) * 1e6,
        "solvers.trace_overhead_ratio": record_trace_ratio(workload.probe),
        "solvers.productive_ratio": _ratio(productive, iters),
        "problems.objective_calls_per_iter": _ratio(obj_n, iters),
        "problems.objective_us": _ratio(obj_s, obj_n) * 1e6,
        "problems.objective_share": _ratio(obj_s, solver_s),
        "problems.objective_bytes_per_call": _ratio(obj_bytes, obj_n),
        "problems.constraint_calls_per_iter": _ratio(scan_n, iters),
        "problems.constraint_rows_per_iter": _ratio(scan_rows, iters),
        "problems.constraint_us": _ratio(con_s, con_n) * 1e6,
        "problems.constraint_share": _ratio(con_s, solver_s),
        "geometry.mirror_step_us": _ratio(ms_s, ms_n) * 1e6,
        "geometry.mirror_step_share": _ratio(ms_s, solver_s),
        "geometry.project_calls_per_iter": _ratio(proj_n, iters),
        "schedules.step_size_us": _ratio(step_s, step_n) * 1e6,
        "schedules.step_share": _ratio(step_s, solver_s),
        "space.norm_us": _ratio(norm_s, norm_n) * 1e6,
        "trace_overhead_ratio": _ratio(_sum_of_medians(traced), _sum_of_medians(plain)),
    }


def _sum_of_medians(records):
    """Sum over operations of each one's median time, so that one stalled
    repeat does not set the traced-to-untraced ratio."""
    by_key = {}
    for r in records:
        by_key.setdefault(r.op.key, []).append(r.seconds)
    return sum(statistics.median(v) for v in by_key.values())
