"""Experiment harness: reference solutions, plan execution, and
deterministic CSV/JSON export.

Conventions shared by all experiments:

* unconstrained runs start at x1 = (1/sqrt(n), ..., 1/sqrt(n)) projected
  onto the feasible set, which on the unit ball is the point itself and on
  the simplex is the barycenter;
* constrained runs start at x1 = 0 on the ball;
* theta bounds the Bregman distance from x1 to any minimizer: half the
  squared feasible-set diameter for the squared-Euclidean prox (2 r^2 for
  a ball of radius r, 1 for the simplex; ``theta_for``), and ln n for the
  entropy prox from the barycenter of the simplex;
* CSV files use '.' decimals, 17 significant digits, comma delimiters, a
  header row, and LF line endings, so the same plan and seed reproduce the
  same bytes;
* wall-clock time goes to the comparison table and stderr only, never into
  per-iteration files.
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .geometry import Ball, FeasibleSet, Simplex, euclidean_setup, entropy_setup, unit_ball
from .problems import InstanceSpec, KIND_BEST_APPROX, build_constraints, build_objective, serialize_instance
from .schedules import TABLE_TAGS, TAG_ADAPTIVE_TV, TAG_POLYAK, TAG_TIME_VARYING, ScheduleState, schedule
from .solvers import (
    RunConfig,
    StopReason,
    _check_m_values,
    _descent,
    bound_corollaries,
    constrained_md,
    constrained_md_multi,
    iteration_estimate,
    mirror_descent,
)

__all__ = [
    "METHOD_ANALYTIC",
    "METHOD_GRID",
    "METHOD_LONGRUN",
    "ReferenceSolution",
    "ExperimentPlan",
    "theta_for",
    "default_start",
    "constrained_start",
    "grid_refine_minimize",
    "reference_solution",
    "constrained_reference",
    "write_trace_csv",
    "summarize_cell_csv",
    "run_single_cell",
    "run_experiment",
    "sweep_m",
    "run_constrained_comparison",
    "write_instance_json",
]

METHOD_ANALYTIC = "Analytic"
METHOD_GRID = "GridRefine"
METHOD_LONGRUN = "LongRun"

_PROX_NAMES = ("euclidean", "entropy")


@dataclass(frozen=True)
class ReferenceSolution:
    """A best-known minimal value and how far it can be trusted. Gap
    reports derived from it are meaningful only beyond ``tolerance``."""

    f_min: float
    method: str
    tolerance: float


@dataclass(frozen=True)
class ExperimentPlan:
    """A deterministic batch of (schedule, m) solver runs on one instance.

    ``seed`` is the experiment seed and should match ``instance.seed``;
    ``prox`` selects the geometry ("euclidean" on the unit ball or
    "entropy" on the simplex). Plans serialize losslessly to dicts.
    """

    instance: InstanceSpec
    schedules: tuple = ()
    m_values: tuple = ()
    iters: int = 1000
    epsilon: Optional[float] = None
    output_dir: str = "."
    seed: int = 0
    prox: str = "euclidean"

    def __post_init__(self):
        object.__setattr__(self, "schedules", tuple(self.schedules))
        object.__setattr__(self, "m_values", tuple(float(v) for v in self.m_values))
        if not self.schedules:
            raise ValueError("plan needs at least one schedule tag")
        for tag in self.schedules:
            if tag not in TABLE_TAGS:
                raise ValueError(f"unknown schedule tag: {tag!r}")
        if not self.m_values:
            raise ValueError("plan needs at least one m value")
        _check_m_values(self.m_values)
        if self.iters < 1:
            raise ValueError("iters must be at least 1")
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.prox not in _PROX_NAMES:
            raise ValueError(f"unknown prox name: {self.prox!r}")

    def to_dict(self) -> dict:
        return {
            "instance": self.instance.to_dict(),
            "schedules": list(self.schedules),
            "m_values": list(self.m_values),
            "iters": self.iters,
            "epsilon": self.epsilon,
            "output_dir": self.output_dir,
            "seed": self.seed,
            "prox": self.prox,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentPlan":
        return cls(
            instance=InstanceSpec.from_dict(doc["instance"]),
            schedules=tuple(doc["schedules"]),
            m_values=tuple(doc["m_values"]),
            iters=int(doc["iters"]),
            epsilon=doc.get("epsilon"),
            output_dir=doc["output_dir"],
            seed=int(doc["seed"]),
            prox=doc.get("prox", "euclidean"),
        )


def theta_for(feasible: FeasibleSet) -> float:
    """Half the squared Euclidean diameter of the set: a bound on the
    Bregman distance of the squared-Euclidean prox from any feasible start
    to any minimizer. It does not hold for the entropy prox, whose plans
    use ln n (see ``_geometry``)."""
    if isinstance(feasible, Ball):
        return 2.0 * feasible.radius**2
    return 1.0


def default_start(feasible: FeasibleSet) -> np.ndarray:
    if isinstance(feasible, Ball):
        n = feasible.n
        return feasible.project(np.full(n, 1.0 / math.sqrt(n)))
    return np.full(feasible.n, 1.0 / feasible.n)


def constrained_start(feasible: FeasibleSet) -> np.ndarray:
    if isinstance(feasible, Ball):
        return feasible.project(np.zeros(feasible.n))
    return np.full(feasible.n, 1.0 / feasible.n)


def _geometry(prox_name: str, n: int):
    """(prox, feasible set, theta) of a plan. With the entropy prox the
    Bregman distance from the barycenter is KL(x || 1/n) <= ln n (Beck &
    Teboulle 2003); at n = 1 the simplex is one point, the distance is 0
    and any positive theta holds."""
    if prox_name == "euclidean":
        ball = unit_ball(n)
        return euclidean_setup(), ball, theta_for(ball)
    if prox_name == "entropy":
        return entropy_setup(), Simplex(n), math.log(n) if n > 1 else 1.0
    raise ValueError(f"unknown prox name: {prox_name!r}")


def _has_known_fstar(instance: InstanceSpec, prox_name: str) -> bool:
    """Whether the plan's objective has an analytic optimal value: only the
    best-approximation family on the unit ball (the Euclidean prox) does."""
    return instance.kind == KIND_BEST_APPROX and prox_name == "euclidean"


def _prepare_problem(instance: InstanceSpec, prox_name: str):
    """Build (objective, prox, feasible, start, theta), with known_fstar
    cleared where ``_has_known_fstar`` says the analytic value does not
    apply."""
    prox, feasible, theta = _geometry(prox_name, instance.n)
    objective = build_objective(instance)
    if not _has_known_fstar(instance, prox_name):
        objective.known_fstar = None
    return objective, prox, feasible, default_start(feasible), theta


# mesh rows built, projected and evaluated per batch; bounds the
# temporaries of a refinement round (up to 129**n rows) to a few MB
_GRID_BLOCK_ROWS = 4096


def _mesh_rows(axes, flat) -> np.ndarray:
    """Rows ``flat`` of the ij-ordered mesh of ``axes``, as a (K, n) array:
    row r holds axes[i][j_i] where (j_0, ..., j_{n-1}) unravels r."""
    idx = np.unravel_index(flat, tuple(a.size for a in axes))
    return np.stack([a[j] for a, j in zip(axes, idx)], axis=-1)


def grid_refine_minimize(values_fn, feasible: FeasibleSet, tol: float = 1e-6,
                         lipschitz: float = 1.0, points_per_axis: int = 9,
                         max_rounds: int = 120):
    """Derivative-free minimizer for n <= 3 by nested grid refinement.

    Evaluates the function on a projected axis grid, keeps the sublevel
    region that can still contain the minimum given the Lipschitz bound,
    and shrinks the box around it until lipschitz * spacing * sqrt(n) <= tol
    or ``max_rounds`` runs out. ``values_fn`` maps a (K, n) array of
    feasible points to K values, such as an objective's ``values``; a
    non-finite value raises ``ValueError`` naming the point. Mesh rows are
    generated block by block from their flat indices, so a round holds its
    values but never its whole mesh.
    Returns (x_best, f_best, achieved_tolerance).
    """
    n = feasible.n
    if n > 3:
        raise ValueError("grid refinement is limited to n <= 3")
    if isinstance(feasible, Ball):
        lo0 = feasible.center - feasible.radius
        hi0 = feasible.center + feasible.radius
    else:
        lo0 = np.zeros(n)
        hi0 = np.ones(n)
    lo, hi = lo0.copy(), hi0.copy()
    ppa = max(3, points_per_axis)
    best_x = None
    best_v = math.inf
    slack = math.inf
    for _ in range(max_rounds):
        axes = [np.linspace(lo[i], hi[i], ppa) for i in range(n)]
        size = ppa**n
        delta = float(np.max((hi - lo) / (ppa - 1)))
        slack = lipschitz * delta * math.sqrt(n)
        vals = np.empty(size)
        for start in range(0, size, _GRID_BLOCK_ROWS):
            flat = np.arange(start, min(start + _GRID_BLOCK_ROWS, size))
            block = feasible.project_rows(_mesh_rows(axes, flat))
            vals[start:start + flat.size] = values_fn(block)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"grid value {float(vals[i])!r} at "
                f"{feasible.project(_mesh_rows(axes, i)).tolist()} is not finite"
            )
        i_best = int(np.argmin(vals))
        if vals[i_best] < best_v:
            best_v = float(vals[i_best])
            best_x = feasible.project(_mesh_rows(axes, i_best))
        if slack <= tol:
            break
        keep = np.flatnonzero(vals <= best_v + slack)
        blocks = (_mesh_rows(axes, keep[start:start + _GRID_BLOCK_ROWS])
                  for start in range(0, keep.size, _GRID_BLOCK_ROWS))
        spans = [(b.min(axis=0), b.max(axis=0)) for b in blocks]
        new_lo = np.maximum(np.min([b_lo for b_lo, _ in spans], axis=0) - delta, lo0)
        new_hi = np.minimum(np.max([b_hi for _, b_hi in spans], axis=0) + delta, hi0)
        # guarantee progress even on flat regions: if the box barely
        # shrank, double the resolution instead
        if float(np.max(new_hi - new_lo)) > 0.75 * float(np.max(hi - lo)):
            ppa = min(2 * ppa - 1, 129)
        lo, hi = new_lo, new_hi
    return best_x, best_v, slack


def reference_solution(objective, feasible: FeasibleSet,
                       iters_budget: int = 10_000) -> ReferenceSolution:
    """Best-known minimum of an unconstrained objective over the set.

    Distance-to-point objectives on a ball have the exact answer. For
    n <= 3, ``grid_refine_minimize`` aims at 1e-6 but stops after its
    round limit, so the tolerance is the slack it achieved (at least 1e-6,
    often 1e-4 to 1e-2 at n = 2); n = 3 is slow. Everything else gets a
    long reference solve (m = 5, time-varying steps, 50x the experiment
    budget) whose corollary bound is reported as the tolerance.
    """
    if objective.kind == KIND_BEST_APPROX and isinstance(feasible, Ball):
        d = objective.a - feasible.center
        f_min = max(0.0, math.sqrt(float(np.dot(d, d))) - feasible.radius)
        return ReferenceSolution(f_min, METHOD_ANALYTIC, 0.0)
    if feasible.n <= 3:
        _, f_min, achieved = grid_refine_minimize(
            objective.values, feasible, tol=1e-6, lipschitz=objective.lipschitz_bound
        )
        return ReferenceSolution(f_min, METHOD_GRID, max(achieved, 1e-6))
    prox = euclidean_setup()
    n_long = 50 * iters_budget
    theta = theta_for(feasible)
    m_lip = objective.lipschitz_bound
    state = _schedule_state(TAG_TIME_VARYING, m_lip, prox.sigma)
    config = RunConfig(m=5.0, iters=n_long, theta=theta, record_trace=False)
    res = mirror_descent(objective, prox, feasible, state, config, default_start(feasible))
    tol = bound_corollaries(5.0, n_long, m_lip, theta, prox.sigma)
    return ReferenceSolution(res.f_hat, METHOD_LONGRUN, tol)


def constrained_reference(objective, constraints, feasible: FeasibleSet,
                          epsilon_ref: float = 6e-3, m: float = 1.0,
                          theta1: Optional[float] = None) -> ReferenceSolution:
    """Reference value for a constrained instance from one long certified
    run at accuracy epsilon_ref.

    The returned point is only epsilon_ref-feasible, so its objective value
    can undershoot the true constrained minimum; the tolerance widens by a
    bound on that undershoot derived from the realized violation and the
    smallest constraint gradient norm.
    """
    prox = euclidean_setup()
    if theta1 is None:
        theta1 = theta_for(feasible)
    m_big = max(objective.lipschitz_bound, constraints.lipschitz_bound)
    est = iteration_estimate(m_big, theta1, prox.sigma, epsilon_ref, m)
    cap = min(3 * est + 1000, 10_000_000)
    state_f = _schedule_state(TAG_TIME_VARYING, objective.lipschitz_bound, prox.sigma)
    state_g = _schedule_state(TAG_TIME_VARYING, constraints.lipschitz_bound, prox.sigma)
    config = RunConfig(
        m=m, iters=cap, epsilon=epsilon_ref, theta=theta1, record_trace=False
    )
    res = constrained_md(
        objective, constraints, prox, feasible, state_f, state_g, config,
        constrained_start(feasible),
    )
    if res.stop_reason is not StopReason.EPSILON_CRITERION:
        raise RuntimeError(
            "constrained reference run did not reach its stopping criterion "
            f"within {cap} iterations"
        )
    violation = max(0.0, constraints.value(res.x_hat))
    row_norms = np.sqrt((constraints.alphas * constraints.alphas).sum(axis=1))
    min_row = float(row_norms.min())
    tol = epsilon_ref
    if violation > 0.0 and min_row > 0.0:
        tol += 2.0 * objective.lipschitz_bound * violation / min_row
    return ReferenceSolution(res.f_hat, METHOD_LONGRUN, tol)


def write_trace_csv(path: str, trace, reference: Optional[ReferenceSolution] = None,
                    include_productive: bool = False,
                    include_evals: bool = False) -> None:
    """One row per iteration; empty cells where a value is undefined
    (bound for uncertified schedules, averages before the first productive
    step, gaps without a reference)."""
    with open(path, "w", newline="") as fh:
        fh.write(_trace_csv_text(trace, reference, include_productive, include_evals))


def _trace_csv_text(trace, reference, include_productive, include_evals) -> str:
    # one % call per row: %d for integer and boolean cells, %.17g for
    # floats; undefined cells are NaN and their "nan" tokens are dropped,
    # which gives the bytes _fmt writes cell by cell
    header = "k,gamma,f_iterate,f_avg,f_best_so_far,gap_avg,gap_best,bound"
    fmt = "%d" + ",%.17g" * 7
    extra = []
    if include_productive:
        header += ",productive"
        fmt += ",%d"
        extra.append(trace.productive)
    if include_evals:
        header += ",constraint_evals"
        fmt += ",%d"
        extra.append(trace.constraint_evals)
    rows = trace.rows()
    nan = math.nan
    f_min = reference.f_min if reference is not None else nan
    bounds = trace.bound if len(trace.bound) == rows else repeat(nan)
    counts = trace.productive if include_productive else repeat(True)
    lines = [header]
    best = math.inf
    for k, gamma, fi, f_avg, bound, count, *more in zip(
        trace.k, trace.gamma, trace.f_iterate, trace.f_avg, bounds, counts, *extra
    ):
        if count and fi < best:
            best = fi
        f_best = best if best < math.inf else nan
        lines.append(
            fmt % (k, gamma, fi, f_avg, f_best, f_avg - f_min, f_best - f_min, bound, *more)
        )
    return "\n".join(lines).replace("nan", "") + "\n"


def _parse_cell(s: str) -> Optional[float]:
    return None if s == "" else float(s)


def summarize_cell_csv(path: str) -> dict:
    """Final-row numbers of one per-iteration CSV, parsed back from the
    written text so they match the summary JSON bit for bit."""
    with open(path, "r", newline="") as fh:
        return _summarize_csv_text(fh.read())


def _summarize_csv_text(content: str) -> dict:
    lines = content.strip("\n").split("\n")
    header = lines[0].split(",")
    if len(lines) < 2:
        return {"final_k": None, "final_f_avg": None, "final_gap_avg": None,
                "final_f_best": None, "final_gap_best": None, "final_bound": None}
    last = lines[-1].split(",")
    row = dict(zip(header, last))
    return {
        "final_k": int(row["k"]),
        "final_f_avg": _parse_cell(row["f_avg"]),
        "final_gap_avg": _parse_cell(row["gap_avg"]),
        "final_f_best": _parse_cell(row["f_best_so_far"]),
        "final_gap_best": _parse_cell(row["gap_best"]),
        "final_bound": _parse_cell(row["bound"]),
    }


def _schedule_state(tag: str, lipschitz: float, sigma: float) -> ScheduleState:
    """Fresh step-rule state; only the time-varying rule reads the
    Lipschitz bound."""
    if tag == TAG_TIME_VARYING:
        kind = schedule(tag, m_lipschitz=lipschitz)
    else:
        kind = schedule(tag)
    return ScheduleState(kind, sigma)


def _m_token(m: float) -> str:
    return format(float(m), "g")


def _solve_plan(plan: ExperimentPlan) -> tuple:
    """Run every schedule of an unconstrained plan as one batch: one traced
    trajectory per schedule, all advanced together and each averaged once
    per m. Writes nothing; returns the reference and (tag, m, SolveResult)
    triples in plan order. If schedules fail, the error of the first in
    plan order is raised."""
    if plan.instance.p != 0:
        raise ValueError(
            "plan runs are unconstrained; use the constrained comparison for p > 0"
        )
    objective, prox, feasible, x1, theta = _prepare_problem(plan.instance, plan.prox)
    if TAG_POLYAK in plan.schedules and objective.known_fstar is None:
        raise ValueError("Polyak requires known f*")
    reference = reference_solution(objective, feasible, iters_budget=plan.iters)
    config = RunConfig(m=plan.m_values[0], iters=plan.iters, theta=theta, record_trace=True)
    states = [
        _schedule_state(tag, objective.lipschitz_bound, prox.sigma) for tag in plan.schedules
    ]
    batch = _descent(objective, prox, feasible, states, config, x1, plan.m_values)
    runs = []
    for tag, results in zip(plan.schedules, batch):
        runs.extend(zip(repeat(tag), plan.m_values, results))
    return reference, runs


def _write_cell(path: str, tag: str, m: float, result, reference) -> dict:
    """Write one cell's per-iteration CSV and return its summary cell,
    parsed from the same text."""
    text = _trace_csv_text(result.trace, reference, False, False)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    cell = {
        "schedule": tag,
        "m": m,
        "file": os.path.basename(path),
        "iterations": result.iterations,
        "stop_reason": result.stop_reason.value,
    }
    cell.update(_summarize_csv_text(text))
    return cell


def run_single_cell(instance: InstanceSpec, prox_name: str, tag: str, m: float,
                    iters: int, out_path: str) -> dict:
    """One (schedule, m) run written to ``out_path``; returns its summary
    cell plus the reference. It runs as a one-cell plan, so it validates
    like every plan (constrained instances are rejected) and a matching
    run_experiment cell has identical bytes."""
    plan = ExperimentPlan(
        instance=instance, schedules=(tag,), m_values=(m,), iters=iters,
        seed=instance.seed, prox=prox_name,
    )
    reference, ((_, m, result),) = _solve_plan(plan)
    cell = _write_cell(out_path, tag, m, result, reference)
    cell["reference"] = asdict(reference)
    return cell


def run_experiment(plan: ExperimentPlan) -> dict:
    """Run every (schedule, m) cell of the plan, write one CSV per cell and
    a summary JSON into plan.output_dir, and return the summary dict.

    Each schedule runs one trajectory that feeds an average for every m of
    the plan, so a cell matches its own ``run_single_cell`` byte for byte.
    All runs finish before any file is written; files and summary cells
    follow plan order.
    """
    reference, runs = _solve_plan(plan)
    os.makedirs(plan.output_dir, exist_ok=True)
    cells = [
        _write_cell(os.path.join(plan.output_dir, f"{tag}_m{_m_token(m)}.csv"),
                    tag, m, result, reference)
        for tag, m, result in runs
    ]
    summary = {
        "plan": plan.to_dict(),
        "reference": asdict(reference),
        "cells": cells,
    }
    spath = os.path.join(plan.output_dir, "summary.json")
    with open(spath, "w", newline="") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def sweep_m(plan: ExperimentPlan, out_path: Optional[str] = None) -> str:
    """Long-format m sweep (columns m, k, gap_avg) for one schedule.

    One trajectory feeds an average for every m, and the rows are written
    from its f_avg columns with the cell CSV's formatting, so a sweep row
    agrees bit for bit with the matching plan cell.
    """
    if len(plan.m_values) < 2:
        raise ValueError("an m sweep needs at least two m values")
    if len(plan.schedules) != 1:
        raise ValueError("an m sweep uses exactly one schedule")
    reference, runs = _solve_plan(plan)

    f_min = reference.f_min
    lines = ["m,k,gap_avg"]
    for _, m, result in runs:
        # m is finite, so its token never holds "nan"
        fmt = "%.17g" % m + ",%d,%.17g"
        lines.extend(fmt % (k, f_avg - f_min)
                     for k, f_avg in zip(result.trace.k, result.trace.f_avg))
    if out_path is None:
        os.makedirs(plan.output_dir, exist_ok=True)
        out_path = os.path.join(plan.output_dir, "sweep_m.csv")
    with open(out_path, "w", newline="") as fh:
        fh.write("\n".join(lines).replace("nan", "") + "\n")
    return out_path


_COMPARISON_HEADER = (
    "algorithm,epsilon,m,iterations,productive,nonproductive,"
    "constraint_evals,wall_seconds,f_hat,g_hat,stop_reason"
)


def run_constrained_comparison(instance: InstanceSpec, epsilons: Sequence[float],
                               m: float, out_path: str, theta1: float = 2.0,
                               schedule_mode: str = TAG_ADAPTIVE_TV,
                               iters_cap: Optional[int] = None,
                               trace_dir: Optional[str] = None) -> list:
    """Head-to-head of the two constrained solvers on one instance, one row
    per (epsilon, algorithm), on the unit ball with Euclidean prox from
    x1 = 0.

    schedule_mode picks the two-phase steps of the first solver:
    "time-varying" uses the certified Lipschitz-based pair, and
    "adaptive-time-varying" divides by the realized subgradient norm. The
    one-constraint-at-a-time solver always uses its built-in adaptive rule.
    wall_seconds is machine-dependent by nature; every other column is
    deterministic. With trace_dir set, per-iteration CSVs are written too.
    """
    if instance.p < 1:
        raise ValueError("constrained comparison needs p >= 1")
    if schedule_mode not in (TAG_TIME_VARYING, TAG_ADAPTIVE_TV):
        raise ValueError(
            "schedule_mode must be 'time-varying' or 'adaptive-time-varying'"
        )
    objective = build_objective(instance)
    constraints = build_constraints(instance)
    prox = euclidean_setup()
    feasible = unit_ball(instance.n)
    x1 = constrained_start(feasible)
    record = trace_dir is not None
    if record:
        os.makedirs(trace_dir, exist_ok=True)

    rows = []
    for eps in epsilons:
        if not eps > 0.0:
            raise ValueError("epsilon must be positive")
        config = RunConfig(
            m=m, iters=iters_cap, epsilon=float(eps), theta=theta1, record_trace=record
        )
        state_f = _schedule_state(schedule_mode, objective.lipschitz_bound, prox.sigma)
        state_g = _schedule_state(schedule_mode, constraints.lipschitz_bound, prox.sigma)
        t0 = time.perf_counter()
        res3 = constrained_md(
            objective, constraints, prox, feasible, state_f, state_g, config, x1
        )
        wall3 = time.perf_counter() - t0
        t0 = time.perf_counter()
        res4 = constrained_md_multi(objective, constraints, prox, feasible, config, x1)
        wall4 = time.perf_counter() - t0

        for name, res, wall in (("alg3", res3, wall3), ("alg4", res4, wall4)):
            rows.append(
                {
                    "algorithm": name,
                    "epsilon": float(eps),
                    "m": float(m),
                    "iterations": res.iterations,
                    "productive": res.productive_count,
                    "nonproductive": res.nonproductive_count,
                    "constraint_evals": res.constraint_evals_total,
                    "wall_seconds": wall,
                    "f_hat": res.f_hat,
                    "g_hat": float(constraints.value(res.x_hat)),
                    "stop_reason": res.stop_reason.value,
                }
            )
            if record:
                tname = f"{name}_eps{_m_token(eps)}_m{_m_token(m)}.csv"
                write_trace_csv(
                    os.path.join(trace_dir, tname),
                    res.trace,
                    None,
                    include_productive=True,
                    include_evals=True,
                )

    # f_hat and g_hat are finite (the solvers refuse a non-finite f_hat),
    # so no cell is NaN
    fmt = "%s,%.17g,%.17g,%d,%d,%d,%d,%.17g,%.17g,%.17g,%s"
    columns = _COMPARISON_HEADER.split(",")
    lines = [_COMPARISON_HEADER]
    lines.extend(fmt % tuple(r[c] for c in columns) for r in rows)
    with open(out_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return rows


def write_instance_json(instance: InstanceSpec, out_path: str) -> None:
    doc = serialize_instance(instance)
    with open(out_path, "w", newline="") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
