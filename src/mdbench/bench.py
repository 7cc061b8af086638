"""Experiment harness: reference solutions, plan execution, and
deterministic CSV/JSON export.

Conventions shared by all experiments:

* unconstrained runs start at x1 = (1/sqrt(n), ..., 1/sqrt(n)) projected
  onto the feasible set, which on the unit ball is the point itself and on
  the simplex is the barycenter;
* constrained runs start at x1 = 0 on the ball;
* theta, the bound on the Bregman distance from x1 to any minimizer, is
  the one the prox states for its set (``ProxSetup.theta``), which every
  run takes by leaving ``RunConfig.theta`` unset: 2 on the unit ball for
  the Euclidean prox, and ln n on the simplex for the entropy prox;
* CSV files use '.' decimals, 17 significant digits, comma delimiters, a
  header row, and LF line endings, so the same plan and seed reproduce the
  same bytes;
* CSV files have one writer, ``_write_csv``: undefined (NaN) cells are
  empty, rows go out in blocks of ``_CSV_BLOCK_ROWS`` lines, and a cell's
  summary numbers are those of the last row it formatted;
* wall-clock time goes to the comparison table and stderr only, never into
  per-iteration files;
* every reference value states f* in [f_min - tolerance, f_min]: it is
  analytic (``_analytic_fstar``, also the one f* Polyak's rule is given),
  a grid search for n <= 3, or the f* bracket that a run computes from its
  own subgradients (``reference_solution``, ``constrained_reference``).
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass
from functools import partial
from itertools import count, islice, repeat
from typing import Optional, Sequence

import numpy as np

from .bounds import bound_corollaries
from .geometry import Ball, FeasibleSet, ProxSetup, Simplex, euclidean_setup, unit_ball
from .problems import (
    InstanceSpec, KIND_BEST_APPROX, _count_field, build_constraints, build_objective,
    serialize_instance,
)
from .schedules import TABLE_TAGS, TAG_ADAPTIVE_TV, TAG_POLYAK, TAG_TIME_VARYING, ScheduleState, schedule
from .solvers import (
    RunConfig,
    _Bracket,
    _check_m_values,
    _descent,
    constrained_md,
    constrained_md_multi,
    mirror_descent,  # noqa: F401  (kept importable here: perfbench traces bench.mirror_descent)
)

__all__ = [
    "METHOD_ANALYTIC",
    "METHOD_GRID",
    "METHOD_LONGRUN",
    "ReferenceSolution",
    "ExperimentPlan",
    "default_start",
    "constrained_start",
    "grid_refine_minimize",
    "reference_solution",
    "constrained_reference",
    "write_trace_csv",
    "run_single_cell",
    "run_experiment",
    "sweep_m",
    "run_constrained_comparison",
    "write_instance_json",
]

METHOD_ANALYTIC = "Analytic"
METHOD_GRID = "GridRefine"
METHOD_LONGRUN = "LongRun"


@dataclass(frozen=True)
class ReferenceSolution:
    """A best-known minimal value and how far it can be trusted:
    f* lies in [f_min - tolerance, f_min]. Gap reports derived from it are
    meaningful only beyond ``tolerance``."""

    f_min: float
    method: str
    tolerance: float


@dataclass(frozen=True)
class ExperimentPlan:
    """A deterministic batch of (schedule, m) solver runs on one
    unconstrained instance (p = 0); each schedule and each m appears once.

    ``prox`` selects the geometry ("euclidean" on the unit ball or
    "entropy" on the simplex). A plan says what runs, not where it is
    written: ``run_experiment`` and ``sweep_m`` take the output path. Plans
    serialize losslessly to dicts; the dict's "seed" is ``instance.seed``,
    the one seed a plan runs with, and ``from_dict`` ignores it (and the
    "epsilon" and "output_dir" keys of older summaries).
    """

    instance: InstanceSpec
    schedules: tuple = ()
    m_values: tuple = ()
    iters: int = 1000
    prox: str = "euclidean"

    def __post_init__(self):
        if self.instance.p != 0:
            raise ValueError(
                "plan runs are unconstrained; use the constrained comparison for p > 0"
            )
        object.__setattr__(self, "schedules", tuple(self.schedules))
        object.__setattr__(self, "m_values", tuple(self.m_values))
        if not self.schedules:
            raise ValueError("plan needs at least one schedule tag")
        for tag in self.schedules:
            if tag not in TABLE_TAGS:
                raise ValueError(f"unknown schedule tag: {tag!r}")
        _refuse_repeats(self.schedules, "schedule {!r}")
        if not self.m_values:
            raise ValueError("plan needs at least one m value")
        object.__setattr__(self, "m_values", _check_m_values(self.m_values))
        _refuse_repeats(self.m_values, "m={!r}")
        object.__setattr__(self, "iters", _count_field(self.iters, "iters", 1))
        ProxSetup(self.prox)  # refuses an unknown prox by name

    def to_dict(self) -> dict:
        return {
            "instance": self.instance.to_dict(),
            "schedules": list(self.schedules),
            "m_values": list(self.m_values),
            "iters": self.iters,
            "seed": self.instance.seed,
            "prox": self.prox,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentPlan":
        return cls(
            instance=InstanceSpec.from_dict(doc["instance"]),
            schedules=tuple(doc["schedules"]),
            m_values=tuple(doc["m_values"]),
            iters=doc["iters"],
            prox=doc.get("prox", "euclidean"),
        )


def _refuse_repeats(values, label: str) -> None:
    """Refuse an equal value listed twice, by ``label``."""
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"the plan lists {label.format(value)} twice")
        seen.add(value)


def default_start(feasible: FeasibleSet) -> np.ndarray:
    if isinstance(feasible, Ball):
        n = feasible.n
        return feasible.project(np.full(n, 1.0 / math.sqrt(n)))
    return np.full(feasible.n, 1.0 / feasible.n)


def constrained_start(feasible: FeasibleSet) -> np.ndarray:
    if isinstance(feasible, Ball):
        return feasible.project(np.zeros(feasible.n))
    return np.full(feasible.n, 1.0 / feasible.n)


def _closed_form(kind: str, feasible: FeasibleSet) -> bool:
    """Whether f* has a closed form: for the distance to a point over a ball only."""
    return kind == KIND_BEST_APPROX and isinstance(feasible, Ball)


def _analytic_fstar(objective, feasible: FeasibleSet) -> Optional[float]:
    """The closed-form min of the objective over the set, or None: for the
    distance to a point a over a ball B(c, r), max(0, ||a - c|| - r)."""
    if not _closed_form(objective.kind, feasible):
        return None
    d = objective.a - feasible.center
    return max(0.0, math.sqrt(float(np.dot(d, d))) - feasible.radius)


def _has_analytic_fstar(instance: InstanceSpec, prox_name: str) -> bool:
    """Whether the plan's problem has an ``_analytic_fstar``, told without building it."""
    return _closed_form(instance.kind, _plan_set(instance, prox_name))


def _plan_set(instance: InstanceSpec, prox_name: str) -> FeasibleSet:
    """A plan's set: the unit ball for the Euclidean prox, else the simplex."""
    return unit_ball(instance.n) if prox_name == "euclidean" else Simplex(instance.n)


def _prepare_problem(instance: InstanceSpec, prox_name: str):
    """Build (objective, prox, feasible, start) of a plan."""
    feasible = _plan_set(instance, prox_name)
    return build_objective(instance), ProxSetup(prox_name), feasible, default_start(feasible)


# the grid's target slack, which ``reference_solution`` also reports as its
# least tolerance, and the points per axis of its first round
GRID_TOL = 1e-6
GRID_POINTS_PER_AXIS = 9
# mesh rows built, projected and evaluated per batch; bounds the temporaries
# of a round (up to 129**n rows) below those faulted in anew batch by batch
_GRID_BLOCK_ROWS = 2048


def _mesh_rows(axes, flat) -> np.ndarray:
    """Rows ``flat`` of the ij-ordered mesh of ``axes``, as a (K, n) array:
    row r holds axes[i][j_i] where (j_0, ..., j_{n-1}) unravels r."""
    idx = np.unravel_index(flat, tuple(a.size for a in axes))
    return np.stack([a[j] for a, j in zip(axes, idx)], axis=-1)


def grid_refine_minimize(values_fn, feasible: FeasibleSet, lipschitz: float = 1.0,
                         max_rounds: int = 120):
    """Derivative-free minimizer for n <= 3 by nested grid refinement, with
    f* in [f_best - achieved_tolerance, f_best].

    Each round evaluates the function at the projections of a ppa**n axis
    mesh of a box holding the set (ppa = GRID_POINTS_PER_AXIS at first),
    keeps the mesh points whose value is within
    slack = lipschitz * delta * sqrt(n) / 2 of the best so far
    (delta is the round's largest mesh spacing), and shrinks the box to
    their span padded by delta / 2. This is the Lipschitz covering bound
    (Shubert 1972): for a minimizer x* in the box, the nearest mesh point g
    has |x*_i - g_i| <= delta / 2 on every axis, and projection onto the set
    is nonexpansive, so ||x* - P(g)|| <= delta * sqrt(n) / 2 and
    f(P(g)) <= f* + slack <= f_best + slack. So g is kept, the next box
    still holds x*, and f* >= f(P(g)) - slack >= f_best - slack.

    Rounds stop once slack <= GRID_TOL, after ``max_rounds``, or at the
    fixed point: the box shrank by less than a quarter with 129 points per axis
    already (below 129 the resolution doubles instead). ``values_fn`` maps
    a (K, n) array of feasible points to K values, such as an objective's
    ``values``; a non-finite value raises ``ValueError`` naming the point.
    Mesh rows are generated block by block from their flat indices, so a
    round holds its values but never its whole mesh.
    Returns (x_best, f_best, achieved_tolerance).
    """
    n = feasible.n
    if n > 3:
        raise ValueError("grid refinement is limited to n <= 3")
    if isinstance(feasible, Ball):
        lo0 = feasible.center - feasible.radius
        hi0 = feasible.center + feasible.radius
    else:
        # the simplex lies in [0, 1]^n; Simplex(1) is the one point {1}
        lo0 = np.full(n, 1.0 if n == 1 else 0.0)
        hi0 = np.ones(n)
    lo, hi = lo0.copy(), hi0.copy()
    ppa = GRID_POINTS_PER_AXIS
    best_x = None
    best_v = math.inf
    slack = math.inf
    for _ in range(max_rounds):
        axes = [np.linspace(lo[i], hi[i], ppa) for i in range(n)]
        size = ppa**n
        delta = float(np.max((hi - lo) / (ppa - 1)))
        slack = lipschitz * delta * math.sqrt(n) / 2
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
        if slack <= GRID_TOL:
            break
        # the axes increase, so each axis's kept span is read at its extreme
        # kept indices, the same floats as the extremes of the kept rows
        keep = np.unravel_index(np.flatnonzero(vals <= best_v + slack), (ppa,) * n)
        new_lo = np.maximum(np.array([a[j.min()] for a, j in zip(axes, keep)]) - delta / 2, lo0)
        new_hi = np.minimum(np.array([a[j.max()] for a, j in zip(axes, keep)]) + delta / 2, hi0)
        if float(np.max(new_hi - new_lo)) > 0.75 * float(np.max(hi - lo)):
            if ppa == 129:
                break
            ppa = min(2 * ppa - 1, 129)
        lo, hi = new_lo, new_hi
    return best_x, best_v, slack


def _reference_method(objective, feasible: FeasibleSet) -> str:
    """How ``reference_solution`` finds f* for this objective and set."""
    if _closed_form(objective.kind, feasible):
        return METHOD_ANALYTIC
    return METHOD_GRID if feasible.n <= 3 else METHOD_LONGRUN


def reference_solution(objective, feasible: FeasibleSet, iters_budget: int,
                       bracket: Optional[_Bracket] = None) -> ReferenceSolution:
    """Best-known minimum of an unconstrained objective over the set, with
    f* in [f_min - tolerance, f_min].

    Distance-to-point objectives on a ball have the exact answer. For
    n <= 3, ``grid_refine_minimize`` aims at GRID_TOL but mostly stops at
    its fixed point, so the tolerance is the slack it achieved (at least
    GRID_TOL, often 1e-4 to 7e-3; 0.5 to 4 s at n = 3). Everything else gets one
    certified run (m = 5, time-varying steps, Euclidean prox, from
    ``default_start``) whose own subgradients bracket f*: f_min is the
    upper end and the tolerance the bracket's width. The run takes at least
    ``iters_budget`` steps and goes on, checking at twice, four times, ...
    the budget, only while the bracket is wider than the corollary bound of
    a run 50 times the budget, and stops at that length, where the bracket
    is at most the realized bound (which the corollary bounds) plus its
    rounding allowance. The upper end is a computed value of f, so f* can
    exceed it by the rounding of one objective evaluation.

    ``bracket`` is one that ``_reference_bracket`` made for this objective,
    set and budget and that a Euclidean plan's time-varying row carried
    (``_solve_plan``). The iterates do not depend on m, so that row is this
    run's first ``iters_budget`` steps: a bracket that closed at the budget
    is this run's, bit for bit, and is returned without a run.
    """
    method = _reference_method(objective, feasible)
    if method == METHOD_ANALYTIC:
        return ReferenceSolution(_analytic_fstar(objective, feasible), METHOD_ANALYTIC, 0.0)
    if method == METHOD_GRID:
        _, f_min, achieved = grid_refine_minimize(
            objective.values, feasible, lipschitz=objective.lipschitz_bound
        )
        return ReferenceSolution(f_min, METHOD_GRID, max(achieved, GRID_TOL))
    if bracket is not None and bracket.closed_at == iters_budget:
        return _bracket_reference(bracket)
    return _certified_reference(objective, feasible, iters_budget)


def _reference_bracket(objective, feasible: FeasibleSet, iters_budget: int,
                       row: int = 0) -> _Bracket:
    """The bracket of the certified run of ``reference_solution``, to ride
    on trajectory ``row`` of a batch: m = 5, first checked at the budget,
    closed within the corollary bound of a run 50 times the budget."""
    prox = euclidean_setup()
    width = bound_corollaries(5.0, 50 * iters_budget, objective.lipschitz_bound,
                              prox.theta(feasible), prox.sigma)
    return _Bracket(feasible, 5.0, iters_budget, width, row)


def _bracket_reference(bracket: _Bracket) -> ReferenceSolution:
    return ReferenceSolution(bracket.upper, METHOD_LONGRUN, bracket.upper - bracket.lower)


def _certified_reference(objective, feasible: FeasibleSet,
                         iters_budget: int) -> ReferenceSolution:
    """The certified run of ``reference_solution``, in any dimension. It
    averages nothing: the bracket keeps the one weighted sum it needs."""
    prox = euclidean_setup()
    bracket = _reference_bracket(objective, feasible, iters_budget)
    state = _schedule_state(TAG_TIME_VARYING, objective.lipschitz_bound, prox.sigma)
    config = RunConfig(m=5.0, iters=50 * iters_budget, record_trace=False)
    _descent(objective, prox, feasible, (state,), config, default_start(feasible), (),
             bracket=bracket)
    return _bracket_reference(bracket)


def constrained_reference(objective, constraints, feasible: FeasibleSet,
                          epsilon_ref: float = 6e-3) -> ReferenceSolution:
    """Reference value of min f subject to g <= 0 over the set, with f* in
    [f_min - tolerance, f_min] and a tolerance of at most epsilon_ref.

    One run of ``constrained_md`` at epsilon_ref with m = 1, time-varying
    steps and no epsilon criterion brackets f* from its own subgradients, its
    constraint cuts included (see ``solvers._Bracket``). It stops at the
    first power of two k where the bracket is at most epsilon_ref wide;
    f_min is the upper end, the best f at an iterate or the average with
    g <= 0, and the tolerance the width. A bracket still wider at
    ``SAFETY_CAP`` iterations raises RuntimeError.
    """
    prox = euclidean_setup()
    state_f = _schedule_state(TAG_TIME_VARYING, objective.lipschitz_bound, prox.sigma)
    state_g = _schedule_state(TAG_TIME_VARYING, constraints.lipschitz_bound, prox.sigma)
    config = RunConfig(m=1.0, epsilon=epsilon_ref, record_trace=False)
    bracket = _Bracket(feasible, config.m, 1, epsilon_ref)
    ((res,),) = _descent(objective, prox, feasible, (state_f,), config,
                         constrained_start(feasible), (config.m,), constraints=constraints,
                         state_g=state_g, bracket=bracket)
    if not bracket.upper - bracket.lower <= epsilon_ref:
        raise RuntimeError(
            f"constrained reference bracket [{bracket.lower!r}, {bracket.upper!r}] is still "
            f"wider than epsilon_ref={epsilon_ref:g} after {res.iterations} iterations"
        )
    return _bracket_reference(bracket)


# the columns written with %d or %s; every other cell is written with %.17g
_COLUMN_FORMATS = {"algorithm": "%s", "stop_reason": "%s", "k": "%d", "iterations": "%d",
                   "productive": "%d", "nonproductive": "%d", "constraint_evals": "%d"}
# rows formatted and written per write: a block ends at a line boundary,
# so the bytes do not depend on it, and no file's whole text is held
_CSV_BLOCK_ROWS = 4096


def _write_csv(path: str, columns: Sequence[str], rows) -> tuple:
    """Write a header of ``columns`` and one LF-ended line per tuple of
    ``rows`` to ``path``, and return the last tuple (() with none). One
    ``%`` call per row, with ``_COLUMN_FORMATS`` or else %.17g, which gives
    back every float64 exactly; NaN cells are left empty."""
    fmt = ",".join(_COLUMN_FORMATS.get(c, "%.17g") for c in columns)
    rows = iter(rows)
    last = ()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        # each row is formatted as it comes and only the last one is kept:
        # a block of row tuples would weigh more than its lines
        while lines := [fmt % (last := row) for row in islice(rows, _CSV_BLOCK_ROWS)]:
            # "nan" is only ever the whole text of a NaN; no %s cell holds it
            fh.write(("\n".join(lines) + "\n").replace("nan", ""))
    return last


def _number(v) -> Optional[float]:
    """A cell's value as its text reads back: None for an empty cell."""
    return None if v is None or v != v else float(v)


def write_trace_csv(path: str, trace, reference: Optional[ReferenceSolution] = None) -> dict:
    """One row per iteration; empty cells where a value is undefined
    (bound for uncertified schedules, averages before the first productive
    step, gaps without a reference). The productive and constraint_evals
    columns follow the bound column's rule: a column is filled when the
    trace holds one entry per row for it. The bound column is always
    written; the other two only when filled, on a trace with rows, which
    constrained runs give and unconstrained runs do not.

    Returns the last row's final_k, final_f_avg, final_gap_avg,
    final_f_best, final_gap_best and final_bound as its text reads back:
    None for an empty cell, and for every key when the trace has no rows."""
    rows = trace.rows()
    columns = "k,gamma,f_iterate,f_avg,f_best_so_far,gap_avg,gap_best,bound".split(",")
    extra = []
    for name in ("productive", "constraint_evals"):
        column = getattr(trace, name)
        if rows and len(column) == rows:
            columns.append(name)
            extra.append(column)
    f_min = reference.f_min if reference is not None else math.nan
    last = _write_csv(path, columns, _trace_rows(trace, f_min, extra)) or (None,) * 8
    k, _, _, f_avg, f_best, gap_avg, gap_best, bound = last[:8]
    return {"final_k": k, "final_f_avg": _number(f_avg), "final_gap_avg": _number(gap_avg),
            "final_f_best": _number(f_best), "final_gap_best": _number(gap_best),
            "final_bound": _number(bound)}


def _trace_rows(trace, f_min: float, extra: list):
    """The cells of each trace row in header order, then the ``extra``
    columns; undefined cells are NaN."""
    rows = trace.rows()
    nan = math.nan
    bounds = trace.bound if len(trace.bound) == rows else repeat(nan)
    counts = trace.productive if len(trace.productive) == rows else repeat(True)
    best = math.inf
    for k, gamma, fi, f_avg, bound, counted, *more in zip(
        count(1), trace.gamma, trace.f_iterate, trace.f_avg, bounds, counts, *extra
    ):
        if counted and fi < best:
            best = fi
        f_best = best if best < math.inf else nan
        yield (k, gamma, fi, f_avg, f_best, f_avg - f_min, f_best - f_min, bound, *more)


def _schedule_state(tag: str, lipschitz: float, sigma: float, f_star=None) -> ScheduleState:
    """Fresh step-rule state; only the time-varying rule takes the
    Lipschitz bound, and only Polyak's takes f*."""
    params = {TAG_TIME_VARYING: {"m_lipschitz": lipschitz}, TAG_POLYAK: {"f_star": f_star}}
    return ScheduleState(schedule(tag, **params.get(tag, {})), sigma)


def _m_token(m: float) -> str:
    return format(float(m), "g")


def _check_unique(files, name, values) -> None:
    """Refuse, before anything runs, two cells that would write one file:
    ``%g`` tokens keep six significant digits, so close values share one."""
    seen = {}
    for file, value in zip(files, values):
        if file in seen:
            raise ValueError(f"{name}={seen[file]!r} and {name}={value!r} would both write {file}")
        seen[file] = value


def _solve_plan(plan: ExperimentPlan) -> tuple:
    """Run every schedule of an unconstrained plan as one batch: one traced
    trajectory per schedule, all advanced together and each averaged once
    per m. Writes nothing; returns the reference and (tag, m, SolveResult)
    triples in plan order. The batch raises the first error in its
    execution order (see ``_descent``), before any reference runs.

    The reference is ``reference_solution``'s, asked for once, after the
    batch. When that is the certified run and the plan has a time-varying
    row on the Euclidean prox, the row is that run's first ``plan.iters``
    steps, so it carries the run's bracket, whose errors are raised in the
    batch's order: if the row ran all its steps and the bracket closed at
    k = plan.iters, that bracket is the reference and nothing runs again."""
    objective, prox, feasible, x1 = _prepare_problem(plan.instance, plan.prox)
    f_star = _analytic_fstar(objective, feasible)
    if TAG_POLYAK in plan.schedules and f_star is None:
        raise ValueError("Polyak requires known f*")
    shared = None
    if (plan.prox == "euclidean" and TAG_TIME_VARYING in plan.schedules
            and _reference_method(objective, feasible) == METHOD_LONGRUN):
        shared = _reference_bracket(objective, feasible, plan.iters,
                                    plan.schedules.index(TAG_TIME_VARYING))
    config = RunConfig(m=plan.m_values[0], iters=plan.iters, record_trace=True)
    states = [
        _schedule_state(tag, objective.lipschitz_bound, prox.sigma, f_star)
        for tag in plan.schedules
    ]
    batch = _descent(objective, prox, feasible, states, config, x1, plan.m_values,
                     bracket=shared)
    reference = reference_solution(objective, feasible, plan.iters, shared)
    runs = []
    for tag, results in zip(plan.schedules, batch):
        runs.extend(zip(repeat(tag), plan.m_values, results))
    return reference, runs


def _write_cell(path: str, tag: str, m: float, result, reference) -> dict:
    """Write one cell's per-iteration CSV and return its summary cell, whose
    final_* numbers are those of the last row written."""
    cell = {
        "schedule": tag,
        "m": m,
        "file": os.path.basename(path),
        "iterations": result.iterations,
        "stop_reason": result.stop_reason.value,
    }
    cell.update(write_trace_csv(path, result.trace, reference))
    return cell


def run_single_cell(instance: InstanceSpec, prox_name: str, tag: str, m: float,
                    iters: int, out_path: str) -> dict:
    """One (schedule, m) run written to ``out_path``; returns its summary
    cell plus the reference. It runs as a one-cell plan, so it validates
    like every plan (constrained instances are rejected) and a matching
    run_experiment cell has identical bytes."""
    plan = ExperimentPlan(
        instance=instance, schedules=(tag,), m_values=(m,), iters=iters, prox=prox_name,
    )
    reference, ((_, m, result),) = _solve_plan(plan)
    cell = _write_cell(out_path, tag, m, result, reference)
    cell["reference"] = asdict(reference)
    return cell


def run_experiment(plan: ExperimentPlan, output_dir: str) -> dict:
    """Run every (schedule, m) cell of the plan, write one CSV per cell and
    a summary JSON into ``output_dir``, and return the summary dict. The
    summary does not name the directory, so a plan writes the same bytes
    wherever it is written.

    Each schedule runs one trajectory that feeds an average for every m of
    the plan, so a cell matches its own ``run_single_cell`` byte for byte.
    All runs finish before any file is written; files and summary cells
    follow plan order. Two cells whose file names coincide raise
    ValueError before any run.
    """
    files = [f"{tag}_m{_m_token(m)}.csv" for tag in plan.schedules for m in plan.m_values]
    _check_unique(files, "m", plan.m_values * len(plan.schedules))
    reference, runs = _solve_plan(plan)
    os.makedirs(output_dir, exist_ok=True)
    cells = [
        _write_cell(os.path.join(output_dir, file), tag, m, result, reference)
        for file, (tag, m, result) in zip(files, runs)
    ]
    summary = {
        "plan": plan.to_dict(),
        "reference": asdict(reference),
        "cells": cells,
    }
    spath = os.path.join(output_dir, "summary.json")
    with open(spath, "w", newline="") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def sweep_m(plan: ExperimentPlan, out_path: str) -> str:
    """Long-format m sweep (columns m, k, gap_avg) for one schedule, written
    to ``out_path``, which is returned.

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
    _write_csv(out_path, ("m", "k", "gap_avg"),
               ((m, k, f_avg - f_min) for _, m, result in runs
                for k, f_avg in enumerate(result.trace.f_avg, 1)))
    return out_path


def _trace_name(algorithm: str, eps: float, m: float) -> str:
    return f"{algorithm}_eps{_m_token(eps)}_m{_m_token(m)}.csv"


_COMPARISON_COLUMNS = (
    "algorithm", "epsilon", "m", "iterations", "productive", "nonproductive",
    "constraint_evals", "wall_seconds", "f_hat", "g_hat", "stop_reason",
)


def run_constrained_comparison(instance: InstanceSpec, epsilons: Sequence[float],
                               m: float, out_path: str,
                               schedule_mode: str = TAG_ADAPTIVE_TV,
                               iters_cap: Optional[int] = None,
                               trace_dir: Optional[str] = None) -> list:
    """Head-to-head of the two constrained solvers on one instance, one row
    per (epsilon, algorithm), on the unit ball with Euclidean prox from
    x1 = 0, with the ball's theta (``ProxSetup.theta``).

    schedule_mode picks the two-phase steps of the first solver:
    "time-varying" uses the certified Lipschitz-based pair, and
    "adaptive-time-varying" divides by the realized subgradient norm. The
    one-constraint-at-a-time solver always uses its built-in adaptive rule.
    wall_seconds is machine-dependent by nature; every other column is
    deterministic. With trace_dir set, each solve's per-iteration CSV is
    written right after it, so one trace at a time is held.
    Every epsilon is checked before the first solve: an invalid or repeated
    one, or two whose trace file names coincide, raise ValueError before
    any run.
    """
    if instance.p < 1:
        raise ValueError("constrained comparison needs p >= 1")
    if schedule_mode not in (TAG_TIME_VARYING, TAG_ADAPTIVE_TV):
        raise ValueError(
            "schedule_mode must be 'time-varying' or 'adaptive-time-varying'"
        )
    record = trace_dir is not None
    feasible = unit_ball(instance.n)
    configs = [
        RunConfig(m=m, iters=iters_cap, epsilon=float(eps), record_trace=record)
        for eps in epsilons
    ]
    _refuse_repeats([config.epsilon for config in configs], "epsilon={!r}")
    objective = build_objective(instance)
    constraints = build_constraints(instance)
    prox = euclidean_setup()
    x1 = constrained_start(feasible)
    if record:
        # the two solvers' files of one epsilon differ only in the prefix
        _check_unique([_trace_name("alg3", eps, m) for eps in epsilons], "epsilon", epsilons)
        os.makedirs(trace_dir, exist_ok=True)

    rows = []
    for eps, config in zip(epsilons, configs):
        state_f = _schedule_state(schedule_mode, objective.lipschitz_bound, prox.sigma)
        state_g = _schedule_state(schedule_mode, constraints.lipschitz_bound, prox.sigma)
        solves = (
            ("alg3", partial(constrained_md, objective, constraints, prox, feasible,
                             state_f, state_g, config, x1)),
            ("alg4", partial(constrained_md_multi, objective, constraints, prox, feasible,
                             config, x1)),
        )
        for name, solve in solves:
            t0 = time.perf_counter()
            res = solve()
            wall = time.perf_counter() - t0
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
                write_trace_csv(os.path.join(trace_dir, _trace_name(name, eps, m)), res.trace)
            # rebinding res would keep this trace alive through the next solve
            del res

    # f_hat and g_hat are finite (the solvers refuse a non-finite f_hat),
    # so no cell is NaN
    _write_csv(out_path, _COMPARISON_COLUMNS,
               (tuple(r[c] for c in _COMPARISON_COLUMNS) for r in rows))
    return rows


def write_instance_json(instance: InstanceSpec, out_path: str) -> None:
    doc = serialize_instance(instance)
    with open(out_path, "w", newline="") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
