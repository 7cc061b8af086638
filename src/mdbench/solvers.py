"""Four mirror-descent solvers sharing one iteration loop with m-weighted
averaging and its stopping criteria. The theoretical bound evaluators they
are tested against live in ``bounds`` and are re-exported here.

Every solver returns the weighted average

    x_hat = (sum_k gamma_k^{-m})^{-1} * sum_k gamma_k^{-m} * x^k

over the iterates it is allowed to average: all iterates for the
unconstrained solvers, productive iterates only for the constrained ones.
m = 0 gives the plain running mean, m = -1 weights by gamma_k itself, and
larger m shifts weight toward late iterates when steps shrink.

The step sequence and the iterates do not depend on m, so one trajectory
can feed several averages: ``mirror_descent_sweep`` runs the unconstrained
loop once and returns one result per m, each equal bit for bit to its own
``mirror_descent`` run. The one loop also advances several trajectories,
one per step rule, as one batch: the experiment plans run all their
schedules that way, and every cell equals its own single run bit for bit.
If schedules of a batch fail, the error of the first failing one in plan
order is raised, the error its own run raises; an error of a call shared
by all rows (f at the averages, the mirror step) is raised at once.
Constrained and criterion-stopped runs take one step rule and one m,
because there m enters the stopping rule, and composite runs take one step
rule; every public solver runs a batch of one.

Solvers run any schedule, including the adaptive ones with no monotonicity
guarantee. The bound evaluators, by contrast, verify the non-increasing
hypothesis of the averaging theorem and refuse sequences that break it.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from operator import truediv
from typing import Optional

import numpy as np

from .bounds import (  # re-exported: the bound evaluators live in bounds.py
    ConstrainedBoundDiagnostic,
    bound_composite,
    bound_corollaries,
    bound_main,
    constrained_bound_diagnostic,
    iteration_estimate,
    productive_inequality_sides,
)
from .geometry import (
    FeasibleSet,
    ProxSetup,
    Regularizer,
    composite_mirror_step,
    mirror_step,  # noqa: F401  the loop uses the row form; perfbench/tracer.py patches this name
    mirror_step_rows,
)
from .problems import AffineConstraints
from .schedules import (
    TAG_ADAPTIVE_TV,
    TAG_POLYAK,
    ScheduleState,
    StationarySignal,
    is_nonincreasing_guaranteed,
    schedule,
)
from .space import as_point, dual_norm_kind, norm, norm_rows  # noqa: F401  norm: like mirror_step

__all__ = [
    "SAFETY_CAP",
    "NoProductiveSteps",
    "StopReason",
    "RunConfig",
    "Trace",
    "SolveResult",
    "mirror_descent",
    "mirror_descent_sweep",
    "mirror_c_descent",
    "constrained_md",
    "constrained_md_multi",
    "bound_main",
    "bound_corollaries",
    "bound_composite",
    "iteration_estimate",
    "ConstrainedBoundDiagnostic",
    "constrained_bound_diagnostic",
    "productive_inequality_sides",
]

# hard ceiling on criterion-driven runs so a desk-scale experiment cannot
# spin forever on an unreachable epsilon
SAFETY_CAP = 10_000_000


class NoProductiveSteps(RuntimeError):
    """A constrained run finished without one productive step, so there is
    no iterate the averaging theorem allows in the output."""


class StopReason(enum.Enum):
    MAX_ITERS = "MaxIters"
    EPSILON_CRITERION = "EpsilonCriterion"
    STATIONARY_POINT = "StationaryPoint"


@dataclass
class RunConfig:
    """Run parameters shared by all solvers.

    theta is the user-supplied bound on the Bregman distance from the start
    to the nearest minimizer, finite and positive; for the unit Euclidean
    ball the diameter gives theta = 2. At least one of iters/epsilon must
    be set; the constrained solvers need epsilon and the unconstrained ones
    need iters.
    """

    m: float
    iters: Optional[int] = None
    epsilon: Optional[float] = None
    theta: float = 2.0
    record_trace: bool = True

    def __post_init__(self):
        _check_m_values((self.m,))
        if self.iters is None and self.epsilon is None:
            raise ValueError("set at least one of iters and epsilon")
        if self.iters is not None and self.iters < 1:
            raise ValueError("iters must be at least 1")
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")


@dataclass
class Trace:
    """Per-iteration records. Solvers fill the columns that apply to them
    and leave the others empty; every filled column has one entry per
    iteration with k strictly increasing."""

    k: list = field(default_factory=list)
    gamma: list = field(default_factory=list)
    f_iterate: list = field(default_factory=list)
    f_avg: list = field(default_factory=list)
    g_iterate: list = field(default_factory=list)
    productive: list = field(default_factory=list)
    bound: list = field(default_factory=list)
    constraint_evals: list = field(default_factory=list)

    def rows(self) -> int:
        return len(self.k)


@dataclass
class SolveResult:
    x_hat: np.ndarray
    f_hat: float
    iterations: int
    productive_count: int
    nonproductive_count: int
    stop_reason: StopReason
    trace: Optional[Trace]
    constraint_evals_total: Optional[int] = None


def _check_m_values(m_values) -> None:
    """The one check on weighting exponents, shared by RunConfig, the
    m sweep and the experiment plans."""
    for m in m_values:
        if not (math.isfinite(m) and m >= -1.0):
            raise ValueError("every m must be finite and >= -1")


def _value(objective, x, k) -> float:
    """f(x^k), refused when it is not finite."""
    v = objective.value(x)
    if not math.isfinite(v):
        raise ValueError(f"objective value is {v} at iteration {k}")
    return v


def _average_values(objective, sums, totals) -> list:
    """f at each running average sums[i] / totals[i] of the (R, n) array
    ``sums``, read with one ``values`` call; NaN where an averager is
    still empty."""
    if 0.0 in totals:
        live = [i for i, t in enumerate(totals) if t > 0.0]
        out = [math.nan] * len(totals)
        if live:
            sub = _average_values(objective, sums[live], [totals[i] for i in live])
            for i, v in zip(live, sub):
                out[i] = v
        return out
    return objective.values(sums / np.array(totals)[:, None]).tolist()


def _finish(weighted_sum, weight_total, x, stop, objective, h, completed):
    """Resolve the output point. The averaged point is the theorem's object;
    the only case without one is a stationary stop before the first fold,
    where the current iterate is itself optimal."""
    if weight_total > 0.0:
        x_hat = weighted_sum / weight_total
    elif stop is StopReason.STATIONARY_POINT:
        x_hat = np.array(x)
    else:
        raise NoProductiveSteps(
            "run ended with an empty averager and no stationarity certificate"
        )
    f_hat = objective.value(x_hat)
    if not math.isfinite(f_hat):
        raise ValueError(
            f"objective value at the output point is {f_hat} after iteration {completed}"
        )
    if h is not None:
        f_hat += h.value(x_hat)
    return x_hat, f_hat


class _Trajectory:
    """One schedule's share of a batched ``_descent``: its step rule, the
    per-m weight totals and certificate sums, its trace, and how it ended.
    While it runs, its iterate and weighted sums are one row of the batch
    arrays; when it leaves, they are kept here."""

    __slots__ = (
        "index", "state", "trace", "bound_column", "certify", "want_f", "totals", "lhs",
        "sq", "sum_f", "sum_g", "rhs", "h_term", "f_avg", "bound", "prod", "q",
        "gx", "evals", "gamma", "weights", "evals_total", "n_prod", "n_nonprod", "stop",
        "error", "x", "sums",
    )

    def __init__(self, index, state, n_m, record, bound_column, certify, want_f):
        self.index = index  # position in plan order
        self.state = state
        self.trace = Trace() if record else None
        self.bound_column = bound_column
        self.certify = certify
        self.want_f = want_f  # f(x^k) is read by the trace and the Polyak rule
        # per m:
        self.totals = [0.0] * n_m  # sums of the weights gamma^{-m}
        self.lhs = [0.0] * n_m  # sum of gamma^{-m}, or with scan of (L_k sqrt(k)/sqrt(2 sigma))^m
        self.sq = [0.0] * n_m  # sum of ||grad||_*^2 / gamma^{m-1}
        self.sum_f = [0.0] * n_m  # with scan: sum of sqrt(k)^{m-1} L_k^{m+1}, productive steps
        self.sum_g = [0.0] * n_m  # the same over non-productive steps
        self.rhs = [0.0] * n_m
        self.h_term = [0.0] * n_m  # h(x1) / gamma_1^m, fixed after the first step
        self.f_avg = []  # per iteration, f at the average of each m, in ms order
        self.bound = []  # per iteration, the bound for each m
        # this iteration's classification, step and weights
        self.prod = True
        self.q = None
        self.gx = math.nan
        self.evals = 0  # constraint evaluations at x^k
        self.gamma = math.nan
        self.weights = None  # gamma^{-m} per m on a productive step
        self.evals_total = 0
        self.n_prod = 0
        self.n_nonprod = 0  # n_prod + n_nonprod iterations completed
        self.stop = None  # a StopReason once it stopped early
        self.error = None  # the exception that ended it
        self.x = None  # the last iterate and the weighted sums, kept on leaving
        self.sums = None


def _leave(runs, live, X, G, sums):
    """Take the trajectories that stopped or failed out of the batch. A
    failure ends every trajectory after it in plan order too: the batch
    raises the first failure in plan order, so their results are never
    read. Returns the new (live, X, G, sums)."""
    failed = [run.index for run in runs if run.error is not None]
    cutoff = failed[0] if failed else len(runs)
    keep = []
    for j, run in enumerate(live):
        if run.stop is None and run.error is None and run.index < cutoff:
            keep.append(j)
        else:
            run.x, run.sums = X[j], sums[j]
    return [live[j] for j in keep], X[keep], G[keep], sums[keep]


def _descent(objective, prox, feasible, states, config, x1, ms, *, h=None,
             constraints=None, scan=False, state_g=None, use_criterion=False):
    """The iteration loop behind all four solvers. Runs one trajectory per
    step rule in ``states``, all from x1, as one batch and returns per
    trajectory a tuple of one SolveResult per weighting exponent in ``ms``.

    Each trajectory is one row of the batch arrays. Per row and iteration
    the oracle calls (``subgrad`` and, where read, ``value``), the step
    rule, the weights gamma^{-m}, the certificate sums and the overflow
    checks run in Python; the dual norms, the fold of x^k into the
    weighted sums, f at all averages (one ``values`` call) and the mirror
    step run once for all rows. The iterates do not depend on m, so each
    trajectory feeds one averager, one bound accumulator and one f_avg
    column per m, and result [i][j] equals the run with
    ``states = (states[i],)`` and ``ms = (ms[j],)`` bit for bit.
    Constrained and criterion-stopped runs take one step rule and one m,
    because there m drives the stop; composite runs (``h`` set) take one
    step rule and step with ``composite_mirror_step``.

    x^k is productive when there are no constraints, when g(x^k) <= epsilon
    (the max of the constraint values), or, with ``scan``, when the
    first-violation scan finds no constraint above epsilon. Both policies
    read the constraint values in one ``row_values`` pass. A productive step
    follows a subgradient of f with its step rule and enters the averages;
    any other step follows the violated constraint (the maximizing one
    without ``scan``) with state_g. The certificate sums the realized
    steps, or with ``scan`` takes the worst-case-M form of the
    one-constraint-at-a-time method. It feeds the bound column (certified
    unconstrained runs with a trace) and, with use_criterion, the stopping
    rule.

    Rows leave the batch at one point per iteration, after the step
    phase: a trajectory that stops (zero subgradient, StationarySignal)
    leaves and the others run on. The epsilon criterion, which runs with
    one row only, ends the run. Errors: a non-finite subgradient dual
    norm, f(x^k), f at an average or f at the output point raises
    ValueError naming the iteration. A step rule whose step is not finite
    and positive, or whose arithmetic overflows or divides by zero (a tiny
    dual norm), raises ValueError naming the rule, k and the dual norm.
    When the weights, their sums or the certificate of some m leave the
    float64 range, the ValueError names that m, gamma and k; if several m
    overflow, it names the one with the earliest k, and among equal k the
    first in ``ms``. A constrained run whose criterion fires before any
    productive step raises NoProductiveSteps. A trajectory that raises in
    the step phase leaves the batch; after the loop the error of the first
    failing trajectory in ``states`` order is raised, the error its own run
    raises. An error of a call shared by all rows is raised at once: a
    non-finite f at an average (read by the one ``values`` call) and an
    error of the mirror step.
    """
    x = as_point(x1)
    if not feasible.contains(x):
        raise ValueError("initial point is not in the feasible set")
    if constraints is None and config.iters is None:
        raise ValueError("unconstrained solvers need config.iters")
    if constraints is not None and config.epsilon is None:
        raise ValueError("constrained solvers need config.epsilon")
    if (constraints is not None or use_criterion) and len(ms) != 1:
        raise ValueError("constrained runs take one m: it drives the stopping rule")
    if (constraints is not None or use_criterion or h is not None) and len(states) != 1:
        raise ValueError(
            "constrained, criterion-stopped and composite runs take one step rule"
        )
    n_iter = min(config.iters or SAFETY_CAP, SAFETY_CAP)
    eps = config.epsilon
    theta = config.theta
    sigma = prox.sigma
    dual = dual_norm_kind(prox.norm)
    inf = math.inf
    n_m = len(ms)
    record = config.record_trace
    runs = []
    for index, state in enumerate(states):
        bound_column = (
            record and constraints is None and is_nonincreasing_guaranteed(state.kind)
        )
        runs.append(_Trajectory(
            index, state, n_m, record, bound_column, bound_column or use_criterion,
            record or state.kind.tag == TAG_POLYAK,
        ))
    live = list(runs)  # row j of the batch arrays belongs to live[j]
    X = np.tile(x, (len(runs), 1))  # the iterates x^k
    sums = np.zeros((len(runs), n_m, x.size))  # weighted sums of productive iterates, per m
    first_sum = sums[0, 0]  # a view: with one average, x^k is folded into it at once
    fstar = objective.known_fstar
    if scan:
        root = math.sqrt(2.0 * sigma)
        m_big = max(objective.lipschitz_bound, constraints.lipschitz_bound)

    # every error of one trajectory is kept and raised after the loop, in
    # plan order, so catching Exception here defers it and loses nothing
    for k in range(1, n_iter + 1):
        grads = []
        for run, x in zip(live, X):
            try:
                if constraints is None:
                    grads.append(objective.subgrad(x))
                    continue
                if scan:
                    q, evals, g_seen = constraints.first_violation(x, eps)
                    prod = q is None
                    # g(x) is fully known only when the scan saw every constraint
                    gx = g_seen if prod else math.nan
                else:
                    v = constraints.row_values(x)
                    q = int(v.argmax())
                    gx = float(v[q])
                    evals = constraints.p
                    prod = gx <= eps
                run.prod, run.q, run.gx, run.evals = prod, q, gx, evals
                run.evals_total += evals
                grads.append(objective.subgrad(x) if prod else constraints.subgrad_one(q, x))
            except Exception as exc:
                run.error = exc
                grads.append(x)  # a placeholder row; the run leaves below
        G = grads[0][None] if len(grads) == 1 else np.array(grads)
        leaving = False
        # one average folds x^k at once; more fold in one call below
        one_average = len(live) == 1 and n_m == 1
        for run, x, gn in zip(live, X, norm_rows(G, dual)):
            if run.error is not None:
                leaving = True
                continue
            prod = run.prod
            try:
                if not math.isfinite(gn):
                    raise ValueError(f"subgradient dual norm is {gn} at iteration {k}")
                if gn == 0.0:
                    if not prod:
                        which = f"constraint {run.q}" if scan else "the constraint maximum"
                        raise NoProductiveSteps(
                            f"{which} has a zero subgradient while above epsilon: "
                            "the epsilon-feasible region is empty"
                        )
                    run.stop = StopReason.STATIONARY_POINT
                    leaving = True
                    continue
                fx = _value(objective, x, k) if prod and run.want_f else None
                rule = run.state if prod else state_g
                try:
                    gamma = rule.step_size(k, fx, gn, fstar)
                except StationarySignal:
                    run.stop = StopReason.STATIONARY_POINT
                    leaving = True
                    continue
                except (OverflowError, ZeroDivisionError):
                    gamma = math.nan  # the rule's arithmetic has no float64 result
                if not 0.0 < gamma < inf:
                    raise ValueError(
                        f"step rule {rule.kind.tag!r} gives gamma={gamma!r} at iteration {k} "
                        f"with subgradient dual norm {gn!r}; steps must be finite and positive"
                    )
                if h is not None:
                    hv = h.value(x)
                if scan:
                    sk = math.sqrt(k)
                certify = run.certify
                totals, lhs, sq, rhs = run.totals, run.lhs, run.sq, run.rhs
                weights = []
                try:
                    for i, m in enumerate(ms):
                        if prod or certify and not scan:
                            w = gamma ** (-m)
                        if prod:
                            if k == 1 and h is not None:
                                run.h_term[i] = hv / gamma**m
                            if one_average:
                                first_sum += w * x
                            else:
                                weights.append(w)
                            totals[i] += w
                        if certify and not scan:
                            lhs[i] += w
                            sq[i] += gn * gn / gamma ** (m - 1.0)
                            rhs[i] = (
                                theta / gamma ** (m + 1.0) + run.h_term[i] + sq[i] / (2.0 * sigma)
                            )
                        elif certify:
                            lhs[i] += (gn * sk / root) ** m
                            if prod:
                                run.sum_f[i] += sk ** (m - 1.0) * gn ** (m + 1.0)
                            else:
                                run.sum_g[i] += sk ** (m - 1.0) * gn ** (m + 1.0)
                            rhs[i] = theta * (m_big * sk / root) ** (m + 1.0) + (
                                run.sum_f[i] + run.sum_g[i]
                            ) / root ** (m + 1.0)
                        # sums and quotients reach inf without raising
                        if not (totals[i] < inf and lhs[i] < inf and rhs[i] < inf):
                            raise OverflowError
                except (OverflowError, ZeroDivisionError) as exc:
                    raise ValueError(
                        f"weights gamma**(-m) leave the float64 range at iteration {k} "
                        f"with m={m:g} and gamma={gamma:g}; use a smaller m"
                    ) from exc
                run.gamma = gamma
                run.weights = weights
                if prod:
                    run.n_prod += 1
                else:
                    run.n_nonprod += 1
                trace = run.trace
                if trace is not None:
                    trace.gamma.append(gamma)
                    f_k = fx if prod else _value(objective, x, k)
                    trace.f_iterate.append(f_k if h is None else f_k + hv)
                    if constraints is not None:
                        trace.g_iterate.append(run.gx)
                        trace.productive.append(prod)
                        trace.constraint_evals.append(run.evals)
                    if run.bound_column:
                        run.bound.extend(map(truediv, rhs, lhs))
            except Exception as exc:
                run.error = exc
                leaving = True
        if leaving:
            live, X, G, sums = _leave(runs, live, X, G, sums)
            if not live:
                break
            first_sum = sums[0, 0]
        if not one_average:
            # several averages mean an unconstrained run: every step is productive
            weights_all = [w for run in live for w in run.weights]
            sums += np.array(weights_all).reshape(len(live), n_m, 1) * X[:, None]
        if record:
            totals = [t for run in live for t in run.totals]
            flat_sums = sums.reshape(-1, X.shape[1])
            vals = _average_values(objective, flat_sums, totals)
            if not all(map(math.isfinite, vals)):
                # an empty averager reads NaN; any other non-finite value is an error
                for v, t in zip(vals, totals):
                    if t > 0.0 and not math.isfinite(v):
                        raise ValueError(f"objective value at the average is {v} at iteration {k}")
            if h is not None:
                # an empty averager stays NaN
                vals = [v + h.value(s / t) if t > 0.0 else v
                        for v, s, t in zip(vals, flat_sums, totals)]
            for j, run in enumerate(live):
                run.f_avg.extend(vals[j * n_m:(j + 1) * n_m])
        if use_criterion and eps * live[0].lhs[0] >= live[0].rhs[0]:
            live[0].stop = StopReason.EPSILON_CRITERION
            break
        gammas = [run.gamma for run in live]
        if h is None:
            X = mirror_step_rows(prox, feasible, X, G, gammas)
        else:
            X = composite_mirror_step(prox, feasible, X[0], G[0], gammas[0], h)[None]
    for j, run in enumerate(live):
        run.x, run.sums = X[j], sums[j]

    batch = []
    for run in runs:
        if run.error is not None:
            raise run.error
        stop = run.stop or StopReason.MAX_ITERS
        completed = run.n_prod + run.n_nonprod
        if constraints is not None and run.totals[0] == 0.0:
            what = "every constraint" if scan else "g <= epsilon"
            if stop is StopReason.MAX_ITERS:
                raise NoProductiveSteps(
                    f"no iterate satisfied {what} within {completed} iterations"
                )
            if stop is StopReason.EPSILON_CRITERION:
                raise NoProductiveSteps(
                    f"the epsilon criterion fired at iteration {completed} before any "
                    f"productive step: likely no point with {what} lies within "
                    f"Bregman distance theta={theta:g} of x1"
                )
        results = []
        for i in range(n_m):
            x_hat, f_hat = _finish(
                run.sums[i], run.totals[i], run.x, stop, objective, h, completed
            )
            if run.trace is None:
                trace_i = None
            else:
                # the last m takes the shared columns, the others get copies
                last = i == n_m - 1
                cols = {name: col if last else list(col) for name, col in vars(run.trace).items()}
                cols.update(
                    k=list(range(1, completed + 1)),
                    f_avg=run.f_avg if n_m == 1 else run.f_avg[i::n_m],
                    bound=run.bound if n_m == 1 else run.bound[i::n_m],
                )
                trace_i = Trace(**cols)
            results.append(
                SolveResult(
                    x_hat=x_hat,
                    f_hat=f_hat,
                    iterations=completed,
                    productive_count=run.n_prod,
                    nonproductive_count=run.n_nonprod,
                    stop_reason=stop,
                    trace=trace_i,
                    constraint_evals_total=None if constraints is None else run.evals_total,
                )
            )
        batch.append(tuple(results))
    return batch


def mirror_descent(objective, prox: ProxSetup, feasible: FeasibleSet,
                   state: ScheduleState, config: RunConfig, x1) -> SolveResult:
    """Plain mirror descent: subgradient, step size, mirror step, fold into
    the weighted average. Exits early with StationaryPoint on a zero
    subgradient (the point is optimal)."""
    return _descent(objective, prox, feasible, (state,), config, x1, (config.m,))[0][0]


def mirror_descent_sweep(objective, prox: ProxSetup, feasible: FeasibleSet,
                         state: ScheduleState, config: RunConfig, x1,
                         m_values) -> tuple:
    """Plain mirror descent averaged once per m in ``m_values`` over one
    shared trajectory, since only the weights and the bound depend on m.
    Result i equals ``mirror_descent`` run with ``config.m = m_values[i]``
    bit for bit; ``config.m`` itself is not read."""
    if not m_values:
        raise ValueError("m_values needs at least one m")
    _check_m_values(m_values)
    return _descent(objective, prox, feasible, (state,), config, x1, tuple(m_values))[0]


def mirror_c_descent(objective, h: Regularizer, prox: ProxSetup,
                     feasible: FeasibleSet, state: ScheduleState,
                     config: RunConfig, x1) -> SolveResult:
    """Composite mirror descent for F = f + h with h handled inside the
    step. The averaging guarantee for the composite method covers only
    -1 <= m <= 0, so other exponents are rejected."""
    if not -1.0 <= config.m <= 0.0:
        raise ValueError(
            "the composite averaging guarantee covers only -1 <= m <= 0; "
            f"got m={config.m}"
        )
    return _descent(objective, prox, feasible, (state,), config, x1, (config.m,), h=h)[0][0]


def constrained_md(objective, constraints: AffineConstraints, prox: ProxSetup,
                   feasible: FeasibleSet, state_f: ScheduleState,
                   state_g: ScheduleState, config: RunConfig, x1,
                   use_criterion: bool = True) -> SolveResult:
    """Switching mirror descent for min f subject to g <= 0.

    An iterate with g(x^k) <= epsilon is productive: it takes an f-step
    with the f-schedule and is folded into the average. Otherwise the step
    follows a subgradient of g with the g-schedule and the point is not
    averaged. The run stops when

        eps * sum_{i<=k} gamma_i^{-m}
            >= theta / gamma_k^{m+1}
               + (1/2 sigma) * [ sum_I ||grad f||^2 / gamma_i^{m-1}
                                 + sum_J ||grad g||^2 / gamma_j^{m-1} ]

    holds (all sums over the realized steps, gamma_k the current step), or
    at the iteration cap. ``use_criterion=False`` disables the stopping
    rule for fixed-budget runs that rely on the a-priori iteration
    estimates instead. Output averages productive iterates only.
    """
    return _descent(
        objective, prox, feasible, (state_f,), config, x1, (config.m,),
        constraints=constraints, state_g=state_g, use_criterion=use_criterion,
    )[0][0]


def constrained_md_multi(objective, constraints: AffineConstraints,
                         prox: ProxSetup, feasible: FeasibleSet,
                         config: RunConfig, x1) -> SolveResult:
    """Switching mirror descent that checks constraints one at a time.

    A step is non-productive as soon as one constraint exceeds epsilon; the
    scan stops there, so non-productive iterations cost q(k) <= p
    evaluations instead of p. Step sizes are built in:

        gamma_k = sqrt(2 sigma) / (L_k sqrt(k)),

    with L_k the dual norm of the current subgradient (of f on productive
    steps, of the violated g_{q(k)} otherwise). Stops when

        eps * sum_{i<=k} (L_i sqrt(i)/sqrt(2 sigma))^m
            >= theta * (M sqrt(k)/sqrt(2 sigma))^{m+1}
               + sqrt(2 sigma)^{-(m+1)} * [ sum_I sqrt(i)^{m-1} ||grad f||^{m+1}
                                            + sum_J sqrt(j)^{m-1} ||grad g_q||^{m+1} ]

    holds, with M = max of the objective and constraint Lipschitz bounds.
    """
    state = ScheduleState(schedule(TAG_ADAPTIVE_TV), prox.sigma)
    return _descent(
        objective, prox, feasible, (state,), config, x1, (config.m,),
        constraints=constraints, scan=True, state_g=state, use_criterion=True,
    )[0][0]
