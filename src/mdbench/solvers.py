"""Four mirror-descent solvers sharing one iteration loop with m-weighted
averaging, plus the theoretical bound evaluators and stopping criteria they
are tested against.

Every solver returns the weighted average

    x_hat = (sum_k gamma_k^{-m})^{-1} * sum_k gamma_k^{-m} * x^k

over the iterates it is allowed to average: all iterates for the
unconstrained solvers, productive iterates only for the constrained ones.
m = 0 gives the plain running mean, m = -1 weights by gamma_k itself, and
larger m shifts weight toward late iterates when steps shrink.

The step sequence and the iterates do not depend on m, so one trajectory
can feed several averages: ``mirror_descent_sweep`` runs the unconstrained
loop once and returns one result per m, each equal bit for bit to its own
``mirror_descent`` run. Constrained runs take one m, because there m enters
the stopping rule.

Solvers run any schedule, including the adaptive ones with no monotonicity
guarantee. The bound evaluators, by contrast, verify the non-increasing
hypothesis of the averaging theorem and refuse sequences that break it.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .geometry import (
    FeasibleSet,
    ProxSetup,
    Regularizer,
    composite_mirror_step,
    mirror_step,
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
from .space import as_point, dual_norm_kind, norm

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
    to the nearest minimizer; for the unit Euclidean ball the diameter gives
    theta = 2. At least one of iters/epsilon must be set; the constrained
    solvers need epsilon and the unconstrained ones need iters.
    """

    m: float
    iters: Optional[int] = None
    epsilon: Optional[float] = None
    theta: float = 2.0
    record_trace: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.m) and self.m >= -1.0):
            raise ValueError("weighting exponent m must be finite and >= -1")
        if self.iters is None and self.epsilon is None:
            raise ValueError("set at least one of iters and epsilon")
        if self.iters is not None and self.iters < 1:
            raise ValueError("iters must be at least 1")
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not self.theta > 0.0:
            raise ValueError("theta must be positive")


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


def _value(objective, x, k) -> float:
    """f(x^k), refused when it is not finite."""
    v = objective.value(x)
    if not math.isfinite(v):
        raise ValueError(f"objective value is {v} at iteration {k}")
    return v


def _average_values(objective, h, sums, totals, k) -> list:
    """f (plus h) at each running average sums[i] / totals[i], read with
    one ``values`` call; NaN where an averager is still empty."""
    if 0.0 in totals:
        live = [i for i, t in enumerate(totals) if t > 0.0]
        out = [math.nan] * len(totals)
        if live:
            sub = _average_values(objective, h, sums[live], [totals[i] for i in live], k)
            for i, v in zip(live, sub):
                out[i] = v
        return out
    avgs = sums / np.array(totals)[:, None]
    vals = objective.values(avgs).tolist()
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"objective value at the average is {v} at iteration {k}")
    if h is not None:
        vals = [v + h.value(a) for v, a in zip(vals, avgs)]
    return vals


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


def _descent(objective, prox, feasible, state_f, config, x1, ms, *, h=None,
             constraints=None, scan=False, state_g=None, use_criterion=False):
    """The iteration loop behind all four solvers; returns one SolveResult
    per weighting exponent in ``ms``, in that order.

    The trajectory (subgradient, step, f(x^k), mirror step) does not depend
    on m, so it is computed once per iteration and feeds one averager, one
    bound accumulator and one f_avg column per m. Result i equals the run
    with ``ms = (ms[i],)`` bit for bit. Constrained runs and runs with the
    stopping rule take exactly one m, because there m drives the stop.

    x^k is productive when there are no constraints, when g(x^k) <= epsilon
    (the max of the constraint values), or, with ``scan``, when the
    first-violation scan finds no constraint above epsilon. Both policies
    read the constraint values in one ``row_values`` pass. A productive step
    follows a subgradient of f with state_f and enters the averages; any
    other step follows the violated constraint (the maximizing one without
    ``scan``) with state_g. The certificate sums the realized
    steps, or with ``scan`` takes the worst-case-M form of the
    one-constraint-at-a-time method. It feeds the bound column (certified
    unconstrained runs with a trace) and, with use_criterion, the stopping
    rule.

    Errors: a non-finite subgradient dual norm, f(x^k), f at an average or
    f at the output point raises ValueError naming the iteration. A step
    rule whose step is not finite and positive, or whose arithmetic
    overflows or divides by zero (a tiny dual norm), raises ValueError
    naming the rule, k and the dual norm. When the weights, their sums or
    the certificate of some m leave the float64 range, the
    ValueError names that m, gamma and k; if several m overflow, it names
    the one with the earliest k, and among equal k the first in ``ms``. A
    constrained run whose criterion fires before any productive step raises
    NoProductiveSteps.
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
    n_iter = min(config.iters or SAFETY_CAP, SAFETY_CAP)
    eps = config.epsilon
    theta = config.theta
    sigma = prox.sigma
    dual = dual_norm_kind(prox.norm)
    inf = math.inf
    n_m = len(ms)
    sums = np.zeros((n_m, x.size))  # weighted sums of productive iterates, one row per m
    rows = list(sums)  # views of those rows, updated in place
    totals = [0.0] * n_m  # sums of the weights gamma^{-m}
    trace = Trace() if config.record_trace else None
    f_avg_rows = []  # per iteration, f at each average
    bound_rows = []  # per iteration, the bound for each m
    bound_column = (
        trace is not None and constraints is None
        and is_nonincreasing_guaranteed(state_f.kind)
    )
    certify = bound_column or use_criterion
    # f(x^k) is read only by the trace and the Polyak rule
    want_f = trace is not None or state_f.kind.tag == TAG_POLYAK
    if scan:
        root = math.sqrt(2.0 * sigma)
        m_big = max(objective.lipschitz_bound, constraints.lipschitz_bound)

    # per m:
    lhs = [0.0] * n_m  # sum of gamma^{-m}, or with scan of (L_k sqrt(k)/sqrt(2 sigma))^m
    sq = [0.0] * n_m  # sum of ||grad||_*^2 / gamma^{m-1}
    sum_f = [0.0] * n_m  # with scan: sum of sqrt(k)^{m-1} L_k^{m+1}, productive steps
    sum_g = [0.0] * n_m  # the same over non-productive steps
    rhs = [0.0] * n_m
    h_term = [0.0] * n_m  # h(x1) / gamma_1^m, fixed after the first step
    evals = 0  # constraint evaluations at x^k
    evals_total = 0
    n_prod = 0
    n_nonprod = 0
    completed = 0
    stop = StopReason.MAX_ITERS
    for k in range(1, n_iter + 1):
        if constraints is None:
            prod = True
        elif scan:
            q, evals, g_seen = constraints.first_violation(x, eps)
            prod = q is None
            # g(x) is fully known only when the scan saw every constraint
            gx = g_seen if prod else math.nan
        else:
            v = constraints.row_values(x)
            q = int(np.argmax(v))
            gx = float(v[q])
            evals = constraints.p
            prod = gx <= eps
        evals_total += evals

        if prod:
            grad = objective.subgrad(x)
        else:
            grad = constraints.subgrad_one(q, x)
        gn = norm(grad, dual)
        if not math.isfinite(gn):
            raise ValueError(f"subgradient dual norm is {gn} at iteration {k}")
        if gn == 0.0:
            if not prod:
                which = f"constraint {q}" if scan else "the constraint maximum"
                raise NoProductiveSteps(
                    f"{which} has a zero subgradient while above epsilon: "
                    "the epsilon-feasible region is empty"
                )
            stop = StopReason.STATIONARY_POINT
            break
        fx = _value(objective, x, k) if prod and want_f else None
        rule = state_f if prod else state_g
        try:
            gamma = rule.step_size(
                k, f_val=fx, grad_dual_norm=gn, f_star=objective.known_fstar
            )
        except StationarySignal:
            stop = StopReason.STATIONARY_POINT
            break
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
        try:
            for i, m in enumerate(ms):
                if prod or certify and not scan:
                    w = gamma ** (-m)
                if prod:
                    if k == 1 and h is not None:
                        h_term[i] = hv / gamma**m
                    rows[i] += w * x
                    totals[i] += w
                if certify and not scan:
                    lhs[i] += w
                    sq[i] += gn * gn / gamma ** (m - 1.0)
                    rhs[i] = theta / gamma ** (m + 1.0) + h_term[i] + sq[i] / (2.0 * sigma)
                elif certify:
                    lhs[i] += (gn * sk / root) ** m
                    if prod:
                        sum_f[i] += sk ** (m - 1.0) * gn ** (m + 1.0)
                    else:
                        sum_g[i] += sk ** (m - 1.0) * gn ** (m + 1.0)
                    rhs[i] = theta * (m_big * sk / root) ** (m + 1.0) + (
                        sum_f[i] + sum_g[i]
                    ) / root ** (m + 1.0)
                # sums and quotients reach inf without raising
                if not (totals[i] < inf and lhs[i] < inf and rhs[i] < inf):
                    raise OverflowError
        except (OverflowError, ZeroDivisionError) as exc:
            raise ValueError(
                f"weights gamma**(-m) leave the float64 range at iteration {k} "
                f"with m={m:g} and gamma={gamma:g}; use a smaller m"
            ) from exc
        if prod:
            n_prod += 1
        else:
            n_nonprod += 1
        completed = k

        if trace is not None:
            trace.k.append(k)
            trace.gamma.append(gamma)
            f_k = fx if prod else _value(objective, x, k)
            trace.f_iterate.append(f_k if h is None else f_k + hv)
            f_avg_rows.append(_average_values(objective, h, sums, totals, k))
            if constraints is not None:
                trace.g_iterate.append(gx)
                trace.productive.append(prod)
                trace.constraint_evals.append(evals)
            if bound_column:
                bound_rows.append([r / s for r, s in zip(rhs, lhs)])
        if use_criterion and eps * lhs[0] >= rhs[0]:
            stop = StopReason.EPSILON_CRITERION
            break
        if h is None:
            x = mirror_step(prox, feasible, x, grad, gamma)
        else:
            x = composite_mirror_step(prox, feasible, x, grad, gamma, h)

    if constraints is not None and totals[0] == 0.0:
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
    # transpose the per-iteration rows into one column per m
    f_avg_cols = [list(c) for c in zip(*f_avg_rows)] or [[] for _ in ms]
    bound_cols = [list(c) for c in zip(*bound_rows)] or [[] for _ in ms]
    results = []
    for i in range(n_m):
        x_hat, f_hat = _finish(sums[i], totals[i], x, stop, objective, h, completed)
        if trace is None:
            trace_i = None
        else:
            cols = {name: list(col) for name, col in vars(trace).items()}
            cols.update(f_avg=f_avg_cols[i], bound=bound_cols[i])
            trace_i = Trace(**cols)
        results.append(
            SolveResult(
                x_hat=x_hat,
                f_hat=f_hat,
                iterations=completed,
                productive_count=n_prod,
                nonproductive_count=n_nonprod,
                stop_reason=stop,
                trace=trace_i,
                constraint_evals_total=None if constraints is None else evals_total,
            )
        )
    return tuple(results)


def mirror_descent(objective, prox: ProxSetup, feasible: FeasibleSet,
                   state: ScheduleState, config: RunConfig, x1) -> SolveResult:
    """Plain mirror descent: subgradient, step size, mirror step, fold into
    the weighted average. Exits early with StationaryPoint on a zero
    subgradient (the point is optimal)."""
    return _descent(objective, prox, feasible, state, config, x1, (config.m,))[0]


def mirror_descent_sweep(objective, prox: ProxSetup, feasible: FeasibleSet,
                         state: ScheduleState, config: RunConfig, x1,
                         m_values) -> tuple:
    """Plain mirror descent averaged once per m in ``m_values`` over one
    shared trajectory, since only the weights and the bound depend on m.
    Result i equals ``mirror_descent`` run with ``config.m = m_values[i]``
    bit for bit; ``config.m`` itself is not read."""
    if not m_values:
        raise ValueError("m_values needs at least one m")
    for m in m_values:
        replace(config, m=m)  # validates m as RunConfig does
    return _descent(objective, prox, feasible, state, config, x1, tuple(m_values))


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
    return _descent(objective, prox, feasible, state, config, x1, (config.m,), h=h)[0]


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
        objective, prox, feasible, state_f, config, x1, (config.m,),
        constraints=constraints, state_g=state_g, use_criterion=use_criterion,
    )[0]


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
        objective, prox, feasible, state, config, x1, (config.m,),
        constraints=constraints, scan=True, state_g=state, use_criterion=True,
    )[0]


def _bound_arrays(gammas, grad_dual_norms):
    g = np.asarray(gammas, dtype=np.float64)
    s = np.asarray(grad_dual_norms, dtype=np.float64)
    if g.size == 0:
        raise ValueError("bound evaluation needs at least one step")
    if g.shape != s.shape or g.ndim != 1:
        raise ValueError("step sizes and gradient norms must be 1-D of equal length")
    if not np.all(g > 0.0):
        raise ValueError("step sizes must be positive")
    if np.any(np.diff(g) > 0.0):
        raise ValueError(
            "theorem hypothesis violated: the step-size sequence must be "
            "positive and non-increasing"
        )
    return g, s


def bound_main(m: float, gammas, grad_dual_norms, theta: float, sigma: float) -> float:
    """Averaged-point gap bound along a realized trajectory:

        ( sum gamma_k^{-m} )^{-1} *
            [ theta / gamma_N^{m+1}
              + (1/2 sigma) * sum ||grad f(x^k)||_*^2 / gamma_k^{m-1} ].

    Requires the non-increasing step hypothesis and m >= -1.
    """
    if not m >= -1.0:
        raise ValueError("m must be >= -1")
    g, s = _bound_arrays(gammas, grad_dual_norms)
    w = float(np.sum(g ** (-m)))
    num = theta / g[-1] ** (m + 1.0) + float(np.sum(s * s / g ** (m - 1.0))) / (
        2.0 * sigma
    )
    return num / w


def bound_corollaries(m: float, n_iters: int, lipschitz: float, theta: float,
                      sigma: float) -> float:
    """Closed-form gap bounds for the step rule gamma_k = sqrt(2 sigma)/(M sqrt(k)):

        m = -1   M (theta + 1 + ln N) / (sqrt(sigma) sqrt(N))
        m = 0    M (2 + theta) / sqrt(2 sigma N)
        m >= 1   M (m + 2) (1 + theta) / (2 sqrt(2 sigma) sqrt(N))
    """
    if n_iters < 1:
        raise ValueError("N must be at least 1")
    n = float(n_iters)
    if m == -1.0:
        return lipschitz * (theta + 1.0 + math.log(n)) / (math.sqrt(sigma) * math.sqrt(n))
    if m == 0.0:
        return lipschitz * (2.0 + theta) / math.sqrt(2.0 * sigma * n)
    if m >= 1.0:
        return (
            lipschitz * (m + 2.0) * (1.0 + theta) / (2.0 * math.sqrt(2.0 * sigma) * math.sqrt(n))
        )
    raise ValueError("closed forms exist for m = -1, m = 0, and m >= 1 only")


def bound_composite(m: float, gammas, grad_dual_norms, h_at_x1: float,
                    theta: float, sigma: float) -> float:
    """Composite variant of bound_main: adds h(x^1)/gamma_1^m to the
    numerator. Valid for -1 <= m <= 0 only."""
    if not -1.0 <= m <= 0.0:
        raise ValueError("the composite bound covers only -1 <= m <= 0")
    if h_at_x1 < 0.0:
        raise ValueError("h must be nonnegative")
    g, s = _bound_arrays(gammas, grad_dual_norms)
    w = float(np.sum(g ** (-m)))
    num = (
        theta / g[-1] ** (m + 1.0)
        + h_at_x1 / g[0] ** m
        + float(np.sum(s * s / g ** (m - 1.0))) / (2.0 * sigma)
    )
    return num / w


def iteration_estimate(lipschitz: float, theta1: float, sigma: float,
                       epsilon: float, m: float) -> int:
    """A-priori iteration count sufficient for the constrained solver's
    stopping criterion: ceil(M^2 (1+theta1)^2 / (2 sigma eps^2)) for m >= 1
    and ceil(M^2 (2+theta1)^2 / (2 sigma eps^2)) for m = 0."""
    if not (lipschitz > 0.0 and sigma > 0.0 and epsilon > 0.0):
        raise ValueError("lipschitz, sigma, and epsilon must be positive")
    if not theta1 >= 0.0:
        raise ValueError("theta1 must be nonnegative")
    if m >= 1.0:
        c = (1.0 + theta1) ** 2
    elif m == 0.0:
        c = (2.0 + theta1) ** 2
    else:
        raise ValueError("iteration estimates cover m = 0 and m >= 1 only")
    return math.ceil(lipschitz**2 * c / (2.0 * sigma * epsilon**2))


@dataclass(frozen=True)
class ConstrainedBoundDiagnostic:
    """Both readings of the constrained run's gap bound: the underlying
    inequality carries a term -eps * sum_J (gamma_j^g)^{-m} that its own
    consequences drop; with_slack keeps it, without_slack does not."""

    with_slack: float
    without_slack: float


def constrained_bound_diagnostic(m: float, prod_gammas, prod_grad_norms,
                                 nonprod_gammas, nonprod_grad_norms,
                                 gamma_last: float, theta1: float, sigma: float,
                                 epsilon: float) -> ConstrainedBoundDiagnostic:
    """Evaluate the constrained gap bound along a realized trajectory.

    gamma_last is the step size of the final iteration regardless of phase.
    Inputs are the realized per-phase step and subgradient-norm sequences;
    only the productive weights enter the normalizer.
    """
    gp = np.asarray(prod_gammas, dtype=np.float64)
    sp = np.asarray(prod_grad_norms, dtype=np.float64)
    gq = np.asarray(nonprod_gammas, dtype=np.float64)
    sq = np.asarray(nonprod_grad_norms, dtype=np.float64)
    if gp.size == 0:
        raise ValueError("diagnostic needs at least one productive step")
    if gp.shape != sp.shape or gq.shape != sq.shape:
        raise ValueError("step sizes and gradient norms must pair up")
    if not gamma_last > 0.0:
        raise ValueError("gamma_last must be positive")
    w = float(np.sum(gp ** (-m)))
    num = theta1 / gamma_last ** (m + 1.0)
    num += float(np.sum(sp * sp / gp ** (m - 1.0))) / (2.0 * sigma)
    if gq.size:
        num += float(np.sum(sq * sq / gq ** (m - 1.0))) / (2.0 * sigma)
    without = num / w
    slack = epsilon * float(np.sum(gq ** (-m))) if gq.size else 0.0
    return ConstrainedBoundDiagnostic(
        with_slack=(num - slack) / w, without_slack=without
    )


def productive_inequality_sides(theta: float, m: float, lipschitz: float,
                                epsilon: float, sigma: float,
                                n_iters: int) -> tuple[float, float]:
    """Both sides of the schedule-level inequality behind the a-priori
    iteration estimates:

        lhs = (M/sqrt(2 sigma))^{m+1} * (theta N^{(m+1)/2} + sum_k k^{(m-1)/2})
        rhs = eps * (M/sqrt(2 sigma))^m * sum_k k^{m/2}

    Returns (lhs, rhs) with no claim about which dominates; the estimate is
    meaningful when rhs >= lhs at N.
    """
    if n_iters < 1:
        raise ValueError("N must be at least 1")
    root = math.sqrt(2.0 * sigma)
    ks = np.arange(1, n_iters + 1, dtype=np.float64)
    ratio = lipschitz / root
    lhs = ratio ** (m + 1.0) * (
        theta * float(n_iters) ** ((m + 1.0) / 2.0) + float(np.sum(ks ** ((m - 1.0) / 2.0)))
    )
    rhs = epsilon * ratio**m * float(np.sum(ks ** (m / 2.0)))
    return lhs, rhs
