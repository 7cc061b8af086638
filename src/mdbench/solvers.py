"""Four mirror-descent solvers sharing one iteration loop with m-weighted
averaging and its stopping criteria.

Every solver returns the weighted average

    x_hat = (sum_k gamma_k^{-m})^{-1} * sum_k gamma_k^{-m} * x^k

over the iterates it is allowed to average: all iterates for the
unconstrained solvers, productive iterates only for the constrained ones.
m = 0 gives the plain running mean, m = -1 weights by gamma_k itself, and
larger m shifts weight toward late iterates when steps shrink.

The step sequence and the iterates do not depend on m, so one trajectory
can feed several averages, and the one loop, ``_descent``, also advances
several trajectories, one per step rule, as one batch. The experiment
plans and the m sweep run all their schedules and m that way, and every
(schedule, m) cell equals its own ``mirror_descent`` run bit for bit.
Each iteration makes one oracle pass for all rows, which yields f(x^k) and
the subgradient of every row at once.
The first error ends the batch where it happens; rows do not interact, so
it is the error the failing schedule's own run raises.
Constrained and criterion-stopped runs take one step rule and one m,
because there m enters the stopping rule, and composite runs take one step
rule; every public solver runs a batch of one. One certificate, built from
the realized steps, gives the bound column and both constrained stopping
rules (see ``constrained_md_multi``).

Solvers run any schedule, including the adaptive ones with no monotonicity
guarantee. The bound evaluators of ``bounds``, by contrast, verify the
non-increasing hypothesis of the averaging theorem and refuse sequences
that break it.
"""
from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, field
from functools import partial
from operator import truediv
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    FeasibleSet,
    ProxSetup,
    Regularizer,
    composite_mirror_step,
    mirror_step,
    mirror_step_rows,
)
from .problems import AffineConstraints, _count_field, _real_field
from .schedules import (
    TAG_ADAPTIVE_TV,
    ScheduleState,
    StationarySignal,
    is_nonincreasing_guaranteed,
    schedule,
)
from .space import as_point, dual_norm_kind, norm, norm_rows

__all__ = [
    "SAFETY_CAP",
    "NoProductiveSteps",
    "StopReason",
    "RunConfig",
    "Trace",
    "SolveResult",
    "mirror_descent",
    "mirror_c_descent",
    "constrained_md",
    "constrained_md_multi",
]

# the most iterations a run may ask for, and the length of a criterion-driven
# run that sets none, so a desk-scale experiment cannot spin forever on an
# unreachable epsilon
SAFETY_CAP = 10_000_000
_AVERAGE_BLOCK_FLOATS = 4096  # the floats of sums a traced run holds before it reads f


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

    theta bounds the Bregman distance from the start to any minimizer.
    Unset, the default, a run takes ``ProxSetup.theta`` of its feasible set
    (2 on the unit Euclidean ball; entropy runs must start at the
    barycenter); a set theta is finite and positive, and a run refuses one
    below that bound. At least one of iters/epsilon must be set, and
    epsilon, when set, is finite and positive; the constrained solvers need
    epsilon and the unconstrained ones need iters. iters is at most
    ``SAFETY_CAP`` (10^7), the length of a run that sets none.
    """

    m: float
    iters: Optional[int] = None
    epsilon: Optional[float] = None
    theta: Optional[float] = None
    record_trace: bool = True

    def __post_init__(self):
        (self.m,) = _check_m_values((self.m,))
        if self.iters is None and self.epsilon is None:
            raise ValueError("set at least one of iters and epsilon")
        if self.iters is not None:
            self.iters = _count_field(self.iters, "iters", 1)
            if self.iters > SAFETY_CAP:
                raise ValueError(f"iters must be at most SAFETY_CAP = {SAFETY_CAP}")
        if self.epsilon is not None:
            self.epsilon = _real_field(self.epsilon, "epsilon")
            if not 0.0 < self.epsilon < math.inf:
                raise ValueError("epsilon must be positive and finite")
        if self.theta is not None:
            self.theta = _real_field(self.theta, "theta")
            if not 0.0 < self.theta < math.inf:
                raise ValueError("theta must be positive and finite")


def _column(typecode: str):
    return field(default_factory=partial(array, typecode))


@dataclass
class Trace:
    """Per-iteration records: entry k - 1 of a column belongs to iteration
    k. Every solver fills gamma, f_iterate and f_avg; the others are filled
    where they apply and left empty elsewhere (bound for certified rules,
    productive and constraint_evals for constrained runs).

    The solvers store each column as a packed ``array.array``: float64
    ``'d'`` for gamma, f_iterate, f_avg and bound, ``'b'`` (0 or 1) for
    productive and int64 ``'q'`` for constraint_evals, so a row costs its
    bytes (24 B unconstrained, 32 B with a bound, 33 B constrained) and no
    Python objects. A Trace built by hand may hold any sequences."""

    gamma: Sequence = _column("d")
    f_iterate: Sequence = _column("d")
    f_avg: Sequence = _column("d")
    productive: Sequence = _column("b")
    bound: Sequence = _column("d")
    constraint_evals: Sequence = _column("q")

    def rows(self) -> int:
        return len(self.gamma)


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


def _check_m_values(m_values) -> tuple:
    """The one check on weighting exponents, shared by RunConfig, the
    m sweep and the experiment plans; returns them as Python floats."""
    m_values = tuple(_real_field(m, "m") for m in m_values)
    for m in m_values:
        if not (math.isfinite(m) and m >= -1.0):
            raise ValueError("every m must be finite and >= -1")
    return m_values


def _finite_f(v, k) -> float:
    """v = f(x^k), refused when it is not finite."""
    if not math.isfinite(v):
        raise ValueError(f"objective value is {v} at iteration {k}")
    return v


def _weights_error(k, m, gamma, what="leave the float64 range at") -> ValueError:
    return ValueError(
        f"weights gamma**(-m) {what} iteration {k} "
        f"with m={m:g} and gamma={gamma:g}; use a smaller m"
    )


def _read_averages(objective, h, live, block, totals):
    """Extend live[j].f_avg by f (plus h) at block[i, j] / totals for each
    iteration i held, ``totals`` (emptied here) in (i, j, m) order: NaN where
    a total is 0; any other non-finite value raises ValueError naming its k.
    The values, as float64 whatever dtype ``values`` gives, enter each
    row's array as one buffer copy."""
    if not totals:
        return
    rows, n_m, n = len(live), block.shape[2], block.shape[3]
    t = np.array(totals)  # per iteration held, row and m
    if 0.0 in totals:
        t[t == 0.0] = math.nan  # 0 / NaN reads NaN, with no division by zero
    totals.clear()
    avgs = (block[:t.size // (rows * n_m), :rows] / t.reshape(-1, rows, n_m, 1)).reshape(-1, n)
    vals = np.asarray(objective.values(avgs), dtype=np.float64)
    if not math.isfinite(vals.sum()):  # a NaN, an inf, or an overflowing sum
        bad = np.flatnonzero(~np.isfinite(vals) & (t > 0.0))
        if bad.size:
            raise ValueError(f"objective value at the average is {vals[bad[0]]} at iteration "
                             f"{len(live[0].f_avg) // n_m + 1 + bad[0] // (rows * n_m)}")
    if h is not None:
        vals += [h.value(a) for a in avgs]  # an empty averager stays NaN
    cols = np.ascontiguousarray(vals.reshape(-1, rows, n_m).swapaxes(0, 1).reshape(rows, -1))
    for run, col in zip(live, cols.view(np.uint8)):  # frombytes reads bytes
        run.f_avg.frombytes(col)


def _finish(weighted_sum, weight_total, x, stop, objective, h, completed, m, gamma):
    """Resolve the output point: the average, or x at a stationary stop
    before the first fold, where x is optimal. Any other empty averager
    held productive steps whose weights underflowed, the last of step gamma."""
    if weight_total > 0.0:
        x_hat = weighted_sum / weight_total
    elif stop is StopReason.STATIONARY_POINT:
        x_hat = np.array(x)
    else:
        raise _weights_error(completed, m, gamma, "underflow to 0 at every productive step up to")
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
    per-m weight totals and certificate sums, its trace, its f* bracket if
    it carries one, and how it ended. While it runs, its iterate and
    weighted sums are one row of the batch arrays; when it leaves, they are
    kept here."""

    __slots__ = (
        "state", "trace", "bound_column", "certify", "want_f", "totals", "lhs", "sq",
        "rhs", "f_avg", "bound", "gamma", "weights", "n_prod", "n_nonprod", "stop", "x",
        "sums", "bracket",
    )

    def __init__(self, state, n_m, record, unconstrained, use_criterion):
        self.state = state
        self.trace = Trace() if record else None
        # a bound column needs a trace, no constraints and a certified step rule
        self.bound_column = record and unconstrained and is_nonincreasing_guaranteed(state.kind)
        self.certify = self.bound_column or use_criterion
        self.want_f = record or state.reads_f  # f(x^k) is read by the trace or the rule
        # per m:
        self.totals = [0.0] * n_m  # sums of the weights gamma^{-m} of productive steps
        self.lhs = [0.0] * n_m  # sums of gamma^{-m} over every step
        self.sq = [0.0] * n_m  # sums of ||grad||_*^2 / gamma^{m-1} over every step
        self.rhs = [0.0] * n_m
        self.f_avg = array("d")  # per iteration, f at the average of each m, in ms order
        self.bound = array("d")  # per iteration, the bound for each m
        # this iteration's step and weights
        self.gamma = math.nan
        self.weights = None  # gamma^{-m} per m on a productive step
        self.n_prod = 0
        self.n_nonprod = 0  # n_prod + n_nonprod iterations completed
        self.stop = None  # a StopReason once it stopped early
        self.x = None  # the last iterate and the weighted sums, kept on leaving
        self.sums = None
        self.bracket = None


class _Bracket:
    """A certified bracket lower <= f* <= upper built from one
    trajectory's own steps: the accuracy certificate of Nemirovski, Onn &
    Rothblum 2010.

    With weights w_k = gamma_k^{-m}, the productive steps I (f_k = f(x_k)
    and a subgradient e_k of f) and the non-productive steps J (g_j, the
    value at x_j of the constraint stepped along, and its subgradient h_j),
    every feasible x and every s >= 0 satisfy

        W_I f(x) >= sum_I w_k (f_k + <e_k, x - x_k>)
                    + s * sum_J w_j (g_j + <h_j, x - x_j>),

    W_I = sum_I w_k: each f-cut lies below f, and each g-cut is <= 0 at a
    feasible x. The lower end is the largest over s of the minimum over Q
    of the right-hand side, divided by W_I; the minimum is the set's
    ``min_linear`` and the s-search is 1-D and concave (unconstrained runs
    have no J and no s). Any s gives a valid bound, so the search decides
    only how tight it is. A rounding allowance of 4 (k + n + 4) 2^-53 times
    the summed magnitudes w (|f_k| + 2 R ||e_k||_*), R the set's
    ``norm_bound``, covers the float error of these sums. The upper end is
    the best f_k over iterates with g(x_k) <= 0 and f at the average
    sum_I w_k x_k / W_I when g there is <= 0. A zero subgradient of f at
    x_k makes f_k a lower end on its own.

    The bracket rides on trajectory ``row`` of a ``_descent`` batch. Its
    exponent m and its weighted sum of iterates are its own, so the m of
    the run's averages do not matter; with the same m its sums are the
    same floats, added in the same order, as the averager's. It is
    evaluated at k = k0 * 2^j, at the run's last iteration and at a
    stationary stop; ``lower`` and ``upper`` hold the last evaluation, and
    ``closed_at`` the k of a check (not a stationary stop) that found it at
    most ``width`` wide, or None; such a check ends the trajectory or
    falls on its last iteration.
    """

    __slots__ = ("feasible", "m", "next_check", "width", "row", "norm_bound", "a", "c",
                 "mag", "w", "xs", "a_j", "c_j", "mag_j", "w_j", "best", "floor", "lower",
                 "upper", "closed_at")

    def __init__(self, feasible, m, k0, width, row=0):
        self.feasible = feasible
        self.m = m
        self.next_check = k0
        self.width = width
        self.row = row
        self.norm_bound = feasible.norm_bound
        n = feasible.n
        # per class of step: sum of w (value - <subgradient, x>), sum of
        # w * subgradient, summed magnitudes and sum of w; and sum of w x
        # over productive steps
        self.a, self.c, self.mag, self.w, self.xs = 0.0, np.zeros(n), 0.0, 0.0, np.zeros(n)
        self.a_j, self.c_j, self.mag_j, self.w_j = 0.0, np.zeros(n), 0.0, 0.0
        self.best = math.inf  # best f_k over iterates with g(x_k) <= 0
        self.floor = -math.inf  # f_k where the subgradient of f is zero
        self.lower, self.upper = -math.inf, math.inf
        self.closed_at = None

    def cut(self, k, prod, gamma, v, e, x, gn, feasible_point):
        """Fold in step k, of length gamma, at x with value v and
        subgradient e of dual norm gn."""
        try:
            w = gamma ** (-self.m)
        except (OverflowError, ZeroDivisionError):
            w = math.inf
        if prod:
            self.w += w
        else:
            self.w_j += w
        # sums reach inf without raising
        if not (self.w < math.inf and self.w_j < math.inf):
            raise _weights_error(k, self.m, gamma)
        a = w * (v - float(e.dot(x)))
        mag = w * (abs(v) + 2.0 * self.norm_bound * gn)
        if prod:
            self.a += a
            self.c += w * e
            self.mag += mag
            self.xs += w * x
            if feasible_point and v < self.best:
                self.best = v
        else:
            self.a_j += a
            self.c_j += w * e
            self.mag_j += mag

    def check(self, k, last, objective, constraints) -> bool:
        """Evaluate the bracket when k is a checkpoint or ``last``; True
        when it was evaluated and is at most ``width`` wide."""
        if k != self.next_check and not last:
            return False
        self.next_check *= 2
        self._evaluate(k, objective, constraints)
        if self.upper - self.lower <= self.width:
            self.closed_at = k
            return True
        return False

    def stationary(self, k, v, feasible_point, objective, constraints):
        """Evaluate the bracket at a stationary stop at k; v is f(x_k) when
        the subgradient of f is zero there, and None otherwise."""
        if v is not None:
            self.floor = _finite_f(v, k)  # x_k minimizes f over the whole space
            if feasible_point:
                self.best = min(self.best, self.floor)
        self._evaluate(k, objective, constraints)

    def _evaluate(self, k, objective, constraints):
        upper = self.best
        if self.w > 0.0:
            x_hat = self.xs / self.w  # the average, were the run to end here
            if constraints is None or constraints.value(x_hat) <= 0.0:
                upper = min(upper, objective.value(x_hat))
        self.lower, self.upper = self._lower(k), upper

    def _lower(self, k) -> float:
        if self.w == 0.0:
            return self.floor
        slack = 4.0 * (k + self.c.size + 4) * 2.0**-53
        min_linear = self.feasible.min_linear

        def bound(s):
            return (self.a + s * self.a_j + min_linear(self.c + s * self.c_j)
                    - slack * (self.mag + s * self.mag_j))

        best = bound(0.0) if self.w_j == 0.0 else _max_concave(bound, self.w / self.w_j)
        if not math.isfinite(best):
            raise ValueError(f"the f* bracket leaves the float64 range at iteration {k}")
        return max(best / self.w, self.floor)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _max_concave(fn, s) -> float:
    """The largest value of a concave fn over s >= 0 that the search finds:
    s doubles while fn grows (at most 64 times), then 80 golden-section
    steps search [0, 2s]."""
    f_s = fn(s)
    for _ in range(64):
        f_2s = fn(2.0 * s)
        if not f_2s > f_s:
            break
        s, f_s = 2.0 * s, f_2s
    a, b = 0.0, 2.0 * s
    s1, s2 = b - _GOLDEN * b, _GOLDEN * b
    f1, f2 = fn(s1), fn(s2)
    best = max(fn(0.0), f_s, f1, f2)
    for _ in range(80):
        if f1 < f2:
            a, s1, f1 = s1, s2, f2
            s2 = a + _GOLDEN * (b - a)
            f2 = fn(s2)
        else:
            b, s2, f2 = s2, s1, f1
            s1 = b - _GOLDEN * (b - a)
            f1 = fn(s1)
        best = max(best, f1, f2)
    return best


def _leave(live, X, G, sums):
    """Take the stopped trajectories out of a batch of several rows, keeping
    their last iterate and weighted sums. Returns the new (live, X, G, sums)."""
    keep = []
    for j, run in enumerate(live):
        if run.stop is None:
            keep.append(j)
        else:
            run.x, run.sums = X[j], sums[j]
    return [live[j] for j in keep], X[keep], G[keep], sums[keep]


def _descent(objective, prox, feasible, states, config, x1, ms, *, h=None,
             constraints=None, scan=False, state_g=None, use_criterion=False,
             bracket=None):
    """The iteration loop behind all four solvers. Runs one trajectory per
    step rule in ``states``, all from x1, as one batch and returns per
    trajectory a tuple of one SolveResult per weighting exponent in ``ms``.

    Each trajectory is one row of the batch arrays. Each iteration makes
    one oracle pass for all rows: more than one live row (an unconstrained
    batch) takes f(x^k) and the subgradients of every row from one
    ``value_and_subgrad_rows`` call. One live row calls ``value_and_subgrad``
    when it reads f(x^k) (trace on, or a rule that reads f) and ``subgrad``
    otherwise; a non-productive step takes the constraint's ``subgrad_one``.
    Per row, the step rule, the weights gamma^{-m}, the certificate sums and
    the finite and overflow checks run in Python; the dual norms, the fold
    of x^k into the weighted sums and the mirror step run once for all
    rows; with one live row the loop calls the 1-D forms ``norm`` and
    ``mirror_step`` (or ``composite_mirror_step``) on that row's own x and
    g. Every row form equals its 1-D form bit for bit. The iterates do not
    depend on m, so each trajectory feeds one averager, one bound
    accumulator and one f_avg column per m, and result [i][j] equals the
    run with ``states = (states[i],)`` and ``ms = (ms[j],)`` bit for bit.
    A traced run copies its sums into a block of ``_AVERAGE_BLOCK_FLOATS``
    and reads f at all averages held with one ``values`` call when it is
    full, before rows leave, at the end and before an error leaves the
    loop; sums too large for 4 iterations a block are read uncopied. Each
    row's f values enter its f_avg array from the ``values`` result's
    buffer. Trace columns are packed arrays (see ``Trace``); with several
    m, every m but the last gets array copies of the shared columns and a
    strided slice of f_avg and bound.

    x^k is productive when there are no constraints, when g(x^k) <= epsilon
    (the max of the constraint values), or, with ``scan``, when
    ``first_violation`` finds no constraint above epsilon: both read one
    ``row_values`` pass, and the scan takes no max. A productive step
    follows a subgradient of f with its step rule and enters the averages;
    any other step follows the violated constraint (the maximizing one
    without ``scan``) with state_g. The certificate sets, per m, eps times
    the sum of gamma_i^{-m} over every step against theta / gamma_k^{m+1}
    + h(x1) / gamma_1^m + the sum of ||grad||_*^2 / (2 sigma gamma_i^{m-1})
    over every step; with ``scan`` the theta term takes the worst-case step
    sqrt(2 sigma) / (M sqrt(k)) (see ``constrained_md_multi``). theta is
    ``config.theta`` when set, else ``prox.theta(feasible)``, read once
    before the first iteration; a set theta below ``prox.theta(feasible)``
    raises ValueError there, as does an unset one on an entropy run whose x1
    is not the barycenter, where ln n does not bound V(x*, x1). The
    certificate feeds the bound column (certified unconstrained runs with a
    trace) and, with use_criterion, the stopping rule; other runs do not
    compute it.

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
    first in ``ms``. Weights that underflow to 0 at every productive step
    raise ValueError at the output, naming m and the last gamma. A
    constrained run whose criterion fires before any productive step raises
    NoProductiveSteps. Any error ends the batch at once. Each iteration
    runs the oracle pass, then the step phase of every row in ``states``
    order, which checks the row's dual norm, then the f(x^k) it reads (a
    value no one reads is not checked), then its step, weights and bracket,
    then the calls all rows share; the first error in that order is raised
    (an average read late names its own k). Rows do not interact, so it is
    the error the failing trajectory's own run raises.

    ``bracket``, a ``_Bracket``, rides on the trajectory
    ``states[bracket.row]`` of a run with no h, no scan and no epsilon
    criterion, and follows it when other rows leave the batch; that
    trajectory reads f(x^k) at every productive step. Every step it takes
    is folded into the bracket, which is evaluated at k = k0 * 2^j, at the
    last iteration and at a stationary stop. When an evaluation before the
    last iteration finds it at most ``width`` wide, the trajectory stops
    with EpsilonCriterion after that iteration's averages; at the last
    iteration it ends with MaxIters either way, and the bracket's
    ``closed_at`` tells whether it closed; the bracket, not the results,
    holds the ends of its last evaluation. ``ms`` may be empty in a bracket
    run: no trajectory is averaged and each returns an empty tuple. Without
    a bracket, each row pays one test per iteration.
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
    if bracket is not None and (h is not None or scan or use_criterion):
        raise ValueError("a bracket run takes no h, no scan and no epsilon criterion")
    n_iter = config.iters or SAFETY_CAP
    eps = config.epsilon
    theta = prox.theta(feasible)
    if config.theta is not None:
        if config.theta < theta:
            raise ValueError(
                f"theta {config.theta!r} is below {theta!r}, the bound on the Bregman "
                f"distance that the {prox.psi_kind} prox states for the feasible set"
            )
        theta = config.theta
    elif prox.psi_kind == "entropy" and not np.array_equal(x, np.full(x.size, 1.0 / x.size)):
        raise ValueError("the entropy prox states theta = ln n from the barycenter only: "
                         "start at (1/n, ..., 1/n), or set config.theta, a bound on V(x*, x1)")
    sigma = prox.sigma
    dual = dual_norm_kind(prox.norm)
    inf = math.inf
    n_m = len(ms)
    record = config.record_trace
    runs = [_Trajectory(state, n_m, record, constraints is None, use_criterion) for state in states]
    if bracket is not None:
        carrier = runs[bracket.row]
        carrier.bracket = bracket
        carrier.want_f = True  # the bracket reads f(x^k)
    live = list(runs)  # row j of the batch arrays belongs to live[j]
    X = np.tile(x, (len(runs), 1))  # the iterates x^k
    sums = np.zeros((len(runs), n_m, x.size))  # weighted sums of productive iterates, per m
    # a (1, n) view of the first row's first average (empty without one):
    # with one average, x^k is folded into it at once
    first_sum = sums[0, :1]
    # x^k's class and constraint evaluations: only constrained (one-row) runs change them
    prod, q, gx, evals, evals_total = True, None, math.nan, 0, 0
    h_term = [0.0] * n_m  # h(x1) / gamma_1^m per m, fixed after a composite run's first step
    # with scan the theta term takes the worst-case step sqrt(2 sigma) / (M sqrt(k))
    m_big = max(objective.lipschitz_bound, constraints.lipschitz_bound) if scan else None
    cap = _AVERAGE_BLOCK_FLOATS // sums.size if record and n_m else 0
    blk = np.empty((cap, *sums.shape)) if cap >= 4 else None  # the sums of cap iterations
    ts = []  # the weight totals of the iterations held

    try:
        for k in range(1, n_iter + 1):
            # one row takes the 1-D oracle, norm and step, which make fewer numpy
            # calls; one average also folds x^k at once, more fold in one call below
            one_row = len(live) == 1
            one_average = one_row and n_m == 1
            if one_row:
                run, x = live[0], X[0]
                if constraints is not None:
                    if scan:
                        # g(x) is not read: a scan run carries no bracket
                        q, evals = constraints.first_violation(x, eps)
                        prod = q is None
                    else:
                        v = constraints.row_values(x)
                        q = int(v.argmax())
                        gx = float(v[q])
                        evals = constraints.p
                        prod = gx <= eps
                    evals_total += evals
                fx = None
                if not prod:
                    g = constraints.subgrad_one(q, x)
                elif run.want_f:
                    fx, g = objective.value_and_subgrad(x)
                else:
                    g = objective.subgrad(x)
                rows = ((run, x, g, norm(g, dual), fx),)
            else:
                # more rows are an unconstrained batch: one oracle pass for all
                F, G = objective.value_and_subgrad_rows(X)
                rows = zip(live, X, G, norm_rows(G, dual), F.tolist())
            leaving = False
            closing = None  # the trajectory whose bracket closes at this k
            for run, x, g, gn, fx in rows:
                if not math.isfinite(gn):
                    raise ValueError(f"subgradient dual norm is {gn} at iteration {k}")
                cert = run.bracket
                if gn == 0.0:
                    if not prod:
                        which = f"constraint {q}" if scan else "the constraint maximum"
                        raise NoProductiveSteps(
                            f"{which} has a zero subgradient while above epsilon: "
                            "the epsilon-feasible region is empty"
                        )
                    run.stop = StopReason.STATIONARY_POINT
                    leaving = True
                    if cert is not None:
                        cert.stationary(k, fx, constraints is None or gx <= 0.0, objective,
                                        constraints)
                    continue
                # a value that no one reads is not checked
                fx = _finite_f(fx, k) if prod and run.want_f else None
                rule = run.state if prod else state_g
                try:
                    gamma = rule.step_size(k, fx, gn)
                except StationarySignal:
                    run.stop = StopReason.STATIONARY_POINT
                    leaving = True
                    if cert is not None:
                        cert.stationary(k, None, False, objective, constraints)
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
                certify = run.certify
                if certify:
                    theta_step = math.sqrt(2.0 * sigma) / (m_big * math.sqrt(k)) if scan else gamma
                totals, lhs, sq, rhs = run.totals, run.lhs, run.sq, run.rhs
                weights = []
                try:
                    for i, m in enumerate(ms):
                        if prod or certify:
                            w = gamma ** (-m)
                        if prod:
                            if k == 1 and h is not None:
                                h_term[i] = hv / gamma**m
                            if one_average:
                                first_sum += w * x
                            else:
                                weights.append(w)
                            totals[i] += w
                        if certify:
                            lhs[i] += w
                            sq[i] += gn * gn / gamma ** (m - 1.0)
                            rhs[i] = (
                                theta / theta_step ** (m + 1.0) + h_term[i] + sq[i] / (2.0 * sigma)
                            )
                        # sums and quotients reach inf without raising
                        if not (totals[i] < inf and lhs[i] < inf and rhs[i] < inf):
                            raise OverflowError
                except (OverflowError, ZeroDivisionError) as exc:
                    raise _weights_error(k, m, gamma) from exc
                if cert is not None:
                    cert.cut(k, prod, gamma, fx if prod else gx, g, x, gn,
                             constraints is None or gx <= 0.0)
                    if cert.check(k, k == n_iter, objective, constraints) and k < n_iter:
                        closing = run
                run.gamma = gamma
                run.weights = weights
                if prod:
                    run.n_prod += 1
                else:
                    run.n_nonprod += 1
                trace = run.trace
                if trace is not None:
                    trace.gamma.append(gamma)
                    f_k = fx if prod else _finite_f(objective.value(x), k)
                    trace.f_iterate.append(f_k if h is None else f_k + hv)
                    if constraints is not None:
                        trace.productive.append(prod)
                        trace.constraint_evals.append(evals)
                    if run.bound_column:
                        run.bound.extend(map(truediv, rhs, lhs))
            if leaving:
                if one_row:
                    break  # the one row stopped
                _read_averages(objective, h, live, blk, ts)
                live, X, G, sums = _leave(live, X, G, sums)
                if not live:
                    break
                first_sum = sums[0, :1]
            if n_m and not one_average:
                # several averages mean an unconstrained run: every step is productive
                weights_all = [w for run in live for w in run.weights]
                sums += np.array(weights_all).reshape(len(live), n_m, 1) * X[:, None]
            if record:
                for run in live:
                    ts += run.totals
                if blk is None:
                    _read_averages(objective, h, live, sums[None], ts)
                else:
                    held = len(ts) // (len(live) * n_m)
                    blk[held - 1, :len(live)] = sums
                    if held == cap:
                        _read_averages(objective, h, live, blk, ts)
            if closing is not None:
                closing.stop = StopReason.EPSILON_CRITERION
                if one_row:
                    break
                _read_averages(objective, h, live, blk, ts)
                live, X, G, sums = _leave(live, X, G, sums)
                if not live:
                    break
                first_sum = sums[0, :1]
            if use_criterion and eps * live[0].lhs[0] >= live[0].rhs[0]:
                live[0].stop = StopReason.EPSILON_CRITERION
                break
            if not one_row:
                X = mirror_step_rows(prox, feasible, X, G, [run.gamma for run in live])
            elif h is None:  # x and g are still the one row's
                X = mirror_step(prox, feasible, x, g, live[0].gamma)[None]
            else:
                X = composite_mirror_step(prox, feasible, x, g, live[0].gamma, h)[None]
    finally:  # the rest; under an error, an earlier bad average is raised instead
        _read_averages(objective, h, live, blk, ts)
    for j, run in enumerate(live):
        run.x, run.sums = X[j], sums[j]

    batch = []
    for run in runs:
        stop = run.stop or StopReason.MAX_ITERS
        completed = run.n_prod + run.n_nonprod
        if constraints is not None and run.n_prod == 0:
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
            x_hat, f_hat = _finish(run.sums[i], run.totals[i], run.x, stop, objective, h,
                                   completed, ms[i], run.gamma)
            if run.trace is None:
                trace_i = None
            else:
                # the last m takes the shared columns, the others get copies
                last = i == n_m - 1
                cols = {name: col if last else col[:] for name, col in vars(run.trace).items()}
                cols.update(
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
                    constraint_evals_total=None if constraints is None else evals_total,
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
    This is ``constrained_md``'s rule with the worst-case step in the theta
    term: at the built-in steps (L_i sqrt(i)/sqrt(2 sigma))^m = gamma_i^{-m},
    sqrt(i)^{m-1} L_i^{m+1} / sqrt(2 sigma)^{m+1} = L_i^2 / (2 sigma gamma_i^{m-1})
    and (M sqrt(k)/sqrt(2 sigma))^{m+1} = 1 / gamma_bar_k^{m+1}, gamma_bar_k =
    sqrt(2 sigma) / (M sqrt(k)). The run evaluates the right-hand forms, which
    round differently from the left-hand ones by about 1e-12 relative.
    """
    state = ScheduleState(schedule(TAG_ADAPTIVE_TV), prox.sigma)
    return _descent(
        objective, prox, feasible, (state,), config, x1, (config.m,),
        constraints=constraints, scan=True, state_g=state, use_criterion=True,
    )[0][0]
