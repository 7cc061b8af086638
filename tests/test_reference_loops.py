"""The solvers against the plain reference loops of ``oracles``: every
method, objective kind, prox and step rule, bit for bit."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from mdbench.bench import constrained_start, default_start
from mdbench.geometry import L1, Ball, Simplex, Zero, entropy_setup, euclidean_setup, unit_ball
from mdbench.problems import (
    OBJECTIVE_KINDS,
    AffineConstraints,
    DistanceToPoint,
    InstanceSpec,
    build_constraints,
    build_objective,
)
from mdbench.schedules import TABLE_TAGS, ScheduleState, schedule
from mdbench.solvers import (
    _AVERAGE_BLOCK_FLOATS,
    RunConfig,
    _Bracket,
    _descent,
    constrained_md,
    constrained_md_multi,
    mirror_c_descent,
    mirror_descent,
)

from oracles import (
    exact_lower,
    reference_bracket,
    reference_composite_md,
    reference_f_avg,
    reference_mirror_descent,
    reference_scan_md,
    reference_switching_md,
)

METHODS = ("mirror-descent", "composite", "switching", "scan")


def _rule(tag, lipschitz, sigma, f_star=None):
    params = {"time-varying": {"m_lipschitz": lipschitz}, "polyak": {"f_star": f_star}}
    return ScheduleState(schedule(tag, **params.get(tag, {})), sigma)


def _problem(kind, prox_name, n, p, seed):
    spec = InstanceSpec(kind, n=n, t=3, p=p, seed=seed, distribution="standard-normal")
    objective = build_objective(spec)
    if prox_name == "euclidean":
        prox, feasible, theta = euclidean_setup(), unit_ball(n), 2.0
    else:
        prox, feasible = entropy_setup(), Simplex(n)
        theta = math.log(n) if n > 1 else 1.0
    return objective, build_constraints(spec), prox, feasible, theta


def _outcome(run):
    """The run's result, or the kind of error it raised: ValueError where
    the arithmetic has no float64 result, RuntimeError (NoProductiveSteps
    in the library) where no productive step exists."""
    try:
        return run()
    except ValueError:
        return ValueError
    except RuntimeError:
        return RuntimeError


def _runs(method, kind, prox_name, n, p, seed, tags, m, iters, epsilon, lam, criterion):
    """(solver result, reference result) of one drawn case; each side
    builds its own instance and step-rule states."""

    def solve(reference):
        objective, constraints, prox, feasible, theta = _problem(kind, prox_name, n, p, seed)
        # Polyak's f*: ||a|| - 1 for best-approx on the unit ball; elsewhere
        # there is none, and a Polyak f-rule is refused when it is built
        f_star = None
        if kind == "best-approx" and prox_name == "euclidean":
            f_star = math.sqrt(float(np.dot(objective.a, objective.a))) - 1.0
        if method != "scan":  # the scan has its step rule built in
            rule_f = _rule(tags[0], objective.lipschitz_bound, prox.sigma, f_star)
        if method in ("mirror-descent", "composite"):
            x1 = default_start(feasible)
            if method == "mirror-descent":
                if reference:
                    return reference_mirror_descent(
                        objective, prox, feasible, rule_f, m, iters, theta, x1)
                config = RunConfig(m=m, iters=iters, theta=theta)
                return mirror_descent(objective, prox, feasible, rule_f, config, x1)
            h = L1(lam) if lam > 0.0 else Zero()
            if reference:
                return reference_composite_md(
                    objective, h, prox, feasible, rule_f, m, iters, theta, x1)
            config = RunConfig(m=m, iters=iters, theta=theta)
            return mirror_c_descent(objective, h, prox, feasible, rule_f, config, x1)
        x1 = constrained_start(feasible)
        config = RunConfig(m=m, iters=iters, epsilon=epsilon, theta=theta)
        if method == "switching":
            # g-steps give Polyak no f(x^k), so its first one raises whatever f* it has
            rule_g = _rule(tags[1], constraints.lipschitz_bound, prox.sigma, 0.0)
            if reference:
                return reference_switching_md(
                    objective, constraints, prox, feasible, rule_f, rule_g, m, epsilon,
                    iters, theta, x1, use_criterion=criterion)
            return constrained_md(objective, constraints, prox, feasible, rule_f, rule_g,
                                  config, x1, use_criterion=criterion)
        if reference:
            return reference_scan_md(
                objective, constraints, prox, feasible, m, epsilon, iters, theta, x1)
        return constrained_md_multi(objective, constraints, prox, feasible, config, x1)

    return _outcome(lambda: solve(False)), _outcome(lambda: solve(True))


def _column_bytes(column) -> bytes:
    return np.asarray(column, dtype=np.float64).tobytes()


def _assert_same_run(res, ref, method):
    assert res.x_hat.tobytes() == ref["x_hat"].tobytes()
    assert repr(res.f_hat) == repr(ref["f_hat"])
    assert (res.iterations, res.productive_count, res.nonproductive_count,
            res.stop_reason.value) == (
        ref["iterations"], ref["productive"], ref["nonproductive"], ref["stop"])
    for name, column in vars(res.trace).items():
        assert _column_bytes(column) == _column_bytes(ref["trace"][name]), name
    if method in ("switching", "scan"):
        assert res.constraint_evals_total == ref["evals"]


def _assert_scan_certificate(res, ref, m, theta, sigma, m_big):
    """The paper's form of Algorithm 4's rule, summed by the reference,
    against the realized certificate on the solver's own steps: with
    gamma_i = sqrt(2 sigma) / (L_i sqrt(i)) each term of the paper's form
    is a term of sum gamma_i^{-m} and of
    theta / gamma_bar_k^{m+1} + sum_i 1 / (i gamma_i^{m+1}). The two forms
    take different roundings (powers of different bases, another order of
    products), so they agree to 1e-12 relative and not bit for bit."""
    root = math.sqrt(2.0 * sigma)
    lhs = rhs_sum = 0.0
    for k, gamma in enumerate(res.trace.gamma, start=1):
        lhs += gamma ** (-m)
        rhs_sum += 1.0 / (k * gamma ** (m + 1.0))
        rhs = theta / (root / (m_big * math.sqrt(k))) ** (m + 1.0) + rhs_sum
        ref_lhs, ref_rhs = ref["certificate"][k - 1]
        assert ref_lhs == pytest.approx(lhs, rel=1e-12, abs=0.0), k
        assert ref_rhs == pytest.approx(rhs, rel=1e-12, abs=0.0), k


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_solver_matches_its_reference_loop(method, data):
    kind = data.draw(st.sampled_from(OBJECTIVE_KINDS), label="kind")
    prox_name = data.draw(st.sampled_from(("euclidean", "entropy")), label="prox")
    n = data.draw(st.integers(1, 8), label="n")
    p = data.draw(st.integers(1, 6), label="p")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    tags = data.draw(st.tuples(st.sampled_from(TABLE_TAGS), st.sampled_from(TABLE_TAGS)),
                     label="tags")
    # the composite averaging guarantee covers -1 <= m <= 0 only
    m = data.draw(st.floats(-1.0, 0.0 if method == "composite" else 8.0), label="m")
    iters = data.draw(st.integers(1, 200), label="iters")
    epsilon = data.draw(st.floats(0.05, 3.0), label="epsilon")
    # composite l1 steps exist for the Euclidean prox only
    lam = data.draw(st.sampled_from((0.0, 0.05, 0.3) if prox_name == "euclidean" else (0.0,)),
                    label="lam")
    criterion = data.draw(st.booleans(), label="criterion")
    res, ref = _runs(method, kind, prox_name, n, p, seed, tags, m, iters, epsilon, lam,
                     criterion)
    if isinstance(res, type) or isinstance(ref, type):
        event(f"both raise {getattr(res, '__name__', res)}")
        assert res is ref
        return
    event(f"{res.stop_reason.value}, {res.nonproductive_count > 0} non-productive steps")
    _assert_same_run(res, ref, method)
    if method == "scan":
        objective, constraints, prox, _, theta = _problem(kind, prox_name, n, p, seed)
        m_big = max(objective.lipschitz_bound, constraints.lipschitz_bound)
        _assert_scan_certificate(res, ref, m, theta, prox.sigma, m_big)


# composite runs take m <= 0, whose weights gamma^{-m} do not overflow here
@pytest.mark.parametrize("method", ("mirror-descent", "switching", "scan"))
def test_an_overflowing_m_raises_on_both_sides(method):
    res, ref = _runs(method, "max-linear", "euclidean", 4, 3, 5,
                     ("constant-step", "constant-step"), 400.0, 50, 0.5, 0.0, True)
    assert res is ref is ValueError


# binding instances (start infeasible, p = 6 standard-normal constraints) on
# which the stopping rule fires after many non-productive steps, so every
# term of the certificate is exercised whatever examples the property draws
@pytest.mark.parametrize("method, kind, seed, tag, m, epsilon", [
    ("switching", "best-approx", 4, "time-varying", -1.0, 0.2),
    ("switching", "best-approx", 4, "adaptive-time-varying", 3.0, 0.2),
    ("switching", "covering-ball", 2, "adaptive-time-varying", -1.0, 0.2),
    ("scan", "best-approx", 4, None, -1.0, 0.2),
    ("scan", "best-approx", 3, None, 3.0, 1.0),
    ("scan", "covering-ball", 3, None, 2.0, 0.5),
])
def test_the_constrained_solvers_match_their_reference_loops_when_the_rule_fires(
        method, kind, seed, tag, m, epsilon):
    res, ref = _runs(method, kind, "euclidean", 5, 6, seed, (tag, tag), m, 1000, epsilon,
                     0.0, True)
    assert res.stop_reason.value == "EpsilonCriterion"
    assert 0 < res.nonproductive_count < res.iterations
    _assert_same_run(res, ref, method)
    if method == "scan":
        objective, constraints, prox, _, theta = _problem(kind, "euclidean", 5, 6, seed)
        m_big = max(objective.lipschitz_bound, constraints.lipschitz_bound)
        _assert_scan_certificate(res, ref, m, theta, prox.sigma, m_big)


@pytest.mark.parametrize("method", ("switching", "scan"))
def test_a_constrained_run_that_starts_at_its_minimizer_stops_on_both_sides(method):
    # x1 = a is feasible and f = ||x - a|| has a zero subgradient there: the
    # run stops before its first iteration counts, after one full scan
    a = np.array([0.3, 0.4])
    prox, ball = euclidean_setup(), unit_ball(2)
    runs = []
    for reference in (False, True):
        objective = DistanceToPoint(a)
        constraints = AffineConstraints([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.0])
        if method == "scan":
            args = (objective, constraints, prox, ball)
            runs.append(reference_scan_md(*args, 1.0, 0.1, 50, 2.0, a) if reference else
                        constrained_md_multi(*args, RunConfig(m=1.0, epsilon=0.1, iters=50), a))
            continue
        rules = [_rule("polyak", 1.0, prox.sigma, 0.0) for _ in range(2)]
        args = (objective, constraints, prox, ball, *rules)
        runs.append(reference_switching_md(*args, 1.0, 0.1, 50, 2.0, a) if reference else
                    constrained_md(*args, RunConfig(m=1.0, epsilon=0.1, iters=50), a))
    res, ref = runs
    assert res.stop_reason.value == "StationaryPoint"
    assert (res.iterations, res.constraint_evals_total) == (0, 3)
    _assert_same_run(res, ref, method)


# -- certified f* brackets -----------------------------------------------------

# (objective kind, n, t, feasible set, prox, m, epsilon or None, steps);
# epsilon set means Algorithm 3 with the constraints of _bracket_problem
BRACKET_CASES = {
    "fts-ball-m5": ("fts", 6, 4, "ball", "euclidean", 5.0, None, 300),
    "max-linear-ball-m0": ("max-linear", 5, 6, "ball", "euclidean", 0.0, None, 300),
    "covering-offcenter-ball-m2": ("covering-ball", 4, 5, "offcenter", "euclidean", 2.0, None,
                                   200),
    "covering-simplex-m5": ("covering-ball", 5, 4, "simplex", "euclidean", 5.0, None, 200),
    "max-linear-simplex-entropy-m1": ("max-linear", 6, 5, "simplex", "entropy", 1.0, None, 200),
    "switching-ball-m1": ("max-linear", 10, 10, "ball", "euclidean", 1.0, 6e-3, 512),
    "switching-simplex-m1": ("max-linear", 5, 4, "simplex", "euclidean", 1.0, 1e-2, 256),
    "switching-best-approx-ball-m3": ("best-approx", 5, 1, "ball", "euclidean", 3.0, 0.05, 256),
}


def _bracket_problem(kind, n, t, where, prox_name, epsilon, seed):
    objective = build_objective(InstanceSpec(kind, n=n, t=t, seed=seed))
    prox = euclidean_setup() if prox_name == "euclidean" else entropy_setup()
    feasible = {"ball": unit_ball(n), "offcenter": Ball(np.linspace(-0.3, 0.4, n), 1.5),
                "simplex": Simplex(n)}[where]
    constraints = None
    if epsilon is not None:
        if where == "simplex":
            # x_i <= 0.1 for the first two coordinates: the barycenter start
            # of n <= 9 violates them
            constraints = AffineConstraints(np.eye(n)[:2], [0.1, 0.1])
        else:
            constraints = build_constraints(InstanceSpec(
                kind, n=n, t=t, p=5, seed=seed, distribution="standard-normal"))
    x1 = default_start(feasible) if constraints is None else constrained_start(feasible)
    return objective, constraints, prox, feasible, x1


def _bracket_runs(kind, n, t, where, prox_name, m, epsilon, steps, *, ms=None,
                  tag="time-varying", seed=11, k0=8, width=0.0, checks=None):
    """(the library's results, one per m of ``ms``, its bracket, the plain
    loop's {k: bracket}, its cuts, the feasible set); each side builds its
    own instance and step rules. The bracket's exponent is m; the library
    run averages with ``ms`` (default (m,)), which the bracket does not
    read. A zero width is never reached, so the library runs all
    ``steps``."""
    sides = []
    for reference in (False, True):
        objective, constraints, prox, feasible, x1 = _bracket_problem(
            kind, n, t, where, prox_name, epsilon, seed)
        lip_g = constraints.lipschitz_bound if constraints is not None else 1.0
        rule_f, rule_g = (_rule(tag, lip, prox.sigma) for lip in (objective.lipschitz_bound,
                                                                 lip_g))
        if reference:
            sides.extend(reference_bracket(objective, constraints, prox, feasible, rule_f,
                                           rule_g, m, epsilon, steps, x1, checks or {steps}))
            continue
        config = RunConfig(m=m, iters=steps, epsilon=epsilon, record_trace=False)
        bracket = _Bracket(feasible, m, k0, width)
        (results,) = _descent(objective, prox, feasible, (rule_f,), config, x1,
                              (m,) if ms is None else ms, constraints=constraints,
                              state_g=rule_g, bracket=bracket)
        sides.extend((results, bracket))
    return (*sides, feasible)


def _assert_same_bracket(bracket, lower, upper):
    # the upper end is a value the run computed at a point: the same bits
    assert bracket.upper == upper
    # the lower end is the plain loop's less the rounding allowance, and the
    # s-searches of both sides agree to rounding
    scale = 1.0 + abs(lower)
    assert lower - 1e-9 * scale <= bracket.lower <= lower + 1e-12 * scale
    assert bracket.lower <= bracket.upper


@pytest.mark.parametrize("case", BRACKET_CASES)
def test_the_bracket_matches_its_plain_loop(case):
    steps = BRACKET_CASES[case][-1]
    (res,), bracket, brackets, _, _ = _bracket_runs(*BRACKET_CASES[case])
    assert res.iterations == steps and res.stop_reason.value == "MaxIters"
    if BRACKET_CASES[case][6] is not None:
        assert 0 < res.nonproductive_count < steps
    _assert_same_bracket(bracket, *brackets[steps][:2])


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_bracket_matches_its_plain_loop(data):
    kind = data.draw(st.sampled_from(OBJECTIVE_KINDS), label="kind")
    where = data.draw(st.sampled_from(("ball", "offcenter", "simplex")), label="set")
    prox_name = data.draw(st.sampled_from(("euclidean", "entropy") if where == "simplex"
                                          else ("euclidean",)), label="prox")
    n = data.draw(st.integers(2, 7), label="n")
    epsilon = data.draw(st.none() | st.floats(1e-3, 0.5), label="epsilon")
    tag = data.draw(st.sampled_from(("time-varying", "adaptive-time-varying", "constant-step",
                                     "adagrad")), label="tag")
    m = data.draw(st.floats(-1.0, 6.0), label="bracket m")
    # the run's own averages, drawn apart from the bracket's exponent: none
    # or several on unconstrained runs, exactly one on constrained ones
    one = epsilon is not None
    ms = tuple(data.draw(st.lists(st.floats(-1.0, 6.0), min_size=int(one),
                                  max_size=1 if one else 3), label="ms"))
    steps = data.draw(st.integers(1, 150), label="steps")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    try:
        results, bracket, brackets, cuts, feasible = _bracket_runs(
            kind, n, 3, where, prox_name, m, epsilon, steps, ms=ms, tag=tag, seed=seed)
    except (ValueError, RuntimeError):
        event("refused")  # no productive step, or weights beyond the float64 range
        return
    if steps not in brackets:
        event("stationary")  # the plain loop ends at a zero subgradient
        return
    event(f"{any(not c[0] for c in cuts)} non-productive steps, {len(ms)} averages")
    lower, upper, s = brackets[steps]
    _assert_same_bracket(bracket, lower, upper)
    for res in results:
        assert res.iterations == len(cuts) == steps
    if any(c[0] for c in cuts):
        assert Fraction(bracket.lower) <= exact_lower(cuts, feasible, s)


@pytest.mark.parametrize("case", ["fts-ball-m5", "max-linear-ball-m0", "switching-ball-m1",
                                  "switching-simplex-m1"])
def test_the_bracket_stops_at_the_first_checkpoint_within_its_width(case):
    steps = BRACKET_CASES[case][-1]
    checks = [4 * 2**j for j in range(12) if 4 * 2**j < steps] + [steps]
    _, _, brackets, _, _ = _bracket_runs(*BRACKET_CASES[case], checks=set(checks))
    widths = [brackets[k][1] - brackets[k][0] for k in checks]
    width = 1.001 * widths[2]
    expected = next(k for k, w in zip(checks, widths) if w <= width)
    (res,), bracket, _, _, _ = _bracket_runs(*BRACKET_CASES[case], k0=4, width=width)
    assert res.iterations == expected
    assert res.stop_reason.value == "EpsilonCriterion"
    assert bracket.upper - bracket.lower <= width


def _same_result(a, b):
    assert a.x_hat.tobytes() == b.x_hat.tobytes()
    assert repr(a.f_hat) == repr(b.f_hat)
    assert (a.iterations, a.stop_reason) == (b.iterations, b.stop_reason)
    for name, column in vars(a.trace).items():
        assert _column_bytes(column) == _column_bytes(getattr(b.trace, name)), name


@pytest.mark.parametrize("width, stop", [(1e9, "EpsilonCriterion"), (0.0, "MaxIters")])
def test_a_bracket_in_a_batch_is_that_of_its_own_run(width, stop):
    # the bracket rides on row 1 of three; with a wide width it closes at
    # its first checkpoint, k = 4, and only its row leaves the batch
    tags = ("constant-step", "time-varying", "adagrad")
    ms = (0.0, 2.0)

    def solve(rows, bracket_row):
        objective, _, prox, feasible, x1 = _bracket_problem("fts", 6, 4, "ball", "euclidean",
                                                            None, 11)
        states = [_rule(tags[i], objective.lipschitz_bound, prox.sigma) for i in rows]
        bracket = None if bracket_row is None else _Bracket(feasible, 5.0, 4, width,
                                                            bracket_row)
        config = RunConfig(m=0.0, iters=40, record_trace=True)
        batch = _descent(objective, prox, feasible, states, config, x1, ms, bracket=bracket)
        return batch, bracket

    batch, bracket = solve((0, 1, 2), 1)
    assert batch[1][0].stop_reason.value == stop
    assert batch[1][0].iterations == (4 if stop == "EpsilonCriterion" else 40)
    assert bracket.closed_at == (4 if stop == "EpsilonCriterion" else None)
    for i in range(3):
        (own,), own_bracket = solve((i,), 0 if i == 1 else None)
        for a, b in zip(batch[i], own):
            _same_result(a, b)
        if i == 1:
            assert (bracket.lower, bracket.upper, bracket.closed_at) == (
                own_bracket.lower, own_bracket.upper, own_bracket.closed_at)


@pytest.mark.parametrize("case", ["fts-ball-m5", "covering-offcenter-ball-m2",
                                  "covering-simplex-m5", "switching-ball-m1",
                                  "switching-simplex-m1"])
def test_the_rounding_allowance_covers_the_float_error(case):
    # the certificate re-evaluated in exact arithmetic from the same float
    # data lies above the library's lower end; on fts at m = 5 the bracket
    # is about as wide as the rounding of its own sums
    steps = BRACKET_CASES[case][-1]
    _, bracket, brackets, cuts, feasible = _bracket_runs(*BRACKET_CASES[case])
    exact = exact_lower(cuts, feasible, brackets[steps][2])
    assert Fraction(bracket.lower) <= exact <= Fraction(bracket.upper)
    if case == "fts-ball-m5":
        assert bracket.upper - bracket.lower < 1e-9


# ---------------------------------------------------- f at the running averages
#
# A traced run reads f at its running averages a block of iterations at a
# time; ``reference_f_avg`` reads them after every step. Each case puts an
# event that ends a block early (a row that leaves, the end of the run, an
# error) off the block's boundaries.


def _assert_same_f_avg(results, columns):
    assert len(results) == len(columns)
    for res, column in zip(results, columns):
        assert _column_bytes(res.trace.f_avg) == _column_bytes(column)


@pytest.mark.parametrize("ms", [(0.0,), (-1.0, 2.0, 5.0)], ids=["one-m", "three-m"])
@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_f_avg_over_several_blocks_is_the_per_iteration_read(kind, ms):
    n = 2
    iters = 2 * (_AVERAGE_BLOCK_FLOATS // (len(ms) * n)) + 37
    objective, _, prox, feasible, _ = _problem(kind, "euclidean", n, 0, 5)
    x1 = default_start(feasible)
    rule = _rule("time-varying", objective.lipschitz_bound, prox.sigma)
    (results,) = _descent(objective, prox, feasible, (rule,), RunConfig(m=0.0, iters=iters),
                          x1, ms)
    assert results[0].iterations == iters
    rule = _rule("time-varying", objective.lipschitz_bound, prox.sigma)
    _assert_same_f_avg(results, reference_f_avg(objective, prox, feasible, rule, ms, iters, x1))


def test_f_avg_of_a_row_that_stops_mid_block_is_the_per_iteration_read():
    # a inside the ball with f* = 0: Polyak stops at a stationary point
    # inside the first block while the other eight rules run on
    objective, prox, feasible = DistanceToPoint([0.3, 0.4]), euclidean_setup(), unit_ball(2)
    x1, ms, iters = np.zeros(2), (0.0, 2.0), 500
    batch = _descent(objective, prox, feasible,
                     [_rule(tag, 1.0, prox.sigma, 0.0) for tag in TABLE_TAGS],
                     RunConfig(m=0.0, iters=iters), x1, ms)
    stopped = [results[0].iterations for results in batch if results[0].iterations < iters]
    assert stopped and _AVERAGE_BLOCK_FLOATS // (len(TABLE_TAGS) * len(ms) * 2) > max(stopped)
    for tag, results in zip(TABLE_TAGS, batch):
        rule = _rule(tag, 1.0, prox.sigma, 0.0)
        _assert_same_f_avg(results, reference_f_avg(objective, prox, feasible, rule, ms,
                                                    results[0].iterations, x1))


def test_f_avg_of_a_batch_whose_bracket_closes_mid_block_is_the_per_iteration_read():
    # the bracket on row 1 closes at its first checkpoint, k = 4, and its
    # row leaves the batch there; the other two run all 300 steps
    tags, ms = ("constant-step", "time-varying", "adagrad"), (0.0, 2.0)
    objective, _, prox, feasible, x1 = _bracket_problem("fts", 6, 4, "ball", "euclidean",
                                                        None, 11)
    states = [_rule(tag, objective.lipschitz_bound, prox.sigma) for tag in tags]
    batch = _descent(objective, prox, feasible, states, RunConfig(m=0.0, iters=300), x1, ms,
                     bracket=_Bracket(feasible, 5.0, 4, 1e9, 1))
    assert [results[0].iterations for results in batch] == [300, 4, 300]
    for tag, results in zip(tags, batch):
        rule = _rule(tag, objective.lipschitz_bound, prox.sigma)
        _assert_same_f_avg(results, reference_f_avg(objective, prox, feasible, rule, ms,
                                                    results[0].iterations, x1))


def test_composite_f_avg_is_the_per_iteration_read():
    n, m = 2, -0.5
    iters = _AVERAGE_BLOCK_FLOATS // n + 37
    objective, _, prox, feasible, _ = _problem("max-linear", "euclidean", n, 0, 7)
    x1, h = default_start(feasible), L1(0.3)
    res = mirror_c_descent(objective, h, prox, feasible, _rule("nonsum", 1.0, prox.sigma),
                           RunConfig(m=m, iters=iters), x1)
    _assert_same_f_avg([res], reference_f_avg(objective, prox, feasible,
                                              _rule("nonsum", 1.0, prox.sigma), (m,), iters,
                                              x1, h=h))


def test_f_avg_of_a_constrained_run_that_starts_non_productive_is_the_per_iteration_read():
    # g(x) = 0.5 - x_1 <= 0: the start at 0 violates it, so the first
    # steps are not averaged and f_avg reads NaN until the first
    # productive one
    objective, prox, feasible = DistanceToPoint([0.0, 3.0]), euclidean_setup(), unit_ball(2)
    constraints = AffineConstraints([[-1.0, 0.0]], [-0.5])
    x1, eps, iters = np.zeros(2), 0.01, 300

    def rules():
        return (_rule("time-varying", 1.0, prox.sigma), _rule("time-varying", 1.0, prox.sigma))

    rule_f, rule_g = rules()
    res = constrained_md(objective, constraints, prox, feasible, rule_f, rule_g,
                         RunConfig(m=1.0, iters=iters, epsilon=eps), x1, use_criterion=False)
    assert not res.trace.productive[0] and any(res.trace.productive)
    assert math.isnan(res.trace.f_avg[0]) and math.isfinite(res.trace.f_avg[-1])
    rule_f, rule_g = rules()
    _assert_same_f_avg([res], reference_f_avg(objective, prox, feasible, rule_f, (1.0,), iters,
                                              x1, constraints=constraints, rule_g=rule_g,
                                              epsilon=eps))


class _NanAwayFromStart(DistanceToPoint):
    """f reads NaN at any point with x_1 > 0.04 through ``value`` and
    ``values``; the fused oracle the iterates take stays finite."""

    def value(self, x):
        return math.nan if x[0] > 0.04 else super().value(x)

    def values(self, X):
        out = super().values(X)
        out[X[:, 0] > 0.04] = math.nan
        return out


def _failing_at(k_bad, rule):
    """``rule`` with a step of -1 at iteration k_bad."""
    step_size = rule.step_size

    def failing(k, f_val=None, grad_dual_norm=None):
        return -1.0 if k == k_bad else step_size(k, f_val, grad_dual_norm)

    rule.step_size = failing
    return rule


def test_a_nan_average_is_raised_ahead_of_a_later_step_rule_error():
    # x^1 = 0 and x^2 = (0.1, 0): the average at k = 2 reads NaN, and the
    # step rule fails at k = 4, both inside the first block
    prox, feasible, x1 = euclidean_setup(), unit_ball(2), np.zeros(2)
    config = RunConfig(m=0.0, iters=20)

    def rule():
        return _failing_at(4, _rule("nonsum", 1.0, prox.sigma))

    # with finite averages the step rule's error is raised
    with pytest.raises(ValueError, match="gives gamma=-1.0 at iteration 4 "):
        mirror_descent(DistanceToPoint([10.0, 0.0]), prox, feasible, rule(), config, x1)
    objective = _NanAwayFromStart([10.0, 0.0])
    message = "^objective value at the average is nan at iteration 2$"
    with pytest.raises(ValueError, match=message):
        reference_f_avg(objective, prox, feasible, rule(), (0.0,), 20, x1)
    with pytest.raises(ValueError, match=message):
        mirror_descent(objective, prox, feasible, rule(), config, x1)
