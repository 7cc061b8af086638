"""Solvers: weighted averaging, descent loops, switching runs, bounds."""
from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from mdbench.bench import default_start
from mdbench.geometry import L1, Ball, Simplex, Zero, entropy_setup, euclidean_setup, unit_ball
from mdbench.problems import (
    OBJECTIVE_KINDS,
    AffineConstraints,
    DistanceToPoint,
    InstanceSpec,
    MaxAffine,
    build_constraints,
    build_objective,
)
from mdbench.schedules import TABLE_TAGS, ScheduleState, is_nonincreasing_guaranteed, schedule
from mdbench.solvers import (
    NoProductiveSteps,
    _descent,
    RunConfig,
    SolveResult,
    StopReason,
    bound_composite,
    bound_corollaries,
    bound_main,
    constrained_bound_diagnostic,
    constrained_md,
    constrained_md_multi,
    iteration_estimate,
    mirror_c_descent,
    mirror_descent,
    mirror_descent_sweep,
    productive_inequality_sides,
)

from oracles import SequentialConstraints, WeightedAverager, weighted_average


def _state(tag: str, sigma: float = 1.0, **params) -> ScheduleState:
    return ScheduleState(schedule(tag, **params), sigma)


# ---------------------------------------------------------------- averaging


def test_averager_mean_example():
    avg = WeightedAverager(2, m=0.0)
    avg.update(np.array([0.0, 0.0]), 1.0)
    avg.update(np.array([2.0, 0.0]), 0.3)
    assert np.array_equal(avg.average, np.array([1.0, 0.0]))


def test_averager_m_minus_one_example():
    # weights gamma^{+1}: 1 and 1/sqrt(2)
    avg = WeightedAverager(2, m=-1.0)
    avg.update(np.array([0.0, 0.0]), 1.0)
    avg.update(np.array([1.0, 0.0]), 1.0 / math.sqrt(2.0))
    assert avg.average[0] == 0.41421356237309503
    assert avg.average[1] == 0.0


def test_averager_m5_example():
    # gamma_k = 1/sqrt(k) gives weights 1 and 2^{2.5} = 5.656854...
    avg = WeightedAverager(2, m=5.0)
    avg.update(np.array([1.0, 0.0]), 1.0)
    avg.update(np.array([0.0, 0.0]), 1.0 / math.sqrt(2.0))
    assert avg.average[0] == pytest.approx(0.1502211048223348, abs=1e-16)


def test_averager_matches_direct_oracle():
    rng = np.random.default_rng(50)
    for m in (-1.0, -0.5, 0.0, 1.0, 2.0, 5.0):
        pts = rng.normal(size=(12, 3))
        gammas = 1.0 / np.sqrt(np.arange(1, 13, dtype=np.float64))
        avg = WeightedAverager(3, m)
        for x, g in zip(pts, gammas):
            avg.update(x, float(g))
        want = weighted_average(list(pts), list(gammas), m)
        np.testing.assert_allclose(avg.average, want, rtol=0.0, atol=1e-15)


def test_averager_m0_is_running_mean():
    rng = np.random.default_rng(51)
    pts = rng.normal(size=(30, 4))
    avg = WeightedAverager(4, 0.0)
    for i, x in enumerate(pts):
        avg.update(x, float(rng.random()) + 0.1)  # gamma irrelevant at m=0
        np.testing.assert_allclose(
            avg.average, pts[: i + 1].mean(axis=0), rtol=0.0, atol=1e-12
        )


def test_averager_larger_m_leans_on_later_points():
    # increasing scalar points, decreasing steps: the weighted mean must
    # grow with m because larger m shifts weight toward late iterates
    means = []
    for m in (0.0, 1.0, 3.0, 5.0):
        avg = WeightedAverager(1, m)
        for k in range(1, 21):
            avg.update(np.array([float(k)]), 1.0 / math.sqrt(k))
        means.append(avg.average[0])
    assert means == sorted(means)
    assert means[0] < means[-1]


def test_averager_errors():
    avg = WeightedAverager(2, 0.0)
    with pytest.raises(RuntimeError, match="before any update"):
        avg.average
    with pytest.raises(ValueError, match="gamma > 0"):
        avg.update(np.zeros(2), 0.0)


# ---------------------------------------------------------------- run config


def test_run_config_validation():
    with pytest.raises(ValueError, match="must be finite and >= -1"):
        RunConfig(m=-1.5, iters=10)
    with pytest.raises(ValueError, match="must be finite and >= -1"):
        RunConfig(m=math.nan, iters=10)
    with pytest.raises(ValueError, match="at least one of iters and epsilon"):
        RunConfig(m=0.0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        RunConfig(m=0.0, epsilon=0.0)
    with pytest.raises(ValueError, match="theta must be positive"):
        RunConfig(m=0.0, iters=5, theta=0.0)
    with pytest.raises(ValueError, match="iters must be at least 1"):
        RunConfig(m=0.0, iters=0)


# ---------------------------------------------------------------- mirror descent


def test_single_step_hand_executed():
    # f(x) = ||x - (10,0)||, unit ball, x1 = 0: gamma_1 = sqrt(2), the
    # average after one step is x1 itself, so f_hat = 10
    obj = DistanceToPoint([10.0, 0.0], known_fstar=9.0)
    res = mirror_descent(
        obj,
        euclidean_setup(),
        unit_ball(2),
        _state("time-varying", m_lipschitz=obj.lipschitz_bound),
        RunConfig(m=0.0, iters=1),
        np.zeros(2),
    )
    assert res.iterations == 1
    assert res.stop_reason is StopReason.MAX_ITERS
    assert np.array_equal(res.x_hat, np.zeros(2))
    assert res.f_hat == 10.0
    assert res.trace.gamma == [math.sqrt(2.0)]


def test_second_iterate_lands_on_boundary():
    # continuing the hand-executed run: x2 = project((sqrt 2, 0)) = (1, 0)
    obj = DistanceToPoint([10.0, 0.0], known_fstar=9.0)
    res = mirror_descent(
        obj,
        euclidean_setup(),
        unit_ball(2),
        _state("time-varying", m_lipschitz=1.0),
        RunConfig(m=0.0, iters=2),
        np.zeros(2),
    )
    assert res.trace.f_iterate == [10.0, 9.0]


def test_stationary_exit_at_optimum():
    obj = DistanceToPoint([0.3, 0.0])
    res = mirror_descent(
        obj,
        euclidean_setup(),
        unit_ball(2),
        _state("nonsum"),
        RunConfig(m=0.0, iters=50),
        np.array([0.3, 0.0]),
    )
    assert res.stop_reason is StopReason.STATIONARY_POINT
    assert res.iterations == 0
    assert np.array_equal(res.x_hat, np.array([0.3, 0.0]))
    assert res.f_hat == 0.0


def test_infeasible_start_rejected():
    obj = DistanceToPoint([10.0, 0.0])
    with pytest.raises(ValueError, match="not in the feasible set"):
        mirror_descent(
            obj,
            euclidean_setup(),
            unit_ball(2),
            _state("nonsum"),
            RunConfig(m=0.0, iters=5),
            np.array([3.0, 0.0]),
        )


def test_unconstrained_solver_needs_iters():
    obj = DistanceToPoint([10.0, 0.0])
    with pytest.raises(ValueError, match="need config.iters"):
        mirror_descent(
            obj,
            euclidean_setup(),
            unit_ball(2),
            _state("nonsum"),
            RunConfig(m=0.0, epsilon=0.5),
            np.zeros(2),
        )


def test_trace_columns_and_final_average():
    obj = build_objective(InstanceSpec("best-approx", n=5, seed=7))
    res = mirror_descent(
        obj,
        euclidean_setup(),
        unit_ball(5),
        _state("nonsum"),
        RunConfig(m=1.0, iters=80),
        np.zeros(5),
    )
    tr = res.trace
    assert tr.k == list(range(1, 81))
    assert all(g > 0.0 for g in tr.gamma)
    assert tr.gamma == sorted(tr.gamma, reverse=True)
    # the last recorded average is the returned point
    assert tr.f_avg[-1] == res.f_hat
    assert res.productive_count == 80 and res.nonproductive_count == 0
    # nonsum is a certified non-increasing rule, so the bound column fills
    assert len(tr.bound) == 80


def test_bound_column_matches_public_bound_formula():
    # f = x_1 has subgradient (1,0,...) with dual norm exactly 1 everywhere,
    # so the recorded bound must equal bound_main on (gammas, ones)
    obj = MaxAffine([[1.0] + [0.0] * 4], [0.0])
    theta = 2.0
    for m in (-1.0, 0.0, 2.0):
        res = mirror_descent(
            obj,
            euclidean_setup(),
            unit_ball(5),
            _state("time-varying", m_lipschitz=1.0),
            RunConfig(m=m, iters=120, theta=theta),
            np.zeros(5),
        )
        tr = res.trace
        assert len(tr.bound) == 120
        for upto in (1, 7, 120):
            want = bound_main(m, tr.gamma[:upto], [1.0] * upto, theta, 1.0)
            assert tr.bound[upto - 1] == pytest.approx(want, rel=1e-12)
        # the averaged gap obeys the recorded bound pointwise (f* = -1)
        for fa, b in zip(tr.f_avg, tr.bound):
            assert fa - (-1.0) <= b + 1e-9


def test_uncertified_schedule_records_no_bound():
    obj = DistanceToPoint([10.0, 0.0])
    res = mirror_descent(
        obj,
        euclidean_setup(),
        unit_ball(2),
        _state("adaptive-time-varying"),
        RunConfig(m=0.0, iters=30),
        np.zeros(2),
    )
    assert res.trace.bound == []
    assert len(res.trace.gamma) == 30


def test_solver_determinism():
    obj = build_objective(InstanceSpec("best-approx", n=8, seed=3))
    runs = []
    for _ in range(2):
        runs.append(
            mirror_descent(
                obj,
                euclidean_setup(),
                unit_ball(8),
                _state("adaptive-time-varying"),
                RunConfig(m=2.0, iters=200),
                np.zeros(8),
            )
        )
    a, b = runs
    assert a.x_hat.tobytes() == b.x_hat.tobytes()
    assert a.f_hat == b.f_hat
    assert a.trace.gamma == b.trace.gamma
    assert a.trace.f_avg == b.trace.f_avg


class _CountingDistance(DistanceToPoint):
    """DistanceToPoint that counts its oracle calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.value_calls = 0
        self.subgrad_calls = 0

    def value(self, x):
        self.value_calls += 1
        return super().value(x)

    def subgrad(self, x):
        self.subgrad_calls += 1
        return super().subgrad(x)


def test_objective_value_computed_only_when_read():
    # trace off and a rule that ignores f: the only value call is f_hat
    obj = _CountingDistance([10.0, 0.0])
    res = mirror_descent(
        obj,
        euclidean_setup(),
        unit_ball(2),
        _state("time-varying", m_lipschitz=1.0),
        RunConfig(m=0.0, iters=100, record_trace=False),
        np.zeros(2),
    )
    assert res.iterations == 100
    assert obj.subgrad_calls == 100
    assert obj.value_calls == 1


def test_polyak_receives_the_objective_value_on_every_step():
    obj = _CountingDistance([2.0, 1.0], known_fstar=math.sqrt(5.0) - 1.0)
    state = _state("polyak")
    seen = []
    step_size = state.step_size

    def recording_step_size(k, f_val=None, grad_dual_norm=None, f_star=None):
        seen.append(f_val)
        return step_size(k, f_val=f_val, grad_dual_norm=grad_dual_norm, f_star=f_star)

    state.step_size = recording_step_size
    res = mirror_descent(
        obj,
        euclidean_setup(),
        unit_ball(2),
        state,
        RunConfig(m=0.0, iters=20, record_trace=False),
        np.array([0.0, -0.5]),
    )
    assert res.iterations >= 2
    assert len(seen) >= res.iterations
    assert all(isinstance(f, float) for f in seen)
    # one value per step rule call, plus the final f_hat
    assert obj.value_calls == len(seen) + 1


class _NanAfter(DistanceToPoint):
    """DistanceToPoint whose subgradient turns NaN from call ``bad`` on."""

    def __init__(self, a, bad: int):
        super().__init__(a)
        self.bad = bad
        self.calls = 0

    def subgrad(self, x):
        self.calls += 1
        g = super().subgrad(x)
        return np.full_like(g, math.nan) if self.calls >= self.bad else g


@pytest.mark.parametrize("solver", ["mirror_descent", "constrained_md"])
def test_non_finite_subgradient_raises(solver):
    obj = _NanAfter([10.0, 0.0], bad=3)
    state = _state("time-varying", m_lipschitz=1.0)
    with pytest.raises(ValueError, match="at iteration 3"):
        if solver == "mirror_descent":
            mirror_descent(
                obj, euclidean_setup(), unit_ball(2), state,
                RunConfig(m=0.0, iters=50), np.zeros(2),
            )
        else:
            constrained_md(
                obj, _always_satisfied(2), euclidean_setup(), unit_ball(2),
                state, _state("nonsum"), RunConfig(m=0.0, iters=50, epsilon=0.5),
                np.zeros(2), use_criterion=False,
            )


def _step_error(tag: str, gamma: str, gn: float) -> str:
    return re.escape(
        f"step rule '{tag}' gives gamma={gamma} at iteration 1 with subgradient "
        f"dual norm {gn!r}; steps must be finite and positive"
    )


@pytest.mark.parametrize("tag", ["quad-grad", "polyak"])
def test_step_rule_division_by_zero_is_a_named_error(tag):
    # the squared L-infinity dual norm 1e-200**2 underflows to 0
    obj = MaxAffine([[1e-200, 0.0]], [0.0])
    obj.known_fstar = 0.0
    with pytest.raises(ValueError, match=_step_error(tag, "nan", 1e-200)):
        mirror_descent(
            obj, entropy_setup(), Simplex(2), _state(tag),
            RunConfig(m=0.0, iters=5), np.array([0.5, 0.5]),
        )


@pytest.mark.parametrize("productive", [True, False])
def test_infinite_step_is_a_named_error(productive):
    # 0.2 / gn**2 overflows to inf once gn**2 is subnormal; on a
    # non-productive step the constraint row is the tiny one
    tiny = [[1e-160, 0.0]]
    gn = float(np.linalg.norm(tiny))
    match = _step_error("quad-grad", "inf", gn)
    x1 = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match=match):
        if productive:
            mirror_descent(
                MaxAffine(tiny, [0.0]), euclidean_setup(), unit_ball(2),
                _state("quad-grad"), RunConfig(m=0.0, iters=5), x1,
            )
        else:
            constrained_md(
                DistanceToPoint([10.0, 0.0]), AffineConstraints(tiny, [-1.0]),
                euclidean_setup(), unit_ball(2), _state("nonsum"), _state("quad-grad"),
                RunConfig(m=0.0, iters=5, epsilon=0.5), x1,
            )


# ---------------------------------------------------------------- composite


def test_composite_m_range_enforced():
    obj = DistanceToPoint([10.0, 0.0])
    for bad in (0.5, 1.0, 5.0):
        with pytest.raises(ValueError, match="covers only -1 <= m <= 0"):
            mirror_c_descent(
                obj,
                Zero(),
                euclidean_setup(),
                unit_ball(2),
                _state("nonsum"),
                RunConfig(m=bad, iters=5),
                np.zeros(2),
            )


def test_composite_zero_regularizer_reduces_bitwise():
    obj = build_objective(InstanceSpec("best-approx", n=6, seed=9))
    cfg = RunConfig(m=0.0, iters=150)
    plain = mirror_descent(
        obj, euclidean_setup(), unit_ball(6),
        _state("time-varying", m_lipschitz=1.0), cfg, np.zeros(6),
    )
    comp = mirror_c_descent(
        obj, Zero(), euclidean_setup(), unit_ball(6),
        _state("time-varying", m_lipschitz=1.0), cfg, np.zeros(6),
    )
    assert comp.x_hat.tobytes() == plain.x_hat.tobytes()
    assert comp.f_hat == plain.f_hat
    assert comp.trace.gamma == plain.trace.gamma
    assert comp.trace.f_iterate == plain.trace.f_iterate
    assert comp.trace.f_avg == plain.trace.f_avg
    assert comp.trace.bound == plain.trace.bound


def test_composite_reports_f_plus_h():
    # one step from x1 = (4, 0): the average is x1, so the reported value
    # is f(x1) + lam * |x1|_1
    obj = MaxAffine([[1.0, 0.0]], [0.0])
    lam = 0.25
    res = mirror_c_descent(
        obj,
        L1(lam),
        euclidean_setup(),
        Ball(np.zeros(2), 10.0),
        _state("time-varying", m_lipschitz=1.0),
        RunConfig(m=0.0, iters=1),
        np.array([4.0, 0.0]),
    )
    assert res.f_hat == pytest.approx(4.0 + lam * 4.0, abs=1e-15)


# ---------------------------------------------------------------- constrained


def _always_satisfied(n: int) -> AffineConstraints:
    alphas = np.zeros((1, n))
    alphas[0, 0] = 1.0
    return AffineConstraints(alphas, np.array([10.0]))


def test_constrained_needs_epsilon():
    obj = DistanceToPoint([10.0, 0.0])
    with pytest.raises(ValueError, match="need config.epsilon"):
        constrained_md(
            obj,
            _always_satisfied(2),
            euclidean_setup(),
            unit_ball(2),
            _state("nonsum"),
            _state("nonsum"),
            RunConfig(m=0.0, iters=10),
            np.zeros(2),
        )


def test_all_feasible_matches_plain_descent():
    # g <= -9 on the unit ball, so every step is productive and the run is
    # plain mirror descent under the f schedule
    obj = build_objective(InstanceSpec("best-approx", n=4, seed=5))
    cfg = RunConfig(m=0.0, iters=60, epsilon=0.5)
    plain = mirror_descent(
        obj, euclidean_setup(), unit_ball(4),
        _state("time-varying", m_lipschitz=1.0), cfg, np.zeros(4),
    )
    switched = constrained_md(
        obj, _always_satisfied(4), euclidean_setup(), unit_ball(4),
        _state("time-varying", m_lipschitz=1.0), _state("nonsum"), cfg,
        np.zeros(4), use_criterion=False,
    )
    assert switched.x_hat.tobytes() == plain.x_hat.tobytes()
    assert switched.f_hat == plain.f_hat
    assert switched.trace.gamma == plain.trace.gamma
    assert switched.productive_count == 60
    assert switched.nonproductive_count == 0
    assert all(switched.trace.productive)
    assert switched.constraint_evals_total == 60  # p = 1


def test_no_productive_steps_raised():
    # g(x) = x_1 + 2 >= 1 on the unit ball, never below epsilon
    obj = DistanceToPoint([10.0, 0.0])
    cons = AffineConstraints(np.array([[1.0, 0.0]]), np.array([-2.0]))
    with pytest.raises(NoProductiveSteps, match="no iterate satisfied"):
        constrained_md(
            obj,
            cons,
            euclidean_setup(),
            unit_ball(2),
            _state("nonsum"),
            _state("nonsum"),
            RunConfig(m=0.0, iters=50, epsilon=0.5),
            np.zeros(2),
        )


def test_no_productive_steps_is_a_runtime_error():
    assert issubclass(NoProductiveSteps, RuntimeError)


def _switching_setup(p: int = 5):
    spec = InstanceSpec(
        "max-linear", n=10, t=10, p=p, seed=11, distribution="standard-normal"
    )
    return build_objective(spec), build_constraints(spec)


def test_switching_bookkeeping_fixed_budget():
    obj, cons = _switching_setup()
    res = constrained_md(
        obj, cons, euclidean_setup(), Ball(np.zeros(10), 10.0),
        _state("adaptive-time-varying"), _state("adaptive-time-varying"),
        RunConfig(m=1.0, iters=300, epsilon=1e-2),
        np.zeros(10), use_criterion=False,
    )
    assert res.iterations == 300
    assert res.productive_count + res.nonproductive_count == 300
    assert res.productive_count > 0 and res.nonproductive_count > 0
    tr = res.trace
    assert tr.k == list(range(1, 301))
    assert tr.constraint_evals == [5] * 300
    assert res.constraint_evals_total == 1500
    # averaged objective appears once the first productive step lands
    first = tr.productive.index(True)
    assert all(math.isnan(v) for v in tr.f_avg[:first])
    assert all(math.isfinite(v) for v in tr.f_avg[first:])
    # every recorded g value is the true aggregate at that iterate
    assert all(
        (g <= 1e-2) == p for g, p in zip(tr.g_iterate, tr.productive)
    )


def test_stopping_criterion_fires_on_easy_instance():
    # f = x_1 with always-satisfied constraints: the criterion closes fast
    obj = MaxAffine([[1.0, 0.0, 0.0]], [0.0])
    res = constrained_md(
        obj, _always_satisfied(3), euclidean_setup(), unit_ball(3),
        _state("time-varying", m_lipschitz=1.0), _state("nonsum"),
        RunConfig(m=0.0, iters=10_000, epsilon=1.0),
        np.zeros(3),
    )
    assert res.stop_reason is StopReason.EPSILON_CRITERION
    assert res.iterations < 20
    # the guarantee at stop: gap below epsilon against f* = -1
    assert res.f_hat - (-1.0) <= 1.0 + 1e-12


def test_use_criterion_false_runs_the_full_budget():
    obj = MaxAffine([[1.0, 0.0, 0.0]], [0.0])
    res = constrained_md(
        obj, _always_satisfied(3), euclidean_setup(), unit_ball(3),
        _state("time-varying", m_lipschitz=1.0), _state("nonsum"),
        RunConfig(m=0.0, iters=30, epsilon=1.0),
        np.zeros(3), use_criterion=False,
    )
    assert res.stop_reason is StopReason.MAX_ITERS
    assert res.iterations == 30


def test_stationary_stop_counts_its_constraint_scan():
    # x1 = 0 minimizes ||x||, so both solvers stop at k = 1 after one scan
    # of the single constraint
    obj = DistanceToPoint([0.0, 0.0])
    cons = _always_satisfied(2)
    cfg = RunConfig(m=0.0, iters=10, epsilon=0.5)
    alg3 = constrained_md(
        obj, cons, euclidean_setup(), unit_ball(2),
        _state("nonsum"), _state("nonsum"), cfg, np.zeros(2),
    )
    alg4 = constrained_md_multi(obj, cons, euclidean_setup(), unit_ball(2), cfg, np.zeros(2))
    for res in (alg3, alg4):
        assert res.stop_reason is StopReason.STATIONARY_POINT
        assert res.iterations == 0
        assert res.constraint_evals_total == 1


# ---------------------------------------------------------------- multi scan


def test_multi_with_one_constraint_matches_adaptive_alg3():
    obj, cons = _switching_setup(p=1)
    ball = Ball(np.zeros(10), 10.0)
    cfg = RunConfig(m=1.0, iters=40, epsilon=1e-2)
    ref = constrained_md(
        obj, cons, euclidean_setup(), ball,
        _state("adaptive-time-varying"), _state("adaptive-time-varying"),
        cfg, np.zeros(10), use_criterion=False,
    )
    multi = constrained_md_multi(
        obj, cons, euclidean_setup(), ball, cfg, np.zeros(10)
    )
    assert multi.iterations == ref.iterations == 40
    assert multi.x_hat.tobytes() == ref.x_hat.tobytes()
    assert multi.f_hat == ref.f_hat
    assert multi.trace.gamma == ref.trace.gamma
    assert multi.trace.productive == ref.trace.productive
    assert multi.trace.f_iterate == ref.trace.f_iterate
    np.testing.assert_array_equal(multi.trace.f_avg, ref.trace.f_avg)


def test_multi_saves_constraint_evaluations():
    obj, cons = _switching_setup()
    ball = Ball(np.zeros(10), 10.0)
    res = constrained_md_multi(
        obj, cons, euclidean_setup(), ball,
        RunConfig(m=1.0, iters=300, epsilon=1e-2), np.zeros(10),
    )
    tr = res.trace
    assert res.constraint_evals_total == sum(tr.constraint_evals)
    assert res.nonproductive_count > 0
    # early-exit scanning must beat the full-scan cost p * iterations
    assert res.constraint_evals_total < 5 * res.iterations
    for prod, ev in zip(tr.productive, tr.constraint_evals):
        if prod:
            assert ev == 5
        else:
            assert 1 <= ev <= 5
    assert any(ev < 5 for p_, ev in zip(tr.productive, tr.constraint_evals) if not p_)


def test_multi_stop_criterion_and_feasibility():
    obj, cons = _switching_setup()
    ball = Ball(np.zeros(10), 10.0)
    res = constrained_md_multi(
        obj, cons, euclidean_setup(), ball,
        RunConfig(m=1.0, epsilon=0.25), np.zeros(10),
    )
    assert res.stop_reason is StopReason.EPSILON_CRITERION
    eps = 0.25
    assert cons.value(res.x_hat) <= eps + 1e-9
    for i in range(cons.p):
        assert cons.value_one(i, res.x_hat) <= eps + 1e-9
    assert ball.contains(res.x_hat)


def test_multi_determinism():
    obj, cons = _switching_setup()
    ball = Ball(np.zeros(10), 10.0)
    cfg = RunConfig(m=-0.5, iters=250, epsilon=1e-2)
    a = constrained_md_multi(obj, cons, euclidean_setup(), ball, cfg, np.zeros(10))
    b = constrained_md_multi(obj, cons, euclidean_setup(), ball, cfg, np.zeros(10))
    assert a.x_hat.tobytes() == b.x_hat.tobytes()
    assert a.trace.gamma == b.trace.gamma
    assert a.constraint_evals_total == b.constraint_evals_total


def test_row_value_pass_matches_sequential_scan():
    # the one vectorised pass must reproduce the per-row scan loops exactly
    obj, cons = _switching_setup(p=20)
    ref = SequentialConstraints(cons.alphas, cons.betas)
    ball = Ball(np.zeros(10), 10.0)
    cfg = RunConfig(m=1.0, iters=400, epsilon=1e-2)

    def runs(block):
        pairs = (
            (_state("time-varying", m_lipschitz=obj.lipschitz_bound),
             _state("time-varying", m_lipschitz=block.lipschitz_bound)),
            (_state("adaptive-time-varying"), _state("adaptive-time-varying")),
        )
        out = [
            constrained_md(obj, block, euclidean_setup(), ball, state_f, state_g,
                           cfg, np.zeros(10), use_criterion=False)
            for state_f, state_g in pairs
        ]
        out.append(constrained_md_multi(obj, block, euclidean_setup(), ball, cfg, np.zeros(10)))
        return out

    for got, want in zip(runs(cons), runs(ref)):
        assert 0 < got.productive_count < got.iterations
        assert got.x_hat.tobytes() == want.x_hat.tobytes()
        assert got.f_hat == want.f_hat
        assert (got.iterations, got.productive_count, got.nonproductive_count,
                got.constraint_evals_total, got.stop_reason) == (
            want.iterations, want.productive_count, want.nonproductive_count,
            want.constraint_evals_total, want.stop_reason)
        assert repr(got.trace) == repr(want.trace)
        assert cons.value(got.x_hat) == ref.value(got.x_hat)


class _CountingConstraints(AffineConstraints):
    def __init__(self, alphas, betas):
        super().__init__(alphas, betas)
        self.passes = 0

    def row_values(self, x):
        self.passes += 1
        return super().row_values(x)


def test_one_row_value_pass_per_iteration():
    obj, cons = _switching_setup()
    ball = Ball(np.zeros(10), 10.0)
    cfg = RunConfig(m=1.0, iters=300, epsilon=1e-2)
    block = _CountingConstraints(cons.alphas, cons.betas)
    alg3 = constrained_md(
        obj, block, euclidean_setup(), ball,
        _state("adaptive-time-varying"), _state("adaptive-time-varying"),
        cfg, np.zeros(10), use_criterion=False,
    )
    assert alg3.nonproductive_count > 0
    assert block.passes == alg3.iterations
    block.passes = 0
    alg4 = constrained_md_multi(obj, block, euclidean_setup(), ball, cfg, np.zeros(10))
    assert alg4.nonproductive_count > 0
    assert block.passes == alg4.iterations


# ---------------------------------------------------------------- bounds


def test_bound_main_examples():
    assert bound_main(0.0, [1.0], [1.0], 2.0, 1.0) == 2.5
    assert bound_main(0.0, [1.0, 0.5], [0.0, 0.0], 0.0, 1.0) == 0.0


def test_bound_main_errors():
    with pytest.raises(ValueError, match="m must be >= -1"):
        bound_main(-2.0, [1.0], [1.0], 2.0, 1.0)
    with pytest.raises(ValueError, match="positive and non-increasing"):
        bound_main(0.0, [0.5, 1.0], [1.0, 1.0], 2.0, 1.0)
    with pytest.raises(ValueError, match="at least one step"):
        bound_main(0.0, [], [], 2.0, 1.0)
    with pytest.raises(ValueError, match="equal length"):
        bound_main(0.0, [1.0, 0.5], [1.0], 2.0, 1.0)
    with pytest.raises(ValueError, match="must be positive"):
        bound_main(0.0, [1.0, 0.0], [1.0, 1.0], 2.0, 1.0)


def test_bound_main_dominated_by_closed_form():
    # gradient norms pinned at M: the trajectory bound stays below the
    # closed-form corollary for the matching schedule
    m_lip, sigma, theta, n = 2.0, 1.0, 2.0, 500
    gammas = [math.sqrt(2.0 * sigma) / (m_lip * math.sqrt(k)) for k in range(1, n + 1)]
    norms = [m_lip] * n
    got = bound_main(0.0, gammas, norms, theta, sigma)
    assert got <= bound_corollaries(0.0, n, m_lip, theta, sigma) + 1e-12


def test_bound_corollaries_frozen_values():
    assert bound_corollaries(0.0, 10**4, 1.0, 2.0, 1.0) == 0.0282842712474619
    assert bound_corollaries(-1.0, 1, 1.0, 0.0, 1.0) == 1.0
    assert bound_corollaries(1.0, 4, 1.0, 0.0, 1.0) == pytest.approx(
        3.0 * math.sqrt(2.0) / 8.0, abs=1e-15
    )


def test_bound_corollaries_domain():
    with pytest.raises(ValueError, match="closed forms exist"):
        bound_corollaries(0.5, 10, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="N must be at least 1"):
        bound_corollaries(0.0, 0, 1.0, 2.0, 1.0)


def test_bound_composite_reduces_and_shifts():
    gammas = [1.0, 1.0]
    norms = [1.0, 1.0]
    base = bound_main(-1.0, gammas, norms, 2.0, 1.0)
    assert bound_composite(-1.0, gammas, norms, 0.0, 2.0, 1.0) == base
    # gamma_1 = 1 and m = -1: h(x1) = 3 lands in the numerator unscaled
    shifted = bound_composite(-1.0, gammas, norms, 3.0, 2.0, 1.0)
    w = 2.0  # sum of gamma^{-m} = gamma themselves
    assert shifted == base + 3.0 / w


def test_bound_composite_closed_form_dominates():
    m_lip, sigma, theta, h1, n = 2.0, 1.0, 2.0, 3.0, 1000
    gammas = [math.sqrt(2.0 * sigma) / (m_lip * math.sqrt(k)) for k in range(1, n + 1)]
    norms = [m_lip] * n
    got = bound_composite(-1.0, gammas, norms, h1, theta, sigma)
    closed = (
        m_lip
        * (math.sqrt(2.0 * sigma) * h1 / m_lip + theta + 1.0 + math.log(n))
        / (math.sqrt(sigma) * math.sqrt(n))
    )
    assert got <= closed + 1e-12


def test_bound_composite_domain():
    with pytest.raises(ValueError, match="covers only -1 <= m <= 0"):
        bound_composite(1.0, [1.0], [1.0], 0.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="h must be nonnegative"):
        bound_composite(0.0, [1.0], [1.0], -1.0, 2.0, 1.0)


def test_iteration_estimate_examples():
    assert iteration_estimate(1.0, 1.0, 1.0, 1.0, 1.0) == 2
    assert iteration_estimate(1.0, 0.0, 0.5, 1.0, 0.0) == 4


def test_iteration_estimate_quadruples_when_epsilon_halves():
    base = iteration_estimate(1.0, 1.0, 0.5, 1.0, 1.0)  # exact: 4
    assert base == 4
    assert iteration_estimate(1.0, 1.0, 0.5, 0.5, 1.0) == 4 * base


def test_iteration_estimate_domain():
    with pytest.raises(ValueError, match="cover m = 0 and m >= 1 only"):
        iteration_estimate(1.0, 1.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="must be positive"):
        iteration_estimate(0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="theta1 must be nonnegative"):
        iteration_estimate(1.0, -1.0, 1.0, 1.0, 1.0)


def test_productive_inequality_sides_shape():
    lhs, rhs = productive_inequality_sides(2.0, 1.0, 4.0, 0.25, 1.0, 100)
    assert math.isfinite(lhs) and math.isfinite(rhs)
    assert lhs > 0.0 and rhs > 0.0
    lhs2, rhs2 = productive_inequality_sides(2.0, 1.0, 4.0, 0.25, 1.0, 200)
    assert lhs2 > lhs and rhs2 > rhs
    with pytest.raises(ValueError, match="N must be at least 1"):
        productive_inequality_sides(2.0, 1.0, 4.0, 0.25, 1.0, 0)


def test_constrained_bound_diagnostic():
    diag = constrained_bound_diagnostic(
        0.0, [1.0], [1.0], [1.0], [2.0], 1.0, 2.0, 1.0, 0.5
    )
    assert diag.without_slack == 4.5
    assert diag.with_slack == 4.0
    assert diag.with_slack <= diag.without_slack
    # no non-productive steps: both readings coincide
    same = constrained_bound_diagnostic(0.0, [1.0], [1.0], [], [], 1.0, 2.0, 1.0, 0.5)
    assert same.with_slack == same.without_slack
    with pytest.raises(ValueError, match="at least one productive step"):
        constrained_bound_diagnostic(0.0, [], [], [1.0], [1.0], 1.0, 2.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="gamma_last must be positive"):
        constrained_bound_diagnostic(0.0, [1.0], [1.0], [], [], 0.0, 2.0, 1.0, 0.5)


# ---------------------------------------------------------------- shared trajectory


def _rule_state(tag: str) -> ScheduleState:
    params = {"m_lipschitz": 2.0} if tag == "time-varying" else {}
    return _state(tag, **params)


def _result_bytes(res: SolveResult):
    columns = {
        name: np.asarray(col, dtype=np.float64).tobytes()
        for name, col in vars(res.trace).items()
    }
    return (res.x_hat.tobytes(), repr(res.f_hat), res.iterations,
            res.stop_reason, columns)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=-1.0, max_value=8.0), min_size=1, max_size=4),
    st.sampled_from(TABLE_TAGS),
)
def test_shared_trajectory_matches_separate_runs(m_values, tag):
    if tag == "polyak":
        obj = build_objective(InstanceSpec("best-approx", n=6, seed=2))
    else:
        obj = build_objective(InstanceSpec("max-linear", n=6, t=4, seed=2))
    ball = unit_ball(6)
    x1 = default_start(ball)
    config = RunConfig(m=0.0, iters=30)
    shared = mirror_descent_sweep(
        obj, euclidean_setup(), ball, _rule_state(tag), config, x1, m_values
    )
    assert len(shared) == len(m_values)
    for m, res in zip(m_values, shared):
        alone = mirror_descent(
            obj, euclidean_setup(), ball, _rule_state(tag),
            RunConfig(m=m, iters=30), x1,
        )
        assert _result_bytes(res) == _result_bytes(alone)


_CERTIFIED_TAGS = [t for t in TABLE_TAGS if is_nonincreasing_guaranteed(_rule_state(t).kind)]


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1000.0), st.sampled_from(_CERTIFIED_TAGS))
# near these m the weight sums or the bound overflow to inf without a
# power raising
@example(307.0, "constant-step")
@example(176.5, "nonsum")
@example(534.5, "adagrad")
def test_bound_column_is_finite_or_the_overflow_is_named(m, tag):
    obj = build_objective(InstanceSpec("max-linear", n=6, t=4, seed=2))
    ball = unit_ball(6)
    try:
        res = mirror_descent(
            obj, euclidean_setup(), ball, _rule_state(tag),
            RunConfig(m=m, iters=30), default_start(ball),
        )
    except ValueError as exc:
        assert re.fullmatch(
            rf"weights gamma\*\*\(-m\) leave the float64 range at iteration \d+ "
            rf"with m={re.escape(format(m, 'g'))} and gamma=\S+; use a smaller m",
            str(exc),
        ), str(exc)
        return
    assert len(res.trace.bound) == 30
    assert all(math.isfinite(b) for b in res.trace.bound)


class _IterateSpy(DistanceToPoint):
    """DistanceToPoint that records every point its subgradient is taken at,
    which in an unconstrained run is each iterate x^k."""

    def __init__(self, a):
        super().__init__(a)
        self.points = []

    def subgrad(self, x):
        self.points.append(x.copy())
        return super().subgrad(x)


def test_shared_averages_match_weighted_averager():
    obj = _IterateSpy(np.linspace(2.0, 5.0, 6))
    m_values = (-1.0, 0.5, 3.0)
    results = mirror_descent_sweep(
        obj, euclidean_setup(), unit_ball(6), _state("adagrad"),
        RunConfig(m=0.0, iters=25), np.zeros(6), m_values,
    )
    gammas = results[0].trace.gamma
    assert len(obj.points) == len(gammas) == 25
    for m, res in zip(m_values, results):
        avg = WeightedAverager(6, m)
        for k, (x, gamma) in enumerate(zip(obj.points, gammas)):
            avg.update(x, gamma)
            assert repr(res.trace.f_avg[k]) == repr(obj.value(avg.average))
        assert res.x_hat.tobytes() == avg.average.tobytes()


def test_shared_run_with_an_empty_averager_fails_like_its_separate_run():
    # gamma = 2 throughout: 2**-1100 underflows to 0, so the m = 1100
    # averager stays empty while the m = 0 one fills
    obj = DistanceToPoint([10.0, 0.0])

    def run(m_values):
        return mirror_descent_sweep(
            obj, euclidean_setup(), unit_ball(2), _state("fixed-length", c=2.0),
            RunConfig(m=0.0, iters=5), np.zeros(2), m_values,
        )

    assert len(run((0.0,))[0].trace.f_avg) == 5
    for m_values in ((1100.0,), (0.0, 1100.0)):
        with pytest.raises(NoProductiveSteps, match="empty averager"):
            run(m_values)


def test_shared_trajectory_validates_every_m():
    obj = DistanceToPoint([10.0, 0.0])
    with pytest.raises(ValueError, match="finite and >= -1"):
        mirror_descent_sweep(
            obj, euclidean_setup(), unit_ball(2), _state("nonsum"),
            RunConfig(m=0.0, iters=5), np.zeros(2), (0.0, -2.0),
        )


def test_overflow_names_earliest_k_then_plan_order():
    obj = DistanceToPoint([10.0, 0.0])

    def sweep(tag, m_values):
        return mirror_descent_sweep(
            obj, euclidean_setup(), unit_ball(2), _state(tag),
            RunConfig(m=0.0, iters=5), np.zeros(2), m_values,
        )

    # gamma_k = 0.1/sqrt(k): m = 300 overflows at k = 2, m = 400 at k = 1
    with pytest.raises(ValueError, match=r"iteration 1 with m=400 "):
        sweep("nonsum", (0.0, 300.0, 400.0))
    # gamma = 0.1 throughout: both overflow at k = 1, the first one is named
    with pytest.raises(ValueError, match=r"iteration 1 with m=500 "):
        sweep("constant-step", (0.0, 500.0, 400.0))


# ---------------------------------------------------------------- non-finite values


class _NanValue(DistanceToPoint):
    """DistanceToPoint whose value is NaN everywhere."""

    def value(self, x):
        return math.nan

    def values(self, X):
        return np.full(X.shape[0], math.nan)


class _NanAverageValue(DistanceToPoint):
    """DistanceToPoint whose batch form is NaN, so only f at the
    averages is non-finite."""

    def values(self, X):
        return np.full(X.shape[0], math.nan)


@pytest.mark.parametrize(
    "cls, tag, trace, match",
    [
        (_NanValue, "nonsum", True, "objective value is nan at iteration 1$"),
        (_NanValue, "nonsum", False,
         "objective value at the output point is nan after iteration 5"),
        (_NanValue, "polyak", False, "objective value is nan at iteration 1$"),
        (_NanAverageValue, "nonsum", True,
         "objective value at the average is nan at iteration 1"),
    ],
    ids=["trace-on", "trace-off", "polyak", "average"],
)
def test_non_finite_objective_value_raises(cls, tag, trace, match):
    obj = cls([10.0, 0.0], known_fstar=9.0)
    with pytest.raises(ValueError, match=match):
        mirror_descent(
            obj, euclidean_setup(), unit_ball(2), _state(tag),
            RunConfig(m=0.0, iters=5, record_trace=trace), np.zeros(2),
        )


# ---------------------------------------------------------------- early criterion


def test_criterion_before_any_productive_step_raises():
    # no point with g <= 0.25 near x1 = 0: the criterion fires on
    # constraint steps alone
    spec = InstanceSpec(
        "max-linear", n=10, t=10, p=20, seed=42, distribution="standard-normal"
    )
    obj, cons = build_objective(spec), build_constraints(spec)
    with pytest.raises(
        NoProductiveSteps,
        match=r"epsilon criterion fired at iteration \d+ before any productive "
        r"step: likely no point with g <= epsilon lies within Bregman "
        r"distance theta=2 of x1",
    ):
        constrained_md(
            obj, cons, euclidean_setup(), unit_ball(10),
            _state("adaptive-time-varying"), _state("adaptive-time-varying"),
            RunConfig(m=1.0, epsilon=0.25, theta=2.0, record_trace=False),
            np.zeros(10),
        )


# ---------------------------------------------------------------- batched plans


def _cell_bytes(res: SolveResult):
    columns = {} if res.trace is None else {
        name: np.asarray(col, dtype=np.float64).tobytes()
        for name, col in vars(res.trace).items()
    }
    return (res.x_hat.tobytes(), repr(res.f_hat), res.iterations,
            res.stop_reason, columns)


def _plan_problem(kind: str, prox_name: str):
    obj = build_objective(InstanceSpec(kind, n=6, t=4, seed=3))
    if prox_name == "euclidean":
        prox, feasible = euclidean_setup(), unit_ball(6)
    else:
        # the analytic optimum of best-approx holds on the unit ball only
        prox, feasible = entropy_setup(), Simplex(6)
        obj.known_fstar = None
    return obj, prox, feasible, default_start(feasible)


def _sweep_or_error(obj, prox, feasible, tag, config, x1, m_values):
    try:
        return mirror_descent_sweep(obj, prox, feasible, _rule_state(tag), config, x1, m_values)
    except (ValueError, NoProductiveSteps) as exc:
        return exc


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(TABLE_TAGS), min_size=1, max_size=len(TABLE_TAGS), unique=True),
    st.lists(st.floats(min_value=-1.0, max_value=8.0), min_size=1, max_size=3),
    st.sampled_from(OBJECTIVE_KINDS),
    st.sampled_from(("euclidean", "entropy")),
    st.booleans(),
)
def test_every_cell_of_a_batch_matches_its_single_run(tags, m_values, kind, prox_name, trace):
    obj, prox, feasible, x1 = _plan_problem(kind, prox_name)
    config = RunConfig(m=0.0, iters=30, record_trace=trace)
    states = [_rule_state(tag) for tag in tags]
    alone = [_sweep_or_error(obj, prox, feasible, tag, config, x1, m_values) for tag in tags]
    failures = [a for a in alone if isinstance(a, Exception)]
    if failures:
        # polyak without a known f*, or an overflowing m: the batch raises
        # the error of the first failing schedule in plan order
        event("the batch raises")
        with pytest.raises(type(failures[0])) as info:
            _descent(obj, prox, feasible, states, config, x1, tuple(m_values))
        assert str(info.value) == str(failures[0])
        return
    event("every cell compared")
    batch = _descent(obj, prox, feasible, states, config, x1, tuple(m_values))
    assert len(batch) == len(tags)
    for tag, results in zip(tags, batch):
        assert len(results) == len(m_values)
        for m, res in zip(m_values, results):
            single = mirror_descent(
                obj, prox, feasible, _rule_state(tag), replace(config, m=m), x1
            )
            assert _cell_bytes(res) == _cell_bytes(single), (tag, m)


def test_a_row_that_stops_leaves_the_batch_and_the_others_run_on():
    # a inside the ball with f* = 0: the Polyak rule reaches the minimizer
    # and stops at a stationary point, the other rules use every iteration
    obj = DistanceToPoint([0.3, 0.4], known_fstar=0.0)
    tags = ("nonsum", "polyak", "constant-step")
    config = RunConfig(m=0.0, iters=40)
    m_values = (0.0, 2.0)
    batch = _descent(
        obj, euclidean_setup(), unit_ball(2), [_rule_state(t) for t in tags], config,
        np.zeros(2), m_values,
    )
    stops = [results[0].stop_reason for results in batch]
    assert stops == [StopReason.MAX_ITERS, StopReason.STATIONARY_POINT, StopReason.MAX_ITERS]
    assert batch[1][0].iterations < 40 == batch[0][0].iterations == batch[2][0].iterations
    for tag, results in zip(tags, batch):
        for m, res in zip(m_values, results):
            single = mirror_descent(
                obj, euclidean_setup(), unit_ball(2), _rule_state(tag),
                replace(config, m=m), np.zeros(2),
            )
            assert _cell_bytes(res) == _cell_bytes(single), (tag, m)


def test_a_batch_raises_the_first_failure_in_plan_order():
    # at m = 400, gamma = 0.5/k overflows at k = 3 and gamma = 0.1 at k = 1:
    # the schedule first in plan order is named, not the one failing first
    obj = DistanceToPoint([10.0, 0.0])
    config = RunConfig(m=0.0, iters=20)

    def batch(tags):
        return _descent(
            obj, euclidean_setup(), unit_ball(2), [_rule_state(t) for t in tags], config,
            np.zeros(2), (0.0, 400.0),
        )

    for tags, first in ((("fixed-length", "sqrsum-nonsum", "constant-step"), "sqrsum-nonsum"),
                        (("constant-step", "fixed-length", "sqrsum-nonsum"), "constant-step")):
        alone = _sweep_or_error(
            obj, euclidean_setup(), unit_ball(2), first, config, np.zeros(2), (0.0, 400.0)
        )
        assert isinstance(alone, ValueError)
        with pytest.raises(ValueError) as info:
            batch(tags)
        assert str(info.value) == str(alone)
    assert "iteration 3 with m=400 and gamma=0.166667" in str(
        _sweep_or_error(obj, euclidean_setup(), unit_ball(2), "sqrsum-nonsum", config,
                        np.zeros(2), (0.0, 400.0))
    )


def test_constrained_and_criterion_runs_take_one_step_rule():
    cons = _always_satisfied(2)
    obj = DistanceToPoint([10.0, 0.0])
    states = [_state("nonsum"), _state("constant-step")]
    config = RunConfig(m=1.0, iters=10, epsilon=0.1)
    with pytest.raises(ValueError, match="take one step rule"):
        _descent(obj, euclidean_setup(), unit_ball(2), states, config, np.zeros(2), (1.0,),
                 constraints=cons, state_g=_state("nonsum"))
    with pytest.raises(ValueError, match="take one step rule"):
        _descent(obj, euclidean_setup(), unit_ball(2), states, config, np.zeros(2), (1.0,),
                 use_criterion=True)


def test_composite_runs_take_one_step_rule():
    obj = DistanceToPoint([10.0, 0.0])
    states = [_state("nonsum"), _state("constant-step")]
    with pytest.raises(ValueError, match="take one step rule"):
        _descent(obj, euclidean_setup(), unit_ball(2), states, RunConfig(m=0.0, iters=10),
                 np.zeros(2), (0.0,), h=L1(0.5))


class _NanInLastAverage(DistanceToPoint):
    """f at the running averages reads NaN in the last row of every
    ``values`` call; in a batch that row belongs to the last trajectory."""

    def values(self, X):
        out = super().values(X)
        out[-1] = math.nan
        return out


def test_a_nan_average_of_a_later_row_is_raised_at_once():
    # both rows overflow gamma**(-400) at k = 3; the NaN average of the
    # later row comes from the one values call all rows share, so the
    # batch raises it at k = 1 instead of running the first row on
    obj = _NanInLastAverage([10.0, 0.0])
    states = [_state("sqrsum-nonsum"), _state("sqrsum-nonsum")]
    with pytest.raises(ValueError, match="^objective value at the average is nan at iteration 1$"):
        _descent(obj, euclidean_setup(), unit_ball(2), states, RunConfig(m=0.0, iters=20),
                 np.zeros(2), (400.0,))


def test_every_m_check_has_one_message():
    obj = DistanceToPoint([10.0, 0.0])
    with pytest.raises(ValueError, match=r"^every m must be finite and >= -1$"):
        RunConfig(m=-2.0, iters=5)
    with pytest.raises(ValueError, match=r"^every m must be finite and >= -1$"):
        mirror_descent_sweep(
            obj, euclidean_setup(), unit_ball(2), _state("nonsum"),
            RunConfig(m=0.0, iters=5), np.zeros(2), (0.0, math.inf),
        )
