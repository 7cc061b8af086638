"""Acceptance gate: one test per advertised guarantee of the library.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. The heavy solver runs live in session fixtures (conftest)
and are shared across criteria.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from mdbench.bench import (
    ExperimentPlan,
    run_constrained_comparison,
    run_experiment,
)
from mdbench.bounds import bound_composite, bound_corollaries, iteration_estimate
from mdbench.geometry import (
    L1,
    Ball,
    Simplex,
    Zero,
    entropy_setup,
    euclidean_setup,
    mirror_step,
    unit_ball,
)
from mdbench.geometry import bregman, grad_psi
from mdbench.problems import InstanceSpec, MaxAffine
from mdbench.schedules import TAG_TIME_VARYING, ScheduleState, schedule
from mdbench.solvers import (
    RunConfig,
    StopReason,
    constrained_md,
    mirror_c_descent,
    mirror_descent,
)
from mdbench.space import NormKind, norm

from oracles import simplex2_argmin

F_STAR_BALL = 9.0


def _gaps(result) -> np.ndarray:
    return np.asarray(result.trace.f_avg) - F_STAR_BALL


def test_criterion_01_optimal_rate_pointwise(ball_runs):
    res = ball_runs["results"][0.0]
    ks = np.arange(1, res.iterations + 1, dtype=np.float64)
    rhs = 1.0 * (2.0 + 2.0) / np.sqrt(2.0 * 1.0 * ks) + 1e-9
    assert res.iterations == 10_000
    assert np.all(_gaps(res) <= rhs)
    assert bound_corollaries(0.0, 10_000, 1.0, 2.0, 1.0) == 0.0282842712474619
    assert ball_runs["walls"][0.0] < 5.0


def test_criterion_02_suboptimal_rate_m_minus_one(ball_runs):
    res = ball_runs["results"][-1.0]
    ks = np.arange(1, res.iterations + 1, dtype=np.float64)
    rhs = 1.0 * (2.0 + 1.0 + np.log(ks)) / np.sqrt(ks) + 1e-9
    assert np.all(_gaps(res) <= rhs)


def test_criterion_03_m_sweep_ordering(ball_runs):
    gap_heavy = ball_runs["results"][5.0].f_hat - F_STAR_BALL
    gap_light = ball_runs["results"][-1.0].f_hat - F_STAR_BALL
    assert gap_heavy < gap_light


def test_criterion_04_general_m_bound(ball_runs):
    for m in (1.0, 2.0, 5.0):
        gap = ball_runs["results"][m].f_hat - F_STAR_BALL
        assert gap <= bound_corollaries(m, 10_000, 1.0, 2.0, 1.0) + 1e-9


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(105)
    ball = unit_ball(6)
    setup = euclidean_setup()
    worst = 0.0
    for _ in range(1000):
        x = ball.project(rng.normal(size=6) * 0.7)
        g = rng.normal(size=6)
        gamma = 0.01 + 1.99 * float(rng.random())
        got = mirror_step(setup, ball, x, g, gamma)
        want = ball.project(x - gamma * g)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-10

    simplex = Simplex(2)
    ent = entropy_setup()
    worst = 0.0
    for _ in range(100):
        raw = rng.random(2) + 0.05
        x = raw / raw.sum()
        g = rng.normal(size=2)
        gamma = 0.05 + 0.95 * float(rng.random())
        got = mirror_step(ent, simplex, x, g, gamma)
        want = simplex2_argmin(x, g, gamma)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-5


def test_criterion_06_bregman_identities():
    rng = np.random.default_rng(106)
    ball = unit_ball(5)

    def euclid_point():
        return ball.project(rng.normal(size=5) * 0.8)

    def simplex_point():
        raw = rng.random(5) + 0.05
        return raw / raw.sum()

    for setup, draw, norm_kind in (
        (euclidean_setup(), euclid_point, NormKind.L2),
        (entropy_setup(), simplex_point, NormKind.L1),
    ):
        for _ in range(1000):
            a, b, c = draw(), draw(), draw()
            lhs = float(np.dot(grad_psi(setup, b) - grad_psi(setup, a), c - a))
            rhs = (
                bregman(setup, c, a)
                + bregman(setup, a, b)
                - bregman(setup, c, b)
            )
            assert abs(lhs - rhs) <= 1e-9
        for _ in range(1000):
            x, y = draw(), draw()
            gap = bregman(setup, x, y) - 0.5 * setup.sigma * norm(x - y, norm_kind) ** 2
            assert gap >= -1e-12


def test_criterion_07_composite_reduction_and_bound():
    obj = MaxAffine([[1.0, 0.0, 0.0, 0.0, 0.0]], [0.0])
    ball = Ball(np.zeros(5), 10.0)
    setup = euclidean_setup()
    theta = setup.theta(ball)  # 200
    x1 = np.zeros(5)
    f_star = -7.5  # corner of the ball against the l1 weight

    def tv_state():
        return ScheduleState(schedule(TAG_TIME_VARYING, m_lipschitz=1.0), setup.sigma)

    cfg = RunConfig(m=0.0, iters=1000, theta=theta)
    plain = mirror_descent(obj, setup, ball, tv_state(), cfg, x1)
    with_zero = mirror_c_descent(obj, Zero(), setup, ball, tv_state(), cfg, x1)
    assert with_zero.x_hat.tobytes() == plain.x_hat.tobytes()
    assert with_zero.trace.gamma == plain.trace.gamma
    assert with_zero.trace.f_iterate == plain.trace.f_iterate
    assert with_zero.trace.f_avg == plain.trace.f_avg
    assert with_zero.trace.bound == plain.trace.bound

    for m in (-1.0, 0.0):
        res = mirror_c_descent(
            obj, L1(0.25), setup, ball, tv_state(),
            RunConfig(m=m, iters=1000, theta=theta), x1,
        )
        tr = res.trace
        # the objective row is a unit vector, so every dual norm is 1.0 and
        # h(x1) = 0: the composite bound is exactly evaluable per prefix
        for k in (1, 2, 5, 10, 50, 100, 500, 1000):
            b = bound_composite(m, tr.gamma[:k], [1.0] * k, 0.0, theta, setup.sigma)
            assert tr.f_avg[k - 1] - f_star <= b + 1e-9
            assert tr.bound[k - 1] == pytest.approx(b, rel=1e-12)
        gaps = np.asarray(tr.f_avg) - f_star
        bounds = np.asarray(tr.bound)
        assert np.all(gaps <= bounds + 1e-9)


def test_criterion_08_constrained_epsilon_solution(
    switching_instance, switching_run, switching_reference
):
    res = switching_run["result"]
    eps = switching_run["epsilon"]
    cons = switching_instance["constraints"]
    assert res.stop_reason is StopReason.EPSILON_CRITERION
    assert cons.value(res.x_hat) <= eps
    assert res.f_hat - switching_reference.f_min <= eps + switching_reference.tolerance
    assert switching_run["wall"] < 60.0


def test_criterion_09_algorithm4_economy(tmp_path):
    spec = InstanceSpec(
        "max-linear", n=100, t=50, p=50, seed=42, distribution="standard-normal"
    )
    rows = run_constrained_comparison(
        spec, [0.25], m=-0.5, out_path=str(tmp_path / "table.csv")
    )
    alg3 = next(r for r in rows if r["algorithm"] == "alg3")
    alg4 = next(r for r in rows if r["algorithm"] == "alg4")
    assert alg3["stop_reason"] == "EpsilonCriterion"
    assert alg4["stop_reason"] == "EpsilonCriterion"
    assert alg3["constraint_evals"] == 50 * alg3["iterations"]
    assert alg4["constraint_evals"] < alg3["constraint_evals"]
    assert alg3["g_hat"] <= 0.25 + 1e-9
    assert alg4["g_hat"] <= 0.25 + 1e-9
    assert abs(alg3["f_hat"] - alg4["f_hat"]) <= 0.5


def test_criterion_10_iteration_estimate(switching_instance, switching_reference):
    inst = switching_instance
    obj, cons = inst["objective"], inst["constraints"]
    prox, feasible, x1 = inst["prox"], inst["feasible"], inst["x1"]
    m_big = max(obj.lipschitz_bound, cons.lipschitz_bound)
    for m in (1.0, 2.0):
        for eps in (0.5, 0.25, 0.125):
            n_est = iteration_estimate(m_big, 2.0, prox.sigma, eps, m)
            state_f = ScheduleState(
                schedule(TAG_TIME_VARYING, m_lipschitz=obj.lipschitz_bound), prox.sigma
            )
            state_g = ScheduleState(
                schedule(TAG_TIME_VARYING, m_lipschitz=cons.lipschitz_bound), prox.sigma
            )
            res = constrained_md(
                obj, cons, prox, feasible, state_f, state_g,
                RunConfig(m=m, iters=n_est, epsilon=eps, theta=2.0, record_trace=False),
                x1, use_criterion=False,
            )
            assert res.iterations == n_est
            gap = res.f_hat - switching_reference.f_min
            assert gap <= eps + switching_reference.tolerance
            assert cons.value(res.x_hat) <= eps


def test_criterion_11_determinism(tmp_path):
    plan_args = dict(
        instance=InstanceSpec("best-approx", n=20, seed=7),
        schedules=("time-varying", "adagrad"),
        m_values=(0.0, 1.0),
        iters=300,
    )
    run_experiment(ExperimentPlan(**plan_args), str(tmp_path))
    first = {
        p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix in (".csv", ".json")
    }
    assert len(first) == 5  # four cells and the summary
    run_experiment(ExperimentPlan(**plan_args), str(tmp_path))
    second = {
        p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix in (".csv", ".json")
    }
    assert first == second
    summary = json.loads(first["summary.json"].decode())
    assert summary["plan"]["seed"] == 7
