"""Benchmark harness: references, CSV output, experiment plans, sweeps."""
from __future__ import annotations

import json
import math
import os
import re
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mdbench import bench
from mdbench.bench import (
    ExperimentPlan,
    ReferenceSolution,
    _certified_reference,
    constrained_reference,
    constrained_start,
    default_start,
    grid_refine_minimize,
    reference_solution,
    run_constrained_comparison,
    run_experiment,
    run_single_cell,
    sweep_m,
    write_instance_json,
    write_trace_csv,
)
from mdbench.bounds import bound_corollaries
from mdbench.geometry import PROX_NAMES, Ball, Simplex, euclidean_setup, unit_ball
from mdbench.problems import (
    OBJECTIVE_KINDS,
    AffineConstraints,
    DistanceToPoint,
    InstanceSpec,
    MaxAffine,
    MeanDistance,
    build_constraints,
    build_objective,
    deserialize_instance,
)
from mdbench.cli import main
from mdbench.schedules import TABLE_TAGS, ScheduleState, StationarySignal, schedule
from mdbench.solvers import RunConfig, Trace, mirror_descent

from oracles import grid_refine_pointwise, trace_csv_per_cell, trace_csv_summary

BA5 = InstanceSpec("best-approx", n=5, seed=3)


def _small_plan(**kw) -> ExperimentPlan:
    args = dict(
        instance=BA5,
        schedules=("nonsum", "time-varying"),
        m_values=(0.0, 1.0),
        iters=40,
    )
    args.update(kw)
    return ExperimentPlan(**args)


# ---------------------------------------------------------------- geometry glue


def test_entropy_runs_certify_with_theta_ln_n(tmp_path):
    # the entropy prox's Bregman distance from the barycenter reaches
    # ln n > 1, so the Euclidean theta of the simplex gives no certificate
    cell = run_single_cell(
        InstanceSpec("max-linear", n=50, t=10, seed=0), "entropy", "constant-step", 0.0,
        300, str(tmp_path / "ent.csv"),
    )
    assert cell["final_k"] == 300
    rows = (tmp_path / "ent.csv").read_text().strip("\n").split("\n")
    header = rows[0].split(",")
    gap, bound = header.index("gap_avg"), header.index("bound")
    for row in rows[1:]:
        cells = row.split(",")
        assert float(cells[gap]) <= float(cells[bound]), row


def test_start_points():
    ball = unit_ball(4)
    x = default_start(ball)
    assert ball.contains(x)
    np.testing.assert_allclose(x, np.full(4, 0.5), rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(
        default_start(Simplex(5)), np.full(5, 0.2), rtol=0.0, atol=0.0
    )
    assert np.array_equal(constrained_start(ball), np.zeros(4))


# ---------------------------------------------------------------- references


def test_reference_analytic_for_distance_objective():
    obj = build_objective(InstanceSpec("best-approx", n=50, seed=42))
    ref = reference_solution(obj, unit_ball(50), 100)
    assert ref.method == "Analytic"
    assert ref.tolerance == 0.0
    assert ref.f_min == pytest.approx(9.0, abs=1e-12)


def test_best_approx_known_fstar_is_the_analytic_reference():
    # Polyak steps and the gap columns read one f*, the analytic reference,
    # which on the unit ball is ||a|| - 1 to the last bit
    for seed in range(200):
        for n in (2, 5, 50):
            obj = build_objective(InstanceSpec("best-approx", n=n, seed=seed))
            want = math.sqrt(float(np.dot(obj.a, obj.a))) - 1.0
            assert reference_solution(obj, unit_ball(n), 1).f_min == want, (seed, n)


def test_reference_grid_for_tiny_dimension():
    # mean distance to (1,0) and (-1,0) is exactly 1 on the joining segment
    obj = MeanDistance([[1.0, 0.0], [-1.0, 0.0]])
    ref = reference_solution(obj, unit_ball(2), 100)
    assert ref.method == "GridRefine"
    assert ref.tolerance >= 1e-6
    assert abs(ref.f_min - 1.0) <= ref.tolerance + 1e-9


def _contains(ref, value, slack=0.0) -> bool:
    """Whether f* = value, known to within slack, can lie in the reference's
    bracket [f_min - tolerance, f_min]."""
    return ref.f_min - ref.tolerance <= value + slack and value - slack <= ref.f_min


def test_reference_long_run_and_its_tolerance():
    obj = build_objective(InstanceSpec("covering-ball", n=6, t=3, seed=8))
    ref = reference_solution(obj, unit_ball(6), iters_budget=100)
    assert ref.method == "LongRun"
    # never looser than the corollary bound of a run 50 times the budget
    assert 0.0 <= ref.tolerance <= bound_corollaries(5.0, 5000, 1.0, 2.0, 1.0)
    assert math.isfinite(ref.f_min)
    # f_min is f at a point of the ball, and no point goes below the lower end
    x = unit_ball(6).project_rows(np.random.default_rng(0).normal(size=(2000, 6)))
    assert ref.f_min - ref.tolerance <= float(obj.values(x).min())


def test_reference_long_run_contains_the_analytic_value():
    # the mean distance to one point outside the unit ball is the distance
    # to that point, with f* = ||a|| - 1; its kind takes the certified run
    a = np.array([0.9, -1.2, 0.4, 0.3, 0.8])
    ref = reference_solution(MeanDistance([a]), unit_ball(5), iters_budget=200)
    assert ref.method == "LongRun"
    assert ref.tolerance <= bound_corollaries(5.0, 10_000, 1.0, 2.0, 1.0)
    # f_min is a computed value of f, so both sides carry rounding
    assert _contains(ref, math.sqrt(float(a @ a)) - 1.0, 1e-12)


def test_reference_long_run_that_starts_at_a_minimizer_is_exact():
    # the start x1 is the midpoint of two anchors: the unit vectors to them
    # cancel exactly, so x1 minimizes f and f* = f(x1) = 1
    x1 = default_start(unit_ball(4))
    e1 = np.eye(4)[0]
    ref = reference_solution(MeanDistance([x1 + e1, x1 - e1]), unit_ball(4), iters_budget=50)
    assert ref == ReferenceSolution(1.0, "LongRun", 0.0)


@pytest.mark.parametrize("spec, budget", [
    (InstanceSpec("max-linear", n=2, t=6, seed=0), 300),
    (InstanceSpec("covering-ball", n=3, t=10, seed=42), 200),
    (InstanceSpec("fts", n=3, t=5, seed=2), 200),
], ids=["max-linear-n2", "covering-ball-n3", "fts-n3"])
def test_reference_long_run_contains_the_grid_value(spec, budget):
    # below n = 4 the references come from the grid; the certified run
    # must bracket the grid's value within the grid's tolerance
    obj = build_objective(spec)
    ball = unit_ball(spec.n)
    grid = reference_solution(obj, ball, budget)
    ref = _certified_reference(obj, ball, budget)
    assert grid.method == "GridRefine" and ref.method == "LongRun"
    assert ref.tolerance <= bound_corollaries(5.0, 50 * budget, obj.lipschitz_bound, 2.0, 1.0)
    assert _contains(ref, grid.f_min, grid.tolerance)


# ------------------------------------ the plan's time-varying row brackets f*


def _counted_descents(monkeypatch) -> list:
    """Count the harness's solver-loop calls; each entry is the bracket the
    call carried, or None."""
    calls = []
    real = bench._descent

    def counting(*args, **kwargs):
        calls.append(kwargs.get("bracket"))
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, "_descent", counting)
    return calls


def _direct_reference(instance, prox_name, iters) -> dict:
    objective, _, feasible, _ = bench._prepare_problem(instance, prox_name)
    return asdict(reference_solution(objective, feasible, iters_budget=iters))


def _run_cli(tmp_path, capsys, problem, n, t, iters, *flags) -> dict:
    argv = ["run", "--problem", problem, "--n", str(n), "--t", str(t), "--iters", str(iters),
            "--out", str(tmp_path / "run.csv"), *flags]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_a_default_run_solves_once(tmp_path, monkeypatch, capsys):
    calls = _counted_descents(monkeypatch)
    cell = _run_cli(tmp_path, capsys, "fts", 20, 10, 200)
    # the plan's one time-varying row carried the bracket, which closed at
    # the budget: no second solve
    assert len(calls) == 1 and calls[0] is not None
    assert cell["stop_reason"] == "MaxIters" and cell["iterations"] == 200
    assert cell["reference"]["method"] == "LongRun"
    assert cell["reference"] == _direct_reference(InstanceSpec("fts", n=20, t=10, seed=42),
                                                  "euclidean", 200)


@pytest.mark.parametrize("problem, n, t, iters, flags, shared", [
    # the bracket is still too wide at k = 1; the separate run closes at k = 2
    ("max-linear", 40, 8, 1, (), True),
    ("fts", 20, 10, 200, ("--prox", "entropy"), False),  # the reference steps on the ball
    ("fts", 20, 10, 200, ("--schedule", "nonsum"), False),  # no time-varying row
], ids=["budget-1", "entropy", "no-time-varying-row"])
def test_plans_that_cannot_take_the_reference_from_their_row_solve_twice(
        tmp_path, monkeypatch, capsys, problem, n, t, iters, flags, shared):
    calls = _counted_descents(monkeypatch)
    cell = _run_cli(tmp_path, capsys, problem, n, t, iters, *flags)
    assert len(calls) == 2
    # the batch runs first, then the reference: a bracket that did not
    # close is followed by the separate run, and so is a batch without one
    assert [c is not None for c in calls] == ([True, True] if shared else [False, True])
    prox_name = "entropy" if "entropy" in flags else "euclidean"
    assert cell["reference"] == _direct_reference(InstanceSpec(problem, n=n, t=t, seed=42),
                                                  prox_name, iters)


@pytest.mark.parametrize("n", [2, 6], ids=["grid", "certified"])
def test_a_failing_batch_reports_its_error_before_any_reference_runs(tmp_path, monkeypatch, n):
    references = []
    monkeypatch.setattr(bench, "reference_solution", lambda *a: references.append(a))
    plan = ExperimentPlan(InstanceSpec("fts", n=n, t=3, seed=1), ("nonsum",), (0.0, 400.0),
                          iters=20)
    with pytest.raises(ValueError, match=r"iteration 1 with m=400 "):
        run_experiment(plan, str(tmp_path / "out"))
    assert references == []


def test_a_time_varying_row_that_stops_at_a_minimizer_leaves_the_reference_to_its_own_run(
        tmp_path, monkeypatch):
    # the start is the midpoint of two anchors, so it minimizes f: the row
    # stops at k = 1 and the reference comes from the separate run
    x1 = default_start(unit_ball(4))
    e1 = np.eye(4)[0]
    monkeypatch.setattr(bench, "build_objective",
                        lambda spec: MeanDistance([x1 + e1, x1 - e1]))
    calls = _counted_descents(monkeypatch)
    cell = run_single_cell(InstanceSpec("fts", n=4, t=2, seed=0), "euclidean", "time-varying",
                           1.0, 50, str(tmp_path / "tv.csv"))
    assert len(calls) == 2 and calls[0] is not None
    assert (cell["stop_reason"], cell["iterations"]) == ("StationaryPoint", 0)
    assert cell["reference"] == asdict(ReferenceSolution(1.0, "LongRun", 0.0))


class _StopsAtSeven(ScheduleState):
    """A step rule that signals a stationary point at k = 7."""

    def step_size(self, k, *args):
        if k == 7:
            raise StationarySignal
        return super().step_size(k, *args)


def test_the_bracket_follows_its_row_when_another_row_leaves(tmp_path, monkeypatch):
    # compare's rules on fts: time-varying is row 6, and row 0 leaves the
    # batch at k = 7, after which time-varying is row 5 of the arrays
    tags = tuple(t for t in TABLE_TAGS if t != "polyak")
    assert tags.index("time-varying") == 6
    real = bench._schedule_state

    def states(tag, lipschitz, sigma, f_star):
        if tag == tags[0]:
            return _StopsAtSeven(schedule(tag), sigma)
        return real(tag, lipschitz, sigma, f_star)

    monkeypatch.setattr(bench, "_schedule_state", states)
    calls = _counted_descents(monkeypatch)
    instance = InstanceSpec("fts", n=6, t=5, seed=9)
    summary = run_experiment(ExperimentPlan(instance, tags, (1.0,), iters=120),
                             str(tmp_path / "plan"))
    assert len(calls) == 1 and calls[0].row == 6
    cells = {c["schedule"]: c for c in summary["cells"]}
    assert (cells[tags[0]]["stop_reason"], cells[tags[0]]["iterations"]) == ("StationaryPoint", 6)
    assert cells["time-varying"]["stop_reason"] == "MaxIters"
    monkeypatch.undo()
    assert summary["reference"] == _direct_reference(instance, "euclidean", 120)
    # the row's own file, with the reference in its gap columns, is that of
    # the single run
    single = run_single_cell(instance, "euclidean", "time-varying", 1.0, 120,
                             str(tmp_path / "tv.csv"))
    assert single["reference"] == summary["reference"]
    assert (tmp_path / "tv.csv").read_bytes() == (
        tmp_path / "plan" / "time-varying_m1.csv").read_bytes()


def test_grid_refine_minimize_known_minimum():
    c = np.array([0.25, -0.3])
    obj = DistanceToPoint(c)
    x, v, achieved = grid_refine_minimize(obj.values, unit_ball(2))
    assert achieved <= 1e-6
    assert v <= 1e-6
    np.testing.assert_allclose(x, c, rtol=0.0, atol=5e-6)
    with pytest.raises(ValueError, match="limited to n <= 3"):
        grid_refine_minimize(obj.values, unit_ball(4))


def test_the_one_point_simplex_is_exact():
    # Simplex(1) is {1}: the grid's box is that point, so f* is its value
    obj = build_objective(InstanceSpec("max-linear", n=1, seed=0))
    ref = reference_solution(obj, Simplex(1), 5)
    assert ref.method == "GridRefine"
    assert ref.tolerance <= bench.GRID_TOL
    assert ref.f_min == obj.value(np.ones(1))


def test_grid_first_round_is_a_nine_by_nine_mesh():
    obj = DistanceToPoint(np.array([0.25, -0.3]))
    rows = []

    def counted(X):
        rows.append(X.shape[0])
        return obj.values(X)

    _, _, slack = grid_refine_minimize(counted, unit_ball(2), max_rounds=1)
    # one round of a 9 x 9 mesh of [-1, 1]^2: spacing 0.25
    assert rows == [9 * 9]
    assert slack == 0.25 * math.sqrt(2) / 2


@pytest.mark.parametrize(
    "spec, feasible, rounds",
    [
        (InstanceSpec("covering-ball", n=2, t=7, seed=4), Ball(np.array([0.3, -0.2]), 1.5), 12),
        (InstanceSpec("max-linear", n=3, t=10, seed=5), Simplex(3), 2),
        # stops at its fixed point in round 8, its second at 129 points per axis
        (InstanceSpec("max-linear", n=2, t=10, seed=362096582), unit_ball(2), 120),
        (InstanceSpec("max-linear", n=1, seed=0), Simplex(1), 120),
    ],
    ids=["ball", "simplex", "fixed-point", "one-point"],
)
def test_grid_refine_matches_pointwise_reference(spec, feasible, rounds):
    # each case but the one-point simplex has a round of more than one
    # 4096-row block
    obj = build_objective(spec)
    kw = dict(lipschitz=obj.lipschitz_bound, max_rounds=rounds)
    x, v, slack = grid_refine_minimize(obj.values, feasible, **kw)
    x_ref, v_ref, slack_ref = grid_refine_pointwise(obj.value, feasible, **kw)
    assert (x.tobytes(), v, slack) == (x_ref.tobytes(), v_ref, slack_ref)


def test_grid_refine_n3_ball_matches_pointwise_reference():
    # rounds of 9**3, 9**3, 17**3 and 33**3 rows: the last spans nine
    # 4096-row blocks
    obj = build_objective(InstanceSpec("fts", n=3, t=5, seed=2))
    feasible = Ball(np.array([0.1, 0.2, -0.1]), 0.8)
    kw = dict(lipschitz=obj.lipschitz_bound, max_rounds=4)
    x, v, slack = grid_refine_minimize(obj.values, feasible, **kw)
    x_ref, v_ref, slack_ref = grid_refine_pointwise(obj.value, feasible, **kw)
    assert (x.tobytes(), v, slack) == (x_ref.tobytes(), v_ref, slack_ref)


def test_grid_refine_stops_at_its_fixed_point():
    # the grid-reference benchmark instance, whose minimum is on the
    # boundary of the ball: at 129 points per axis the box stops shrinking
    obj = build_objective(InstanceSpec("max-linear", n=2, t=10, seed=362096582))
    rows = []

    def counted(X):
        rows.append(X.shape[0])
        return obj.values(X)

    _, _, slack = grid_refine_minimize(counted, unit_ball(2), lipschitz=obj.lipschitz_bound)
    # running all 120 rounds took 1.92M rows and ended at 5.74e-3
    assert sum(rows) < 100_000
    assert slack < 5.74e-3


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(c=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       center=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
       radius=st.floats(0.25, 1.5), n=st.sampled_from((2, 3)))
def test_grid_refine_brackets_the_distance_to_a_point(c, center, radius, n):
    # inside the ball f* = 0; outside it is the distance to the ball
    c, center = np.array(c[:n]), np.array(center[:n])
    event("inside" if np.linalg.norm(c - center) <= radius else "outside")
    ball = Ball(center, radius)
    x, f_min, tol = grid_refine_minimize(DistanceToPoint(c).values, ball)
    f_star = max(0.0, float(np.linalg.norm(c - center)) - radius)
    assert ball.contains(x)
    assert f_min - tol <= f_star + 1e-12 and f_star - 1e-12 <= f_min


@pytest.mark.parametrize("feasible", [unit_ball(2), unit_ball(3), Simplex(3)],
                         ids=["ball-2", "ball-3", "simplex-3"])
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(("max-linear", "fts", "covering-ball")),
       t=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
def test_grid_reference_brackets_the_certified_value(feasible, kind, t, seed):
    # f* lies in both brackets, so they overlap: a grid lower end above f*
    # by more than the certified run's width (often under 1e-9) fails
    event(kind)
    obj = build_objective(InstanceSpec(kind, n=feasible.n, t=t, seed=seed))
    grid = reference_solution(obj, feasible, 2000)
    ref = _certified_reference(obj, feasible, 2000)
    assert grid.method == "GridRefine"
    assert grid.f_min - grid.tolerance <= ref.f_min
    assert ref.f_min - ref.tolerance <= grid.f_min


def test_grid_refine_rejects_non_finite_values():
    def nan_right_of_half(X):
        return np.where(X[:, 0] > 0.5, np.nan, np.hypot(X[:, 0], X[:, 1]))

    with pytest.raises(ValueError, match=r"grid value nan at \[0\.6"):
        grid_refine_minimize(nan_right_of_half, unit_ball(2))
    with pytest.raises(ValueError, match=r"grid value nan at \[-0\.7071"):
        grid_refine_minimize(lambda X: np.full(X.shape[0], np.nan), unit_ball(2))


def test_constrained_reference_certified_run():
    spec = InstanceSpec(
        "max-linear", n=10, t=10, p=5, seed=11, distribution="standard-normal"
    )
    obj = build_objective(spec)
    cons = build_constraints(spec)
    ref = constrained_reference(obj, cons, unit_ball(10), epsilon_ref=0.05)
    assert ref.method == "LongRun"
    assert 0.0 <= ref.tolerance <= 0.05
    assert math.isfinite(ref.f_min)
    # a bracket at a finer accuracy overlaps it: both hold f*
    fine = constrained_reference(obj, cons, unit_ball(10), epsilon_ref=1e-3)
    assert fine.tolerance <= 1e-3
    assert _contains(ref, fine.f_min) and _contains(ref, fine.f_min - fine.tolerance)


def test_constrained_reference_contains_the_closed_form_minimum():
    # min <a, x> + b over the unit ball and the halfspace <alpha, x> <= beta
    # cuts off the ball's minimizer -a/||a||, so the minimum lies on the
    # hyperplane: b + <a, u> beta' - ||a_perp|| sqrt(1 - beta'^2), with u
    # the unit normal, beta' = beta / ||alpha|| and a_perp the part of a
    # orthogonal to u
    a = np.array([1.0, 1.0, 0.0, 0.0])
    alpha, beta = np.array([-2.0, 0.0, 0.0, 0.0]), 1.0
    obj = MaxAffine([a], [0.25])
    cons = AffineConstraints([alpha], [beta])
    u = alpha / np.linalg.norm(alpha)
    b_u = beta / np.linalg.norm(alpha)
    a_perp = a - (a @ u) * u
    f_star = 0.25 + (a @ u) * b_u - np.linalg.norm(a_perp) * math.sqrt(1.0 - b_u**2)
    assert f_star == pytest.approx(0.25 - 0.5 - math.sqrt(0.75))
    for epsilon_ref in (6e-3, 1e-4):
        ref = constrained_reference(obj, cons, unit_ball(4), epsilon_ref=epsilon_ref)
        assert ref.method == "LongRun"
        assert 0.0 <= ref.tolerance <= epsilon_ref
        assert _contains(ref, f_star, 1e-12)


def test_constrained_reference_names_the_bracket_it_reached(monkeypatch):
    spec = InstanceSpec(
        "max-linear", n=10, t=10, p=5, seed=11, distribution="standard-normal"
    )
    monkeypatch.setattr("mdbench.solvers.SAFETY_CAP", 100)
    with pytest.raises(RuntimeError, match=r"bracket \[.*\] is still wider than "
                                           r"epsilon_ref=1e-06 after 100 iterations"):
        constrained_reference(build_objective(spec), build_constraints(spec), unit_ball(10),
                              epsilon_ref=1e-6)


# ---------------------------------------------------------------- trace CSV


def _run_small_trace():
    obj = build_objective(BA5)
    state = ScheduleState(schedule("time-varying", m_lipschitz=1.0), 1.0)
    res = mirror_descent(
        obj, euclidean_setup(), unit_ball(5), state,
        RunConfig(m=0.0, iters=25), default_start(unit_ball(5)),
    )
    ref = reference_solution(obj, unit_ball(5), 25)
    return res, ref


def test_trace_csv_layout(tmp_path):
    res, ref = _run_small_trace()
    path = str(tmp_path / "cell.csv")
    write_trace_csv(path, res.trace, ref)
    with open(path, newline="") as fh:
        text = fh.read()
    assert "\r" not in text
    assert text.endswith("\n") and not text.endswith("\n\n")
    lines = text.strip("\n").split("\n")
    assert lines[0] == "k,gamma,f_iterate,f_avg,f_best_so_far,gap_avg,gap_best,bound"
    assert len(lines) == 26
    # 17 significant digits round-trip the doubles exactly
    for i in (0, 7, 24):
        cells = lines[i + 1].split(",")
        assert int(cells[0]) == i + 1
        assert float(cells[1]) == res.trace.gamma[i]
        assert float(cells[2]) == res.trace.f_iterate[i]
        assert float(cells[3]) == res.trace.f_avg[i]
        assert float(cells[7]) == res.trace.bound[i]
    best = [float(r.split(",")[4]) for r in lines[1:]]
    assert best == sorted(best, reverse=True) or all(
        b2 <= b1 for b1, b2 in zip(best, best[1:])
    )
    gaps = [float(r.split(",")[5]) for r in lines[1:]]
    assert all(g >= -1e-12 for g in gaps)


def _odd_trace(with_bound: bool, productive: bool = True, evals: bool = True) -> Trace:
    """Cells of every kind the formatter meets: NaN, +-inf, -0.0, Python
    and numpy scalars, booleans and, when asked for, the constrained
    columns."""
    return Trace(
        gamma=[0.5, np.float64(0.25), 1e-300, math.inf, -0.0, np.float32(0.1)],
        f_iterate=[math.nan, 2.0, np.float64(1.0 / 3.0), -0.0, 7, -1e308],
        f_avg=[math.nan, math.inf, np.float64(2.0 / 3.0), -0.0, -math.inf, 1.5],
        productive=[False, True, np.bool_(True), np.bool_(False), True, True][
            : 6 if productive else 0],
        bound=[1.0, math.nan, 2.5, -0.0, np.float64(1e-17), 3][: 6 if with_bound else 0],
        constraint_evals=[3, np.int64(3), 0, 1, 2, 3][: 6 if evals else 0],
    )


@pytest.mark.parametrize("productive", [False, True])
@pytest.mark.parametrize("evals", [False, True])
@pytest.mark.parametrize("with_bound", [False, True])
@pytest.mark.parametrize("f_min", [None, 0.5, -0.0, math.inf])
def test_trace_csv_rows_match_per_cell_format(tmp_path, productive, evals,
                                              with_bound, f_min):
    # one trace shape per column combination, with and without each column
    trace = _odd_trace(with_bound, productive, evals)
    reference = None if f_min is None else ReferenceSolution(f_min, "Analytic", 0.0)
    path = str(tmp_path / "odd.csv")
    summary = write_trace_csv(path, trace, reference)
    with open(path, newline="") as fh:
        got = fh.read()
    assert got == trace_csv_per_cell(trace, reference)
    _assert_summary_reads_back(summary, path)
    summary = write_trace_csv(path, Trace(), reference)
    with open(path, newline="") as fh:
        assert fh.read() == trace_csv_per_cell(Trace(), reference)
    _assert_summary_reads_back(summary, path)
    assert set(summary.values()) == {None}


def _assert_summary_reads_back(summary: dict, path: str) -> None:
    """The summary write_trace_csv returns is the file's last row read back:
    Python numbers, equal to the oracle's parse down to the sign of zero
    and the JSON bytes of summary.json."""
    assert {type(v) for v in summary.values()} <= {int, float, type(None)}
    parsed = trace_csv_summary(path)
    assert summary == parsed
    assert json.dumps(summary, sort_keys=True) == json.dumps(parsed, sort_keys=True)


@pytest.mark.parametrize("blocks", [1, 2], ids=["one-block", "two-blocks-and-a-row"])
def test_trace_csv_blocks_neither_drop_nor_double_a_line(tmp_path, blocks):
    # exactly one block, and two blocks plus one row
    rows = blocks * bench._CSV_BLOCK_ROWS + (blocks - 1)
    rng = np.random.default_rng(blocks)
    f_avg = rng.normal(size=rows)
    f_avg[:3] = math.nan
    trace = Trace(
        gamma=list(rng.random(rows)),
        f_iterate=list(rng.normal(size=rows)),
        f_avg=list(f_avg),
        productive=list(rng.random(rows) < 0.7),
        bound=list(rng.random(rows)),
        constraint_evals=list(rng.integers(0, 9, size=rows)),
    )
    reference = ReferenceSolution(-0.25, "Analytic", 0.0)
    path = str(tmp_path / "blocks.csv")
    summary = write_trace_csv(path, trace, reference)
    with open(path, newline="") as fh:
        assert fh.read() == trace_csv_per_cell(trace, reference)
    assert summary["final_k"] == rows
    _assert_summary_reads_back(summary, path)


_BASE_HEADER = "k,gamma,f_iterate,f_avg,f_best_so_far,gap_avg,gap_best,bound"


def _written(path, trace, reference=None) -> str:
    write_trace_csv(str(path), trace, reference)
    with open(path, newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("productive", [False, True])
@pytest.mark.parametrize("evals", [False, True])
def test_trace_csv_writes_a_column_the_trace_fills(tmp_path, productive, evals):
    path = tmp_path / "cols.csv"
    trace = _odd_trace(True, productive, evals)
    want = _BASE_HEADER + ",productive" * productive + ",constraint_evals" * evals
    assert _written(path, trace).split("\n")[0] == want
    # a column one entry short is not the trace's, and is not written
    trace.productive, trace.constraint_evals = [True] * 5, [1] * 5
    assert _written(path, trace).split("\n")[0] == _BASE_HEADER


def test_trace_csv_of_an_empty_trace_is_its_base_header(tmp_path):
    # no rows: nothing fills a column, so only the always-written ones appear
    path = tmp_path / "empty.csv"
    assert _written(path, Trace()) == _BASE_HEADER + "\n"
    reference = ReferenceSolution(0.5, "Analytic", 0.0)
    assert _written(path, Trace(), reference) == _BASE_HEADER + "\n"


def test_trace_csv_without_reference_leaves_gaps_empty(tmp_path):
    res, _ = _run_small_trace()
    path = str(tmp_path / "noref.csv")
    write_trace_csv(path, res.trace)
    lines = open(path, newline="").read().strip("\n").split("\n")
    cells = lines[1].split(",")
    assert cells[5] == "" and cells[6] == ""


def test_single_cell_summary_is_its_files_last_row(tmp_path):
    path = str(tmp_path / "one.csv")
    cell = run_single_cell(BA5, "euclidean", "nonsum", 0.0, 40, path)
    again = trace_csv_summary(path)
    for key, val in again.items():
        assert cell[key] == val
    assert cell["final_k"] == 40
    assert cell["stop_reason"] == "MaxIters"
    assert cell["file"] == "one.csv"
    assert cell["reference"]["method"] == "Analytic"


# ---------------------------------------------------------------- experiments


def test_run_experiment_files_and_summary(tmp_path):
    summary = run_experiment(_small_plan(), str(tmp_path))
    assert [c["schedule"] for c in summary["cells"]] == [
        "nonsum", "nonsum", "time-varying", "time-varying",
    ]
    assert [c["m"] for c in summary["cells"]] == [0.0, 1.0, 0.0, 1.0]
    for cell in summary["cells"]:
        fpath = tmp_path / cell["file"]
        assert fpath.exists()
        assert cell["iterations"] == 40
        assert cell["stop_reason"] == "MaxIters"
        assert trace_csv_summary(str(fpath)) == {
            k: cell[k] for k in (
                "final_k", "final_f_avg", "final_gap_avg",
                "final_f_best", "final_gap_best", "final_bound",
            )
        }
    assert {c["file"] for c in summary["cells"]} == {
        "nonsum_m0.csv", "nonsum_m1.csv",
        "time-varying_m0.csv", "time-varying_m1.csv",
    }
    ondisk = json.loads((tmp_path / "summary.json").read_text())
    assert ondisk == json.loads(json.dumps(summary))


def test_run_experiment_deterministic_across_directories(tmp_path):
    da, db = tmp_path / "a", tmp_path / "b"
    run_experiment(_small_plan(), str(da))
    run_experiment(_small_plan(), str(db))
    for name in ("nonsum_m0.csv", "time-varying_m1.csv"):
        assert (da / name).read_bytes() == (db / name).read_bytes()


def test_one_plan_writes_the_same_summary_in_any_directory(tmp_path):
    plan = _small_plan(iters=10)
    summaries = [run_experiment(plan, str(tmp_path / d)) for d in ("a", "b/c")]
    assert summaries[0] == summaries[1]
    assert (tmp_path / "a" / "summary.json").read_bytes() == (
        tmp_path / "b" / "c" / "summary.json").read_bytes()


@pytest.mark.parametrize("schedules, m_values, named", [
    (("nonsum", "adagrad", "nonsum"), (0.0, 1.0), "schedule 'nonsum'"),
    (("nonsum",), (1.0, 0.5, 1.0), "m=1.0"),
], ids=["schedule", "m"])
def test_a_plan_refuses_a_repeated_schedule_or_m_by_name(schedules, m_values, named):
    with pytest.raises(ValueError, match=rf"^the plan lists {re.escape(named)} twice$"):
        _small_plan(schedules=schedules, m_values=m_values)


def test_single_cell_matches_experiment_cell(tmp_path):
    summary = run_experiment(_small_plan(), str(tmp_path / "plan"))
    single = run_single_cell(
        BA5, "euclidean", "nonsum", 0.0, 40, str(tmp_path / "nonsum_m0.csv")
    )
    planned = summary["cells"][0]
    assert (tmp_path / "nonsum_m0.csv").read_bytes() == (
        tmp_path / "plan" / "nonsum_m0.csv"
    ).read_bytes()
    for key in ("final_f_avg", "final_gap_avg", "final_bound", "iterations"):
        assert single[key] == planned[key]


def test_every_plan_cell_matches_its_single_cell_bytes(tmp_path):
    plan = _small_plan(
        schedules=("adagrad", "polyak", "time-varying"), m_values=(-1.0, 0.5, 3.0), iters=60,
    )
    summary = run_experiment(plan, str(tmp_path / "plan"))
    assert len(summary["cells"]) == 9
    for planned in summary["cells"]:
        path = tmp_path / planned["file"]
        single = run_single_cell(
            BA5, "euclidean", planned["schedule"], planned["m"], 60, str(path)
        )
        assert path.read_bytes() == (tmp_path / "plan" / planned["file"]).read_bytes()
        assert single.pop("reference") == summary["reference"]
        assert single == planned


def test_entropy_prox_experiment(tmp_path):
    plan = ExperimentPlan(
        instance=InstanceSpec("covering-ball", n=4, t=3, seed=2),
        schedules=("nonsum",),
        m_values=(0.0,),
        iters=30,
        prox="entropy",
    )
    summary = run_experiment(plan, str(tmp_path))
    cell = summary["cells"][0]
    assert cell["final_k"] == 30
    assert math.isfinite(cell["final_f_avg"])
    assert summary["reference"]["method"] == "LongRun"


def test_polyak_runs_with_the_reference_of_its_own_set():
    # on the ball of radius 3, f* = ||a|| - 3 = 7; the unit ball's ||a|| - 1
    # = 9 lies above f after one step, so a run fed that value stopped
    # there, with f_hat = 9.24
    obj = build_objective(InstanceSpec("best-approx", n=5, seed=3))
    ball = Ball(np.zeros(5), 3.0)
    f_star = reference_solution(obj, ball, 200).f_min
    assert f_star == pytest.approx(7.0, abs=1e-12)
    state = ScheduleState(schedule("polyak", f_star=f_star), 1.0)
    res = mirror_descent(obj, euclidean_setup(), ball, state, RunConfig(m=0.0, iters=200),
                         default_start(ball))
    assert res.iterations == 200
    assert 0.0 <= res.f_hat - f_star < 0.05


def test_polyak_without_known_fstar_is_rejected(tmp_path):
    plan = _small_plan(instance=InstanceSpec("fts", n=4, t=3, seed=1), schedules=("polyak",))
    with pytest.raises(ValueError, match="Polyak requires known f\\*"):
        run_experiment(plan, str(tmp_path))
    # the entropy prox runs on the simplex, where f* has no closed form
    entropy_plan = _small_plan(schedules=("polyak",), prox="entropy")
    with pytest.raises(ValueError, match="Polyak requires known f\\*"):
        run_experiment(entropy_plan, str(tmp_path))


@pytest.mark.parametrize("prox", PROX_NAMES)
@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_the_cli_polyak_skip_agrees_with_the_plan_refusal(kind, prox):
    # compare decides from the spec alone; a plan from the f* of its set
    instance = InstanceSpec(kind, n=4, t=3)
    objective, _, feasible, _ = bench._prepare_problem(instance, prox)
    analytic = bench._analytic_fstar(objective, feasible)
    assert bench._has_analytic_fstar(instance, prox) == (analytic is not None)


def test_plans_reject_constrained_instances(tmp_path):
    # refused when the plan is built, before any run or file
    with pytest.raises(ValueError, match="use the constrained comparison"):
        _small_plan(instance=InstanceSpec("max-linear", n=6, t=4, p=3, seed=5,
                                          distribution="standard-normal"))
    cell_path = tmp_path / "cell.csv"
    with pytest.raises(ValueError, match="use the constrained comparison"):
        run_single_cell(
            InstanceSpec("best-approx", n=5, p=3, seed=3), "euclidean", "nonsum",
            0.0, 10, str(cell_path),
        )
    assert not any(tmp_path.iterdir())


def test_plan_validation():
    with pytest.raises(ValueError, match="at least one schedule"):
        ExperimentPlan(instance=BA5, schedules=(), m_values=(0.0,))
    with pytest.raises(ValueError, match="unknown schedule tag"):
        ExperimentPlan(instance=BA5, schedules=("bogus",), m_values=(0.0,))
    with pytest.raises(ValueError, match="at least one m value"):
        ExperimentPlan(instance=BA5, schedules=("nonsum",), m_values=())
    with pytest.raises(ValueError, match="finite and >= -1"):
        ExperimentPlan(instance=BA5, schedules=("nonsum",), m_values=(-2.0,))
    with pytest.raises(ValueError, match="iters must be at least 1"):
        ExperimentPlan(instance=BA5, schedules=("nonsum",), m_values=(0.0,), iters=0)
    with pytest.raises(ValueError, match="unknown prox kind"):
        ExperimentPlan(
            instance=BA5, schedules=("nonsum",), m_values=(0.0,), prox="l1"
        )


def test_plan_dict_round_trip():
    plan = _small_plan()
    doc = json.loads(json.dumps(plan.to_dict()))
    assert ExperimentPlan.from_dict(doc) == plan


def test_a_fractional_plan_budget_is_refused_by_name():
    with pytest.raises(ValueError, match=r"^iters must be an integer, got 2\.5$"):
        _small_plan(iters=2.5)


def test_a_numpy_plan_budget_writes_its_summary(tmp_path):
    plan = _small_plan(iters=np.int64(5))
    assert type(plan.iters) is int
    summary = run_experiment(plan, str(tmp_path))
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written == json.loads(json.dumps(summary))
    assert written["plan"]["iters"] == 5


def test_the_plan_seed_is_its_instance_seed():
    plan = _small_plan()
    assert plan.to_dict()["seed"] == plan.instance.seed == 3
    # summaries written before the seed, epsilon and output_dir fields went
    # still load
    old = dict(plan.to_dict(), seed=5, epsilon=None, output_dir="elsewhere")
    assert ExperimentPlan.from_dict(old) == plan


def test_cells_that_would_share_a_file_are_refused_before_any_run(tmp_path):
    out = tmp_path / "cells"
    close = _small_plan(schedules=("nonsum",), m_values=(1.0000001, 1.0000002))
    with pytest.raises(
        ValueError, match=r"m=1\.0000001 and m=1\.0000002 would both write nonsum_m1\.csv"
    ):
        run_experiment(close, str(out))
    # a repeated schedule is named where the plan is made
    with pytest.raises(ValueError, match=r"^the plan lists schedule 'nonsum' twice$"):
        _small_plan(schedules=("nonsum", "time-varying", "nonsum"))
    assert not out.exists()
    # the sweep writes m with 17 digits, so the same m values stay apart
    path = sweep_m(close, out_path=str(tmp_path / "sweep.csv"))
    tokens = {row.split(",")[0] for row in open(path).read().split("\n")[1:] if row}
    assert tokens == {"%.17g" % 1.0000001, "%.17g" % 1.0000002}


# ---------------------------------------------------------------- m sweep


# the second sweep's 2 x 2049 rows cross a block boundary
@pytest.mark.parametrize("iters", [30, bench._CSV_BLOCK_ROWS // 2 + 1])
def test_sweep_matches_experiment_bytes(tmp_path, iters):
    plan = _small_plan(schedules=("time-varying",), iters=iters)
    summary = run_experiment(plan, str(tmp_path / "cells"))
    sweep_path = sweep_m(
        _small_plan(schedules=("time-varying",), iters=iters),
        out_path=str(tmp_path / "sweep.csv"),
    )
    lines = open(sweep_path, newline="").read().strip("\n").split("\n")
    assert lines[0] == "m,k,gap_avg"
    assert len(lines) == 1 + 2 * iters
    by_m = {"0": [], "1": []}
    for row in lines[1:]:
        m_tok, k, gap = row.split(",")
        by_m[m_tok].append((k, gap))
    for cell in summary["cells"]:
        cell_lines = (
            (tmp_path / "cells" / cell["file"]).read_text().strip("\n").split("\n")
        )
        want = [(r.split(",")[0], r.split(",")[5]) for r in cell_lines[1:]]
        assert by_m[format(cell["m"], "g")] == want


def test_sweep_overflow_names_the_overflowing_m(tmp_path):
    plan = _small_plan(schedules=("nonsum",), m_values=(0.0, 400.0))
    with pytest.raises(
        ValueError,
        match=r"leave the float64 range at iteration 1 with m=400 and gamma=0\.1;",
    ):
        sweep_m(plan, out_path=str(tmp_path / "sweep.csv"))
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_validation(tmp_path):
    out = str(tmp_path / "sweep.csv")
    with pytest.raises(ValueError, match="at least two m values"):
        sweep_m(_small_plan(schedules=("nonsum",), m_values=(0.0,)), out)
    with pytest.raises(ValueError, match="exactly one schedule"):
        sweep_m(_small_plan(), out)
    assert not os.path.exists(out)


# ---------------------------------------------------------------- constrained


def test_constrained_comparison_rows_and_file(tmp_path):
    spec = InstanceSpec(
        "max-linear", n=10, t=10, p=5, seed=11, distribution="standard-normal"
    )
    out = str(tmp_path / "table.csv")
    tdir = str(tmp_path / "traces")
    rows = run_constrained_comparison(
        spec, [0.25], m=1.0, out_path=out, trace_dir=tdir
    )
    assert [r["algorithm"] for r in rows] == ["alg3", "alg4"]
    for r in rows:
        assert r["epsilon"] == 0.25 and r["m"] == 1.0
        assert r["iterations"] == r["productive"] + r["nonproductive"]
        assert r["stop_reason"] == "EpsilonCriterion"
        assert r["g_hat"] <= 0.25 + 1e-9
        assert r["constraint_evals"] > 0
        assert math.isfinite(r["f_hat"])
    lines = open(out, newline="").read().strip("\n").split("\n")
    assert lines[0] == (
        "algorithm,epsilon,m,iterations,productive,nonproductive,"
        "constraint_evals,wall_seconds,f_hat,g_hat,stop_reason"
    )
    assert len(lines) == 3
    assert lines[1].startswith("alg3,0.25,1,")
    assert lines[2].startswith("alg4,0.25,1,")
    for name in ("alg3_eps0.25_m1.csv", "alg4_eps0.25_m1.csv"):
        tlines = open(os.path.join(tdir, name), newline="").read().split("\n")
        assert tlines[0] == (
            "k,gamma,f_iterate,f_avg,f_best_so_far,gap_avg,gap_best,bound,"
            "productive,constraint_evals"
        )
        flags = {r.split(",")[8] for r in tlines[1:] if r}
        assert flags <= {"0", "1"}


def test_constrained_traces_that_would_share_a_file_are_refused(tmp_path):
    spec = InstanceSpec("max-linear", n=4, t=2, p=3, seed=42)
    tdir = tmp_path / "traces"
    with pytest.raises(
        ValueError,
        match=r"epsilon=0\.5000001 and epsilon=0\.5000002 would both write alg3_eps0\.5_m1\.csv",
    ):
        run_constrained_comparison(
            spec, [0.5000001, 0.5000002], m=1.0, out_path=str(tmp_path / "t.csv"),
            trace_dir=str(tdir),
        )
    assert not tdir.exists() and not (tmp_path / "t.csv").exists()


def test_constrained_comparison_holds_one_trace_at_a_time(tmp_path, monkeypatch):
    # when alg4's solve starts, alg3's trace is on disk and nothing holds it
    tdir = tmp_path / "traces"
    alg3, alg4 = bench.constrained_md, bench.constrained_md_multi
    traces, seen = [], []

    def solve3(*args, **kwargs):
        res = alg3(*args, **kwargs)
        traces.append(weakref.ref(res.trace))
        return res

    def solve4(*args, **kwargs):
        seen.append((sorted(p.name for p in tdir.iterdir()), traces[-1]() is None))
        return alg4(*args, **kwargs)

    monkeypatch.setattr(bench, "constrained_md", solve3)
    monkeypatch.setattr(bench, "constrained_md_multi", solve4)
    spec = InstanceSpec("max-linear", n=4, t=2, p=3, seed=42)
    run_constrained_comparison(spec, [0.5, 0.25], m=1.0, out_path=str(tmp_path / "t.csv"),
                               trace_dir=str(tdir))
    assert seen == [
        (["alg3_eps0.5_m1.csv"], True),
        (["alg3_eps0.25_m1.csv", "alg3_eps0.5_m1.csv", "alg4_eps0.5_m1.csv"], True),
    ]


def test_constrained_comparison_validation(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an invalid comparison reached a solve")

    monkeypatch.setattr("mdbench.bench.constrained_md", never)
    out = str(tmp_path / "t.csv")
    with pytest.raises(ValueError, match="needs p >= 1"):
        run_constrained_comparison(BA5, [0.25], m=1.0, out_path=out)
    spec = InstanceSpec(
        "max-linear", n=6, t=4, p=2, seed=5, distribution="standard-normal"
    )
    with pytest.raises(ValueError, match="schedule_mode"):
        run_constrained_comparison(
            spec, [0.25], m=1.0, out_path=out, schedule_mode="nonsum"
        )
    # every epsilon is checked before the first solve, not when its turn comes
    for epsilons in ([0.0], [0.25, 0.0]):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            run_constrained_comparison(spec, epsilons, m=1.0, out_path=out)
    # a repeated epsilon would be solved and written twice, traced or not
    tdir = str(tmp_path / "traces")
    for trace_dir in (None, tdir):
        with pytest.raises(ValueError, match=r"^the plan lists epsilon=0\.5 twice$"):
            run_constrained_comparison(spec, [0.5, 0.25, np.float64(0.5)], m=1.0,
                                       out_path=out, trace_dir=trace_dir)
    assert not os.path.exists(out) and not os.path.exists(tdir)


def test_instance_json_round_trip(tmp_path):
    spec = InstanceSpec(
        "max-linear", n=7, t=4, p=3, seed=13, distribution="standard-normal"
    )
    path = str(tmp_path / "inst.json")
    write_instance_json(spec, path)
    doc = json.loads(open(path).read())
    spec2, obj2, cons2 = deserialize_instance(doc)
    assert spec2 == spec
    obj = build_objective(spec)
    cons = build_constraints(spec)
    assert obj2.a.tobytes() == obj.a.tobytes()
    assert obj2.b.tobytes() == obj.b.tobytes()
    assert cons2.alphas.tobytes() == cons.alphas.tobytes()
    assert cons2.betas.tobytes() == cons.betas.tobytes()
