"""Benchmark harness: references, CSV output, experiment plans, sweeps."""
from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from mdbench.bench import (
    ExperimentPlan,
    ReferenceSolution,
    constrained_reference,
    constrained_start,
    default_start,
    grid_refine_minimize,
    reference_solution,
    run_constrained_comparison,
    run_experiment,
    run_single_cell,
    summarize_cell_csv,
    sweep_m,
    theta_for,
    write_instance_json,
    write_trace_csv,
)
from mdbench.bench import bound_corollaries  # re-exported convenience import
from mdbench.geometry import Ball, Simplex, euclidean_setup, unit_ball
from mdbench.problems import (
    DistanceToPoint,
    InstanceSpec,
    MeanDistance,
    build_constraints,
    build_objective,
    deserialize_instance,
)
from mdbench.schedules import ScheduleState, schedule
from mdbench.solvers import RunConfig, Trace, mirror_descent

from oracles import grid_refine_pointwise, trace_csv_per_cell

BA5 = InstanceSpec("best-approx", n=5, seed=3)


def _small_plan(tmp, **kw) -> ExperimentPlan:
    args = dict(
        instance=BA5,
        schedules=("nonsum", "time-varying"),
        m_values=(0.0, 1.0),
        iters=40,
        output_dir=str(tmp),
        seed=3,
    )
    args.update(kw)
    return ExperimentPlan(**args)


# ---------------------------------------------------------------- geometry glue


def test_theta_for_values():
    assert theta_for(unit_ball(3)) == 2.0
    assert theta_for(Ball(np.zeros(4), 10.0)) == 200.0
    assert theta_for(Simplex(6)) == 1.0


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
    ref = reference_solution(obj, unit_ball(50))
    assert ref.method == "Analytic"
    assert ref.tolerance == 0.0
    assert ref.f_min == pytest.approx(9.0, abs=1e-12)


def test_reference_grid_for_tiny_dimension():
    # mean distance to (1,0) and (-1,0) is exactly 1 on the joining segment
    obj = MeanDistance([[1.0, 0.0], [-1.0, 0.0]])
    ref = reference_solution(obj, unit_ball(2))
    assert ref.method == "GridRefine"
    assert ref.tolerance >= 1e-6
    assert abs(ref.f_min - 1.0) <= ref.tolerance + 1e-9


def test_reference_long_run_and_its_tolerance():
    obj = build_objective(InstanceSpec("covering-ball", n=6, t=3, seed=8))
    ref = reference_solution(obj, unit_ball(6), iters_budget=100)
    assert ref.method == "LongRun"
    assert ref.tolerance == bound_corollaries(5.0, 5000, 1.0, 2.0, 1.0)
    assert math.isfinite(ref.f_min)


def test_grid_refine_minimize_known_minimum():
    c = np.array([0.25, -0.3])
    obj = DistanceToPoint(c)
    x, v, achieved = grid_refine_minimize(obj.values, unit_ball(2), tol=1e-6)
    assert achieved <= 1e-6
    assert v <= 1e-6
    np.testing.assert_allclose(x, c, rtol=0.0, atol=5e-6)
    with pytest.raises(ValueError, match="limited to n <= 3"):
        grid_refine_minimize(obj.values, unit_ball(4))


@pytest.mark.parametrize(
    "spec, feasible, rounds",
    [
        (InstanceSpec("covering-ball", n=2, t=7, seed=4), Ball(np.array([0.3, -0.2]), 1.5), 12),
        (InstanceSpec("max-linear", n=3, t=10, seed=5), Simplex(3), 2),
    ],
    ids=["ball", "simplex"],
)
def test_grid_refine_matches_pointwise_reference(spec, feasible, rounds):
    # each case has a round of more than one 4096-row block
    obj = build_objective(spec)
    kw = dict(lipschitz=obj.lipschitz_bound, max_rounds=rounds)
    x, v, slack = grid_refine_minimize(obj.values, feasible, **kw)
    x_ref, v_ref, slack_ref = grid_refine_pointwise(obj.value, feasible, **kw)
    assert (x.tobytes(), v, slack) == (x_ref.tobytes(), v_ref, slack_ref)


def test_grid_refine_n3_ball_matches_pointwise_reference():
    # rounds of 9**3, 17**3, 17**3 and 33**3 rows: the last spans nine
    # 4096-row blocks
    obj = build_objective(InstanceSpec("fts", n=3, t=5, seed=2))
    feasible = Ball(np.array([0.1, 0.2, -0.1]), 0.8)
    kw = dict(lipschitz=obj.lipschitz_bound, max_rounds=4)
    x, v, slack = grid_refine_minimize(obj.values, feasible, **kw)
    x_ref, v_ref, slack_ref = grid_refine_pointwise(obj.value, feasible, **kw)
    assert (x.tobytes(), v, slack) == (x_ref.tobytes(), v_ref, slack_ref)


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
    assert ref.tolerance >= 0.05
    assert math.isfinite(ref.f_min)


# ---------------------------------------------------------------- trace CSV


def _run_small_trace():
    obj = build_objective(BA5)
    state = ScheduleState(schedule("time-varying", m_lipschitz=1.0), 1.0)
    res = mirror_descent(
        obj, euclidean_setup(), unit_ball(5), state,
        RunConfig(m=0.0, iters=25), default_start(unit_ball(5)),
    )
    ref = reference_solution(obj, unit_ball(5))
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


def _odd_trace(with_bound: bool) -> Trace:
    """Cells of every kind the formatter meets: NaN, +-inf, -0.0, Python
    and numpy scalars, booleans and the constrained columns."""
    return Trace(
        k=[1, np.int64(2), 3, 4, 5, 6],
        gamma=[0.5, np.float64(0.25), 1e-300, math.inf, -0.0, np.float32(0.1)],
        f_iterate=[math.nan, 2.0, np.float64(1.0 / 3.0), -0.0, 7, -1e308],
        f_avg=[math.nan, math.inf, np.float64(2.0 / 3.0), -0.0, -math.inf, 1.5],
        g_iterate=[0.1] * 6,
        productive=[False, True, np.bool_(True), np.bool_(False), True, True],
        bound=[1.0, math.nan, 2.5, -0.0, np.float64(1e-17), 3][: 6 if with_bound else 0],
        constraint_evals=[3, np.int64(3), 0, 1, 2, 3],
    )


@pytest.mark.parametrize("productive", [False, True])
@pytest.mark.parametrize("evals", [False, True])
@pytest.mark.parametrize("with_bound", [False, True])
@pytest.mark.parametrize("f_min", [None, 0.5, -0.0, math.inf])
def test_trace_csv_rows_match_per_cell_format(tmp_path, productive, evals,
                                              with_bound, f_min):
    trace = _odd_trace(with_bound)
    reference = None if f_min is None else ReferenceSolution(f_min, "Analytic", 0.0)
    path = str(tmp_path / "odd.csv")
    write_trace_csv(path, trace, reference, include_productive=productive,
                    include_evals=evals)
    with open(path, newline="") as fh:
        got = fh.read()
    assert got == trace_csv_per_cell(trace, reference, productive, evals)
    write_trace_csv(path, Trace(), reference, productive, evals)
    with open(path, newline="") as fh:
        assert fh.read() == trace_csv_per_cell(Trace(), reference, productive, evals)


def test_trace_csv_without_reference_leaves_gaps_empty(tmp_path):
    res, _ = _run_small_trace()
    path = str(tmp_path / "noref.csv")
    write_trace_csv(path, res.trace)
    lines = open(path, newline="").read().strip("\n").split("\n")
    cells = lines[1].split(",")
    assert cells[5] == "" and cells[6] == ""


def test_summarize_cell_csv_round_trip(tmp_path):
    path = str(tmp_path / "one.csv")
    cell = run_single_cell(BA5, "euclidean", "nonsum", 0.0, 40, path)
    again = summarize_cell_csv(path)
    for key, val in again.items():
        assert cell[key] == val
    assert cell["final_k"] == 40
    assert cell["stop_reason"] == "MaxIters"
    assert cell["file"] == "one.csv"
    assert cell["reference"]["method"] == "Analytic"


def test_summarize_handles_header_only_file(tmp_path):
    path = str(tmp_path / "empty.csv")
    with open(path, "w", newline="") as fh:
        fh.write("k,gamma,f_iterate,f_avg,f_best_so_far,gap_avg,gap_best,bound\n")
    got = summarize_cell_csv(path)
    assert got["final_k"] is None and got["final_f_avg"] is None


# ---------------------------------------------------------------- experiments


def test_run_experiment_files_and_summary(tmp_path):
    plan = _small_plan(tmp_path)
    summary = run_experiment(plan)
    assert [c["schedule"] for c in summary["cells"]] == [
        "nonsum", "nonsum", "time-varying", "time-varying",
    ]
    assert [c["m"] for c in summary["cells"]] == [0.0, 1.0, 0.0, 1.0]
    for cell in summary["cells"]:
        fpath = tmp_path / cell["file"]
        assert fpath.exists()
        assert cell["iterations"] == 40
        assert cell["stop_reason"] == "MaxIters"
        assert summarize_cell_csv(str(fpath)) == {
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
    run_experiment(_small_plan(da))
    run_experiment(_small_plan(db))
    for name in ("nonsum_m0.csv", "time-varying_m1.csv"):
        assert (da / name).read_bytes() == (db / name).read_bytes()


def test_single_cell_matches_experiment_cell(tmp_path):
    summary = run_experiment(_small_plan(tmp_path / "plan"))
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
        tmp_path / "plan", schedules=("adagrad", "polyak", "time-varying"),
        m_values=(-1.0, 0.5, 3.0), iters=60,
    )
    summary = run_experiment(plan)
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
        output_dir=str(tmp_path),
        seed=2,
        prox="entropy",
    )
    summary = run_experiment(plan)
    cell = summary["cells"][0]
    assert cell["final_k"] == 30
    assert math.isfinite(cell["final_f_avg"])
    assert summary["reference"]["method"] == "LongRun"


def test_polyak_without_known_fstar_is_rejected(tmp_path):
    plan = _small_plan(
        tmp_path,
        instance=InstanceSpec("fts", n=4, t=3, seed=1),
        schedules=("polyak",),
    )
    with pytest.raises(ValueError, match="Polyak requires known f\\*"):
        run_experiment(plan)
    # the analytic value holds on the unit ball only: entropy clears it
    entropy_plan = _small_plan(
        tmp_path, schedules=("polyak",), prox="entropy"
    )
    with pytest.raises(ValueError, match="Polyak requires known f\\*"):
        run_experiment(entropy_plan)


def test_plans_reject_constrained_instances(tmp_path):
    plan = _small_plan(
        tmp_path,
        instance=InstanceSpec(
            "max-linear", n=6, t=4, p=3, seed=5, distribution="standard-normal"
        ),
    )
    with pytest.raises(ValueError, match="use the constrained comparison"):
        run_experiment(plan)
    cell_path = tmp_path / "cell.csv"
    with pytest.raises(ValueError, match="use the constrained comparison"):
        run_single_cell(
            InstanceSpec("best-approx", n=5, p=3, seed=3), "euclidean", "nonsum",
            0.0, 10, str(cell_path),
        )
    assert not cell_path.exists()


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
    with pytest.raises(ValueError, match="epsilon must be positive"):
        ExperimentPlan(
            instance=BA5, schedules=("nonsum",), m_values=(0.0,), epsilon=0.0
        )
    with pytest.raises(ValueError, match="unknown prox name"):
        ExperimentPlan(
            instance=BA5, schedules=("nonsum",), m_values=(0.0,), prox="l1"
        )


def test_plan_dict_round_trip(tmp_path):
    plan = _small_plan(tmp_path, epsilon=0.5)
    doc = json.loads(json.dumps(plan.to_dict()))
    assert ExperimentPlan.from_dict(doc) == plan


# ---------------------------------------------------------------- m sweep


def test_sweep_matches_experiment_bytes(tmp_path):
    plan = _small_plan(tmp_path / "cells", schedules=("time-varying",), iters=30)
    summary = run_experiment(plan)
    sweep_path = sweep_m(
        _small_plan(tmp_path, schedules=("time-varying",), iters=30),
        out_path=str(tmp_path / "sweep.csv"),
    )
    lines = open(sweep_path, newline="").read().strip("\n").split("\n")
    assert lines[0] == "m,k,gap_avg"
    assert len(lines) == 1 + 2 * 30
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
    plan = _small_plan(tmp_path, schedules=("nonsum",), m_values=(0.0, 400.0))
    with pytest.raises(
        ValueError,
        match=r"leave the float64 range at iteration 1 with m=400 and gamma=0\.1;",
    ):
        sweep_m(plan, out_path=str(tmp_path / "sweep.csv"))
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_validation(tmp_path):
    with pytest.raises(ValueError, match="at least two m values"):
        sweep_m(_small_plan(tmp_path, schedules=("nonsum",), m_values=(0.0,)))
    with pytest.raises(ValueError, match="exactly one schedule"):
        sweep_m(_small_plan(tmp_path))


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


def test_constrained_comparison_validation(tmp_path):
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
    with pytest.raises(ValueError, match="epsilon must be positive"):
        run_constrained_comparison(spec, [0.0], m=1.0, out_path=out)


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
