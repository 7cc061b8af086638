"""Accepted-input property: every value the run parameters, plans, instance
specs, step rules and the CLI accept finishes with finite output, and every
value they refuse fails with an error that names the cause."""
from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from mdbench.bench import (
    ExperimentPlan,
    _prepare_problem,
    default_start,
    reference_solution,
    run_experiment,
)
from mdbench.cli import main
from mdbench.geometry import euclidean_setup, unit_ball
from mdbench.problems import (
    DIST_NORMAL,
    DIST_UNIFORM,
    OBJECTIVE_KINDS,
    InstanceSpec,
    build_constraints,
    build_objective,
    serialize_instance,
)
from mdbench.schedules import TABLE_TAGS, ScheduleState, schedule
from mdbench.solvers import (
    NoProductiveSteps,
    RunConfig,
    constrained_md,
    mirror_descent,
)

_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.function_scoped_fixture])

# Python and numpy integers and floats of every size, NaN and infinities
_NUMBERS = st.one_of(
    st.integers(),
    st.floats(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.integers(-3, 40),
    st.floats(-3.0, 40.0),
)

# a run needs no more iterations than this to show its output is finite
_ITERS_CAP = 20


def _fields(data, valid: dict, unprobed: int = 1) -> dict:
    """One value per field: from its valid strategy, except one field (or
    none) drawn from any number, so each example probes one field. No field
    is probed with ``unprobed`` times the odds of each field."""
    off = data.draw(st.sampled_from((None,) * unprobed + tuple(valid)), label="probed field")
    return {name: data.draw(_NUMBERS if name == off else strategy, label=name)
            for name, strategy in valid.items()}


def _names(exc, fields) -> bool:
    return any(re.search(rf"\b{re.escape(f)}\b", str(exc)) for f in fields)


def _finite_run(solve):
    """Run ``solve``: it finishes with a finite point and value, or raises
    a ValueError or NoProductiveSteps with a message."""
    try:
        res = solve()
    except (ValueError, NoProductiveSteps) as exc:
        assert str(exc)
        event(f"run refused: {type(exc).__name__}")
        return
    assert math.isfinite(res.f_hat), res.stop_reason
    assert np.isfinite(res.x_hat).all()
    event(f"run finished: {res.stop_reason.value}")


def _small_problem():
    spec = InstanceSpec("max-linear", n=4, t=3, p=3, seed=1, distribution=DIST_NORMAL)
    objective, constraints = build_objective(spec), build_constraints(spec)
    return objective, constraints, euclidean_setup(), unit_ball(4)


@_PROPERTY
@given(st.data())
def test_run_config_accepts_only_what_runs(data):
    fields = _fields(data, {
        "m": st.floats(-1.0, 8.0),
        "iters": st.integers(1, _ITERS_CAP),
        "epsilon": st.none() | st.floats(1e-3, 2.0),
        "theta": st.floats(0.1, 10.0),
    })
    try:
        config = RunConfig(**fields, record_trace=False)
    except ValueError as exc:
        assert _names(exc, fields), str(exc)
        event("refused")
        return
    assert config.iters is None or type(config.iters) is int
    objective, constraints, prox, ball = _small_problem()
    state = lambda: ScheduleState(schedule("nonsum"), prox.sigma)  # noqa: E731
    capped = replace(config, iters=min(config.iters or _ITERS_CAP, _ITERS_CAP))
    if config.iters is not None:
        _finite_run(lambda: mirror_descent(
            objective, prox, ball, state(), capped, default_start(ball)))
    if config.epsilon is not None:
        _finite_run(lambda: constrained_md(
            objective, constraints, prox, ball, state(), state(), capped, np.zeros(4)))


@_PROPERTY
@given(st.sampled_from(OBJECTIVE_KINDS), st.sampled_from((DIST_UNIFORM, DIST_NORMAL)),
       st.data())
def test_instance_spec_accepts_only_what_builds(kind, distribution, data):
    fields = _fields(data, {
        "n": st.integers(1, 10), "t": st.integers(1, 10), "p": st.integers(0, 5),
        "seed": st.integers(0, 2**70),
    })
    try:
        spec = InstanceSpec(kind, **fields, distribution=distribution)
    except ValueError as exc:
        assert _names(exc, fields), str(exc)
        event("refused")
        return
    assert all(type(getattr(spec, name)) is int for name in fields)
    assert InstanceSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
    if spec.n * spec.t * (spec.p + 1) <= 10_000:
        event("built")
        doc = serialize_instance(spec)
        assert json.loads(json.dumps(doc)) == doc


@_PROPERTY
@given(st.sampled_from(OBJECTIVE_KINDS[:2]), st.sampled_from(("euclidean", "entropy")),
       st.data())
def test_experiment_plan_accepts_only_what_runs(tmp_path_factory, kind, prox, data):
    # a field is probed in one example of four, no rule is named in one of
    # ten and an unknown one in one of ten, so most reach the paths that run
    tags = data.draw(st.lists(st.sampled_from(TABLE_TAGS), min_size=1, max_size=3, unique=True))
    tags = data.draw(st.sampled_from((tags,) * 8 + ([], [*tags, "no-such-rule"])),
                     label="tags")
    fields = _fields(data, {"m": st.floats(-1.0, 8.0), "iters": st.integers(1, _ITERS_CAP)},
                     unprobed=6)
    m_values = (fields["m"], *data.draw(st.lists(st.floats(-1.0, 8.0), max_size=2)))
    out = tmp_path_factory.mktemp("plan")
    try:
        plan = ExperimentPlan(InstanceSpec(kind, n=4, t=3, seed=2), tuple(tags), m_values,
                              iters=fields["iters"], prox=prox)
    except ValueError as exc:
        assert _names(exc, ("schedule", "m", "iters")), str(exc)
        event("refused")
        return
    assert type(plan.iters) is int
    json.dumps(plan.to_dict())
    if plan.iters > _ITERS_CAP:
        return
    try:
        summary = run_experiment(plan, str(out))
    except ValueError as exc:
        assert str(exc)
        event("run refused")
        return
    carrier = "with" if "time-varying" in plan.schedules else "without"
    event(f"run finished: {kind}, {prox}, {carrier} a time-varying row")
    text = (out / "summary.json").read_text()
    assert not re.search(r"\b(NaN|Infinity)\b", text)
    assert len(summary["cells"]) == len(plan.schedules) * len(plan.m_values)
    _assert_reference_is_direct(plan, summary)


def _assert_reference_is_direct(plan, summary):
    # whether the plan's own time-varying row carried the bracket or the
    # reference ran on its own, it is reference_solution's, bit for bit
    objective, _, feasible, _ = _prepare_problem(plan.instance, plan.prox)
    assert summary["reference"] == asdict(
        reference_solution(objective, feasible, iters_budget=plan.iters))


# fts n=4 seed 2: the row's bracket closes at a budget of 5 and is still too
# wide at 1, where the separate run takes over; entropy plans never carry it
@pytest.mark.parametrize("iters", (1, 5))
@pytest.mark.parametrize("tags", [("time-varying",), ("adagrad", "time-varying", "nonsum")])
@pytest.mark.parametrize("prox", ("euclidean", "entropy"))
def test_a_plan_reference_is_reference_solution_on_every_path(tmp_path, prox, tags, iters):
    plan = ExperimentPlan(InstanceSpec("fts", n=4, t=3, seed=2), tags, (1.0, 3.0), iters=iters,
                          prox=prox)
    _assert_reference_is_direct(plan, run_experiment(plan, str(tmp_path)))


@_PROPERTY
@given(st.sampled_from(TABLE_TAGS), st.data())
def test_step_rules_accept_only_what_runs(tag, data):
    # time-varying gets a positive m_lipschitz, polyak a finite f_star, the
    # other rules neither
    params = _fields(data, {
        "m_lipschitz": st.floats(1e-3, 10.0) if tag == "time-varying" else st.none(),
        "f_star": st.floats(-10.0, 10.0) if tag == "polyak" else st.none(),
    })
    try:
        kind = schedule(tag, **params)
    except ValueError as exc:
        assert _names(exc, (tag,)), str(exc)
        event("refused")
        return
    objective, _, prox, ball = _small_problem()
    config = RunConfig(m=1.0, iters=_ITERS_CAP)
    _finite_run(lambda: mirror_descent(
        objective, prox, ball, ScheduleState(kind, prox.sigma), config, default_start(ball)))


# flag values a user might type, valid and not; instances stay small and runs
# short, and n >= 4 keeps unconstrained references off the grid search of
# n <= 3, which alone can take seconds
_FLAG_VALUES = {
    "--problem": OBJECTIVE_KINDS,
    "--n": ("4", "6", "0", "-1", "2.5", "1e9"),
    "--t": ("1", "3", "0", "-2"),
    "--p": ("0", "1", "3", "-1"),
    "--seed": ("0", "7", "-1", "2.5", "99999999999999999999"),
    "--dist": (DIST_UNIFORM, DIST_NORMAL, "cauchy"),
    "--prox": ("euclidean", "entropy"),
    "--m": ("0", "1", "5", "-1", "-2", "nan", "inf", "1e308", "400"),
    "--schedule": TABLE_TAGS,
    "--epsilon": ("0.5", "2", "0", "-1", "inf", "nan", "1e-300"),
}
_FLAGS = {
    "run": ("--problem", "--n", "--t", "--seed", "--prox", "--m", "--schedule"),
    "compare": ("--problem", "--n", "--t", "--seed", "--prox", "--m"),
    "sweep-m": ("--problem", "--n", "--t", "--seed", "--prox", "--m", "--schedule"),
    "constrained": ("--problem", "--n", "--t", "--p", "--seed", "--dist", "--m",
                    "--epsilon"),
    "gen": ("--problem", "--n", "--t", "--p", "--seed", "--dist"),
}
_ITER_VALUES = ("1", "5", str(_ITERS_CAP), "0", "-3", "2.5")


@st.composite
def _cli_args(draw):
    command = draw(st.sampled_from(tuple(_FLAGS)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(_FLAGS[command]), max_size=4, unique=True)):
        values = st.sampled_from(_FLAG_VALUES[flag])
        if command == "sweep-m" and flag == "--m" or flag == "--epsilon":
            argv += [flag, *draw(st.lists(values, min_size=1, max_size=3))]
        else:
            argv += [flag, draw(values)]
    if command != "gen":
        argv += ["--iters", draw(st.sampled_from(_ITER_VALUES))]
    return argv


_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@_PROPERTY
@given(_cli_args())
def test_cli_finishes_finite_or_names_the_cause(tmp_path_factory, capsys, argv):
    out = tmp_path_factory.mktemp("cli")
    target = out / ("result" if argv[0] == "compare" else "result.out")
    extra = ["--trace-dir", str(out / "traces")] if argv[0] == "constrained" else []
    rc = main([*argv, "--out", str(target), *extra])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    event(f"exit {rc}")
    if rc:
        assert rc in (1, 2)
        assert re.search(r"^(usage error: |error: |usage: )", captured.err, re.MULTILINE)
        return
    texts = [captured.out] + [p.read_text() for p in out.rglob("*") if p.is_file()]
    for text in texts:
        assert not _NON_FINITE.search(text), (argv, text[:200])


# a Python int beyond the float64 range, and numpy scalars, in real fields
_HUGE = 10**400


@pytest.mark.parametrize("field", ["m", "epsilon", "theta"])
@pytest.mark.parametrize("value", [_HUGE, -_HUGE, "1", [1.0]],
                         ids=["huge", "minus-huge", "str", "list"])
def test_run_config_refuses_a_real_field_it_cannot_convert_by_name(field, value):
    fields = {"m": 1.0, "iters": 5, "epsilon": 0.5, "theta": 2.0, field: value}
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        RunConfig(**fields)


def test_huge_m_values_and_step_rule_parameters_are_refused_by_name():
    with pytest.raises(ValueError, match=r"\bm\b"):
        ExperimentPlan(InstanceSpec("fts", n=4, t=3), ("nonsum",), (0.0, _HUGE))
    with pytest.raises(ValueError, match=r"time-varying.*\bm_lipschitz\b"):
        schedule("time-varying", m_lipschitz=_HUGE)


def test_numpy_real_fields_are_stored_as_python_floats():
    config = RunConfig(m=np.float64(1), iters=5, epsilon=np.float32(0.5), theta=np.int64(2))
    assert [type(v) for v in (config.m, config.epsilon, config.theta)] == [float] * 3
    assert (config.m, config.epsilon, config.theta) == (1.0, 0.5, 2.0)
    plan = ExperimentPlan(InstanceSpec("fts", n=4, t=3), ("nonsum",), np.array([0.0, 2.0]))
    assert [type(m) for m in plan.m_values] == [float, float]
    kind = schedule("time-varying", m_lipschitz=np.float32(0.25))
    assert type(kind.m_lipschitz) is float and kind.m_lipschitz == 0.25
    # a numpy m weights like a Python float: the same run, bit for bit
    objective, _, prox, ball = _small_problem()
    runs = [mirror_descent(objective, prox, ball, ScheduleState(schedule("nonsum"), 1.0),
                           RunConfig(m=m, iters=20), default_start(ball))
            for m in (np.float64(3.0), 3.0)]
    assert runs[0].x_hat.tobytes() == runs[1].x_hat.tobytes()
