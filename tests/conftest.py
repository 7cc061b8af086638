"""Shared fixtures. The expensive solver runs happen once per session and
the tests that need them read the cached results."""
from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mdbench.bench import ReferenceSolution, constrained_reference, default_start
from mdbench.geometry import euclidean_setup, unit_ball
from mdbench.problems import InstanceSpec, build_constraints, build_objective
from mdbench.schedules import TAG_TIME_VARYING, ScheduleState, schedule
from mdbench.solvers import RunConfig, _descent, constrained_md


@pytest.fixture(scope="session")
def ball_runs():
    """Distance objective on the unit ball, n=50, certified steps, 10^4
    iterations, one trajectory averaged with each weighting exponent.
    Shared by the rate tests; every wall time is that of the whole sweep."""
    spec = InstanceSpec(kind="best-approx", n=50, seed=42)
    objective = build_objective(spec)
    prox = euclidean_setup()
    feasible = unit_ball(50)
    ms = (-1.0, 0.0, 1.0, 2.0, 5.0)
    state = ScheduleState(
        schedule(TAG_TIME_VARYING, m_lipschitz=objective.lipschitz_bound),
        prox.sigma,
    )
    config = RunConfig(m=0.0, iters=10_000, record_trace=True)
    t0 = time.perf_counter()
    (sweep,) = _descent(objective, prox, feasible, (state,), config, default_start(feasible), ms)
    wall = time.perf_counter() - t0
    return {
        "objective": objective,
        "results": dict(zip(ms, sweep)),
        "walls": dict.fromkeys(ms, wall),
    }


@pytest.fixture(scope="session")
def switching_instance():
    """Affinely constrained piecewise-linear instance with a strictly
    feasible region, an infeasible start, and constraints active at the
    optimum, so runs genuinely alternate between both step types."""
    spec = InstanceSpec(
        kind="max-linear", n=10, t=10, p=5, seed=11, distribution="standard-normal"
    )
    return {
        "spec": spec,
        "objective": build_objective(spec),
        "constraints": build_constraints(spec),
        "feasible": unit_ball(10),
        "prox": euclidean_setup(),
        "x1": np.zeros(10),
    }


@pytest.fixture(scope="session")
def switching_reference(switching_instance) -> ReferenceSolution:
    inst = switching_instance
    return constrained_reference(
        inst["objective"], inst["constraints"], inst["feasible"]
    )


@pytest.fixture(scope="session")
def switching_run(switching_instance):
    """Criterion-stopped switching run at epsilon = 1e-2, m = 1."""
    inst = switching_instance
    prox = inst["prox"]
    state_f = ScheduleState(
        schedule(TAG_TIME_VARYING, m_lipschitz=inst["objective"].lipschitz_bound),
        prox.sigma,
    )
    state_g = ScheduleState(
        schedule(TAG_TIME_VARYING, m_lipschitz=inst["constraints"].lipschitz_bound),
        prox.sigma,
    )
    config = RunConfig(m=1.0, epsilon=1e-2, theta=2.0, record_trace=False)
    t0 = time.perf_counter()
    result = constrained_md(
        inst["objective"], inst["constraints"], prox, inst["feasible"],
        state_f, state_g, config, inst["x1"],
    )
    return {"result": result, "wall": time.perf_counter() - t0, "epsilon": 1e-2}
