"""Step-size rules: formulas, defaults, certification flags, errors."""
from __future__ import annotations

import math

import numpy as np
import pytest

from mdbench.schedules import (
    TABLE_TAGS,
    ScheduleKind,
    ScheduleState,
    StationarySignal,
    is_nonincreasing_guaranteed,
    schedule,
)


def test_table_tags_exact_spellings():
    assert TABLE_TAGS == (
        "constant-step",
        "fixed-length",
        "nonsum",
        "sqrsum-nonsum",
        "quad-grad",
        "adagrad",
        "polyak",
        "time-varying",
        "adaptive-time-varying",
    )


def test_nonsum_example():
    state = ScheduleState(schedule("nonsum"), sigma=1.0)
    state.step_size(1)
    state.step_size(2)
    state.step_size(3)
    assert state.step_size(4) == 0.05


def test_time_varying_example():
    state = ScheduleState(schedule("time-varying", m_lipschitz=1.0), sigma=1.0)
    state.step_size(1)
    assert state.step_size(2) == pytest.approx(1.0, abs=1e-15)


def test_adagrad_example():
    state = ScheduleState(schedule("adagrad"), sigma=1.0)
    got = state.step_size(1, grad_dual_norm=1.0)
    assert got == pytest.approx(math.sqrt(2.0) / math.sqrt(1.0 + 1e-8), abs=1e-15)


def _kind(tag, m_lipschitz, f_star):
    """The kind of ``tag`` with the one parameter its rule takes, if any."""
    params = {"time-varying": {"m_lipschitz": m_lipschitz}, "polyak": {"f_star": f_star}}
    return schedule(tag, **params.get(tag, {}))


def test_certification_flags():
    certified = {"constant-step", "nonsum", "sqrsum-nonsum", "adagrad", "time-varying"}
    for tag in TABLE_TAGS:
        kind = _kind(tag, 1.0, 0.0)
        assert is_nonincreasing_guaranteed(kind) == (tag in certified)


def test_every_rule_matches_direct_formula_on_probes():
    rng = np.random.default_rng(40)
    f_star = 1.0
    for tag in TABLE_TAGS:
        sigma = 1.0
        state = ScheduleState(_kind(tag, 2.5, f_star), sigma)
        accum = 0.0
        k = 0
        for _ in range(100):
            k += int(rng.integers(1, 4))  # counters may skip values
            gn = float(rng.random()) * 4.9 + 0.1
            f_val = f_star + float(rng.random()) * 3.0 + 0.01
            got = state.step_size(k, f_val=f_val, grad_dual_norm=gn)
            if tag == "constant-step":
                want = 0.1
            elif tag == "fixed-length":
                want = 0.2 / gn
            elif tag == "nonsum":
                want = 0.1 / math.sqrt(k)
            elif tag == "sqrsum-nonsum":
                want = 0.5 / k
            elif tag == "quad-grad":
                want = 0.2 / gn**2
            elif tag == "adagrad":
                accum += gn * gn
                want = math.sqrt(2.0) / math.sqrt(accum + 1e-8)
            elif tag == "polyak":
                want = (f_val - f_star) / gn**2
            elif tag == "time-varying":
                want = math.sqrt(2.0 * sigma) / (2.5 * math.sqrt(k))
            else:
                want = math.sqrt(2.0 * sigma) / (gn * math.sqrt(k))
            assert got == pytest.approx(want, rel=1e-15)


def test_adagrad_steps_are_nonincreasing_for_any_stream():
    rng = np.random.default_rng(41)
    state = ScheduleState(schedule("adagrad"), sigma=1.0)
    prev = math.inf
    for k in range(1, 501):
        gamma = state.step_size(k, grad_dual_norm=float(rng.random()) * 10.0)
        assert gamma <= prev
        prev = gamma


def test_time_varying_exactness_up_to_1e6():
    m_lip = 3.7
    sigma = 2.0
    state = ScheduleState(schedule("time-varying", m_lipschitz=m_lip), sigma)
    root = math.sqrt(2.0 * sigma)
    ks = sorted(set(range(1, 101)) | {10**3, 10**4, 10**5, 10**6})
    for k in ks:
        gamma = state.step_size(k)
        assert abs(gamma * m_lip * math.sqrt(k) - root) <= 1e-15 * root


def test_polyak_requires_f_star():
    # refused when the kind is built, not at the first step
    with pytest.raises(ValueError, match="^schedule 'polyak' needs a finite f_star$"):
        schedule("polyak")
    with pytest.raises(ValueError, match="^schedule 'polyak' needs a finite f_star$"):
        ScheduleKind("polyak")
    kind = schedule("polyak", f_star=np.float32(1.5))
    assert type(kind.f_star) is float and kind.f_star == 1.5
    state = ScheduleState(kind, sigma=1.0)
    with pytest.raises(ValueError, match="needs the objective value"):
        state.step_size(1, grad_dual_norm=1.0)


def test_polyak_stationary_on_closed_gap():
    state = ScheduleState(schedule("polyak", f_star=1.0), sigma=1.0)
    with pytest.raises(StationarySignal):
        state.step_size(1, f_val=1.0, grad_dual_norm=1.0)


def test_zero_gradient_signals_stationarity():
    for tag in ("fixed-length", "quad-grad", "adaptive-time-varying"):
        state = ScheduleState(schedule(tag), sigma=1.0)
        with pytest.raises(StationarySignal):
            state.step_size(1, grad_dual_norm=0.0)


def test_adagrad_survives_zero_gradient():
    state = ScheduleState(schedule("adagrad"), sigma=1.0)
    gamma = state.step_size(1, grad_dual_norm=0.0)
    assert gamma == pytest.approx(math.sqrt(2.0) / math.sqrt(1e-8), rel=1e-12)


def test_gradient_needed_and_validated():
    state = ScheduleState(schedule("quad-grad"), sigma=1.0)
    with pytest.raises(ValueError, match="needs the subgradient dual norm"):
        state.step_size(1)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        state.step_size(1, grad_dual_norm=-1.0)


def test_counter_must_increase():
    state = ScheduleState(schedule("nonsum"), sigma=1.0)
    state.step_size(3)
    with pytest.raises(ValueError, match="must increase"):
        state.step_size(3)
    with pytest.raises(ValueError, match="must increase"):
        state.step_size(2)
    assert state.step_size(4) > 0.0


def test_unused_parameters_rejected():
    with pytest.raises(ValueError, match="does not take parameter"):
        schedule("adaptive-time-varying", m_lipschitz=1.0)
    with pytest.raises(ValueError, match="^schedule 'nonsum' does not take parameter 'f_star'$"):
        schedule("nonsum", f_star=1.0)
    # each parameter belongs to one rule: the other's is refused too
    with pytest.raises(ValueError, match="'time-varying' does not take parameter 'f_star'"):
        schedule("time-varying", m_lipschitz=1.0, f_star=1.0)
    with pytest.raises(ValueError, match="'polyak' does not take parameter 'm_lipschitz'"):
        schedule("polyak", m_lipschitz=1.0, f_star=1.0)


def test_parameter_validation():
    with pytest.raises(ValueError, match="unknown schedule tag"):
        schedule("bogus")
    with pytest.raises(ValueError, match="needs a positive m_lipschitz"):
        schedule("time-varying")
    with pytest.raises(ValueError, match="m_lipschitz must be positive"):
        schedule("time-varying", m_lipschitz=0.0)


def test_state_validation():
    with pytest.raises(ValueError, match="sigma must be positive"):
        ScheduleState(schedule("nonsum"), sigma=0.0)
    # a hand-built kind checks itself as the factory's does
    with pytest.raises(ValueError, match="positive m_lipschitz"):
        ScheduleState(ScheduleKind("time-varying"), sigma=1.0)
    with pytest.raises(ValueError, match="unknown schedule tag"):
        ScheduleState(ScheduleKind("bogus"), sigma=1.0)


def test_hand_built_kinds_reject_parameters_their_rule_does_not_take():
    for tag in ("nonsum", "adaptive-time-varying"):
        with pytest.raises(ValueError, match="does not take parameter 'm_lipschitz'"):
            ScheduleKind(tag, m_lipschitz=1.0)
        with pytest.raises(ValueError, match="does not take parameter 'f_star'"):
            ScheduleKind(tag, f_star=1.0)


@pytest.mark.parametrize("tag, name", [("time-varying", "m_lipschitz"), ("polyak", "f_star")])
def test_infinite_parameters_are_rejected(tag, name):
    # an infinite m_lipschitz used to give gamma = 0 at k = 1
    words = {"m_lipschitz": "positive and finite", "f_star": "finite"}[name]
    with pytest.raises(ValueError, match=f"{name} must be {words}$"):
        schedule(tag, **{name: math.inf})
    with pytest.raises(ValueError, match=f"{name} must be {words}$"):
        ScheduleKind(tag, **{name: math.inf})
