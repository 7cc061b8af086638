"""Step-size rules for subgradient-type methods.

Nine named rules. Each produces gamma_k from the iteration counter and, for
the adaptive rules, the current objective value and dual norm of the current
subgradient. ``is_nonincreasing_guaranteed`` marks the rules whose step
sequence is non-increasing for every input stream; only those runs carry
trajectory bound certificates.

Rules and defaults:

    constant-step            gamma = c                      c = 0.1
    fixed-length             gamma = c / ||g||              c = 0.2
    nonsum                   gamma = c / sqrt(k)            c = 0.1
    sqrsum-nonsum            gamma = c / k                  c = 0.5
    quad-grad                gamma = c / ||g||^2            c = 0.2
    adagrad                  gamma = theta0 / sqrt(S_k + alpha),
                             S_k = sum_{j<=k} ||g_j||^2,    theta0 = sqrt(2),
                                                            alpha = 1e-8
    polyak                   gamma = (f(x_k) - f*) / ||g||^2
    time-varying             gamma = sqrt(2 sigma) / (M sqrt(k))
    adaptive-time-varying    gamma = sqrt(2 sigma) / (||g|| sqrt(k))

``||g||`` is always the dual norm of the subgradient.

One table, ``_RULES``, holds each rule's parameters, defaults and flags;
a ScheduleKind checks its parameters when it is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .problems import _real_field

__all__ = [
    "TABLE_TAGS",
    "ScheduleKind",
    "ScheduleState",
    "StationarySignal",
    "schedule",
    "is_nonincreasing_guaranteed",
]

TAG_CONSTANT = "constant-step"
TAG_FIXED_LENGTH = "fixed-length"
TAG_NONSUM = "nonsum"
TAG_SQRSUM = "sqrsum-nonsum"
TAG_QUAD_GRAD = "quad-grad"
TAG_ADAGRAD = "adagrad"
TAG_POLYAK = "polyak"
TAG_TIME_VARYING = "time-varying"
TAG_ADAPTIVE_TV = "adaptive-time-varying"


class _Rule(NamedTuple):
    params: dict  # each parameter the rule takes, with its default; None: required
    certified: bool  # steps non-increasing whatever the objective feeds the rule
    reads_norm: bool  # reads the dual norm of the subgradient
    reads_f: bool  # reads f(x^k) and f*


_RULES = {
    TAG_CONSTANT: _Rule({"c": 0.1}, True, False, False),
    TAG_FIXED_LENGTH: _Rule({"c": 0.2}, False, True, False),
    TAG_NONSUM: _Rule({"c": 0.1}, True, False, False),
    TAG_SQRSUM: _Rule({"c": 0.5}, True, False, False),
    TAG_QUAD_GRAD: _Rule({"c": 0.2}, False, True, False),
    TAG_ADAGRAD: _Rule({"theta0": math.sqrt(2.0), "alpha": 1e-8}, True, True, False),
    TAG_POLYAK: _Rule({}, False, True, True),
    TAG_TIME_VARYING: _Rule({"m_lipschitz": None}, True, False, False),
    TAG_ADAPTIVE_TV: _Rule({}, False, True, False),
}

TABLE_TAGS = tuple(_RULES)


class StationarySignal(Exception):
    """The rule cannot produce a positive finite step at the current point,
    which for these rules means the point is already optimal."""


@dataclass(frozen=True)
class ScheduleKind:
    """A rule and its parameters: the rule's own, positive and finite
    (stored as floats), and the others unset."""

    tag: str
    c: Optional[float] = None
    theta0: Optional[float] = None
    alpha: Optional[float] = None
    m_lipschitz: Optional[float] = None

    def __post_init__(self):
        rule = _RULES.get(self.tag)
        if rule is None:
            raise ValueError(f"unknown schedule tag: {self.tag!r}")
        for name in ("c", "theta0", "alpha", "m_lipschitz"):
            value = getattr(self, name)
            if name not in rule.params:
                if value is not None:
                    raise ValueError(f"schedule {self.tag!r} does not take parameter {name!r}")
                continue
            noun = "constant c" if name == "c" else name
            if value is None:
                raise ValueError(f"schedule {self.tag!r} needs a positive {noun}")
            value = _real_field(value, f"schedule {self.tag!r} {noun}")
            if not 0.0 < value < math.inf:
                raise ValueError(f"schedule {self.tag!r} {noun} must be positive and finite")
            object.__setattr__(self, name, value)


def schedule(
    tag: str,
    *,
    c: Optional[float] = None,
    theta0: Optional[float] = None,
    alpha: Optional[float] = None,
    m_lipschitz: Optional[float] = None,
) -> ScheduleKind:
    """Build a ScheduleKind for ``tag``, filling table defaults.

    ``time-varying`` requires ``m_lipschitz`` (the Lipschitz constant of the
    objective in the chosen norm).
    """
    given = {"c": c, "theta0": theta0, "alpha": alpha, "m_lipschitz": m_lipschitz}
    if tag in _RULES:
        for name, default in _RULES[tag].params.items():
            if given[name] is None:
                if default is None:
                    raise ValueError(f"schedule {tag!r} needs {name}")
                given[name] = default
    return ScheduleKind(tag, **given)


def is_nonincreasing_guaranteed(kind: ScheduleKind) -> bool:
    return _RULES[kind.tag].certified


class ScheduleState:
    """Stateful evaluator of one rule along one run.

    ``step_size`` must be called with strictly increasing k; the counter may
    skip values, which happens when two rules share the global iteration
    counter of a constrained run. AdaGrad accumulates the squared dual norms
    it has been shown, current one included. ``reads_f`` says whether the
    rule reads f(x^k).
    """

    def __init__(self, kind: ScheduleKind, sigma: float):
        if not (sigma > 0.0 and math.isfinite(sigma)):
            raise ValueError("sigma must be positive and finite")
        rule = _RULES[kind.tag]
        self.kind = kind
        self.reads_f = rule.reads_f
        self._reads_norm = rule.reads_norm
        self.sigma = float(sigma)
        self.grad_sq_accum = 0.0
        self._k_last = 0

    def step_size(
        self,
        k: int,
        f_val: Optional[float] = None,
        grad_dual_norm: Optional[float] = None,
        f_star: Optional[float] = None,
    ) -> float:
        if k <= self._k_last:
            raise ValueError(
                f"iteration counter must increase: got k={k} after k={self._k_last}"
            )
        tag = self.kind.tag
        gn = grad_dual_norm
        if self._reads_norm:
            if gn is None:
                raise ValueError(f"schedule {tag!r} needs the subgradient dual norm")
            if gn < 0.0 or not math.isfinite(gn):
                raise ValueError("subgradient dual norm must be finite and nonnegative")
        self._k_last = k

        if tag == TAG_CONSTANT:
            return self.kind.c
        if tag == TAG_FIXED_LENGTH:
            if gn == 0.0:
                raise StationarySignal
            return self.kind.c / gn
        if tag == TAG_NONSUM:
            return self.kind.c / math.sqrt(k)
        if tag == TAG_SQRSUM:
            return self.kind.c / k
        if tag == TAG_QUAD_GRAD:
            if gn == 0.0:
                raise StationarySignal
            return self.kind.c / (gn * gn)
        if tag == TAG_ADAGRAD:
            self.grad_sq_accum += gn * gn
            return self.kind.theta0 / math.sqrt(self.grad_sq_accum + self.kind.alpha)
        if tag == TAG_POLYAK:
            if f_val is None or f_star is None:
                raise ValueError(
                    "Polyak requires known f*: pass both the current objective "
                    "value and the optimal value"
                )
            if gn == 0.0:
                raise StationarySignal
            gap = f_val - f_star
            if gap <= 0.0:
                raise StationarySignal
            return gap / (gn * gn)
        if tag == TAG_TIME_VARYING:
            return math.sqrt(2.0 * self.sigma) / (self.kind.m_lipschitz * math.sqrt(k))
        if tag == TAG_ADAPTIVE_TV:
            if gn == 0.0:
                raise StationarySignal
            return math.sqrt(2.0 * self.sigma) / (gn * math.sqrt(k))
        raise ValueError(f"unknown schedule tag: {tag!r}")
