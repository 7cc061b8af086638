"""Step-size rules for subgradient-type methods.

Nine named rules. Each produces gamma_k from the iteration counter and, for
the adaptive rules, the current objective value and dual norm of the current
subgradient. ``is_nonincreasing_guaranteed`` marks the rules whose step
sequence is non-increasing for every input stream; only those runs carry
trajectory bound certificates.

Rules and their constants:

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

One table, ``_RULES``, holds each rule's constants and flags. A caller
gives M to ``time-varying`` and f* to ``polyak``, and no other rule takes
either; a ScheduleKind checks both when it is built.
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
    c: Optional[float]  # the step's constant (theta0 for adagrad); None: the rule has none
    certified: bool  # steps non-increasing whatever the objective feeds the rule
    reads_norm: bool  # reads the dual norm of the subgradient
    reads_f: bool  # reads f(x^k)
    alpha: float = 0.0  # adagrad's alpha


_RULES = {
    TAG_CONSTANT: _Rule(0.1, True, False, False),
    TAG_FIXED_LENGTH: _Rule(0.2, False, True, False),
    TAG_NONSUM: _Rule(0.1, True, False, False),
    TAG_SQRSUM: _Rule(0.5, True, False, False),
    TAG_QUAD_GRAD: _Rule(0.2, False, True, False),
    TAG_ADAGRAD: _Rule(math.sqrt(2.0), True, True, False, alpha=1e-8),
    TAG_POLYAK: _Rule(None, False, True, True),
    TAG_TIME_VARYING: _Rule(None, True, False, False),
    TAG_ADAPTIVE_TV: _Rule(None, False, True, False),
}

TABLE_TAGS = tuple(_RULES)


class StationarySignal(Exception):
    """The rule cannot produce a positive finite step at the current point,
    which for these rules means the point is already optimal."""


# each parameter: the one rule that takes it, its value's test, and the test in words
_PARAMETERS = (
    ("m_lipschitz", TAG_TIME_VARYING, lambda v: 0.0 < v < math.inf, "positive and finite"),
    ("f_star", TAG_POLYAK, math.isfinite, "finite"),
)


@dataclass(frozen=True)
class ScheduleKind:
    """A rule and its one parameter, if any, as a float: ``m_lipschitz``
    (``time-varying``), the Lipschitz constant M of the objective in the
    chosen norm, or ``f_star`` (``polyak``), the optimal value over the
    run's feasible set. Other constants are the rule's own, from the table."""

    tag: str
    m_lipschitz: Optional[float] = None
    f_star: Optional[float] = None

    def __post_init__(self):
        if self.tag not in _RULES:
            raise ValueError(f"unknown schedule tag: {self.tag!r}")
        for name, owner, in_range, words in _PARAMETERS:
            value = getattr(self, name)
            if self.tag != owner:
                if value is not None:
                    raise ValueError(f"schedule {self.tag!r} does not take parameter {name!r}")
                continue
            if value is None:
                raise ValueError(f"schedule {self.tag!r} needs a {words.split()[0]} {name}")
            value = _real_field(value, f"schedule {self.tag!r} {name}")
            if not in_range(value):
                raise ValueError(f"schedule {self.tag!r} {name} must be {words}")
            object.__setattr__(self, name, value)


def schedule(tag: str, *, m_lipschitz: Optional[float] = None,
             f_star: Optional[float] = None) -> ScheduleKind:
    """The ScheduleKind of ``tag``, with the parameter its rule requires."""
    return ScheduleKind(tag, m_lipschitz, f_star)


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
        self._c = rule.c
        self._alpha = rule.alpha
        self.sigma = float(sigma)
        self.grad_sq_accum = 0.0
        self._k_last = 0

    def step_size(
        self,
        k: int,
        f_val: Optional[float] = None,
        grad_dual_norm: Optional[float] = None,
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
        if gn == 0.0 and self._reads_norm and tag != TAG_ADAGRAD:
            raise StationarySignal  # the rules that divide by the norm

        if tag == TAG_CONSTANT:
            return self._c
        if tag == TAG_FIXED_LENGTH:
            return self._c / gn
        if tag == TAG_NONSUM:
            return self._c / math.sqrt(k)
        if tag == TAG_SQRSUM:
            return self._c / k
        if tag == TAG_QUAD_GRAD:
            return self._c / (gn * gn)
        if tag == TAG_ADAGRAD:
            self.grad_sq_accum += gn * gn
            return self._c / math.sqrt(self.grad_sq_accum + self._alpha)
        if tag == TAG_POLYAK:
            if f_val is None:
                raise ValueError(f"schedule {tag!r} needs the objective value f(x^k)")
            gap = f_val - self.kind.f_star
            if gap <= 0.0:
                raise StationarySignal
            return gap / (gn * gn)
        if tag == TAG_TIME_VARYING:
            return math.sqrt(2.0 * self.sigma) / (self.kind.m_lipschitz * math.sqrt(k))
        # TAG_ADAPTIVE_TV, the last rule: a ScheduleKind has a known tag
        return math.sqrt(2.0 * self.sigma) / (gn * math.sqrt(k))
