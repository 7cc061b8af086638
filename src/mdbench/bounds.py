"""Theoretical gap bounds and iteration estimates for the averaged
mirror-descent solvers: the trajectory bound and its composite variant,
the closed-form corollaries and the a-priori iteration estimate of the
constrained method.

The trajectory evaluators verify the non-increasing step hypothesis of the
averaging theorem and refuse sequences that break it.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bound_main",
    "bound_corollaries",
    "bound_composite",
    "iteration_estimate",
]


def _bound_arrays(gammas, grad_dual_norms):
    g = np.asarray(gammas, dtype=np.float64)
    s = np.asarray(grad_dual_norms, dtype=np.float64)
    if g.size == 0:
        raise ValueError("bound evaluation needs at least one step")
    if g.shape != s.shape or g.ndim != 1:
        raise ValueError("step sizes and gradient norms must be 1-D of equal length")
    if not np.all(g > 0.0):
        raise ValueError("step sizes must be positive")
    if np.any(np.diff(g) > 0.0):
        raise ValueError(
            "theorem hypothesis violated: the step-size sequence must be "
            "positive and non-increasing"
        )
    return g, s


def bound_main(m: float, gammas, grad_dual_norms, theta: float, sigma: float) -> float:
    """Averaged-point gap bound along a realized trajectory:

        ( sum gamma_k^{-m} )^{-1} *
            [ theta / gamma_N^{m+1}
              + (1/2 sigma) * sum ||grad f(x^k)||_*^2 / gamma_k^{m-1} ].

    Requires the non-increasing step hypothesis and m >= -1.
    """
    if not m >= -1.0:
        raise ValueError("m must be >= -1")
    g, s = _bound_arrays(gammas, grad_dual_norms)
    w = float(np.sum(g ** (-m)))
    num = theta / g[-1] ** (m + 1.0) + float(np.sum(s * s / g ** (m - 1.0))) / (
        2.0 * sigma
    )
    return num / w


def bound_corollaries(m: float, n_iters: int, lipschitz: float, theta: float,
                      sigma: float) -> float:
    """Closed-form gap bounds for the step rule gamma_k = sqrt(2 sigma)/(M sqrt(k)):

        m = -1   M (theta + 1 + ln N) / (sqrt(sigma) sqrt(N))
        m = 0    M (2 + theta) / sqrt(2 sigma N)
        m >= 1   M (m + 2) (1 + theta) / (2 sqrt(2 sigma) sqrt(N))
    """
    if n_iters < 1:
        raise ValueError("N must be at least 1")
    n = float(n_iters)
    if m == -1.0:
        return lipschitz * (theta + 1.0 + math.log(n)) / (math.sqrt(sigma) * math.sqrt(n))
    if m == 0.0:
        return lipschitz * (2.0 + theta) / math.sqrt(2.0 * sigma * n)
    if m >= 1.0:
        return (
            lipschitz * (m + 2.0) * (1.0 + theta) / (2.0 * math.sqrt(2.0 * sigma) * math.sqrt(n))
        )
    raise ValueError("closed forms exist for m = -1, m = 0, and m >= 1 only")


def bound_composite(m: float, gammas, grad_dual_norms, h_at_x1: float,
                    theta: float, sigma: float) -> float:
    """Composite variant of bound_main: adds h(x^1)/gamma_1^m to the
    numerator. Valid for -1 <= m <= 0 only."""
    if not -1.0 <= m <= 0.0:
        raise ValueError("the composite bound covers only -1 <= m <= 0")
    if h_at_x1 < 0.0:
        raise ValueError("h must be nonnegative")
    g, s = _bound_arrays(gammas, grad_dual_norms)
    w = float(np.sum(g ** (-m)))
    num = (
        theta / g[-1] ** (m + 1.0)
        + h_at_x1 / g[0] ** m
        + float(np.sum(s * s / g ** (m - 1.0))) / (2.0 * sigma)
    )
    return num / w


def iteration_estimate(lipschitz: float, theta: float, sigma: float,
                       epsilon: float, m: float) -> int:
    """A-priori iteration count sufficient for the constrained solver's
    stopping criterion: ceil(M^2 (1+theta)^2 / (2 sigma eps^2)) for m >= 1
    and ceil(M^2 (2+theta)^2 / (2 sigma eps^2)) for m = 0. An estimate
    beyond the float64 range is refused."""
    for name, v in (("lipschitz", lipschitz), ("sigma", sigma), ("epsilon", epsilon)):
        if not 0.0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    if not 0.0 <= theta < math.inf:
        raise ValueError("theta must be nonnegative and finite")
    if m >= 1.0:
        shift = 1.0
    elif m == 0.0:
        shift = 2.0
    else:
        raise ValueError("iteration estimates cover m = 0 and m >= 1 only")
    try:
        est = lipschitz**2 * (shift + theta) ** 2 / (2.0 * sigma * epsilon**2)
    except (OverflowError, ZeroDivisionError):  # a power overflows, or eps^2 underflows
        est = math.inf
    if not est < math.inf:
        raise ValueError("the iteration estimate overflows the float64 range")
    return math.ceil(est)
