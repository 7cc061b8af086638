"""Feasible sets, prox-functions, Bregman divergences, and the mirror step.

The mirror step solves the inner problem

    x_next = argmin_{y in Q} { <y, g> + V(y, x) / gamma }

in closed form for the two supported geometries:

* squared-Euclidean prox on a ball or simplex, where the step reduces to a
  Euclidean projection of the plain gradient step, and
* negative entropy on the probability simplex, where the step is the
  multiplicative-weights update.

The composite variant adds a separable regularizer h to the inner problem.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .space import NormKind, as_point

__all__ = [
    "Ball",
    "Simplex",
    "FeasibleSet",
    "unit_ball",
    "ProxSetup",
    "euclidean_setup",
    "entropy_setup",
    "bregman",
    "grad_psi",
    "mirror_step",
    "mirror_step_rows",
    "Zero",
    "L1",
    "Regularizer",
    "composite_mirror_step",
    "PROX_NAMES",
]

# smallest coordinate fed to log; multiplicative updates keep iterates
# positive but underflow must not turn into -inf
_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class Ball:
    """Euclidean ball {x : ||x - center||_2 <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("ball radius must be positive and finite")

    @property
    def n(self) -> int:
        return self.center.size

    def contains(self, x: np.ndarray, tol: float = 1e-12) -> bool:
        d = x - self.center
        return math.sqrt(np.dot(d, d)) <= self.radius + tol

    def project(self, x: np.ndarray) -> np.ndarray:
        """The nearest point of the ball to ``x``: ``x`` itself when it is a
        float64 array inside the ball, else a new array; ``x`` is never
        written to."""
        y = np.asarray(x, dtype=np.float64)
        d = y - self.center
        r = math.sqrt(d.dot(d))
        if r <= self.radius:
            return y
        return self.center + d * (self.radius / r)

    def project_rows(self, X: np.ndarray) -> np.ndarray:
        """``project`` applied to each row of a (K, n) array, bit for bit:
        ``X`` itself when it is float64 and every row lies in the ball."""
        Y = np.asarray(X, dtype=np.float64)
        d = Y - self.center
        # vecdot rounds like np.dot; (d * d).sum(axis=1) does not
        r = np.sqrt(np.vecdot(d, d))
        near = r <= self.radius
        if near.all():
            return Y
        # radius / max(r, radius) is radius / r on every far row and never
        # divides by zero on a near one
        scale = self.radius / np.maximum(r, self.radius)
        return np.where(near[:, None], Y, self.center + d * scale[:, None])

    def min_linear(self, c: np.ndarray) -> float:
        """min over the ball of <c, x>: <c, center> - radius ||c||_2."""
        return float(np.dot(c, self.center)) - self.radius * math.sqrt(np.dot(c, c))

    @property
    def norm_bound(self) -> float:
        """A bound on ||x||_2 over the ball: ||center||_2 + radius."""
        return math.sqrt(np.dot(self.center, self.center)) + self.radius


@dataclass(frozen=True)
class Simplex:
    """Probability simplex {x : x >= 0, sum(x) = 1} in R^n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("simplex dimension must be at least 1")

    def contains(self, x: np.ndarray, tol: float = 1e-12) -> bool:
        if x.size != self.n:
            return False
        return float(x.min()) >= -tol and abs(float(x.sum()) - 1.0) <= tol

    def project(self, y: np.ndarray) -> np.ndarray:
        # sort-and-threshold projection onto the simplex
        u = np.sort(np.asarray(y, dtype=np.float64))[::-1]
        css = np.cumsum(u)
        ks = np.arange(1, u.size + 1)
        rho = np.nonzero(u - (css - 1.0) / ks > 0.0)[0][-1]
        tau = (css[rho] - 1.0) / (rho + 1.0)
        return np.maximum(y - tau, 0.0)

    def project_rows(self, Y: np.ndarray) -> np.ndarray:
        """``project`` applied to each row of a (K, n) array, bit for bit."""
        Y = np.asarray(Y, dtype=np.float64)
        u = np.sort(Y, axis=1)[:, ::-1]
        css = np.cumsum(u, axis=1)
        ks = np.arange(1, Y.shape[1] + 1)
        positive = u - (css - 1.0) / ks > 0.0
        # index of the last positive entry in each row
        rho = Y.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
        tau = (css[np.arange(Y.shape[0]), rho] - 1.0) / (rho + 1.0)
        return np.maximum(Y - tau[:, None], 0.0)

    def min_linear(self, c: np.ndarray) -> float:
        """min over the simplex of <c, x>: the smallest c_i."""
        return float(c.min())

    # ||x||_1 = 1 and ||x||_2 <= 1 on the simplex
    norm_bound = 1.0


FeasibleSet = Union[Ball, Simplex]


def unit_ball(n: int) -> Ball:
    return Ball(np.zeros(n), 1.0)


# the norm each prox-function is strongly convex against, with sigma = 1
_PROX_NORMS = {"euclidean": NormKind.L2, "entropy": NormKind.L1}
# the one list of prox names, shared by ProxSetup, the plans and the CLI
PROX_NAMES = tuple(_PROX_NORMS)


@dataclass(frozen=True)
class ProxSetup:
    """A distance-generating function psi, which fixes the norm it is
    strongly convex against and its modulus sigma:
    V(x, y) >= sigma/2 * ||x - y||^2 in ``norm`` for all admissible x, y."""

    psi_kind: str
    sigma = 1.0

    def __post_init__(self):
        if self.psi_kind not in _PROX_NORMS:
            raise ValueError(f"unknown prox kind: {self.psi_kind!r}")

    @property
    def norm(self) -> NormKind:
        return _PROX_NORMS[self.psi_kind]

    def theta(self, feasible: FeasibleSet) -> float:
        """A bound on V(x*, x1) for any minimizer x* in ``feasible``: half
        the squared diameter for the Euclidean prox (2 r^2 on a ball, 1 on
        the simplex) from any feasible x1, and ln n for the entropy prox
        from the barycenter, since KL(x || 1/n) <= ln n (Beck & Teboulle
        2003). At n = 1 the simplex is one point, V is 0 and any positive
        theta holds, so the entropy prox states 1."""
        if self.psi_kind == "euclidean":
            return 2.0 * feasible.radius**2 if isinstance(feasible, Ball) else 1.0
        if not isinstance(feasible, Simplex):
            raise ValueError("entropy prox supports only the simplex")
        return math.log(feasible.n) if feasible.n > 1 else 1.0


def euclidean_setup() -> ProxSetup:
    """psi(x) = ||x||_2^2 / 2, strongly convex with sigma = 1 in l2."""
    return ProxSetup("euclidean")


def entropy_setup() -> ProxSetup:
    """psi(x) = sum x_i ln x_i on the simplex; sigma = 1 in l1 by Pinsker."""
    return ProxSetup("entropy")


def _check_entropy_domain(x: np.ndarray, label: str) -> None:
    if float(x.min()) <= 0.0:
        raise ValueError(f"entropy prox needs strictly positive {label}")


def bregman(setup: ProxSetup, x: np.ndarray, y: np.ndarray) -> float:
    """V(x, y) = psi(x) - psi(y) - <grad psi(y), x - y>."""
    if setup.psi_kind == "euclidean":
        d = x - y
        return 0.5 * float(np.dot(d, d))
    _check_entropy_domain(x, "first argument")
    _check_entropy_domain(y, "second argument")
    return float(np.sum(x * (np.log(x) - np.log(y))) - x.sum() + y.sum())


def grad_psi(setup: ProxSetup, x: np.ndarray) -> np.ndarray:
    if setup.psi_kind == "euclidean":
        return np.array(x, dtype=np.float64)
    _check_entropy_domain(x, "argument")
    return 1.0 + np.log(x)


def mirror_step_rows(
    setup: ProxSetup,
    feasible: FeasibleSet,
    X: np.ndarray,
    G: np.ndarray,
    gammas,
) -> np.ndarray:
    """``mirror_step`` applied to row i of the (K, n) arrays X and G with
    step gammas[i], bit for bit, as one (K, n) array."""
    for gamma in gammas:
        if not gamma > 0.0:
            raise ValueError("step size gamma must be positive")
    steps = np.array(gammas)[:, None]
    if setup.psi_kind == "euclidean":
        return feasible.project_rows(X - steps * G)
    if not isinstance(feasible, Simplex):
        raise ValueError("entropy prox supports only the simplex")
    Z = np.log(np.maximum(X, _LOG_FLOOR)) - steps * G
    Z -= Z.max(axis=1, keepdims=True)
    W = np.exp(Z)
    # a sum over the last axis adds each row like the 1-D sum
    return W / W.sum(axis=1, keepdims=True)


def mirror_step(
    setup: ProxSetup,
    feasible: FeasibleSet,
    x: np.ndarray,
    g: np.ndarray,
    gamma: float,
) -> np.ndarray:
    if not gamma > 0.0:
        raise ValueError("step size gamma must be positive")
    if setup.psi_kind == "euclidean":
        return feasible.project(x - gamma * g)
    if not isinstance(feasible, Simplex):
        raise ValueError("entropy prox supports only the simplex")
    z = np.log(np.maximum(x, _LOG_FLOOR)) - gamma * g
    z -= z.max()
    w = np.exp(z)
    return w / w.sum()


class Zero:
    """The zero regularizer, h = 0."""

    def value(self, x: np.ndarray) -> float:
        return 0.0


@dataclass(frozen=True)
class L1:
    """h(x) = lam * ||x||_1 with lam >= 0."""

    lam: float

    def __post_init__(self):
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise ValueError("l1 weight must be nonnegative and finite")

    def value(self, x: np.ndarray) -> float:
        return self.lam * float(np.abs(x).sum())


Regularizer = Union[Zero, L1]


def _soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def composite_mirror_step(
    setup: ProxSetup,
    feasible: FeasibleSet,
    x: np.ndarray,
    g: np.ndarray,
    gamma: float,
    h: Regularizer,
) -> np.ndarray:
    """argmin_{y in Q} { gamma * <y, g> + gamma * h(y) + V(y, x) }.

    With h = Zero this coincides with ``mirror_step`` exactly (same code
    path, hence bit-identical output). The nontrivial pairing is the
    squared-Euclidean prox with an l1 regularizer, solved by
    soft-thresholding plus a ball constraint handled through its scalar
    dual multiplier.
    """
    if isinstance(h, Zero):
        return mirror_step(setup, feasible, x, g, gamma)
    if not gamma > 0.0:
        raise ValueError("step size gamma must be positive")
    if setup.psi_kind != "euclidean" or not isinstance(h, L1):
        raise ValueError(
            "composite steps are implemented for the squared-Euclidean prox "
            "with an l1 regularizer only"
        )
    if isinstance(feasible, Simplex):
        # ||y||_1 is constant on the simplex, so h does not move the argmin
        return mirror_step(setup, feasible, x, g, gamma)

    ball = feasible
    base = x - gamma * g
    thr = gamma * h.lam
    cand = _soft_threshold(base, thr)
    if ball.contains(cand, tol=0.0):
        return cand

    c = ball.center
    if not c.any():
        # centered ball: the unconstrained argmin is pulled back radially
        r = math.sqrt(np.dot(cand, cand))
        return cand * (ball.radius / r)

    # general center: the KKT point is y(mu) = soft(base + mu c, thr)/(1+mu)
    # with mu >= 0 chosen so that ||y(mu) - c|| = radius; the radius is
    # decreasing in mu, so bisect
    def radius_at(mu: float) -> float:
        y = _soft_threshold(base + mu * c, thr) / (1.0 + mu)
        d = y - c
        return math.sqrt(np.dot(d, d))

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if radius_at(hi) <= ball.radius:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise RuntimeError("failed to bracket the ball multiplier")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if radius_at(mid) > ball.radius:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * (1.0 + hi):
            break
    # evaluate at hi so the result is certified inside the ball
    return _soft_threshold(base + hi * c, thr) / (1.0 + hi)
