"""Objective and constraint oracles for the benchmark problem families.

Each oracle exposes ``value`` and ``subgrad`` plus a worst-case subgradient
norm bound ``lipschitz_bound`` and, when available analytically,
``known_fstar``. Objectives also have ``values(X)``, which maps a (K, n)
array to K values; row i equals ``value(X[i])`` bit for bit. Subgradients
of max-type objectives come from the active term with the lowest index, and
a distance term contributes the zero vector at its own anchor point, so
``subgrad`` is total.

Instances are generated from an ``InstanceSpec`` through seeded PCG64
streams: objective data always comes from stream ``[seed, 0]`` drawing
uniform over [0, 1), and the affine constraint block from stream
``[seed, 1]`` using the spec's ``distribution``. The same spec therefore
reproduces the same arrays bit for bit, and instances round-trip through
JSON exactly because float64 survives repr.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .space import as_point

__all__ = [
    "DIST_UNIFORM",
    "DIST_NORMAL",
    "KIND_BEST_APPROX",
    "KIND_FTS",
    "KIND_COVERING_BALL",
    "KIND_MAX_LINEAR",
    "OBJECTIVE_KINDS",
    "InstanceSpec",
    "DistanceToPoint",
    "MeanDistance",
    "MaxDistance",
    "MaxAffine",
    "AffineConstraints",
    "build_objective",
    "build_constraints",
    "serialize_instance",
    "deserialize_instance",
]

DIST_UNIFORM = "uniform01"
DIST_NORMAL = "standard-normal"

KIND_BEST_APPROX = "best-approx"
KIND_FTS = "fts"
KIND_COVERING_BALL = "covering-ball"
KIND_MAX_LINEAR = "max-linear"

OBJECTIVE_KINDS = (KIND_BEST_APPROX, KIND_FTS, KIND_COVERING_BALL, KIND_MAX_LINEAR)
_DISTRIBUTIONS = (DIST_UNIFORM, DIST_NORMAL)


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for a reproducible problem instance.

    ``t`` is the number of terms (points or affine pieces) in the objective,
    ``p`` the number of affine constraints (0 means unconstrained), and
    ``distribution`` selects the law of the constraint data only.
    """

    kind: str
    n: int
    t: int = 1
    p: int = 0
    seed: int = 0
    distribution: str = DIST_UNIFORM

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind: {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.t < 1:
            raise ValueError("t must be at least 1")
        if self.p < 0:
            raise ValueError("p must be nonnegative")
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(f"unknown distribution: {self.distribution!r}")

    def to_dict(self) -> dict:
        """The spec as a JSON-ready dict; ``from_dict`` inverts it."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "InstanceSpec":
        """Read the spec fields of ``doc``; any other keys are ignored."""
        return cls(
            kind=doc["kind"],
            n=int(doc["n"]),
            t=int(doc["t"]),
            p=int(doc["p"]),
            seed=int(doc["seed"]),
            distribution=doc["distribution"],
        )


def _objective_rng(spec: InstanceSpec) -> np.random.Generator:
    return np.random.default_rng([int(spec.seed), 0])


def _constraint_rng(spec: InstanceSpec) -> np.random.Generator:
    return np.random.default_rng([int(spec.seed), 1])


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt((rows * rows).sum(axis=1))


def _distances(points: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(K, t) distances from each row of X to each anchor point, with the
    arithmetic of the single-point ``value`` methods."""
    d = points[None] - X[:, None]
    return np.sqrt((d * d).sum(axis=2))


class DistanceToPoint:
    """f(x) = ||x - a||_2, the distance to a fixed external point."""

    kind = KIND_BEST_APPROX

    def __init__(self, a, known_fstar: Optional[float] = None):
        self.a = as_point(a)
        self.lipschitz_bound = 1.0
        self.known_fstar = known_fstar

    def value(self, x: np.ndarray) -> float:
        d = x - self.a
        return math.sqrt(d.dot(d))

    def values(self, X: np.ndarray) -> np.ndarray:
        d = X - self.a
        # vecdot rounds like np.dot; (d * d).sum(axis=1) does not
        return np.sqrt(np.vecdot(d, d))

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        d = x - self.a
        r = math.sqrt(d.dot(d))
        if r == 0.0:
            return np.zeros_like(d)
        return d / r


class MeanDistance:
    """f(x) = mean_j ||x - a_j||_2 over anchor points a_j."""

    kind = KIND_FTS

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.size == 0:
            raise ValueError("anchor points must form a nonempty 2-D array")
        self.points = pts
        self.lipschitz_bound = 1.0
        self.known_fstar = None

    def value(self, x: np.ndarray) -> float:
        d = self.points - x
        return float(np.mean(np.sqrt((d * d).sum(axis=1))))

    def values(self, X: np.ndarray) -> np.ndarray:
        return np.mean(_distances(self.points, X), axis=1)

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        d = x - self.points
        r = np.sqrt((d * d).sum(axis=1))
        nz = r > 0.0
        if nz.all():  # no anchor at x: the same sum without the masked copies
            return (d / r[:, None]).sum(axis=0) / self.points.shape[0]
        out = np.zeros(self.points.shape[1])
        if nz.any():
            out = (d[nz] / r[nz, None]).sum(axis=0) / self.points.shape[0]
        return out


class MaxDistance:
    """f(x) = max_j ||x - a_j||_2, the radius of the covering ball at x."""

    kind = KIND_COVERING_BALL

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.size == 0:
            raise ValueError("anchor points must form a nonempty 2-D array")
        self.points = pts
        self.lipschitz_bound = 1.0
        self.known_fstar = None

    def value(self, x: np.ndarray) -> float:
        d = self.points - x
        return float(np.sqrt((d * d).sum(axis=1)).max())

    def values(self, X: np.ndarray) -> np.ndarray:
        return _distances(self.points, X).max(axis=1)

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        d = x - self.points
        r = np.sqrt((d * d).sum(axis=1))
        i = int(r.argmax())
        if r[i] == 0.0:
            return np.zeros(self.points.shape[1])
        return d[i] / r[i]


class MaxAffine:
    """f(x) = max_i (<a_i, x> + b_i), a piecewise-linear convex objective."""

    kind = KIND_MAX_LINEAR

    def __init__(self, a, b):
        aa = np.asarray(a, dtype=np.float64)
        bb = np.asarray(b, dtype=np.float64)
        if aa.ndim != 2 or aa.size == 0:
            raise ValueError("coefficient rows must form a nonempty 2-D array")
        if bb.shape != (aa.shape[0],):
            raise ValueError("offsets must match the number of rows")
        self.a = aa
        self.b = bb
        self.lipschitz_bound = float(_row_norms(aa).max())
        self.known_fstar = None

    def value(self, x: np.ndarray) -> float:
        return float((self.a @ x + self.b).max())

    def values(self, X: np.ndarray) -> np.ndarray:
        # a stacked matrix-vector product rounds like a @ x; X @ a.T does not
        return (np.matmul(self.a, X[:, :, None])[:, :, 0] + self.b).max(axis=1)

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        i = int((self.a @ x + self.b).argmax())
        return self.a[i].copy()


class AffineConstraints:
    """g(x) = max_i (<alpha_i, x> - beta_i) with per-constraint access.

    Every aggregate query (``value``, ``subgrad``, ``first_violation``)
    reads the one vector ``row_values(x)``, so g(x) is exactly the max of
    the per-constraint values and ``subgrad`` returns the row of the first
    maximizer. ``first_violation`` reports what a sequential scan in index
    order would see, although all p rows are evaluated in that one pass.
    """

    def __init__(self, alphas, betas):
        aa = np.asarray(alphas, dtype=np.float64)
        bb = np.asarray(betas, dtype=np.float64)
        if aa.ndim != 2 or aa.size == 0:
            raise ValueError("constraint rows must form a nonempty 2-D array")
        if bb.shape != (aa.shape[0],):
            raise ValueError("offsets must match the number of rows")
        self.alphas = aa
        self.betas = bb
        self.p = aa.shape[0]
        self.lipschitz_bound = float(_row_norms(aa).max())

    def row_values(self, x: np.ndarray) -> np.ndarray:
        """The p constraint values at x. Row i equals ``value_one(i, x)``
        bit for bit: vecdot rounds like the per-row np.dot, while
        ``alphas @ x`` does not."""
        return np.vecdot(self.alphas, x) - self.betas

    def value(self, x: np.ndarray) -> float:
        return float(self.row_values(x).max())

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        return self.alphas[int(np.argmax(self.row_values(x)))].copy()

    def value_one(self, i: int, x: np.ndarray) -> float:
        return float(np.dot(self.alphas[i], x)) - float(self.betas[i])

    def subgrad_one(self, i: int, x: np.ndarray) -> np.ndarray:
        return self.alphas[i].copy()

    def first_violation(self, x: np.ndarray, eps: float):
        """Return (index of first constraint with value > eps or None,
        evaluations used, max value among those evaluated).

        The count is what a scan in index order pays when it stops at the
        first violator: i + 1 for a violator at index i, p when there is
        none. The max covers the same prefix, so it equals g(x) when no
        constraint exceeds eps.
        """
        v = self.row_values(x)
        above = (v > eps).nonzero()[0]
        if above.size == 0:
            return None, self.p, float(v.max())
        i = int(above[0])
        return i, i + 1, float(v[:i + 1].max())


def build_objective(spec: InstanceSpec):
    rng = _objective_rng(spec)
    if spec.kind == KIND_BEST_APPROX:
        a = rng.random(spec.n)
        r = math.sqrt(float(np.dot(a, a)))
        a = a * (10.0 / r)
        return DistanceToPoint(a, known_fstar=9.0)
    if spec.kind == KIND_FTS:
        return MeanDistance(rng.random((spec.t, spec.n)))
    if spec.kind == KIND_COVERING_BALL:
        return MaxDistance(rng.random((spec.t, spec.n)))
    if spec.kind == KIND_MAX_LINEAR:
        a = rng.random((spec.t, spec.n))
        b = rng.random(spec.t)
        return MaxAffine(a, b)
    raise ValueError(f"unknown objective kind: {spec.kind!r}")


def build_constraints(spec: InstanceSpec) -> Optional[AffineConstraints]:
    if spec.p == 0:
        return None
    rng = _constraint_rng(spec)
    if spec.distribution == DIST_UNIFORM:
        alphas = rng.random((spec.p, spec.n))
        betas = rng.random(spec.p)
    else:
        alphas = rng.standard_normal((spec.p, spec.n))
        betas = rng.standard_normal(spec.p)
    return AffineConstraints(alphas, betas)


def serialize_instance(spec: InstanceSpec) -> dict:
    """Realize the instance and return a JSON-ready document holding both
    the generating spec and the drawn arrays."""
    obj = build_objective(spec)
    doc = spec.to_dict()
    if spec.kind == KIND_BEST_APPROX:
        doc["objective"] = {"a": obj.a.tolist(), "known_fstar": obj.known_fstar}
    elif spec.kind in (KIND_FTS, KIND_COVERING_BALL):
        doc["objective"] = {"points": obj.points.tolist()}
    else:
        doc["objective"] = {"a": obj.a.tolist(), "b": obj.b.tolist()}
    cons = build_constraints(spec)
    if cons is None:
        doc["constraints"] = None
    else:
        doc["constraints"] = {
            "alphas": cons.alphas.tolist(),
            "betas": cons.betas.tolist(),
        }
    return doc


def deserialize_instance(doc: dict):
    """Rebuild (spec, objective, constraints or None) from a serialized
    document, using the stored arrays rather than redrawing them."""
    spec = InstanceSpec.from_dict(doc)
    body = doc["objective"]
    if spec.kind == KIND_BEST_APPROX:
        obj = DistanceToPoint(body["a"], known_fstar=body.get("known_fstar"))
    elif spec.kind == KIND_FTS:
        obj = MeanDistance(body["points"])
    elif spec.kind == KIND_COVERING_BALL:
        obj = MaxDistance(body["points"])
    else:
        obj = MaxAffine(body["a"], body["b"])
    cons_doc = doc.get("constraints")
    cons = None
    if cons_doc is not None:
        cons = AffineConstraints(cons_doc["alphas"], cons_doc["betas"])
    return spec, obj, cons
