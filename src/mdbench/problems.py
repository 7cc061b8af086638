"""Objective and constraint oracles for the benchmark problem families.

Each oracle exposes ``value`` and ``subgrad`` plus a worst-case subgradient
norm bound ``lipschitz_bound``, and holds no optimal value: that depends
on the feasible set, and the harness's reference states it for the set a
run uses. Objectives also have ``values(X)``, which maps a (K, n) array to
K values, ``value_and_subgrad(x)``, which returns the pair (``value(x)``,
``subgrad(x)``) from one pass over the shared work, and its row form
``value_and_subgrad_rows(X)``, which returns the K values and the (K, n)
subgradients. Every row form equals its 1-D form row by row, bit for
bit. Subgradients of max-type objectives come from the active term with the
lowest index, and a distance term contributes the zero vector at its own
anchor point, so ``subgrad`` is total.

Instances are generated from an ``InstanceSpec`` through seeded PCG64
streams: objective data always comes from stream ``[seed, 0]`` drawing
uniform over [0, 1), and the affine constraint block from stream
``[seed, 1]`` using the spec's ``distribution``. The same spec therefore
reproduces the same arrays bit for bit, and instances round-trip through
JSON exactly because float64 survives repr.
"""
from __future__ import annotations

import math
import numbers
import operator
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


def _count_field(value, name: str, lowest: int) -> int:
    """Field ``name`` as a Python int of at least ``lowest``, or a ValueError naming it."""
    try:
        value = int(operator.index(value))
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < lowest:
        raise ValueError(f"{name} must be " + (f"at least {lowest}" if lowest else "nonnegative"))
    return value


def _real_field(value, name: str) -> float:
    """Field ``name`` as a Python float, or a ValueError naming it. NaN and
    the infinities pass; the caller checks the field's range."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is beyond the float64 range") from None


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
        for name, lowest in (("n", 1), ("t", 1), ("p", 0), ("seed", 0)):
            object.__setattr__(self, name, _count_field(getattr(self, name), name, lowest))
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
            n=doc["n"],
            t=doc["t"],
            p=doc["p"],
            seed=doc["seed"],
            distribution=doc["distribution"],
        )


def _objective_rng(spec: InstanceSpec) -> np.random.Generator:
    return np.random.default_rng([int(spec.seed), 0])


def _constraint_rng(spec: InstanceSpec) -> np.random.Generator:
    return np.random.default_rng([int(spec.seed), 1])


_ROW_BLOCK_FLOATS = 8192  # the floats of squares _affine_rows holds at once


def _affine_rows(rows, offsets, noun: str) -> tuple:
    """``rows`` and ``offsets`` as float64 arrays, with the largest row norm
    as the Lipschitz bound; a ValueError names the ``noun`` rows when they
    are not a nonempty 2-D array, or the offsets when they miss a row."""
    aa = np.asarray(rows, dtype=np.float64)
    bb = np.asarray(offsets, dtype=np.float64)
    if aa.ndim != 2 or aa.size == 0:
        raise ValueError(f"{noun} rows must form a nonempty 2-D array")
    if bb.shape != (aa.shape[0],):
        raise ValueError("offsets must match the number of rows")
    # C-ordered rows are squared and summed a slice of rows at a time, with no
    # second full-size array: each row is reduced alone, so the bits are those
    # of one pass. Other layouts take one pass, whose summation order they set
    sq = np.empty(aa.shape[0])
    step = max(1, _ROW_BLOCK_FLOATS // aa.shape[1]) if aa.flags.c_contiguous else aa.shape[0]
    for i in range(0, aa.shape[0], step):
        rows_i = aa[i:i + step]
        sq[i:i + step] = (rows_i * rows_i).sum(axis=1)
    return aa, bb, float(np.sqrt(sq).max())


def _unit_rows(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Row i is d[i] / r[i], or the zero vector where r[i] == 0, as the
    1-D subgradients divide a difference by its length."""
    if r.all():
        return d / r[:, None]
    out = np.zeros_like(d)
    nz = r != 0.0
    out[nz] = d[nz] / r[nz, None]
    return out


def _distances(points: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(K, t) distances from each row of X to each anchor point, with the
    arithmetic of the single-point ``value`` methods."""
    d = points[None] - X[:, None]
    return np.sqrt((d * d).sum(axis=2))


class DistanceToPoint:
    """f(x) = ||x - a||_2, the distance to a fixed external point."""

    kind = KIND_BEST_APPROX

    def __init__(self, a):
        self.a = as_point(a)
        self.lipschitz_bound = 1.0

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

    def value_and_subgrad(self, x: np.ndarray):
        d = x - self.a
        r = math.sqrt(d.dot(d))
        return r, (d / r if r != 0.0 else np.zeros_like(d))

    def value_and_subgrad_rows(self, X: np.ndarray):
        d = X - self.a
        r = np.sqrt(np.vecdot(d, d))
        return r, _unit_rows(d, r)


class _AnchorPoints:
    """The data of an objective built from distances to anchor points a_j,
    the rows of ``points``; each distance is 1-Lipschitz."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.size == 0:
            raise ValueError("anchor points must form a nonempty 2-D array")
        self.points = pts
        self.lipschitz_bound = 1.0


class MeanDistance(_AnchorPoints):
    """f(x) = mean_j ||x - a_j||_2 over anchor points a_j, as np.mean: sum / t."""

    kind = KIND_FTS

    def value(self, x: np.ndarray) -> float:
        d = self.points - x
        return float(np.sqrt((d * d).sum(axis=1)).sum() / self.points.shape[0])

    def values(self, X: np.ndarray) -> np.ndarray:
        return _distances(self.points, X).sum(axis=1) / self.points.shape[0]

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        d = x - self.points
        return self._direction(d, np.sqrt((d * d).sum(axis=1)))

    def value_and_subgrad(self, x: np.ndarray):
        d = x - self.points
        r = np.sqrt((d * d).sum(axis=1))
        return float(r.sum() / self.points.shape[0]), self._direction(d, r)

    def value_and_subgrad_rows(self, X: np.ndarray):
        d = X[:, None] - self.points
        r = np.sqrt((d * d).sum(axis=2))
        if r.all():  # no row on an anchor: one sum for all rows
            G = (d / r[:, :, None]).sum(axis=1) / self.points.shape[0]
        else:
            G = np.array([self._direction(di, ri) for di, ri in zip(d, r)])
        return r.sum(axis=1) / self.points.shape[0], G

    def _direction(self, d: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The mean of the unit vectors d_j / r_j, with a zero term for an
        anchor at x."""
        nz = r > 0.0
        if nz.all():  # no anchor at x: the same sum without the masked copies
            return (d / r[:, None]).sum(axis=0) / self.points.shape[0]
        out = np.zeros(self.points.shape[1])
        if nz.any():
            out = (d[nz] / r[nz, None]).sum(axis=0) / self.points.shape[0]
        return out


class MaxDistance(_AnchorPoints):
    """f(x) = max_j ||x - a_j||_2, the radius of the covering ball at x."""

    kind = KIND_COVERING_BALL

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

    def value_and_subgrad(self, x: np.ndarray):
        d = x - self.points
        r = np.sqrt((d * d).sum(axis=1))
        i = int(r.argmax())
        if r[i] == 0.0:
            return 0.0, np.zeros(self.points.shape[1])
        return float(r[i]), d[i] / r[i]

    def value_and_subgrad_rows(self, X: np.ndarray):
        d = X[:, None] - self.points
        r = np.sqrt((d * d).sum(axis=2))
        rows = np.arange(X.shape[0])
        i = r.argmax(axis=1)
        ri = r[rows, i]  # each row's max, read at its argmax: a NaN row reads NaN
        return ri, _unit_rows(d[rows, i], ri)


class MaxAffine:
    """f(x) = max_i (<a_i, x> + b_i), a piecewise-linear convex objective."""

    kind = KIND_MAX_LINEAR

    def __init__(self, a, b):
        self.a, self.b, self.lipschitz_bound = _affine_rows(a, b, "coefficient")

    def value(self, x: np.ndarray) -> float:
        return float((self.a @ x + self.b).max())

    def values(self, X: np.ndarray) -> np.ndarray:
        # a stacked matrix-vector product rounds like a @ x; X @ a.T does not
        return (np.matmul(self.a, X[:, :, None])[:, :, 0] + self.b).max(axis=1)

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        i = int((self.a @ x + self.b).argmax())
        return self.a[i].copy()

    def value_and_subgrad(self, x: np.ndarray):
        v = self.a @ x + self.b
        i = int(v.argmax())
        return float(v[i]), self.a[i].copy()

    def value_and_subgrad_rows(self, X: np.ndarray):
        v = np.matmul(self.a, X[:, :, None])[:, :, 0] + self.b
        i = v.argmax(axis=1)
        return v[np.arange(X.shape[0]), i], self.a[i]


class AffineConstraints:
    """g(x) = max_i (<alpha_i, x> - beta_i) with per-constraint access.

    Every aggregate query (``value``, ``subgrad``, ``first_violation``)
    reads the one vector ``row_values(x)``, so g(x) is exactly the max of
    the per-constraint values and ``subgrad`` returns the row of the first
    maximizer. ``first_violation`` reports where a sequential scan in index
    order would stop and what it would pay, from one comparison of that
    vector with eps and a first-true search; all p rows are evaluated.
    """

    def __init__(self, alphas, betas):
        self.alphas, self.betas, self.lipschitz_bound = _affine_rows(alphas, betas, "constraint")
        self.p = self.alphas.shape[0]

    def row_values(self, x: np.ndarray) -> np.ndarray:
        """The p constraint values at x. Row i equals
        ``float(np.dot(alphas[i], x)) - float(betas[i])`` bit for bit:
        vecdot rounds like the per-row np.dot, while ``alphas @ x`` does
        not."""
        return np.vecdot(self.alphas, x) - self.betas

    def value(self, x: np.ndarray) -> float:
        return float(self.row_values(x).max())

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        return self.alphas[int(np.argmax(self.row_values(x)))].copy()

    def subgrad_one(self, i: int, x: np.ndarray) -> np.ndarray:
        return self.alphas[i].copy()

    def first_violation(self, x: np.ndarray, eps: float):
        """Return (index of the first constraint above eps or None, evaluations used).

        The count is what a scan in index order pays when it stops at the
        first violator: i + 1 for a violator at index i, p when there is
        none. A value equal to eps is not a violation.
        """
        above = self.row_values(x) > eps
        i = int(above.argmax())  # the first True, or 0 when there is none
        return (i, i + 1) if above[i] else (None, self.p)


def build_objective(spec: InstanceSpec):
    rng = _objective_rng(spec)
    if spec.kind == KIND_BEST_APPROX:
        a = rng.random(spec.n)
        r = math.sqrt(float(np.dot(a, a)))
        return DistanceToPoint(a * (10.0 / r))
    if spec.kind == KIND_FTS:
        return MeanDistance(rng.random((spec.t, spec.n)))
    if spec.kind == KIND_COVERING_BALL:
        return MaxDistance(rng.random((spec.t, spec.n)))
    # KIND_MAX_LINEAR, the last kind: an InstanceSpec has a known kind
    a = rng.random((spec.t, spec.n))
    b = rng.random(spec.t)
    return MaxAffine(a, b)


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


# each objective class by its kind, with the constructor arguments that its
# JSON body stores, each under the name of the attribute that holds it
_OBJECTIVE_FIELDS = {cls.kind: (cls, fields) for cls, fields in (
    (DistanceToPoint, ("a",)), (MeanDistance, ("points",)),
    (MaxDistance, ("points",)), (MaxAffine, ("a", "b")))}


def serialize_instance(spec: InstanceSpec) -> dict:
    """Realize the instance and return a JSON-ready document holding both
    the generating spec and the drawn arrays."""
    obj = build_objective(spec)
    doc = spec.to_dict()
    _, fields = _OBJECTIVE_FIELDS[spec.kind]
    # tolist gives Python floats and lists
    doc["objective"] = {name: np.asarray(getattr(obj, name)).tolist() for name in fields}
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
    document, using the stored arrays rather than redrawing them; other
    keys, such as the unit ball's f* that older best-approx ones hold, are ignored."""
    spec = InstanceSpec.from_dict(doc)
    body = doc["objective"]
    cls, fields = _OBJECTIVE_FIELDS[spec.kind]
    obj = cls(**{name: body[name] for name in fields})
    cons_doc = doc.get("constraints")
    cons = None
    if cons_doc is not None:
        cons = AffineConstraints(cons_doc["alphas"], cons_doc["betas"])
    return spec, obj, cons
