"""Dense real vectors and the norm pairings used throughout the solvers.

Every algorithm here measures primal points in one norm and subgradients in
the dual norm: l1 pairs with l-infinity and l2 pairs with itself.
"""
from __future__ import annotations

import enum
import math

import numpy as np

__all__ = ["NormKind", "as_point", "norm", "norm_rows", "dual_norm_kind", "inner"]


class NormKind(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


_DUALS = {
    NormKind.L1: NormKind.LINF,
    NormKind.L2: NormKind.L2,
    NormKind.LINF: NormKind.L1,
}


def as_point(x) -> np.ndarray:
    """Coerce ``x`` to a 1-D float64 array with finite entries.

    Raises ValueError for empty input, higher-rank arrays, or any NaN or
    infinite coordinate.
    """
    p = np.asarray(x, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("a point must be a nonempty 1-D real vector")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


def norm(p: np.ndarray, kind: NormKind) -> float:
    if kind is NormKind.L2:
        return math.sqrt(p.dot(p))
    if kind is NormKind.L1:
        return float(np.abs(p).sum())
    if kind is NormKind.LINF:
        return float(np.abs(p).max())
    raise ValueError(f"unknown norm kind: {kind!r}")


def norm_rows(P: np.ndarray, kind: NormKind) -> list:
    """``norm`` of each row of a (K, n) array, bit for bit, as a list of
    floats."""
    if kind is NormKind.L2:
        # vecdot rounds like np.dot; (P * P).sum(axis=1) does not
        return list(map(math.sqrt, np.vecdot(P, P).tolist()))
    if kind is NormKind.L1:
        return np.abs(P).sum(axis=1).tolist()
    if kind is NormKind.LINF:
        return np.abs(P).max(axis=1).tolist()
    raise ValueError(f"unknown norm kind: {kind!r}")


def dual_norm_kind(kind: NormKind) -> NormKind:
    return _DUALS[kind]


def inner(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return float(np.dot(a, b))
