"""Independent oracles used to freeze expected values in tests.

Everything here evaluates target quantities by brute force or direct
arithmetic, never by the closed forms under test.
"""
from __future__ import annotations

import math

import numpy as np

from mdbench.problems import AffineConstraints


def refine_1d(fn, lo: float, hi: float, rounds: int = 60, points: int = 17) -> float:
    """Argmin of a 1-D function by repeated grid shrinking."""
    for _ in range(rounds):
        ts = np.linspace(lo, hi, points)
        vals = [fn(float(t)) for t in ts]
        i = int(np.argmin(vals))
        lo = float(ts[max(i - 1, 0)])
        hi = float(ts[min(i + 1, points - 1)])
    return 0.5 * (lo + hi)


def ball2_argmin(x, g, gamma: float, lam: float = 0.0,
                 radius: float = 1.0, center=(0.0, 0.0),
                 rounds: int = 48) -> np.ndarray:
    """Brute-force argmin of <y,g> + lam*|y|_1 + |y-x|^2/(2*gamma) over a
    2-D ball, by grid refinement restricted to feasible points."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    c = np.asarray(center, dtype=float)

    def phi(y):
        return float(y @ g) + lam * float(np.abs(y).sum()) + float(
            (y - x) @ (y - x)
        ) / (2.0 * gamma)

    def pull_in(y):
        # infeasible grid nodes are pulled onto the sphere so candidates
        # stay dense near boundary argmins
        d = y - c
        r = math.sqrt(float(d @ d))
        return y if r <= radius else c + d * (radius / r)

    lo = c - radius
    hi = c + radius
    best = x.copy()
    for _ in range(rounds):
        us = np.linspace(lo[0], hi[0], 13)
        vs = np.linspace(lo[1], hi[1], 13)
        pts = [pull_in(np.array([u, v])) for u in us for v in vs]
        pts.append(best)
        vals = [phi(p) for p in pts]
        best = pts[int(np.argmin(vals))]
        span = (hi - lo) / 4.0
        lo = np.maximum(best - span, c - radius)
        hi = np.minimum(best + span, c + radius)
    return best


def simplex2_argmin(x, g, gamma: float) -> np.ndarray:
    """Brute-force argmin of <y,g> + KL(y,x)/gamma over the 2-simplex."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)

    def phi(t: float) -> float:
        t = min(max(t, 1e-15), 1.0 - 1e-15)
        y = np.array([t, 1.0 - t])
        kl = float(np.sum(y * (np.log(y) - np.log(x))))
        return float(y @ g) + kl / gamma

    t = refine_1d(phi, 1e-12, 1.0 - 1e-12)
    return np.array([t, 1.0 - t])


def weighted_average(points, gammas, m: float) -> np.ndarray:
    """Direct weighted-sum arithmetic for the m-scheme average."""
    num = np.zeros_like(np.asarray(points[0], dtype=float))
    den = 0.0
    for p, gam in zip(points, gammas):
        w = gam ** (-m)
        num = num + w * np.asarray(p, dtype=float)
        den += w
    return num / den


class WeightedAverager:
    """Running weighted average with weights gamma^{-m}, folded one point
    at a time: the reference the solvers' shared averaging is held to."""

    def __init__(self, n: int, m: float):
        self.m = float(m)
        self.weighted_sum = np.zeros(n)
        self.weight_total = 0.0

    def update(self, x: np.ndarray, gamma: float) -> None:
        if not gamma > 0.0:
            raise ValueError("averaging weight needs gamma > 0")
        w = gamma ** (-self.m)
        self.weighted_sum += w * x
        self.weight_total += w

    @property
    def average(self) -> np.ndarray:
        if not self.weight_total > 0.0:
            raise RuntimeError("average requested before any update")
        return self.weighted_sum / self.weight_total


def kl_divergence(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.sum(x * (np.log(x) - np.log(y))) - np.sum(x) + np.sum(y))


def simplex_project_qp(v, rounds: int = 64) -> np.ndarray:
    """Euclidean projection onto the 2-simplex by 1-D refinement."""
    v = np.asarray(v, dtype=float)

    def phi(t: float) -> float:
        y = np.array([t, 1.0 - t])
        return float((y - v) @ (y - v))

    t = refine_1d(phi, 0.0, 1.0, rounds=rounds)
    return np.array([t, 1.0 - t])


def norm_direct(x, kind: str) -> float:
    x = np.asarray(x, dtype=float)
    if kind == "l1":
        return float(np.sum(np.abs(x)))
    if kind == "l2":
        return math.sqrt(float(x @ x))
    return float(np.max(np.abs(x))) if x.size else 0.0


def grid_refine_pointwise(value_fn, feasible, tol: float = 1e-6,
                          lipschitz: float = 1.0, points_per_axis: int = 9,
                          max_rounds: int = 120):
    """Nested grid refinement with one projection and one ``value_fn``
    call per mesh point: the reference for the batched
    ``mdbench.bench.grid_refine_minimize``."""
    n = feasible.n
    if hasattr(feasible, "radius"):
        lo0 = feasible.center - feasible.radius
        hi0 = feasible.center + feasible.radius
    else:
        lo0 = np.zeros(n)
        hi0 = np.ones(n)
    lo, hi = lo0.copy(), hi0.copy()
    ppa = max(3, points_per_axis)
    best_x = None
    best_v = math.inf
    slack = math.inf
    for _ in range(max_rounds):
        axes = [np.linspace(lo[i], hi[i], ppa) for i in range(n)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        delta = float(np.max((hi - lo) / (ppa - 1)))
        slack = lipschitz * delta * math.sqrt(n)
        vals = np.empty(mesh.shape[0])
        for i, row in enumerate(mesh):
            vals[i] = value_fn(feasible.project(row))
        i_best = int(np.argmin(vals))
        if vals[i_best] < best_v:
            best_v = float(vals[i_best])
            best_x = feasible.project(mesh[i_best])
        if slack <= tol:
            break
        keep = mesh[vals <= best_v + slack]
        new_lo = np.maximum(keep.min(axis=0) - delta, lo0)
        new_hi = np.minimum(keep.max(axis=0) + delta, hi0)
        if float(np.max(new_hi - new_lo)) > 0.75 * float(np.max(hi - lo)):
            ppa = min(2 * ppa - 1, 129)
        lo, hi = new_lo, new_hi
    return best_x, best_v, slack


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isnan(f):
        return ""
    return format(f, ".17g")


def trace_csv_per_cell(trace, reference=None, include_productive=False,
                       include_evals=False) -> str:
    """Trace CSV text built one ``format`` call per cell, with empty cells
    for None and NaN: the reference for the one-call-per-row formatter of
    ``mdbench.bench.write_trace_csv``."""
    rows = trace.rows()
    has_bound = len(trace.bound) == rows and rows > 0
    header = ["k", "gamma", "f_iterate", "f_avg", "f_best_so_far", "gap_avg",
              "gap_best", "bound"]
    if include_productive:
        header.append("productive")
    if include_evals:
        header.append("constraint_evals")
    f_min = reference.f_min if reference is not None else None
    lines = [",".join(header)]
    best = math.inf
    for i in range(rows):
        fi = trace.f_iterate[i]
        counts = (not include_productive) or trace.productive[i]
        if counts and fi < best:
            best = fi
        f_best = best if best < math.inf else None
        f_avg = trace.f_avg[i]
        gap_avg = None
        gap_best = None
        if f_min is not None:
            if not math.isnan(f_avg):
                gap_avg = f_avg - f_min
            if f_best is not None:
                gap_best = f_best - f_min
        cells = [str(trace.k[i])] + [
            _fmt_cell(v) for v in (trace.gamma[i], fi, f_avg, f_best, gap_avg, gap_best)
        ]
        cells.append(_fmt_cell(trace.bound[i]) if has_bound else "")
        if include_productive:
            cells.append(_fmt_cell(bool(trace.productive[i])))
        if include_evals:
            cells.append(str(int(trace.constraint_evals[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class SequentialConstraints(AffineConstraints):
    """An ``AffineConstraints`` block answered by Python loops over the
    rows with one ``np.dot`` per row: the reference for the one vectorised
    ``row_values`` pass behind every query of the library class."""

    def row_values(self, x):
        return np.array([self.value_one(i, x) for i in range(self.p)])

    def _argmax(self, x):
        best_i = 0
        best_v = -math.inf
        for i in range(self.p):
            v = self.value_one(i, x)
            if v > best_v:
                best_i, best_v = i, v
        return best_i, best_v

    def value(self, x):
        return self._argmax(x)[1]

    def subgrad(self, x):
        return self.alphas[self._argmax(x)[0]].copy()

    def first_violation(self, x, eps):
        worst = -math.inf
        for i in range(self.p):
            v = self.value_one(i, x)
            if v > worst:
                worst = v
            if v > eps:
                return i, i + 1, worst
        return None, self.p, worst
