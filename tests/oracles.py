"""Independent oracles used to freeze expected values in tests.

Everything here evaluates target quantities by brute force or direct
arithmetic, never by the closed forms under test.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from mdbench.bench import GRID_POINTS_PER_AXIS, GRID_TOL
from mdbench.geometry import Ball, composite_mirror_step, mirror_step
from mdbench.problems import AffineConstraints
from mdbench.schedules import StationarySignal, is_nonincreasing_guaranteed


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


def grid_refine_pointwise(value_fn, feasible, lipschitz: float = 1.0, max_rounds: int = 120):
    """Nested grid refinement with one projection and one ``value_fn``
    call per mesh point: the reference for the batched
    ``mdbench.bench.grid_refine_minimize``."""
    n = feasible.n
    if hasattr(feasible, "radius"):
        lo0 = feasible.center - feasible.radius
        hi0 = feasible.center + feasible.radius
    else:
        lo0 = np.full(n, 1.0 if n == 1 else 0.0)
        hi0 = np.ones(n)
    lo, hi = lo0.copy(), hi0.copy()
    ppa = GRID_POINTS_PER_AXIS
    best_x = None
    best_v = math.inf
    slack = math.inf
    for _ in range(max_rounds):
        axes = [np.linspace(lo[i], hi[i], ppa) for i in range(n)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        delta = float(np.max((hi - lo) / (ppa - 1)))
        slack = lipschitz * delta * math.sqrt(n) / 2
        vals = np.empty(mesh.shape[0])
        for i, row in enumerate(mesh):
            vals[i] = value_fn(feasible.project(row))
        i_best = int(np.argmin(vals))
        if vals[i_best] < best_v:
            best_v = float(vals[i_best])
            best_x = feasible.project(mesh[i_best])
        if slack <= GRID_TOL:
            break
        keep = mesh[vals <= best_v + slack]
        new_lo = np.maximum(keep.min(axis=0) - delta / 2, lo0)
        new_hi = np.minimum(keep.max(axis=0) + delta / 2, hi0)
        if float(np.max(new_hi - new_lo)) > 0.75 * float(np.max(hi - lo)):
            if ppa == 129:
                break
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


def trace_csv_per_cell(trace, reference=None) -> str:
    """Trace CSV text built one ``format`` call per cell, with empty cells
    for None and NaN: the reference for the one-call-per-row formatter of
    ``mdbench.bench.write_trace_csv``. The productive and constraint_evals
    columns are written when the trace has rows and one entry per row in
    them; the bound column is always written, filled on the same rule."""
    rows = trace.rows()
    has_bound = len(trace.bound) == rows and rows > 0
    has_productive = len(trace.productive) == rows and rows > 0
    has_evals = len(trace.constraint_evals) == rows and rows > 0
    header = ["k", "gamma", "f_iterate", "f_avg", "f_best_so_far", "gap_avg",
              "gap_best", "bound"]
    if has_productive:
        header.append("productive")
    if has_evals:
        header.append("constraint_evals")
    f_min = reference.f_min if reference is not None else None
    lines = [",".join(header)]
    best = math.inf
    for i in range(rows):
        fi = trace.f_iterate[i]
        counts = (not has_productive) or trace.productive[i]
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
        cells = [str(i + 1)] + [
            _fmt_cell(v) for v in (trace.gamma[i], fi, f_avg, f_best, gap_avg, gap_best)
        ]
        cells.append(_fmt_cell(trace.bound[i]) if has_bound else "")
        if has_productive:
            cells.append(_fmt_cell(bool(trace.productive[i])))
        if has_evals:
            cells.append(str(int(trace.constraint_evals[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _read_cell(s: str):
    return None if s == "" else float(s)


def trace_csv_summary(path) -> dict:
    """The final_* numbers of a written trace CSV, parsed back from its last
    line: the reference for the summary ``mdbench.bench.write_trace_csv``
    returns from the rows it formats. Every value is None for a file with
    no row."""
    with open(path, "r", newline="") as fh:
        lines = fh.read().strip("\n").split("\n")
    if len(lines) < 2:
        return dict.fromkeys(("final_k", "final_f_avg", "final_gap_avg", "final_f_best",
                              "final_gap_best", "final_bound"))
    row = dict(zip(lines[0].split(","), lines[-1].split(",")))
    return {
        "final_k": int(row["k"]),
        "final_f_avg": _read_cell(row["f_avg"]),
        "final_gap_avg": _read_cell(row["gap_avg"]),
        "final_f_best": _read_cell(row["f_best_so_far"]),
        "final_gap_best": _read_cell(row["gap_best"]),
        "final_bound": _read_cell(row["bound"]),
    }


def constraint_value(constraints, i, x) -> float:
    """Constraint i of an ``AffineConstraints`` block at x, with one
    ``np.dot``: the per-row value every query of the block must agree with."""
    return float(np.dot(constraints.alphas[i], x)) - float(constraints.betas[i])


class SequentialConstraints(AffineConstraints):
    """An ``AffineConstraints`` block answered by Python loops over the
    rows with ``constraint_value``, one ``np.dot`` per row: the reference
    for the one vectorised ``row_values`` pass behind every query of the
    library class."""

    def row_values(self, x):
        return np.array([constraint_value(self, i, x) for i in range(self.p)])

    def _argmax(self, x):
        best_i = 0
        best_v = -math.inf
        for i in range(self.p):
            v = constraint_value(self, i, x)
            if v > best_v:
                best_i, best_v = i, v
        return best_i, best_v

    def value(self, x):
        return self._argmax(x)[1]

    def subgrad(self, x):
        return self.alphas[self._argmax(x)[0]].copy()

    def first_violation(self, x, eps):
        for i in range(self.p):
            if constraint_value(self, i, x) > eps:
                return i, i + 1
        return None, self.p




# ---------------------------------------------------------------- reference loops
#
# One plain loop per solver, written from the formulas in the solver
# docstrings: one step rule, one m, the trace always on, Python lists for
# every per-iteration quantity and no call into ``mdbench.solvers``. The
# scalar sums of the bound and the stopping rules are recomputed from their
# lists every iteration by a left-to-right fold, which adds in the order a
# running total does; the average is a ``WeightedAverager``. Every loop
# returns a dict: x_hat, f_hat, iterations, productive, nonproductive, stop
# (the StopReason value) and trace (the Trace columns by name); the
# constrained loops add evals (constraint evaluations in total) and
# certificate (the pair (lhs, rhs) of the stopping rule eps * lhs >= rhs
# per iteration). Where the arithmetic has no float64 result a loop raises
# ValueError; where the epsilon-feasible region is empty or no step was
# productive, RuntimeError.

_DUAL_NORM = {"l2": "l2", "l1": "linf", "linf": "l1"}


def _fold(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


@contextmanager
def _float64_results():
    """Powers that overflow and quotients by an underflowed power have no
    float64 result: report them as ValueError."""
    try:
        yield
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"arithmetic leaves the float64 range: {exc}") from exc


def _finite(value, what: str, k: int) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{what} is {value} at iteration {k}")
    return value


def _rule_step(rule, k, f_k, gn):
    """gamma_k of one step rule, or None where the rule signals a
    stationary point."""
    try:
        gamma = rule.step_size(k, f_k, gn)
    except StationarySignal:
        return None
    except (OverflowError, ZeroDivisionError):
        gamma = math.nan
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"no finite positive step at iteration {k}: {gamma!r}")
    return gamma


def _fold_in(avg, x, gamma, k) -> np.ndarray:
    """Fold x with weight gamma^{-m} into ``avg`` and return the average."""
    avg.update(x, gamma)
    _finite(avg.weight_total, "the weight sum", k)
    return avg.average


def _trace(gammas, f_iterate, f_avg, bound=(), productive=(), evals=()):
    return {
        "gamma": gammas, "f_iterate": f_iterate, "f_avg": f_avg,
        "productive": list(productive), "bound": list(bound), "constraint_evals": list(evals),
    }


def reference_mirror_descent(objective, prox, feasible, rule, m, iters, theta, x1):
    """Plain mirror descent: x^{k+1} = mirror_step(x^k, grad f(x^k), gamma_k)
    and x_hat = sum_k gamma_k^{-m} x^k / sum_k gamma_k^{-m}. A rule whose
    steps never increase carries the bound column

        ( theta / gamma_k^{m+1} + sum_{i<=k} ||g_i||_*^2 / (2 sigma gamma_i^{m-1}) )
            / sum_{i<=k} gamma_i^{-m}.

    A zero subgradient, or a rule that signals a stationary point, ends the
    run before that iteration counts."""
    dual = _DUAL_NORM[prox.norm.value]
    certified = is_nonincreasing_guaranteed(rule.kind)
    x = np.asarray(x1, dtype=np.float64)
    avg = WeightedAverager(x.size, m)
    gammas, weights, sq, f_iterate, f_avg, bound = [], [], [], [], [], []
    stop = "MaxIters"
    with _float64_results():
        for k in range(1, iters + 1):
            f_k = _finite(objective.value(x), "f(x^k)", k)
            g = objective.subgrad(x)
            gn = _finite(norm_direct(g, dual), "the dual norm", k)
            gamma = None if gn == 0.0 else _rule_step(rule, k, f_k, gn)
            if gamma is None:
                stop = "StationaryPoint"
                break
            gammas.append(gamma)
            f_iterate.append(f_k)
            x_avg = _fold_in(avg, x, gamma, k)
            f_avg.append(_finite(objective.value(x_avg), "f(x_hat)", k))
            if certified:
                weights.append(gamma ** (-m))
                sq.append(gn * gn / gamma ** (m - 1.0))
                rhs = theta / gamma ** (m + 1.0) + _fold(sq) / (2.0 * prox.sigma)
                bound.append(_finite(rhs, "the bound", k) / _fold(weights))
            x = mirror_step(prox, feasible, x, g, gamma)
    x_hat = avg.average if gammas else x
    return {
        "x_hat": x_hat, "f_hat": objective.value(x_hat), "iterations": len(gammas),
        "productive": len(gammas), "nonproductive": 0, "stop": stop,
        "trace": _trace(gammas, f_iterate, f_avg, bound),
    }


def reference_composite_md(objective, h, prox, feasible, rule, m, iters, theta, x1):
    """Composite mirror descent for F = f + h: the step is
    composite_mirror_step(x^k, grad f(x^k), gamma_k, h), the trace reads F
    at x^k and at the average, and the numerator of the bound column gains
    h(x^1) / gamma_1^m."""
    dual = _DUAL_NORM[prox.norm.value]
    certified = is_nonincreasing_guaranteed(rule.kind)
    x = np.asarray(x1, dtype=np.float64)
    avg = WeightedAverager(x.size, m)
    gammas, weights, sq, f_iterate, f_avg, bound = [], [], [], [], [], []
    h_term = None
    stop = "MaxIters"
    with _float64_results():
        for k in range(1, iters + 1):
            f_k = _finite(objective.value(x), "f(x^k)", k)
            g = objective.subgrad(x)
            gn = _finite(norm_direct(g, dual), "the dual norm", k)
            gamma = None if gn == 0.0 else _rule_step(rule, k, f_k, gn)
            if gamma is None:
                stop = "StationaryPoint"
                break
            if k == 1:
                h_term = h.value(x) / gamma**m
            gammas.append(gamma)
            f_iterate.append(f_k + h.value(x))
            x_avg = _fold_in(avg, x, gamma, k)
            f_avg.append(_finite(objective.value(x_avg), "f(x_hat)", k) + h.value(x_avg))
            if certified:
                weights.append(gamma ** (-m))
                sq.append(gn * gn / gamma ** (m - 1.0))
                rhs = theta / gamma ** (m + 1.0) + h_term + _fold(sq) / (2.0 * prox.sigma)
                bound.append(_finite(rhs, "the bound", k) / _fold(weights))
            x = composite_mirror_step(prox, feasible, x, g, gamma, h)
    x_hat = avg.average if gammas else x
    return {
        "x_hat": x_hat, "f_hat": objective.value(x_hat) + h.value(x_hat),
        "iterations": len(gammas), "productive": len(gammas), "nonproductive": 0,
        "stop": stop, "trace": _trace(gammas, f_iterate, f_avg, bound),
    }


def _constrained_result(objective, x, avg, stop, gammas, f_iterate, f_avg, productive,
                        evals, scans, certificate):
    """The result dict; ``scans`` counts the constraint evaluations of every
    scan, the one of an iteration that stopped at a stationary point too."""
    n_prod = productive.count(True)
    if not n_prod and stop != "StationaryPoint":
        raise RuntimeError(f"no productive step in {len(gammas)} iterations ({stop})")
    x_hat = avg.average if n_prod else x
    return {
        "x_hat": x_hat, "f_hat": objective.value(x_hat), "iterations": len(gammas),
        "productive": n_prod, "nonproductive": len(gammas) - n_prod,
        "stop": stop, "evals": sum(scans), "certificate": certificate,
        "trace": _trace(gammas, f_iterate, f_avg, (), productive, evals),
    }


def reference_switching_md(objective, constraints, prox, feasible, rule_f, rule_g, m,
                           epsilon, iters, theta, x1, use_criterion=True):
    """Algorithm 3, switching mirror descent for min f s.t. g <= 0 with
    g = max_i g_i. x^k is productive when g(x^k) <= epsilon: it steps along
    grad f with rule_f and enters the average. Otherwise it steps along the
    first maximizing g_i with rule_g. With ``use_criterion`` the run stops
    after the first iteration k with

        eps * sum_{i<=k} gamma_i^{-m}
            >= theta / gamma_k^{m+1} + sum_{i<=k} ||grad_i||_*^2 / (2 sigma gamma_i^{m-1}),

    both sums over every step."""
    dual = _DUAL_NORM[prox.norm.value]
    x = np.asarray(x1, dtype=np.float64)
    avg = WeightedAverager(x.size, m)
    gammas, weights, sq, f_iterate, f_avg = [], [], [], [], []
    productive, evals, scans, certificate = [], [], [], []
    x_avg = None
    stop = "MaxIters"
    with _float64_results():
        for k in range(1, iters + 1):
            values = [constraint_value(constraints, i, x) for i in range(constraints.p)]
            scans.append(len(values))
            gx = max(values)
            prod = gx <= epsilon
            if prod:
                f_k = _finite(objective.value(x), "f(x^k)", k)
                g = objective.subgrad(x)
            else:
                g = constraints.subgrad_one(values.index(gx), x)
            gn = _finite(norm_direct(g, dual), "the dual norm", k)
            if gn == 0.0 and not prod:
                raise RuntimeError("the violated constraint has a zero subgradient")
            rule, f_arg = (rule_f, f_k) if prod else (rule_g, None)
            gamma = None if gn == 0.0 else _rule_step(rule, k, f_arg, gn)
            if gamma is None:
                stop = "StationaryPoint"
                break
            gammas.append(gamma)
            if prod:
                x_avg = _fold_in(avg, x, gamma, k)
            f_iterate.append(f_k if prod else _finite(objective.value(x), "f(x^k)", k))
            f_avg.append(math.nan if x_avg is None else
                         _finite(objective.value(x_avg), "f(x_hat)", k))
            productive.append(prod)
            evals.append(constraints.p)
            if use_criterion:
                weights.append(gamma ** (-m))
                sq.append(gn * gn / gamma ** (m - 1.0))
                lhs = _finite(_fold(weights), "the certificate", k)
                rhs = theta / gamma ** (m + 1.0) + _fold(sq) / (2.0 * prox.sigma)
                certificate.append((lhs, _finite(rhs, "the certificate", k)))
                if epsilon * lhs >= rhs:
                    stop = "EpsilonCriterion"
                    break
            x = mirror_step(prox, feasible, x, g, gamma)
    return _constrained_result(objective, x, avg, stop, gammas, f_iterate, f_avg, productive,
                               evals, scans, certificate)


def reference_scan_md(objective, constraints, prox, feasible, m, epsilon, iters, theta, x1):
    """Algorithm 4, one constraint at a time. The scan reads g_1, g_2, ...
    at x^k and stops at the first g_q > epsilon, a non-productive step
    along grad g_q; with none, x^k is productive and steps along grad f.
    The step is gamma_k = sqrt(2 sigma) / (L_k sqrt(k)), L_k the dual norm
    of that subgradient, and the run stops after the first k with

        eps * sum_{i<=k} (L_i sqrt(i)/sqrt(2 sigma))^m
            >= theta * (M sqrt(k)/sqrt(2 sigma))^{m+1}
               + sqrt(2 sigma)^{-(m+1)} * [ sum_I sqrt(i)^{m-1} L_i^{m+1}
                                            + sum_J sqrt(j)^{m-1} L_j^{m+1} ],

    M the larger of the objective's and the constraints' Lipschitz bounds,
    I the productive and J the non-productive steps so far."""
    dual = _DUAL_NORM[prox.norm.value]
    root = math.sqrt(2.0 * prox.sigma)
    m_big = max(objective.lipschitz_bound, constraints.lipschitz_bound)
    x = np.asarray(x1, dtype=np.float64)
    avg = WeightedAverager(x.size, m)
    gammas, lhs_terms, sum_i, sum_j, f_iterate, f_avg = [], [], [], [], [], []
    productive, evals, scans, certificate = [], [], [], []
    x_avg = None
    stop = "MaxIters"
    with _float64_results():
        for k in range(1, iters + 1):
            seen, q = [], None
            for i in range(constraints.p):
                seen.append(constraint_value(constraints, i, x))
                if seen[-1] > epsilon:
                    q = i
                    break
            scans.append(len(seen))
            prod = q is None
            g = objective.subgrad(x) if prod else constraints.subgrad_one(q, x)
            L = _finite(norm_direct(g, dual), "the dual norm", k)
            if L == 0.0:
                if not prod:
                    raise RuntimeError(f"constraint {q} has a zero subgradient")
                stop = "StationaryPoint"
                break
            sk = math.sqrt(k)
            gamma = math.sqrt(2.0 * prox.sigma) / (L * sk)
            gammas.append(gamma)
            if prod:
                x_avg = _fold_in(avg, x, gamma, k)
            f_iterate.append(_finite(objective.value(x), "f(x^k)", k))
            f_avg.append(math.nan if x_avg is None else
                         _finite(objective.value(x_avg), "f(x_hat)", k))
            productive.append(prod)
            evals.append(len(seen))
            lhs_terms.append((L * sk / root) ** m)
            (sum_i if prod else sum_j).append(sk ** (m - 1.0) * L ** (m + 1.0))
            lhs = _finite(_fold(lhs_terms), "the certificate", k)
            rhs = theta * (m_big * sk / root) ** (m + 1.0) + (
                _fold(sum_i) + _fold(sum_j)) / root ** (m + 1.0)
            certificate.append((lhs, _finite(rhs, "the certificate", k)))
            if epsilon * lhs >= rhs:
                stop = "EpsilonCriterion"
                break
            x = mirror_step(prox, feasible, x, g, gamma)
    return _constrained_result(objective, x, avg, stop, gammas, f_iterate, f_avg, productive,
                               evals, scans, certificate)


def reference_f_avg(objective, prox, feasible, rule, ms, iters, x1, *, h=None,
                    constraints=None, rule_g=None, epsilon=None):
    """The f_avg columns, one per m in ``ms``, of up to ``iters`` steps of
    mirror descent from x1 (composite with h; switching as in
    ``reference_switching_md`` with constraints, rule_g and epsilon), read
    the naive way: after every step, for each m, f (plus h) at sums / t,
    where sums is the gamma^{-m}-weighted sum of the productive iterates
    and t its weight total, or NaN while t is 0. A non-finite value there
    raises ValueError naming that iteration at once, before any later step
    runs. A zero subgradient or a stationary signal ends the loop."""
    dual = _DUAL_NORM[prox.norm.value]
    x = np.asarray(x1, dtype=np.float64)
    sums, totals, cols = [np.zeros(x.size) for _ in ms], [0.0] * len(ms), [[] for _ in ms]
    for k in range(1, iters + 1):
        prod, f_k = True, None
        if constraints is not None:
            values = [constraint_value(constraints, i, x) for i in range(constraints.p)]
            prod = max(values) <= epsilon
        if prod:
            f_k, g = objective.value_and_subgrad(x)
        else:
            g = constraints.subgrad_one(values.index(max(values)), x)
        gn = norm_direct(g, dual)
        gamma = None if gn == 0.0 else _rule_step(rule if prod else rule_g, k, f_k, gn)
        if gamma is None:
            break
        for i, m in enumerate(ms):
            if prod:
                w = gamma ** (-m)
                sums[i] = sums[i] + w * x
                totals[i] += w
            if totals[i] == 0.0:
                cols[i].append(math.nan)
                continue
            x_avg = sums[i] / totals[i]
            f_avg = _finite(objective.value(x_avg), "objective value at the average", k)
            cols[i].append(f_avg if h is None else f_avg + h.value(x_avg))
        if h is None:
            x = mirror_step(prox, feasible, x, g, gamma)
        else:
            x = composite_mirror_step(prox, feasible, x, g, gamma, h)
    return cols


# -- certified f* brackets ---------------------------------------------------
#
# A bracket run's cuts are tuples (productive, g(x_k), w_k, value, subgradient,
# x_k): the value and subgradient of f on a productive step, of the
# constraint stepped along otherwise, and w_k = gamma_k^{-m}.


def reference_bracket(objective, constraints, prox, feasible, rule_f, rule_g, m, epsilon,
                      iters, x1, checks):
    """A plain loop of mirror descent (``constraints`` None) or of Algorithm
    3 at ``epsilon`` for ``iters`` steps from x1, with no stopping rule,
    and its f* bracket at each k in ``checks``. The lower end is

        max_{s >= 0} min_{x in Q} ( sum_I w_k (f_k + <e_k, x - x_k>)
                                    + s * sum_J w_j (g_j + <h_j, x - x_j>) ) / sum_I w_k,

    every sum a math.fsum, the minimum over a ball <c, center> - r ||c||_2
    and over the simplex min_i c_i, and s found by doubling and
    ``refine_1d``; it takes no rounding allowance. The upper end is the
    least f_k over productive iterates with g(x_k) <= 0 and f at the
    average when g there is <= 0. Returns ({k: (lower, upper, s)}, cuts).
    A zero subgradient ends the loop early."""
    dual = _DUAL_NORM[prox.norm.value]
    x = np.asarray(x1, dtype=np.float64)
    avg = WeightedAverager(x.size, m)
    cuts, brackets = [], {}
    for k in range(1, iters + 1):
        gx, prod = -math.inf, True
        if constraints is not None:
            values = [constraint_value(constraints, i, x) for i in range(constraints.p)]
            gx = max(values)
            prod = gx <= epsilon
        if prod:
            value, e = objective.value(x), objective.subgrad(x)
        else:
            value, e = gx, constraints.subgrad_one(values.index(gx), x)
        gn = norm_direct(e, dual)
        if gn == 0.0:
            break
        rule = rule_f if prod else rule_g
        gamma = rule.step_size(k, value if prod else None, gn)
        cuts.append((prod, gx, gamma ** (-m), value, e, x))
        if prod:
            avg.update(x, gamma)
        if k in checks:
            lower, s = _best_lower(cuts, feasible)
            brackets[k] = (lower, _upper(cuts, avg, objective, constraints), s)
        x = mirror_step(prox, feasible, x, e, gamma)
    return brackets, cuts


def _sums(cuts, productive):
    """(sum w (value - <e, x>), sum w e, sum w) over one class of cuts."""
    chosen = [(w, v, e, x) for p, _, w, v, e, x in cuts if p == productive]
    if not chosen:
        return 0.0, 0.0, 0.0
    a = math.fsum([w * v for w, v, _, _ in chosen]
                  + [-w * ei * xi for w, _, e, x in chosen for ei, xi in zip(e, x)])
    n = chosen[0][2].size
    c = np.array([math.fsum(w * e[i] for w, _, e, _ in chosen) for i in range(n)])
    return a, c, math.fsum(w for w, _, _, _ in chosen)


def _min_over(feasible, c) -> float:
    if isinstance(feasible, Ball):
        return (math.fsum(c * feasible.center)
                - feasible.radius * math.sqrt(math.fsum(c * c)))
    return float(min(c))


def _best_lower(cuts, feasible):
    a_i, c_i, w_i = _sums(cuts, True)
    a_j, c_j, w_j = _sums(cuts, False)
    if w_i == 0.0:
        return -math.inf, 0.0

    def value(s):
        return a_i + s * a_j + _min_over(feasible, c_i + s * c_j)

    if w_j == 0.0:
        return value(0.0) / w_i, 0.0
    hi = w_i / w_j
    for _ in range(64):
        if not value(2.0 * hi) > value(hi):
            break
        hi *= 2.0
    s = refine_1d(lambda t: -value(t), 0.0, 2.0 * hi)
    if value(0.0) >= value(s):
        s = 0.0
    return value(s) / w_i, s


def _upper(cuts, avg, objective, constraints) -> float:
    feasible_values = [v for p, gx, _, v, _, _ in cuts if p and gx <= 0.0]
    best = min(feasible_values, default=math.inf)
    if avg.weight_total > 0.0:
        x_hat = avg.average
        if constraints is None or max(
                constraint_value(constraints, i, x_hat) for i in range(constraints.p)) <= 0.0:
            best = min(best, objective.value(x_hat))
    return best


def _sqrt_up(q: Fraction) -> Fraction:
    """A rational at least sqrt(q), for q >= 0."""
    return Fraction(math.isqrt(q.numerator * q.denominator) + 1, q.denominator)


def exact_lower(cuts, feasible, s) -> Fraction:
    """The certificate of ``reference_bracket`` at s, re-evaluated in exact
    rational arithmetic from the cuts' float data: a value at most the
    exact certificate, as the ball's ||c||_2 is rounded up."""
    s = Fraction(s)
    n = cuts[0][4].size
    num, w_i, c = Fraction(0), Fraction(0), [Fraction(0)] * n
    for prod, _, w, value, e, x in cuts:
        scale = Fraction(w) if prod else s * Fraction(w)
        e_q = [Fraction(v) for v in e.tolist()]
        num += scale * (Fraction(value) - sum(ei * Fraction(xi) for ei, xi in zip(e_q, x.tolist())))
        c = [ci + scale * ei for ci, ei in zip(c, e_q)]
        if prod:
            w_i += Fraction(w)
    if isinstance(feasible, Ball):
        low = (sum(ci * Fraction(z) for ci, z in zip(c, feasible.center.tolist()))
               - Fraction(feasible.radius) * _sqrt_up(sum(ci * ci for ci in c)))
    else:
        low = min(c)
    return (num + low) / w_i
