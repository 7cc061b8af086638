"""The four benchmark workloads: inputs made from the seed, the operations
that run them, and the checks each operation's output must pass.

Every workload is a fixed list of operations (one "round") that the runner
repeats. Repeats of the same input within a run must write byte-identical
files; the runner compares their sha256 digests.

Why each workload exists is recorded in BENCHMARK.json and README.md; the
short version:

* plan-sweep        ``mdbench compare`` and ``mdbench sweep-m`` on the
                    analytic best-approx family: solver loop, step rules,
                    averager, trace rows, CSV text and the thread pool;
* reference-longrun ``mdbench run`` with a small visible budget, so the
                    hidden 50x LongRun reference solve dominates and large-n
                    oracle and mirror-step vector work shows;
* constrained       criterion-stopped constrained solvers with the trace
                    off, the only workload where ``AffineConstraints`` works;
* grid-reference    ``mdbench run`` at n=2, the only path through
                    ``grid_refine_minimize`` (n=3 is a known defect: it does
                    not finish, so it is not run).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random

import numpy as np

import mdbench.cli
import mdbench.solvers
from mdbench.geometry import euclidean_setup, unit_ball
from mdbench.problems import (
    AffineConstraints,
    InstanceSpec,
    MaxAffine,
    build_objective,
)
from mdbench.schedules import (
    TAG_ADAPTIVE_TV,
    TAG_TIME_VARYING,
    ScheduleState,
    schedule,
)
from mdbench.solvers import RunConfig, StopReason

# slack for comparing a computed gap with its bound, as the library's own
# acceptance tests do
GAP_SLACK = 1e-9

# the CLI's default rule; certified, and its steps do not depend on the
# budget, so a longer sweep series starts with the compare cell's rows
SWEEP_RULE = TAG_TIME_VARYING
_SWEEP_MS = (-1.0, 0.0, 1.0, 2.0, 5.0)


class Outcome:
    """What one operation produced, after its checks."""

    def __init__(self, iterations, failures, digests=None, files=(), extra=None):
        self.iterations = iterations
        self.failures = list(failures)
        # sha256 of every written file (or, for an in-process solve, of its
        # result), keyed by file name
        self.digests = digests
        self.bytes = sum(os.path.getsize(f) for f in files)
        self.extra = extra or {}

    @property
    def ok(self):
        return not self.failures


def _sha256_files(paths):
    digests = {}
    for path in sorted(paths):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        digests[path] = h.hexdigest()
    return digests


def _finite(*values):
    return all(v is not None and math.isfinite(v) for v in values)


def _read_rows(path):
    with open(path, newline="") as fh:
        lines = fh.read().rstrip("\n").split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _num(cell):
    return None if cell == "" else float(cell)


# -- CLI operations -----------------------------------------------------------


class CliOp:
    """One ``mdbench`` command run in process through ``mdbench.cli.main``."""

    def __init__(self, key, argv, check):
        self.key = key
        self.argv = list(argv)
        self._check = check

    def execute(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = mdbench.cli.main(self.argv)
        return code, out.getvalue()

    def check(self, raw):
        code, stdout = raw
        if code != 0:
            return Outcome(0, [f"{self.key}: exit code {code}"])
        return self._check(stdout)


def _check_compare(outdir, iters, n_cells):
    def check(_stdout):
        failures = []
        with open(os.path.join(outdir, "summary.json")) as fh:
            summary = json.load(fh)
        cells = summary["cells"]
        ref = summary["reference"]
        if len(cells) != n_cells:
            failures.append(f"compare: {len(cells)} cells, expected {n_cells}")
        if not (ref["method"] == "Analytic" and _finite(ref["f_min"])):
            failures.append(f"compare: unexpected reference {ref}")
        iterations = 0
        files = [os.path.join(outdir, "summary.json")]
        for cell in cells:
            tag = f"compare {cell['schedule']} m={cell['m']:g}"
            iterations += cell["iterations"]
            if cell["stop_reason"] != StopReason.MAX_ITERS.value or cell["iterations"] != iters:
                failures.append(f"{tag}: stopped by {cell['stop_reason']} after "
                                f"{cell['iterations']} iterations")
            if not _finite(cell["final_f_avg"], cell["final_gap_avg"], cell["final_f_best"]):
                failures.append(f"{tag}: non-finite summary")
            path = os.path.join(outdir, cell["file"])
            files.append(path)
            _, rows = _read_rows(path)
            certified = rows and rows[0]["bound"] != ""
            for row in rows:
                gap = _num(row["gap_avg"])
                if gap is None or not math.isfinite(gap) or gap < -GAP_SLACK:
                    failures.append(f"{tag} k={row['k']}: gap_avg {row['gap_avg']} "
                                    "below the analytic optimum")
                    break
                if certified and not gap <= _num(row["bound"]) + GAP_SLACK:
                    failures.append(f"{tag} k={row['k']}: gap_avg {gap} > bound {row['bound']}")
                    break
        return Outcome(iterations, failures, _sha256_files(files), files)

    return check


def _check_sweep(path, iters, rule, m_compare, compare_dir):
    def check(_stdout):
        failures = []
        header, rows = _read_rows(path)
        if header != ["m", "k", "gap_avg"]:
            failures.append(f"sweep-m: header {header}")
        if len(rows) != iters * len(_SWEEP_MS):
            failures.append(f"sweep-m: {len(rows)} rows, expected {iters * len(_SWEEP_MS)}")
        for row in rows:
            gap = _num(row["gap_avg"])
            if gap is None or not math.isfinite(gap) or gap < -GAP_SLACK:
                failures.append(f"sweep-m m={row['m']} k={row['k']}: gap_avg {row['gap_avg']}")
                break
        # the library promises a sweep series equals the matching plan cell
        cell_csv = os.path.join(compare_dir, f"{rule}_m{format(m_compare, 'g')}.csv")
        if os.path.exists(cell_csv):
            _, cell_rows = _read_rows(cell_csv)
            mine = [r["gap_avg"] for r in rows if float(r["m"]) == m_compare]
            if mine[: len(cell_rows)] != [r["gap_avg"] for r in cell_rows]:
                failures.append(f"sweep-m {rule} m={m_compare:g}: differs from the compare cell")
        else:
            failures.append(f"sweep-m: missing compare cell {cell_csv}")
        return Outcome(len(rows), failures, _sha256_files([path]), [path])

    return check


def _check_run(path, iters, method):
    def check(stdout):
        failures = []
        cell = json.loads(stdout)
        ref = cell["reference"]
        f_min, tol = ref["f_min"], ref["tolerance"]
        tag = f"run {path}"
        if ref["method"] != method:
            failures.append(f"{tag}: reference by {ref['method']}, expected {method}")
        if not (_finite(f_min, tol) and tol >= 0.0):
            failures.append(f"{tag}: reference {ref}")
        if cell["stop_reason"] != StopReason.MAX_ITERS.value or cell["iterations"] != iters:
            failures.append(f"{tag}: stopped by {cell['stop_reason']} after "
                            f"{cell['iterations']} iterations")
        if not _finite(cell["final_f_avg"], cell["final_gap_avg"], cell["final_f_best"]):
            failures.append(f"{tag}: non-finite summary")
        _, rows = _read_rows(path)
        floor = f_min - tol
        for row in rows:
            f_it, f_avg = _num(row["f_iterate"]), _num(row["f_avg"])
            if not (_finite(f_it, f_avg) and f_it >= floor and f_avg >= floor):
                failures.append(f"{tag} k={row['k']}: f_iterate {f_it}, f_avg {f_avg} "
                                f"below reference f_min - tol = {floor}")
                break
        return Outcome(cell["iterations"], failures, _sha256_files([path]),
                       [path], {"ref_tol": tol})

    return check


def _run_op(key, problem, n, t, iters, seed, method):
    path = f"{key}.csv"
    argv = ["run", "--problem", problem, "--n", str(n), "--t", str(t),
            "--iters", str(iters), "--seed", str(seed), "--out", path]
    return CliOp(key, argv, _check_run(path, iters, method))


# -- constrained operations -------------------------------------------------


def switching_instance(rng, n, p, t):
    """Feasible by construction, with the start x1 = 0 infeasible and the
    constraints active at the optimum.

    A point x_f = 0.6 d lies strictly inside every constraint (margins
    0.02-0.2). Half of the rows lean against d, so g(0) is well above
    epsilon and the feasible side lies along +d. The max-affine objective
    rises along d, so its minimizer over the ball is cut off and the
    optimum sits on the constraint boundary. Row norms vary in [0.5, 1.5]
    so adaptive and Lipschitz-based steps differ.
    """
    d = rng.standard_normal(n)
    d /= np.linalg.norm(d)
    x_f = 0.6 * d
    rows = rng.standard_normal((p, n)) / math.sqrt(n)
    lean = np.zeros(p)
    lean[: p // 2] = rng.uniform(0.5, 1.5, p // 2)
    rows -= lean[:, None] * d
    rows *= (rng.uniform(0.5, 1.5, p) / np.linalg.norm(rows, axis=1))[:, None]
    betas = rows @ x_f + rng.uniform(0.02, 0.2, p)
    a = d * rng.uniform(0.5, 1.5, (t, 1)) + 0.3 * rng.standard_normal((t, n)) / math.sqrt(n)
    b = rng.uniform(0.0, 0.1, t)
    return MaxAffine(a, b), AffineConstraints(rows, betas)


def never_violated_instance(rng, n, p, t):
    """Every constraint holds with margin on the whole unit ball
    (beta_i > ||alpha_i||), so every step is productive and the
    first-violation scan always pays all p rows."""
    rows = rng.standard_normal((p, n))
    rows *= (rng.uniform(0.5, 1.5, p) / np.linalg.norm(rows, axis=1))[:, None]
    betas = np.linalg.norm(rows, axis=1) + rng.uniform(0.05, 0.3, p)
    a = rng.standard_normal((t, n)) / math.sqrt(n)
    b = rng.uniform(0.0, 0.1, t)
    return MaxAffine(a, b), AffineConstraints(rows, betas)


class SolverOp:
    """One criterion-stopped constrained solve, trace off."""

    def __init__(self, key, kind, objective, constraints, epsilon, m, switching):
        self.key = key
        self.kind = kind
        self.objective = objective
        self.constraints = constraints
        self.epsilon = epsilon
        self.m = m
        self.switching = switching

    def execute(self, record_trace=False):
        n = self.objective.a.shape[1]
        prox, ball, x1 = euclidean_setup(), unit_ball(n), np.zeros(n)
        config = RunConfig(m=self.m, epsilon=self.epsilon, theta=2.0, record_trace=record_trace)
        if self.kind == "alg4":
            return mdbench.solvers.constrained_md_multi(
                self.objective, self.constraints, prox, ball, config, x1)
        if self.kind == "alg3-tv":
            state_f = ScheduleState(
                schedule(TAG_TIME_VARYING, m_lipschitz=self.objective.lipschitz_bound), prox.sigma)
            state_g = ScheduleState(
                schedule(TAG_TIME_VARYING, m_lipschitz=self.constraints.lipschitz_bound), prox.sigma)
        else:
            state_f = ScheduleState(schedule(TAG_ADAPTIVE_TV), prox.sigma)
            state_g = ScheduleState(schedule(TAG_ADAPTIVE_TV), prox.sigma)
        return mdbench.solvers.constrained_md(
            self.objective, self.constraints, prox, ball, state_f, state_g, config, x1)

    def check(self, res):
        failures = []
        tag = self.key
        g_hat = float(self.constraints.value(res.x_hat))
        if res.stop_reason is not StopReason.EPSILON_CRITERION:
            failures.append(f"{tag}: stopped by {res.stop_reason.value}")
        if not (math.isfinite(res.f_hat) and g_hat <= self.epsilon):
            failures.append(f"{tag}: f_hat {res.f_hat}, g(x_hat) {g_hat} > eps {self.epsilon}")
        if self.switching and not (res.productive_count > 0 and res.nonproductive_count > 0):
            failures.append(f"{tag}: {res.productive_count} productive and "
                            f"{res.nonproductive_count} non-productive steps; expected both")
        if not self.switching and res.nonproductive_count != 0:
            failures.append(f"{tag}: {res.nonproductive_count} non-productive steps on a "
                            "never-violated instance")
        h = hashlib.sha256(np.ascontiguousarray(res.x_hat).tobytes())
        h.update(repr((res.f_hat, res.iterations, res.productive_count,
                       res.nonproductive_count, res.constraint_evals_total)).encode())
        return Outcome(res.iterations, failures, {"x_hat+counters": h.hexdigest()},
                       extra={"algorithm": "alg4" if self.kind == "alg4" else "alg3"})


# -- workloads ---------------------------------------------------------------


class Workload:
    def __init__(self, ops, probe):
        self.ops = ops
        # probe(record_trace) runs one representative solve of the workload,
        # so the same solve can be timed with the library's trace on and off
        self.probe = probe


def _mirror_descent_probe(spec, tag, m, iters):
    objective = build_objective(spec)
    prox, ball = euclidean_setup(), unit_ball(spec.n)
    x1 = mdbench.bench.default_start(ball)

    def solve(record_trace):
        kw = {"m_lipschitz": objective.lipschitz_bound} if tag == TAG_TIME_VARYING else {}
        state = ScheduleState(schedule(tag, **kw), prox.sigma)
        config = RunConfig(m=m, iters=iters, theta=2.0, record_trace=record_trace)
        return mdbench.solvers.mirror_descent(objective, prox, ball, state, config, x1)

    return solve


def plan_sweep(seed, small):
    rng = random.Random(f"plan-sweep/{seed}")
    inst_seed = rng.randrange(2**31)
    m_compare = rng.choice(_SWEEP_MS)
    # 9 cells x 1000 and 5 cells x 1800 iterations: both commands cost about
    # the same, so the median operation is not the gap between two clusters
    iters_compare, iters_sweep = (30, 50) if small else (1000, 1800)
    seed_flag = ["--seed", str(inst_seed)]
    compare = CliOp("compare",
                    ["compare", "--m", format(m_compare, "g"), "--iters", str(iters_compare),
                     "--out", "compare"] + seed_flag,
                    _check_compare("compare", iters_compare, 9))
    sweep = CliOp("sweep-m",
                  ["sweep-m", "--schedule", SWEEP_RULE, "--iters", str(iters_sweep),
                   "--out", "sweep_m.csv"] + seed_flag,
                  _check_sweep("sweep_m.csv", iters_sweep, SWEEP_RULE, m_compare, "compare"))
    spec = InstanceSpec(kind="best-approx", n=50, t=10, seed=inst_seed)
    return Workload([compare, sweep],
                    _mirror_descent_probe(spec, SWEEP_RULE, m_compare, iters_sweep))


# (problem, n, t, visible iterations); the hidden reference runs 50x the
# visible budget, and the budgets make every operation cost about the same
_LONGRUN = (
    ("fts", 50, 10, 90),
    ("fts", 2000, 20, 12),
    ("covering-ball", 500, 20, 60),
    ("covering-ball", 5000, 10, 14),
    ("max-linear", 200, 50, 150),
    ("max-linear", 20000, 10, 14),
)
_LONGRUN_SMALL = (
    ("fts", 20, 5, 10),
    ("covering-ball", 30, 5, 10),
    ("max-linear", 40, 5, 10),
)


def reference_longrun(seed, small):
    rng = random.Random(f"reference-longrun/{seed}")
    cases = _LONGRUN_SMALL if small else _LONGRUN
    seeds = [rng.randrange(2**31) for _ in cases]
    ops = [_run_op(f"run{i}-{problem}-n{n}", problem, n, t, iters, s, "LongRun")
           for i, ((problem, n, t, iters), s) in enumerate(zip(cases, seeds))]
    problem, n, t, iters = cases[0]
    spec = InstanceSpec(kind=problem, n=n, t=t, seed=seeds[0])
    return Workload(ops,
                    _mirror_descent_probe(spec, TAG_TIME_VARYING, 0.0, iters))


def constrained(seed, small):
    rng = np.random.default_rng([seed, 0x636f6e])
    n, t = (10, 3) if small else (50, 10)
    p_switch, p_never = (6, 20) if small else (20, 200)
    eps_switch, eps_never = (0.2, 0.2) if small else (0.07, 0.14)
    instances = [("switch", switching_instance(rng, n, p_switch, t), eps_switch, True)
                 for _ in range(1 if small else 4)]
    instances.append(("never", never_violated_instance(rng, n, p_never, t), eps_never, False))
    ops = []
    for i, (label, (objective, cons), epsilon, switching) in enumerate(instances):
        for kind in ("alg3-tv", "alg3-atv", "alg4"):
            ops.append(SolverOp(f"{label}{i}-{kind}", kind, objective, cons,
                                epsilon, 1.0, switching))
    first = ops[0]
    return Workload(ops, lambda record: first.execute(record))


def grid_reference(seed, small):
    rng = random.Random(f"grid-reference/{seed}")
    inst_seed = rng.randrange(2**31)
    # max-linear runs all 120 refinement rounds (~1.9M calls), the case worth
    # measuring; the small variant is a covering-ball instance that refines
    # in about 6k calls
    if small:
        problem, t, iters, inst_seed = "covering-ball", 3, 10, 1
    else:
        problem, t, iters = "max-linear", 10, 1000
    op = _run_op(f"grid-{problem}", problem, 2, t, iters, inst_seed, "GridRefine")
    spec = InstanceSpec(kind=problem, n=2, t=t, seed=inst_seed)
    return Workload([op],
                    _mirror_descent_probe(spec, TAG_TIME_VARYING, 0.0, iters))


_BUILDERS = {
    "plan-sweep": plan_sweep,
    "reference-longrun": reference_longrun,
    "constrained": constrained,
    "grid-reference": grid_reference,
}


def build(name, seed, small=False):
    return _BUILDERS[name](seed, small)
