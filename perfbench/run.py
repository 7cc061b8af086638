"""mdbench benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload plan-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, every metric

Load is a closed loop with one client in one process: each operation starts
when the previous one returns. The operations of a workload form a round;
whole rounds repeat until ``--seconds`` have passed (at least one round
runs). The library's thread pool and the BLAS threads are left at
their defaults and only recorded.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced round and prints the per-layer metrics (see
``layers.py``). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, the environment and the output digests.
Spans, digests and results are also written under ``.perfbench_out/``.

The exit code is 1 when any output check failed and 2 when the library
source is missing.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
WORKLOAD_NAMES = ("plan-sweep", "reference-longrun", "constrained", "grid-reference")

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "iters_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# printed and saved, but absent from the final JSON line: each applies to
# some workloads only, or is 0 by design (fail_ratio at a correct commit)
REPORT_UNITS = {
    "op_tail_s": "s",
    "fail_ratio": "ratio",
    "ref_tol": "1",
    "alg3_time_to_eps_s": "s",
    "alg4_time_to_eps_s": "s",
    "alg3_iters_to_eps": "count",
    "alg4_iters_to_eps": "count",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_library():
    if not (SRC / "mdbench" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC}/mdbench", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def measure_setup(workload, seed):
    """Median wall time of fresh processes that import numpy and mdbench and
    build the workload's inputs, from launch to ready."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=str(ROOT))
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed with exit code {code}")
        times.append(t1 - t0)
    return statistics.median(times)


class Record:
    """One executed operation."""

    def __init__(self, op, seconds, outcome, op_id, traced):
        self.op = op
        self.seconds = seconds
        self.outcome = outcome
        self.op_id = op_id
        self.traced = traced


def _execute(op, op_id, traced, seen):
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        raw = op.execute()
        seconds = time.perf_counter() - t0
    except Exception as exc:  # an operation that raises is a failed operation
        seconds = time.perf_counter() - t0
        outcome = Outcome(0, [f"{op.key}: raised {exc!r}"])
        return Record(op, seconds, outcome, op_id, traced)
    try:
        outcome = op.check(raw)
    except Exception as exc:  # unreadable output is a failed check
        outcome = Outcome(0, [f"{op.key}: output check raised {exc!r}"])
    if outcome.digests is not None:
        first = seen.setdefault(op.key, outcome.digests)
        if first != outcome.digests:
            outcome.failures.append(f"{op.key}: output digest differs from an earlier "
                                    "repeat of the same input")
    return Record(op, seconds, outcome, op_id, traced)


def run_rounds(workload, seconds, tracer=None):
    """Closed loop over whole rounds until ``seconds`` have passed. With a
    tracer, rounds alternate untraced and traced."""
    records, seen = [], {}
    started = time.perf_counter()
    op_id = 0
    while True:
        for traced in ((False, True) if tracer is not None else (False,)):
            if traced:
                tracer.install(sys.modules["mdbench"])
            try:
                for op in workload.ops:
                    op_id += 1
                    if tracer is not None:
                        tracer.op_id = op_id
                    records.append(_execute(op, op_id, traced, seen))
            finally:
                if traced:
                    tracer.uninstall()
        if time.perf_counter() - started >= seconds:
            return records, seen


def tail(values):
    """Highest of the usual percentiles with at least ten operations beyond
    it, by nearest rank: (value, percentile, sample count) or None."""
    n = len(values)
    ordered = sorted(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(n * pct / 100.0)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n
    return None


def end_to_end(records, setup_s):
    times = [r.seconds for r in records]
    failed = sum(1 for r in records if not r.outcome.ok)
    metrics = {
        "op_p50_s": statistics.median(times),
        "iters_per_s": sum(r.outcome.iterations for r in records) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    report = {"fail_ratio": failed / len(records)}
    t = tail(times)
    if t is not None:
        report["op_tail_s"] = t[0]
        report["op_tail_percentile"] = t[1]
        report["op_tail_samples"] = t[2]
    tols = [r.outcome.extra["ref_tol"] for r in records if "ref_tol" in r.outcome.extra]
    if tols:
        report["ref_tol"] = max(tols)
    for alg in ("alg3", "alg4"):
        mine = [r for r in records if r.outcome.extra.get("algorithm") == alg]
        if mine:
            report[f"{alg}_time_to_eps_s"] = statistics.median(r.seconds for r in mine)
            report[f"{alg}_iters_to_eps"] = statistics.median(
                r.outcome.iterations for r in mine)
    return metrics, report


def run_workload(name, seed, seconds, trace, small=False, setup=True):
    """Run one workload; returns (result dict for the JSON line, report)."""
    import environment
    import workloads

    setup_s = measure_setup(name, seed) if setup else math.nan
    workload = workloads.build(name, seed, small)
    work = OUT / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    here = os.getcwd()
    os.chdir(work)
    try:
        # warm-up on the small variant of seed 1, which the self-test covers:
        # lazy imports and first-call costs stay out of the measurement
        warm = workloads.build(name, 1, small=True).ops[0]
        warm.check(warm.execute())
        if trace:
            import layers
            from tracer import Tracer

            tracer = Tracer()
            records, seen = run_rounds(workload, seconds, tracer)
            metrics = layers.per_layer(records, tracer, workload)
            units = layers.UNITS
        else:
            records, seen = run_rounds(workload, seconds)
            metrics, extra = end_to_end(records, setup_s)
            units = END_TO_END_UNITS
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for r in records for f in r.outcome.failures]
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "small": small,
        "operations": len(records),
        "measured_s": sum(r.seconds for r in records),
        "environment": environment.describe(ROOT),
        "digests": seen,
        "failures": failures[:50],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if not trace:
        report["report_metrics"] = extra
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(1 for r in records if not r.outcome.ok),
        "metrics": report["metrics"],
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}{'-small' if small else ''}"
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    if trace:
        tracer.write(OUT / f"spans-{tag}.json", {"workload": name, "seed": seed})
    return result, report


def _print_report(report):
    name = report["workload"]
    print(f"{name}: {report['operations']} operations in {report['measured_s']:.2f} s "
          f"(seed {report['seed']}, trace {report['trace']})")
    for f in report["failures"]:
        print(f"{name}: FAILED {f}")
    for key, digests in sorted(report["digests"].items()):
        for path, digest in sorted(digests.items()):
            print(f"{name}: sha256 {key} {path} {digest}")
    for metric, entry in report["metrics"].items():
        print(f"{name}: {metric} = {entry['value']:.6g} {entry['unit']}")
    extra = report.get("report_metrics", {})
    for metric, unit in REPORT_UNITS.items():
        if metric in extra:
            note = ""
            if metric == "op_tail_s":
                note = (f" (p{extra['op_tail_percentile']:g} of "
                        f"{extra['op_tail_samples']} operations)")
            print(f"{name}: {metric} = {extra[metric]:.6g} {unit}{note}")
    if report["trace"] == 0 and "op_tail_s" not in extra:
        print(f"{name}: op_tail_s omitted: fewer than 20 operations, so no percentile from p50 up has ten beyond it")


def main(argv=None):
    args = _parse(argv)
    if not _import_library():
        return 2
    if args.setup_probe:
        import workloads

        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    import environment

    print("environment: " + json.dumps(environment.describe(ROOT), sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, report = run_workload(name, args.seed, args.seconds, args.trace)
        _print_report(report)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    sys.stdout.flush()
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
