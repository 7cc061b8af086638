"""Alternating benchmark pairs: run ``perfbench/run.py --trace 0`` in a
parent checkout and a change checkout, and summarise every end-to-end
metric against its bound in ``BENCHMARK.json``.

Usage, from the root of the repository:

    python3 scripts/bench_pairs.py PARENT CHANGE --pairs 10
    python3 scripts/bench_pairs.py PARENT CHANGE --pairs 5 --workload constrained --seed 7

PARENT and CHANGE are the roots of two checkouts. Pair i (from 1) runs the
parent first when i is odd and the change first when it is even. Each run is
a fresh ``python3 perfbench/run.py --trace 0 --workload W --seed K`` in its
checkout (``--seconds S`` only when given, else the benchmark's default),
and its last line of standard output is read as the run's JSON result. If
any run reports ``correct: false``, or prints no result, nothing is
summarised and the exit code is 1.

For each workload and metric the summary gives both medians and quartiles,
each side's interquartile range (IQR) as a % of its median, the pairs the
change won (ties count for neither side), the change against the parent in
%, and a verdict: ``unresolved`` when either side's IQR exceeds the bound,
else ``worse than bound`` or ``within bound``. ``gain_shown`` is true when
the change won at least nine tenths of the pairs and its median is better
than the parent's by more than the parent's IQR.

Both sides drift together between runs, and that verdict does not use it.
Next to it, the summary gives the quartiles of the per-pair ratios
change / parent and a paired verdict: ``better`` when even the quartile on
the worse side is past 1 (the lower quartile above 1 for a
higher-is-better metric, the upper quartile below 1 otherwise), ``worse``
when the quartile on the better side is past 1 the other way, and
``unresolved`` when the ratios' interquartile range holds 1. The last line
printed is one JSON object holding the summary and every run's metric
values.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _quartiles(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _metric_values(result: dict, workload: str) -> dict:
    """{"workload/metric": value} of one run's final JSON line; a run of
    one workload names its metrics without the workload."""
    if not result.get("correct"):
        raise ValueError("a run reported correct: false; its metrics are not summarised")
    return {(key if "/" in key else f"{workload}/{key}"): entry["value"]
            for key, entry in result["metrics"].items()}


def summarize(parent_results, change_results, end_to_end, workload="all") -> dict:
    """The spread-against-bound summary of paired runs: result i of each
    side is pair i. ``end_to_end`` is the ``end_to_end`` list of
    ``BENCHMARK.json``. Raises ValueError when the sides differ in length
    or any run is not correct."""
    if len(parent_results) != len(change_results) or not parent_results:
        raise ValueError("both sides need the same number of runs, at least one")
    parent = [_metric_values(r, workload) for r in parent_results]
    change = [_metric_values(r, workload) for r in change_results]
    specs = {m["name"]: m for m in end_to_end}
    summary = {}
    for key in sorted(parent[0]):
        name, metric = key.rsplit("/", 1)
        spec = specs.get(metric)
        if spec is None:
            continue
        higher = spec["better"] == "higher"
        p = [run[key] for run in parent]
        c = [run[key] for run in change]
        p_q, c_q = _quartiles(p), _quartiles(c)
        p_iqr, c_iqr = p_q[2] - p_q[0], c_q[2] - c_q[0]
        rel = c_q[1] / p_q[1] - 1.0 if p_q[1] else 0.0
        worse = -rel if higher else rel  # > 0 when the change reads worse
        won = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        bound = spec["bound"]
        if p_iqr > bound * abs(p_q[1]) or c_iqr > bound * abs(c_q[1]):
            verdict = "unresolved"
        else:
            verdict = "worse than bound" if worse > bound else "within bound"
        better_by = (c_q[1] - p_q[1]) if higher else (p_q[1] - c_q[1])
        # a pair whose parent reads 0 has no ratio
        ratio_q = _quartiles([b / a for a, b in zip(p, c) if a] or [1.0])
        paired = "unresolved"
        if ratio_q[0] > 1.0 or ratio_q[2] < 1.0:  # the ratios' IQR lies off 1
            paired = "better" if (ratio_q[0] > 1.0) == higher else "worse"
        summary.setdefault(name, {})[metric] = {
            "better": spec["better"],
            "bound": bound,
            "parent_median": p_q[1],
            "change_median": c_q[1],
            "parent_quartiles": [p_q[0], p_q[2]],
            "change_quartiles": [c_q[0], c_q[2]],
            "parent_iqr_pct_of_median": _pct(p_iqr, p_q[1]),
            "change_iqr_pct_of_median": _pct(c_iqr, c_q[1]),
            "change_better_in_pairs": f"{won}/{len(p)}",
            "change_vs_parent": f"{100.0 * rel:+.1f}%",
            "verdict": verdict,
            "gain_shown": won >= 0.9 * len(p) and better_by > p_iqr,
            "paired_ratio_quartiles": list(ratio_q),
            "paired_verdict": paired,
        }
    return summary


def _pct(part, whole) -> float:
    return round(100.0 * part / abs(whole), 1) if whole else 0.0


def _run(checkout: Path, args) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--trace", "0",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise ValueError(f"no JSON result from {checkout} (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-500:]}") from None


def _print(summary) -> None:
    for name, metrics in summary.items():
        for metric, s in metrics.items():
            print(f"{name:18s} {metric:12s} parent {s['parent_median']:.6g} "
                  f"[{s['parent_quartiles'][0]:.6g}, {s['parent_quartiles'][1]:.6g}] "
                  f"IQR {s['parent_iqr_pct_of_median']}%  change {s['change_median']:.6g} "
                  f"[{s['change_quartiles'][0]:.6g}, {s['change_quartiles'][1]:.6g}] "
                  f"IQR {s['change_iqr_pct_of_median']}%  won {s['change_better_in_pairs']}  "
                  f"{s['change_vs_parent']}  {s['verdict']}"
                  + ("  gain shown" if s["gain_shown"] else "")
                  + "  paired ratio [{:.4g}, {:.4g}, {:.4g}] {}".format(
                      *s["paired_ratio_quartiles"], s["paired_verdict"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    try:
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                runs[side].append(_run(getattr(args, side), args))
                print(f"pair {i} {side} done", file=sys.stderr, flush=True)
        summary = summarize(runs["parent"], runs["change"], end_to_end, args.workload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print(summary)
    values = {side: [_metric_values(r, args.workload) for r in results]
              for side, results in runs.items()}
    print(json.dumps({"spread_vs_bound": summary, "runs": values}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
