"""The summary of ``scripts/bench_pairs.py``, fed synthetic runs."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

END_TO_END = [
    {"name": "iters_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(iters, setup, correct=True):
    return {"correct": correct, "attempted": 3, "failed": 0, "metrics": {
        "constrained/iters_per_s": {"unit": "1/s", "value": iters},
        "constrained/setup_s": {"unit": "s", "value": setup},
        "constrained/fail_ratio": {"unit": "ratio", "value": 0.0},
    }}


def test_summary_reads_medians_pairs_and_verdicts():
    parent = [_run(100.0 + i, 0.20 + 0.01 * i) for i in range(10)]
    # the change is faster in 9 pairs; its setup spreads wider than the bound
    change = [_run(130.0 + i if i else 90.0, 0.20 + 0.1 * i) for i in range(10)]
    summary = _bench_pairs().summarize(parent, change, END_TO_END)
    assert set(summary) == {"constrained"}
    assert set(summary["constrained"]) == {"iters_per_s", "setup_s"}  # no bound, no row
    it = summary["constrained"]["iters_per_s"]
    assert (it["parent_median"], it["change_median"]) == (104.5, 134.5)
    assert it["parent_quartiles"] == [102.25, 106.75]
    assert it["parent_iqr_pct_of_median"] == 4.3
    assert it["change_better_in_pairs"] == "9/10"
    assert it["change_vs_parent"] == "+28.7%"
    assert it["verdict"] == "within bound" and it["gain_shown"]
    setup = summary["constrained"]["setup_s"]
    assert setup["verdict"] == "unresolved" and not setup["gain_shown"]
    assert setup["change_better_in_pairs"] == "0/10"  # the first pair ties


def test_summary_flags_a_metric_worse_than_its_bound():
    parent = [_run(100.0, 0.2) for _ in range(4)]
    change = [_run(70.0, 0.2) for _ in range(4)]
    it = _bench_pairs().summarize(parent, change, END_TO_END)["constrained"]["iters_per_s"]
    assert (it["verdict"], it["change_vs_parent"], it["gain_shown"]) == (
        "worse than bound", "-30.0%", False)


def test_summary_refuses_an_incorrect_run_and_unpaired_sides():
    module = _bench_pairs()
    good = [_run(100.0, 0.2)] * 2
    with pytest.raises(ValueError, match="correct: false"):
        module.summarize(good, [_run(100.0, 0.2), _run(100.0, 0.2, correct=False)], END_TO_END)
    with pytest.raises(ValueError, match="same number of runs"):
        module.summarize(good, good[:1], END_TO_END)


def test_a_single_workload_run_names_its_metrics_without_the_workload():
    run = {"correct": True, "metrics": {"setup_s": {"unit": "s", "value": 0.3}}}
    summary = _bench_pairs().summarize([run], [run], END_TO_END, workload="grid-reference")
    setup = summary["grid-reference"]["setup_s"]
    assert (setup["parent_median"], setup["verdict"], setup["change_better_in_pairs"]) == (
        0.3, "within bound", "0/1")


def test_paired_ratios_resolve_where_both_sides_drift_together():
    # both sides spread 40% between runs, but within each pair the change
    # is 10% faster to within 2%: the side verdict is unresolved and the
    # paired one resolves. Pairs that disagree (ratios 0.8 and 1.25 in
    # turn) resolve neither way
    drift = [1.0, 1.5, 0.75, 1.3, 0.85, 1.45, 1.1, 0.8, 1.4, 1.05]
    agree = [1.10 + (0.02 if i % 2 else -0.02) for i in range(10)]
    disagree = [0.8 if i % 2 else 1.25 for i in range(10)]
    parent = [_run(100.0 * d, 0.2 * d) for d in drift]
    module = _bench_pairs()
    summary = module.summarize(parent, [_run(100.0 * d * r, 0.2 * d / r)
                                        for d, r in zip(drift, agree)], END_TO_END)
    it, setup = summary["constrained"]["iters_per_s"], summary["constrained"]["setup_s"]
    assert it["parent_iqr_pct_of_median"] >= 40.0 and it["verdict"] == "unresolved"
    assert it["paired_verdict"] == setup["paired_verdict"] == "better"
    assert 1.08 <= it["paired_ratio_quartiles"][0] <= it["paired_ratio_quartiles"][2] <= 1.12
    summary = module.summarize(parent, [_run(100.0 * d * r, 0.2 * d * r)
                                        for d, r in zip(drift, disagree)], END_TO_END)
    assert summary["constrained"]["iters_per_s"]["paired_verdict"] == "unresolved"
    assert summary["constrained"]["setup_s"]["paired_verdict"] == "unresolved"
    slower = module.summarize(parent, [_run(100.0 * d / 1.1, 0.2 * d * 1.1) for d in drift],
                              END_TO_END)["constrained"]
    assert slower["iters_per_s"]["paired_verdict"] == slower["setup_s"]["paired_verdict"] == "worse"
