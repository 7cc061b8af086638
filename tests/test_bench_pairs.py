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
