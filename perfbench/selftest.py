"""Quick self-test of the benchmark at small sizes.

    python3 perfbench/selftest.py

Runs every workload once at small sizes, untraced and traced, and checks
that each metric named in BENCHMARK.json is reported with its unit and that
no operation fails. Then it replaces the library's reference solution with
a deliberately wrong one (f_min one unit too high, tolerance 0) and checks
that the operations whose checks rest on a reference are counted as failed.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import sys

import run


def _expect(problems, cond, message):
    if not cond:
        problems.append(message)
        print(f"FAIL {message}")


def _metrics_match(problems, label, result, spec):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    _expect(problems, got == want, f"{label}: metrics {got} differ from BENCHMARK.json {want}")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        _expect(problems, isinstance(value, (int, float)) and value == value,
                f"{label}: {name} is {value!r}")


def main():
    if not run._import_library():
        return 2
    import mdbench.bench

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    _expect(problems, tuple(names) == run.WORKLOAD_NAMES,
            f"BENCHMARK.json workloads {names} differ from {run.WORKLOAD_NAMES}")

    for name in names:
        for trace in (0, 1):
            label = f"{name} trace {trace}"
            result, report = run.run_workload(name, 1, 0.0, trace, small=True, setup=not trace)
            _expect(problems, result["correct"] and result["failed"] == 0,
                    f"{label}: failed operations {report['failures']}")
            _metrics_match(problems, label, result,
                           spec["per_layer"] if trace else spec["end_to_end"])
            print(f"ok   {label}: {result['attempted']} operations")

    true_reference = mdbench.bench.reference_solution

    def wrong_reference(*args, **kwargs):
        ref = true_reference(*args, **kwargs)
        return mdbench.bench.ReferenceSolution(ref.f_min + 1.0, ref.method, 0.0)

    mdbench.bench.reference_solution = wrong_reference
    try:
        for name in ("plan-sweep", "reference-longrun", "grid-reference"):
            result, _ = run.run_workload(name, 1, 0.0, 0, small=True, setup=False)
            _expect(problems, not result["correct"] and result["failed"] == result["attempted"],
                    f"{name}: wrong reference gave {result['failed']} failed of "
                    f"{result['attempted']}")
            print(f"ok   {name}: wrong reference fails {result['failed']} of "
                  f"{result['attempted']} operations")
    finally:
        mdbench.bench.reference_solution = true_reference

    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
