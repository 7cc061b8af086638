"""The benchmark's tracer (perfbench/tracer.py) wraps library functions and
methods by name from outside. Installing it here makes renaming or removing
a traced name fail the suite instead of breaking a traced benchmark run."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import mdbench
import mdbench.bench
import mdbench.cli

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_uninstalls(tmp_path, capsys):
    main = mdbench.cli.main
    reference_solution = mdbench.bench.reference_solution
    tracer = _load_tracer_module().Tracer()
    try:
        tracer.install(mdbench)  # a partial install is undone below too
        argv = ["run", "--n", "5", "--iters", "20", "--out", str(tmp_path / "run.csv")]
        assert mdbench.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert mdbench.cli.main is main
    assert mdbench.bench.reference_solution is reference_solution
    names = {span["name"] for span in tracer.spans}
    assert {"cli.main", "bench.run_single_cell", "bench.reference_solution"} <= names
