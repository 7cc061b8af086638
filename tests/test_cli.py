"""Command-line interface, exercised in process through main(argv)."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mdbench.bench
import mdbench.solvers
from mdbench.bench import ExperimentPlan
from mdbench.cli import build_parser, main
from mdbench.geometry import PROX_NAMES, ProxSetup
from mdbench.problems import InstanceSpec
from mdbench.solvers import RunConfig


def test_run_happy_path(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main([
        "run", "--n", "5", "--seed", "3", "--schedule", "nonsum",
        "--m", "1", "--iters", "30", "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()
    cell = json.loads(capsys.readouterr().out)
    assert cell["schedule"] == "nonsum"
    assert cell["m"] == 1.0
    assert cell["final_k"] == 30
    assert cell["stop_reason"] == "MaxIters"
    assert cell["reference"]["method"] == "Analytic"


def test_run_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert main([
            "run", "--n", "5", "--seed", "3", "--schedule", "adagrad",
            "--iters", "40", "--out", str(p),
        ]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_run_with_entropy_prox(tmp_path, capsys):
    out = tmp_path / "simplex.csv"
    rc = main([
        "run", "--problem", "covering-ball", "--n", "5", "--t", "3",
        "--prox", "entropy", "--schedule", "nonsum", "--iters", "25",
        "--out", str(out),
    ])
    assert rc == 0
    cell = json.loads(capsys.readouterr().out)
    assert cell["final_k"] == 25
    assert cell["reference"]["method"] == "LongRun"


def test_usage_errors_exit_2(tmp_path, capsys):
    cases = [
        ["run", "--bogus"],
        ["nope"],
        [],
        ["run", "--p", "3"],
        ["compare", "--p", "1"],
        ["sweep-m", "--p", "2"],
        ["sweep-m", "--m", "0"],
        ["constrained", "--p", "0"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        capsys.readouterr()


def test_one_parser_serves_every_call_without_carrying_state(tmp_path, capsys):
    parser = build_parser()
    assert build_parser() is parser
    fresh = build_parser.__wrapped__()
    # refused after --m had taken one value
    assert main(["sweep-m", "--m", "2", "x", "--iters", "5"]) == 2
    assert "invalid float value" in capsys.readouterr().err
    for argv in (["sweep-m"], ["sweep-m", "--iters", "7"], ["constrained"], ["run"]):
        assert vars(parser.parse_args(argv)) == vars(fresh.parse_args(argv)), argv
    out = tmp_path / "inst.json"
    assert main(["gen", "--n", "3", "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert (doc["kind"], doc["n"], doc["seed"]) == ("best-approx", 3, 5)


def test_the_cli_the_plans_and_the_prox_share_one_list_of_prox_names():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    for command in ("run", "compare", "sweep-m"):
        (prox,) = (a for a in subparsers[command]._actions if a.dest == "prox")
        assert prox.choices is PROX_NAMES, command
    instance = InstanceSpec("best-approx", n=3, seed=1)
    for name in PROX_NAMES:
        assert ExperimentPlan(instance, ("nonsum",), (0.0,), prox=name).prox == name
        assert ProxSetup(name).psi_kind == name
    for name in ("euclidean-half-sq", "neg-entropy", "l1"):
        with pytest.raises(ValueError, match=f"^unknown prox kind: '{name}'$"):
            ExperimentPlan(instance, ("nonsum",), (0.0,), prox=name)
        with pytest.raises(ValueError, match=f"^unknown prox kind: '{name}'$"):
            ProxSetup(name)


def test_post_parse_usage_message(capsys):
    assert main(["sweep-m", "--m", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "at least two --m values" in err


@pytest.mark.parametrize("command", ["run", "compare", "sweep-m"])
def test_unconstrained_subcommands_take_no_constraint_flags(command, capsys):
    # --p is refused whatever its value, 0 included; argparse names the cause
    for argv in ([command, "--p", "0"], [command, "--dist", "standard-normal"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: mdbench"), argv
        assert argv[1] in err.splitlines()[-1], argv


def test_runtime_errors_exit_1(tmp_path, capsys):
    rc = main([
        "run", "--problem", "fts", "--n", "4", "--t", "3",
        "--schedule", "polyak", "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 1
    assert "error: Polyak requires known f*" in capsys.readouterr().err
    rc = main(["run", "--iters", "0", "--out", str(tmp_path / "y.csv")])
    assert rc == 1
    assert "error: iters must be at least 1" in capsys.readouterr().err


def test_a_budget_above_the_cap_is_refused_before_any_run(tmp_path, capsys, monkeypatch):
    # with the cap lowered to 100, a budget of 250 must not run 100
    # iterations and label them MaxIters
    monkeypatch.setattr(mdbench.solvers, "SAFETY_CAP", 100)
    monkeypatch.setattr(mdbench.bench, "SAFETY_CAP", 100)
    with pytest.raises(ValueError, match=r"^iters must be at most SAFETY_CAP = 100$"):
        RunConfig(m=0.0, iters=250)
    out = tmp_path / "out"
    for argv in (["run"], ["compare"], ["sweep-m"], ["constrained"]):
        assert main([*argv, "--iters", "250", "--out", str(out)]) == 1, argv
        assert capsys.readouterr().err == "error: iters must be at most SAFETY_CAP = 100\n"
        assert not out.exists()
    # a budget at the cap runs in full; its LongRun reference, 50 times the
    # budget, is held at the cap
    assert main(["run", "--problem", "fts", "--n", "4", "--t", "3", "--schedule", "nonsum",
                 "--iters", "100", "--out", str(out)]) == 0
    cell = json.loads(capsys.readouterr().out)
    assert (cell["final_k"], cell["stop_reason"]) == (100, "MaxIters")
    assert cell["reference"]["method"] == "LongRun"
    # a constrained run with no budget and an epsilon it cannot reach stops at the cap
    assert main(["constrained", "--epsilon", "1e-9", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().split("\n")[1:3]]
    assert [(row[0], row[3], row[-1]) for row in rows] == [
        ("alg3", "100", "MaxIters"), ("alg4", "100", "MaxIters")]


def test_large_m_is_an_error_line_not_a_traceback(tmp_path, capsys):
    # gamma**(-400) leaves the float64 range within the first iterations, or
    # underflows to 0 at every one when the steps exceed about 5.9
    overflow = "leave the float64 range"
    for argv, cause in (
        (["constrained", "--n", "10", "--t", "10", "--p", "5", "--seed", "11",
          "--dist", "standard-normal", "--epsilon", "0.25", "--m", "400",
          "--out", str(tmp_path / "table.csv")], overflow),
        (["run", "--schedule", "nonsum", "--m", "400", "--out", str(tmp_path / "run.csv")],
         overflow),
        (["run", "--problem", "fts", "--n", "50", "--prox", "entropy", "--schedule",
          "quad-grad", "--m", "400", "--iters", "50", "--out", str(tmp_path / "fts.csv")],
         "underflow to 0"),
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: weights gamma**(-m) {cause}")
        assert "m=400" in err and "gamma=" in err and "iteration" in err


def test_compare_skips_polyak_without_fstar(tmp_path, capsys):
    rc = main([
        "compare", "--problem", "fts", "--n", "4", "--t", "3",
        "--iters", "20", "--out", str(tmp_path),
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert "note: skipping polyak" in err
    summary = json.loads((tmp_path / "summary.json").read_text())
    tags = [c["schedule"] for c in summary["cells"]]
    assert "polyak" not in tags
    assert len(tags) == 8
    for cell in summary["cells"]:
        assert (tmp_path / cell["file"]).exists()


def test_compare_keeps_polyak_when_fstar_known(tmp_path, capsys):
    rc = main([
        "compare", "--n", "5", "--seed", "3", "--iters", "20",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    assert "skipping polyak" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["cells"]) == 9
    assert "polyak" in [c["schedule"] for c in summary["cells"]]


def test_sweep_cli(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep-m", "--n", "4", "--seed", "5", "--schedule", "nonsum",
        "--m", "0", "1", "--iters", "15", "--out", str(out),
    ])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().strip("\n").split("\n")
    assert lines[0] == "m,k,gap_avg"
    assert len(lines) == 1 + 2 * 15


def test_sweep_cli_refuses_a_repeated_m_by_name(tmp_path, capsys):
    # 1 and 1.0 are one m: its rows would be written twice
    out = tmp_path / "sweep.csv"
    rc = main(["sweep-m", "--n", "4", "--m", "1", "0", "1.0", "--iters", "5", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: the plan lists m=1.0 twice\n"
    assert not out.exists()


def test_constrained_cli(tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main([
        "constrained", "--n", "10", "--t", "10", "--p", "5", "--seed", "11",
        "--dist", "standard-normal", "--epsilon", "0.25", "--m", "1",
        "--out", str(out),
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert "alg3 eps=0.25:" in err and "alg4 eps=0.25:" in err
    lines = out.read_text().strip("\n").split("\n")
    assert lines[0].startswith("algorithm,epsilon,m,")
    assert len(lines) == 3


def test_constrained_cli_refuses_a_repeated_epsilon_by_name(tmp_path, capsys):
    # 0.5 and 0.50 are one epsilon: it would be solved and written twice
    out, tdir = tmp_path / "table.csv", tmp_path / "traces"
    rc = main(["constrained", "--epsilon", "0.5", "0.25", "0.50", "--n", "10", "--t", "5",
               "--p", "5", "--trace-dir", str(tdir), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: the plan lists epsilon=0.5 twice\n"
    assert not out.exists() and not tdir.exists()


def test_constrained_takes_no_prox_flag(tmp_path, capsys):
    # the comparison has one geometry, so it offers no choice of prox
    out = tmp_path / "table.csv"
    assert main(["constrained", "--prox", "euclidean", "--out", str(out)]) == 2
    assert "unrecognized arguments: --prox euclidean" in capsys.readouterr().err
    assert not out.exists()


def test_gen_cli(tmp_path, capsys):
    out = tmp_path / "inst.json"
    rc = main([
        "gen", "--problem", "max-linear", "--n", "6", "--t", "4", "--p", "3",
        "--seed", "13", "--dist", "standard-normal", "--out", str(out),
    ])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["kind"] == "max-linear"
    assert doc["constraints"] is not None
    assert len(doc["constraints"]["alphas"]) == 3


def test_compare_builds_its_instance_once(tmp_path, capsys, monkeypatch):
    built = []
    build = mdbench.bench.build_objective

    def counting_build(spec):
        built.append(spec)
        return build(spec)

    monkeypatch.setattr(mdbench.bench, "build_objective", counting_build)
    for prox in ("euclidean", "entropy"):
        built.clear()
        rc = main([
            "compare", "--problem", "fts", "--n", "4", "--t", "3", "--prox", prox,
            "--iters", "5", "--out", str(tmp_path / prox),
        ])
        assert rc == 0
        assert len(built) == 1
        assert "skipping polyak" in capsys.readouterr().err


def test_an_infinite_theta_is_rejected_by_name(tmp_path, capsys):
    with pytest.raises(ValueError, match="theta must be positive and finite"):
        RunConfig(m=1.0, epsilon=0.25, theta=math.inf)
    # the comparison takes theta from its ball, so no flag sets it
    out = tmp_path / "table.csv"
    rc = main(["constrained", "--theta1", "inf", "--out", str(out)])
    assert rc == 2
    assert "unrecognized arguments: --theta1 inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 7.28 TiB"), MemoryError()],
                         ids=["numpy-message", "bare"])
def test_memory_error_is_an_error_line_not_a_traceback(tmp_path, capsys, monkeypatch, error):
    # raised, not provoked: whether numpy refuses a huge array up front
    # depends on the kernel's overcommit setting
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr("mdbench.cli.run_single_cell", refuse)
    assert main(["run", "--n", "1000000000000", "--out", str(tmp_path / "run.csv")]) == 1
    assert capsys.readouterr().err == f"error: {str(error) or 'MemoryError'}\n"


def test_output_bytes_at_an_unset_thread_count_are_those_of_one_thread(tmp_path):
    # at n = 20000, numpy's BLAS dot products round differently with two or
    # more threads; importing mdbench pins one thread unless the caller chose
    src = Path(mdbench.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    outputs = []
    for name, threads in (("unset.csv", {}), ("one.csv", {"OPENBLAS_NUM_THREADS": "1"})):
        subprocess.run(
            [sys.executable, "-m", "mdbench.cli", "run", "--problem", "max-linear",
             "--n", "20000", "--t", "10", "--iters", "14", "--schedule", "time-varying",
             "--m", "0", "--out", name],
            cwd=tmp_path, env={**env, **threads}, check=True, capture_output=True,
        )
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]


def test_an_infinite_epsilon_is_rejected_by_name(tmp_path, capsys):
    # an infinite epsilon would stop at once and certify nothing
    out = tmp_path / "table.csv"
    rc = main([
        "constrained", "--n", "5", "--t", "3", "--p", "3", "--epsilon", "inf",
        "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err == "error: epsilon must be positive and finite\n"
    assert not out.exists()
