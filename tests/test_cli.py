"""Command-line interface, exercised in process through main(argv)."""
from __future__ import annotations

import json
import math

import pytest

import mdbench.bench
from mdbench.cli import main
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


def test_post_parse_usage_message(capsys):
    assert main(["run", "--p", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "unconstrained experiment" in err


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


def test_large_m_is_an_error_line_not_a_traceback(tmp_path, capsys):
    # gamma**(-400) leaves the float64 range within the first iterations
    for argv in (
        ["constrained", "--n", "10", "--t", "10", "--p", "5", "--seed", "11",
         "--dist", "standard-normal", "--epsilon", "0.25", "--m", "400",
         "--out", str(tmp_path / "table.csv")],
        ["run", "--schedule", "nonsum", "--m", "400", "--out", str(tmp_path / "run.csv")],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: weights gamma**(-m) leave the float64 range")
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
    out = tmp_path / "table.csv"
    rc = main(["constrained", "--theta1", "inf", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: theta must be positive and finite\n"
    assert not out.exists()
