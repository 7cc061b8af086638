"""``scripts/peak_rss.py``: one ``mdbench`` command in a child process,
with its peak memory, wall time and exit code."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"


def _peak_rss(cwd, *args):
    proc = subprocess.run([sys.executable, str(_SCRIPT), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    return proc, proc.stdout.strip().split("\n")[-1]


def test_peak_rss_reports_the_child_of_a_tiny_command(tmp_path):
    proc, last = _peak_rss(tmp_path, "mdbench", "gen", "--problem", "best-approx", "--n", "3",
                           "--out", "instance.json")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(last)
    assert set(report) == {"peak_rss_mb", "wall_s", "exit_code"}
    assert report["exit_code"] == 0
    # a Python process with numpy loaded holds more than a few MB
    assert 5.0 < report["peak_rss_mb"] < 1000.0
    assert report["wall_s"] > 0.0
    # the command ran in the caller's directory
    assert json.loads((tmp_path / "instance.json").read_text())["n"] == 3


def test_peak_rss_passes_the_exit_code_through(tmp_path):
    proc, last = _peak_rss(tmp_path, "mdbench", "run", "--iters", "0")
    assert json.loads(last)["exit_code"] == proc.returncode == 1
    assert "error: iters must be at least 1" in proc.stderr
    proc, _ = _peak_rss(tmp_path, "gen")
    assert proc.returncode == 2
    assert "usage: peak_rss.py mdbench COMMAND" in proc.stderr
