"""Byte gate: run a fixed list of ``mdbench`` commands in a fresh directory
and print the sha256 of every file they leave there.

Each command runs in this process through ``mdbench.cli.main``, with the
directory as the working directory and ``COLUMNS=80``, so argparse wraps
its messages the same way on every terminal. Its stdout, followed by a line
``exit <code>``, goes to ``stdout_<i>.txt`` and its stderr to
``stderr_<i>.txt``; the command list itself goes to ``commands.txt``.
Wall-clock time is the only field that may differ between two runs of the
same code, so it is masked before hashing: the ``wall_seconds`` column of
every constrained comparison table and the seconds field of the
``constrained`` stderr lines.

Usage:

    python3 scripts/byte_gate.py OUT_DIR

OUT_DIR must not exist yet. The ``mdbench`` package comes from the ``src``
directory of this checkout. The first line printed names the numpy and BLAS
versions; the listing follows. ``scripts/byte_gate.expected`` holds the
listing of the committed code, and ``tests/test_byte_gate.py`` compares a
fresh run with it. A change that moves output bytes regenerates that file
with this script, so its diff shows which outputs moved.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# mdbench first, so that numpy loads with the BLAS thread count it sets
from mdbench.cli import main as mdbench_main  # noqa: E402
import numpy as np  # noqa: E402

COMMANDS = (
    "compare --seed 42 --m -1 --iters 600 --out cmp_s42_m-1",
    "compare --seed 42 --m 5 --iters 600 --out cmp_s42_m5",
    "compare --problem fts --n 20 --t 8 --seed 42 --m 2 --iters 300 --out cmpfts_s42",
    "compare --problem covering-ball --n 10 --t 6 --prox entropy --seed 42 --m 0.5 "
    "--iters 300 --out cmpent_s42",
    "compare --seed 7 --m 400 --iters 50 --out cmp_overflow",
    "sweep-m --schedule time-varying --seed 42 --iters 800 --m -1 0 0.5 1 2 5 "
    "--out sweep_time-varying_s42.csv",
    "sweep-m --schedule polyak --seed 7 --iters 800 --m -1 0 0.5 1 2 5 "
    "--out sweep_polyak_s7.csv",
    "sweep-m --problem max-linear --n 30 --t 5 --schedule adaptive-time-varying "
    "--seed 42 --iters 300 --out sweep_ml_s42.csv",
    "sweep-m --schedule nonsum --m 0 400 --iters 100 --out sweep_0_400.csv",
    "sweep-m --schedule nonsum --m 0 1e-300 0.1 --iters 100 --out sweep_tiny.csv",
    "run --problem best-approx --n 50 --m 1 --iters 500 --out run_analytic.csv",
    "run --problem max-linear --n 2 --t 6 --m 0 --iters 300 --out run_grid_ml2.csv",
    "run --problem fts --n 50 --t 10 --schedule nonsum --m 5 --iters 200 "
    "--out run_longrun.csv",
    "run --problem max-linear --n 40 --t 8 --prox entropy --schedule quad-grad --m -1 "
    "--iters 200 --out run_entropy.csv",
    "run --m -2 --out run_bad_m.csv",
    "run --iters 0 --out run_bad_iters.csv",
    "run --p 3 --out run_p3.csv",
    "run --problem fts --n 4 --t 3 --schedule polyak --out run_polyak.csv",
    "run --schedule nonsum --m 400 --out run_m400.csv",
    "constrained --problem max-linear --n 10 --t 10 --p 20 --dist standard-normal "
    "--epsilon 0.25 0.5 --seed 3 --schedule time-varying --m -0.5 "
    "--trace-dir tr_switch_s3_tv --out switch_s3_tv.csv",
    "constrained --problem max-linear --n 10 --t 10 --p 20 --dist standard-normal "
    "--epsilon 0.25 0.5 --seed 3 --m 1 --trace-dir tr_switch_s3_atv --out switch_s3_atv.csv",
    "constrained --problem max-linear --n 2 --t 4 --p 3 --dist uniform01 --epsilon 2 "
    "--schedule time-varying --m -0.5 --trace-dir tr_never_tv --out never_tv.csv",
    "constrained --problem max-linear --n 2 --t 4 --p 3 --dist uniform01 --epsilon 2 "
    "--m 2 --trace-dir tr_never_atv --out never_atv.csv",
    "constrained --n 10 --t 10 --p 5 --seed 11 --dist standard-normal --epsilon 0.25 "
    "--m 400 --out cons_m400.csv",
    "run --problem max-linear --n 50 --t 10 --seed 0 --prox entropy --schedule constant-step "
    "--m 0 --iters 300 --out run_entropy_certified.csv",
    "constrained --theta1 inf --out cons_theta_inf.csv",
    "constrained --n 4 --t 2 --p 3 --epsilon 0.5000001 0.5000002 --trace-dir tr_collide "
    "--out collide.csv",
    "constrained --n 4 --t 2 --p 3 --epsilon inf --out eps_inf.csv",
    "constrained --problem best-approx --n 5 --p 6 --dist standard-normal --epsilon 0.2 "
    "--m -1 --seed 4 --trace-dir tr_scan_m-1 --out scan_m-1.csv",
    "constrained --problem covering-ball --n 5 --t 4 --p 6 --dist standard-normal "
    "--epsilon 0.3 --m 3 --seed 3 --trace-dir tr_scan_m3 --out scan_m3.csv",
    "run --problem max-linear --n 40 --t 8 --iters 1 --out run_longrun_b1.csv",
    "run --problem covering-ball --n 30 --t 6 --iters 200 --out run_shared.csv",
    "sweep-m --problem fts --n 20 --t 8 --iters 300 --out sweep_fts_s42.csv",
    "gen --n 2 --seed 5 --out gen_ba2_s5.json",
    "gen --problem max-linear --n 6 --t 4 --p 3 --dist standard-normal --out gen_ml6.json",
)

_TABLE_HEADER = "algorithm,epsilon,m,iterations,productive,nonproductive,constraint_evals,"
_WALL_COLUMN = 7
_STDERR_WALL = re.compile(r"\d+\.\d{3} s, stop=")


def versions_line() -> str:
    """The numpy and BLAS versions, which the listing's bytes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"# numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


def _mask_table(path: Path) -> None:
    lines = path.read_text().split("\n")
    if not lines[0].startswith(_TABLE_HEADER):
        return
    for i, line in enumerate(lines[1:], start=1):
        if line:
            cells = line.split(",")
            cells[_WALL_COLUMN] = "masked"
            lines[i] = ",".join(cells)
    path.write_text("\n".join(lines))


def run_gate(out_dir: Path) -> list:
    """Run every command in ``out_dir`` and return (sha256, relative path)
    pairs for every file left there, sorted by path. The working directory
    and ``COLUMNS`` are restored afterwards."""
    out_dir = out_dir.resolve()
    out_dir.mkdir(parents=True)
    (out_dir / "commands.txt").write_text("\n".join(COMMANDS) + "\n")
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    os.chdir(out_dir)
    try:
        for i, command in enumerate(COMMANDS, start=1):
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = mdbench_main(command.split())
            (out_dir / f"stdout_{i}.txt").write_text(stdout.getvalue() + f"exit {code}\n")
            (out_dir / f"stderr_{i}.txt").write_text(
                _STDERR_WALL.sub("masked s, stop=", stderr.getvalue())
            )
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    for path in files:
        if path.suffix == ".csv":
            _mask_table(path)
    return [
        (hashlib.sha256(path.read_bytes()).hexdigest(), "./" + path.relative_to(out_dir).as_posix())
        for path in files
    ]


def listing(out_dir: Path) -> list:
    """The lines this script prints: the versions line, then one
    ``<sha256>  <path>`` line per file."""
    return [versions_line()] + [f"{digest}  {rel}" for digest, rel in run_gate(out_dir)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", type=Path, help="new directory for the outputs")
    args = parser.parse_args(argv)
    if args.out_dir.exists():
        parser.error(f"{args.out_dir} already exists; the gate needs a fresh directory")
    print("\n".join(listing(args.out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
