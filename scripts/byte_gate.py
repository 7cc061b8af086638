"""Byte gate: run a fixed list of ``mdbench`` commands in a fresh directory
and print the sha256 of every file they leave there.

Each command runs as ``python -m mdbench.cli ...`` with the directory as its
working directory. Its stdout, followed by a line ``exit <code>``, goes to
``stdout_<i>.txt`` and its stderr to ``stderr_<i>.txt``; the command list
itself goes to ``commands.txt``. Wall-clock time is the only field that may
differ between two runs of the same code, so it is masked before hashing:
the ``wall_seconds`` column of every constrained comparison table and the
seconds field of the ``constrained`` stderr lines.

Usage:

    python3 scripts/byte_gate.py OUT_DIR [--src SRC_DIR]

OUT_DIR must not exist yet. SRC_DIR is the directory that holds the
``mdbench`` package (default: the ``src`` directory of this checkout). To
check that a change keeps the output bytes, run the script on the parent
checkout and on the change, each into its own new directory, and diff the
two listings.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

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


def run_gate(out_dir: Path, src_dir: Path) -> list:
    """Run every command in ``out_dir`` and return (sha256, relative path)
    pairs for every file left there, sorted by path."""
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    (out_dir / "commands.txt").write_text("\n".join(COMMANDS) + "\n")
    for i, command in enumerate(COMMANDS, start=1):
        proc = subprocess.run(
            [sys.executable, "-m", "mdbench.cli", *command.split()],
            cwd=out_dir, env=env, capture_output=True, text=True,
        )
        (out_dir / f"stdout_{i}.txt").write_text(proc.stdout + f"exit {proc.returncode}\n")
        (out_dir / f"stderr_{i}.txt").write_text(
            _STDERR_WALL.sub("masked s, stop=", proc.stderr)
        )
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    for path in files:
        if path.suffix == ".csv":
            _mask_table(path)
    return [
        (hashlib.sha256(path.read_bytes()).hexdigest(), "./" + path.relative_to(out_dir).as_posix())
        for path in files
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", type=Path, help="new directory for the outputs")
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
        help="directory holding the mdbench package",
    )
    args = parser.parse_args(argv)
    if args.out_dir.exists():
        parser.error(f"{args.out_dir} already exists; the gate needs a fresh directory")
    for digest, rel in run_gate(args.out_dir, args.src.resolve()):
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
