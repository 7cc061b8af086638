"""Peak memory of one ``mdbench`` command: run it in a child process and
print the child's peak resident set size, its wall time and its exit code.

Usage, from the root of the repository:

    python3 scripts/peak_rss.py mdbench constrained --trace-dir traces
    python3 scripts/peak_rss.py mdbench gen --out instance.json

Everything after ``mdbench`` is passed to ``python3 -m mdbench.cli`` in a
child process, with the ``src`` directory of this checkout first on
PYTHONPATH and the current directory as its working directory, so the
command writes its files where it would when run by hand. The child's
standard output and error pass through. The last line printed is one JSON
object: ``peak_rss_mb`` (the child's ``ru_maxrss`` from ``RUSAGE_CHILDREN``
in KiB / 1024, the unit of perfbench's ``peak_rss_mb``), ``wall_s`` and
``exit_code``. The script exits with the child's exit code.
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv) -> int:
    if not argv or argv[0] != "mdbench":
        print("usage: peak_rss.py mdbench COMMAND [ARGS...]", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    t0 = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "mdbench.cli", *argv[1:]], env=env).returncode
    wall = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": round(peak, 1), "wall_s": round(wall, 2),
                      "exit_code": code}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
