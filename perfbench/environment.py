"""The environment block written with every benchmark result."""
from __future__ import annotations

import functools
import os
import platform
import subprocess
import sys

# thread settings of the BLAS builds numpy may link, and of the library's
# own pool; recorded, never set
THREAD_VARS = (
    "MDBENCH_THREADS",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _blas():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": None, "version": None}


def _git(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=str(root), env=env, capture_output=True,
                              text=True, timeout=30)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return {"sha": None, "dirty": None, "note": "not a git repository"}
        status = git("status", "--porcelain", "--untracked-files=no")
        return {"sha": head.stdout.strip(), "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired) as exc:
        return {"sha": None, "dirty": None, "note": f"git unavailable: {exc}"}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


@functools.lru_cache(maxsize=None)
def describe(root):
    import numpy as np

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = None
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "git": _git(root),
    }
