"""The machine and library facts recorded with every result."""

from __future__ import annotations

import ctypes
import os
import subprocess
from pathlib import Path

import numpy as np

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_info() -> dict:
    """BLAS name and version from numpy's build record, and the thread count
    the loaded OpenBLAS reports (None when it cannot be asked)."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def git_revision(root: Path) -> str:
    """HEAD commit, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "numpy": np.__version__,
        "git_revision": git_revision(root),
    }
