"""Environment record printed with every benchmark run.

BLAS threading changes both speed and the simplex pivot sequence, so runs
whose `comparable_key` differ must not be compared.  The record reads the
thread variables from the environment and asks each loaded OpenBLAS for
its effective thread count; it never sets or clears anything.
"""

from __future__ import annotations

import ctypes
import os
import platform

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _loaded_openblas() -> list[str]:
    try:
        with open("/proc/self/maps") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    paths = {line.split()[-1] for line in lines
             if "openblas" in line.lower() and ".so" in line}
    return sorted(p for p in paths if p.startswith("/"))


def _query(path: str) -> dict:
    info: dict = {"library": os.path.basename(path)}
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return info
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if getter is None:
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            info["threads"] = int(getter())
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if config is not None:
                config.argtypes = []
                config.restype = ctypes.c_char_p
                info["config"] = config().decode(errors="replace").strip()
            return info
    return info


def record() -> dict:
    """nproc, interpreter and library versions, BLAS and its threads."""
    import numpy
    import scipy

    blas = [_query(p) for p in _loaded_openblas()]
    threads = sorted({b["threads"] for b in blas if "threads" in b})
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    env = {k: os.environ[k] for k in THREAD_VARS if k in os.environ}
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": env,
        "comparable_key": "nproc=%s;blas_threads=%s" % (
            nproc, ",".join(map(str, threads)) or "unknown"),
    }
