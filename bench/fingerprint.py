"""Host fingerprint stored with every result.

The harness sets no thread variables and pins nothing: the numbers are
what the user's default environment gives, and this records what that
environment was (the ROADMAP's BLAS-thread tax on small dots has to stay
visible on the host where it occurs).
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from typing import Any

THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas_threads() -> int | None:
    """Ask the OpenBLAS numpy already loaded how many threads it runs
    (what ``threadpoolctl`` does, for hosts that lack it)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _blas() -> dict[str, Any]:
    import numpy as np

    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return {
            "source": "numpy.show_config",
            "vendor": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown"),
            "threads": _openblas_threads(),
        }
    pools = [p for p in threadpool_info() if p.get("user_api") == "blas"]
    return {
        "source": "threadpoolctl",
        "vendor": pools[0].get("internal_api", "unknown") if pools else "unknown",
        "version": pools[0].get("version", "unknown") if pools else "unknown",
        "threads": max((p["num_threads"] for p in pools), default=None),
    }


def fingerprint(load_at_start: tuple[float, float, float]) -> dict[str, Any]:
    """Everything about the host a reader needs to trust or doubt a time.
    Call after ``repro`` (and so numpy) is imported."""
    import numpy as np

    nproc = _nproc()
    blas = _blas()
    threads = blas["threads"]
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "load_average_at_start": list(load_at_start),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_variables": {
            k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ
        },
        "oversubscribed": None if threads is None else threads > nproc,
    }
