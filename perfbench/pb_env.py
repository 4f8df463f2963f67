"""Thread pinning and host description for the benchmark.

Kept free of NumPy imports: :func:`pin_threads` must run before NumPy loads
its BLAS, and pool slots inherit the environment it sets.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
from typing import Dict

__all__ = ["THREAD_VARS", "pin_threads", "host_info", "reap_children"]

#: Thread-count variables of the BLAS/OpenMP runtimes NumPy may load.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    """Pin every BLAS/OpenMP runtime to one thread (call before importing NumPy)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def reap_children(timeout: float = 10.0) -> None:
    """Stop and wait for every process this one started.

    Pool slots are joined (terminated if they outlive ``timeout``).  The
    multiprocessing resource tracker, started by the first shared-memory
    install, would otherwise outlive this process until it noticed its
    parent had gone; it is stopped and waited for here.
    """
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def host_info() -> Dict[str, object]:
    """What a result depends on besides the code: cores, versions, BLAS, threads."""
    import numpy as np

    blas: Dict[str, object] = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy < 2 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }
