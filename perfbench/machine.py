"""The machine record printed with each result, so that a reader can tell
contention on a shared host from a regression."""

from __future__ import annotations

import ctypes
import math
import os
import platform
import time

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loaded_openblas() -> str | None:
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    return path
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked of the library."""
    path = _loaded_openblas()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def host_speed_ms() -> float:
    """Wall time of a fixed kernel of Python arithmetic, dict stores and
    small matrix products. It runs no carpool_rl code, so it moves only with
    the speed the host gives this process."""
    a = np.full((32, 64), 0.5)
    w = np.full((64, 64), 0.01)
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(20_000):
        acc += math.sqrt(i)
        table[i & 1023] = acc
        if i % 20 == 0:
            np.maximum(a @ w, 0.0)
    return (time.perf_counter() - t0) * 1e3


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "loadavg_1m": os.getloadavg()[0],
    }
