"""Environment record of a benchmark run, and the guard that refuses to
compare results from environments that compute differently."""
from __future__ import annotations

import ctypes
import os
import platform

# Results that differ in these keys are not comparable: the kernel backends
# agree only to the last bits, and the BLAS thread count changes timings.
GUARDED = ("kernel_backend", "blas_threads")

# Thread-count variables set for every process the benchmark starts.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def record(kernels) -> dict:
    """What a result depends on besides the code: machine, libraries, backend."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "kernel_backend": kernels.backend_name(),
        "RELQINFO_FORCE_NUMPY_KERNEL": os.environ.get("RELQINFO_FORCE_NUMPY_KERNEL"),
    }


def incomparable(env_a: dict, env_b: dict) -> list:
    """Reasons two results may not be compared; empty when they may."""
    return [f"{key}: {env_a.get(key)!r} != {env_b.get(key)!r}"
            for key in GUARDED if env_a.get(key) != env_b.get(key)]
