"""The machine a run measured on, and run-time control of BLAS threads.

OpenBLAS is reached through ctypes on the libraries already loaded into
this process (numpy and scipy each bundle one), so the thread count can
be read back and changed for a diagnostic without touching the
environment of anything else."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys

_SET = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
        "openblas_set_num_threads64_", "openblas_set_num_threads")
_GET = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_", "openblas_get_num_threads")
_CORE = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
         "openblas_get_corename64_", "openblas_get_corename")


def _first(lib, names):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def openblas_libs():
    """(path, CDLL) for each OpenBLAS library mapped into this process."""
    paths = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.rstrip("\n").split(maxsplit=5)[-1]
                if "openblas" in os.path.basename(path) and path not in paths:
                    paths.append(path)
    except OSError:
        return []
    return [(p, ctypes.CDLL(p)) for p in paths]


def blas_threads() -> dict:
    out = {}
    for path, lib in openblas_libs():
        get = _first(lib, _GET)
        if get is not None:
            get.restype = ctypes.c_int
            out[os.path.basename(path)] = int(get())
    return out


def set_blas_threads(n: int) -> bool:
    """Set every loaded OpenBLAS to n threads; False if none could be set."""
    done = False
    for _, lib in openblas_libs():
        fn = _first(lib, _SET)
        if fn is not None:
            fn.argtypes = [ctypes.c_int]
            fn(int(n))
            done = True
    return done


def default_blas_threads() -> int:
    """The count OpenBLAS picks with no thread variable set: one per CPU."""
    return os.cpu_count() or 1


def source_digest(src_dir: str) -> str:
    md = hashlib.sha256()
    for root, dirs, files in os.walk(src_dir):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                md.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    md.update(fh.read())
    return md.hexdigest()[:16]


def commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        res = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def describe(root: str) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (KeyError, TypeError, ValueError):
        build = "unknown"
    cores = {}
    for path, lib in openblas_libs():
        fn = _first(lib, _CORE)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            cores[os.path.basename(path)] = fn().decode()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "blas_build": build,
        "blas_core": cores,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit(root),
        "gmfkit_source_sha256": source_digest(os.path.join(root, "src", "gmfkit")),
    }
