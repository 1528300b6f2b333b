"""Best-effort BLAS thread-pool introspection and limiting.

The process execution backend runs ``P`` worker processes, each of
which calls into NumPy's BLAS.  If every worker's BLAS also spins up
its own ``T``-wide thread pool, the machine runs ``P x T`` compute
threads on ``P``-ish cores and the "parallel" path loses to serial on
context switches (the oversubscription failure mode DESIGN.md §10
documents).  This module is the knob that prevents it: each worker of
a pool that fans out pins its BLAS pool to 1 thread at startup
(:meth:`~repro.core.config.ExecutionConfig.worker_blas_threads`).

``threadpoolctl`` is the right tool for this job but is an optional
dependency this environment may not have, so the implementation
degrades explicitly:

1. ``threadpoolctl`` when importable (authoritative: covers OpenBLAS,
   MKL, BLIS and OpenMP runtimes);
2. a ``ctypes`` call into the already-loaded OpenBLAS
   (``openblas_set_num_threads``), located via ``/proc/self/maps`` —
   covers the scipy-openblas wheels NumPy ships on Linux;
3. environment variables (``OPENBLAS_NUM_THREADS`` & co.) — these do
   not affect an already-initialized pool in *this* process, but are
   inherited by worker processes forked/spawned afterwards, which is
   exactly when the process backend needs them;
4. a recorded no-op.

:func:`blas_thread_info` reports which layer is in effect so
``benchmarks/bench_parallel_speedup.py`` can record the *actual*
thread limits a measurement ran under, not the requested ones.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

__all__ = ["apply_blas_limit", "blas_thread_info"]

#: Env vars the common BLAS/OpenMP runtimes honor at pool creation.
_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Symbol names the OpenBLAS control API exports.  The scipy-openblas
#: wheels NumPy ships prefix the whole API with ``scipy_`` (and the
#: ILP64 build suffixes ``64_``); vanilla OpenBLAS exports the bare
#: names.
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)

_openblas_handle: ctypes.CDLL | None = None
_openblas_probed = False


def _load_openblas() -> ctypes.CDLL | None:
    """A handle to the OpenBLAS already mapped into this process, or
    ``None``.  ``CDLL`` on a path the dynamic loader has already mapped
    returns the existing library (refcounted), so this never loads a
    second BLAS."""
    global _openblas_handle, _openblas_probed
    if _openblas_probed:
        return _openblas_handle
    _openblas_probed = True
    maps = Path("/proc/self/maps")
    try:
        candidates = {
            line.split()[-1]
            for line in maps.read_text().splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")
        }
        for path in sorted(candidates):
            try:
                handle = ctypes.CDLL(path)
            except OSError:
                continue
            if any(hasattr(handle, name) for name in _OPENBLAS_SETTERS):
                _openblas_handle = handle
                break
    except OSError:
        pass
    return _openblas_handle


def _threadpoolctl():
    try:
        import threadpoolctl  # noqa: PLC0415 — optional dependency

        return threadpoolctl
    except ImportError:
        return None


def apply_blas_limit(num_threads: int) -> str:
    """Pin BLAS thread pools to ``num_threads`` for the rest of this
    process's life (a worker-initializer, not a context manager).

    Returns the name of the layer that took effect —
    ``"threadpoolctl"``, ``"openblas-ctypes"``, ``"env"`` (future
    pools/children only) or ``"noop"`` — so callers can record what a
    measurement actually ran under.
    """
    if num_threads < 1:
        raise ValueError(f"num_threads must be >= 1, got {num_threads}")
    # Env vars always: they cost nothing and cover any BLAS pool (or
    # grandchild process) initialized after this call.
    for var in _BLAS_ENV_VARS:
        os.environ[var] = str(num_threads)
    tpc = _threadpoolctl()
    if tpc is not None:
        tpc.threadpool_limits(limits=num_threads)
        return "threadpoolctl"
    handle = _load_openblas()
    if handle is not None:
        for name in _OPENBLAS_SETTERS:
            setter = getattr(handle, name, None)
            if setter is not None:
                setter(ctypes.c_int(num_threads))
                return "openblas-ctypes"
    return "env" if _BLAS_ENV_VARS[0] in os.environ else "noop"


def blas_thread_info() -> dict:
    """What BLAS this process runs and its current thread width.

    Keys: ``implementation`` (e.g. ``"openblas"``/``"unknown"``),
    ``max_threads`` (current pool width, ``None`` when undiscoverable)
    and ``control`` (the strongest limiting layer available here).
    Recorded into BENCH_core.json so speedup claims carry the thread
    configuration they were measured under.
    """
    tpc = _threadpoolctl()
    if tpc is not None:
        pools = [
            info
            for info in tpc.threadpool_info()
            if info.get("user_api") == "blas"
        ]
        if pools:
            return {
                "implementation": pools[0].get("internal_api", "unknown"),
                "max_threads": pools[0].get("num_threads"),
                "control": "threadpoolctl",
            }
    handle = _load_openblas()
    if handle is not None:
        threads = None
        for name in _OPENBLAS_GETTERS:
            getter = getattr(handle, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
        return {
            "implementation": "openblas",
            "max_threads": threads,
            "control": "openblas-ctypes",
        }
    return {
        "implementation": "unknown",
        "max_threads": None,
        "control": "env",
    }
