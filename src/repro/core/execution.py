"""The process backend for sharded attention (§3.1, measured honestly).

DESIGN.md §8 proves the lazy-softmax shard merge exact; this module is
the one arrangement that moves shard work off the calling interpreter.
(The serial per-shard loop and the fused tile sweep live with
:class:`~repro.core.sharded.ShardedMemNN`; a thread-pool fan-out was
removed after measuring 0.79–0.99x serial in every run since it landed
— the Python bookkeeping between a shard's BLAS calls holds the GIL —
see DESIGN.md §10.)

Worker processes sidestep the GIL entirely.  The classic objection — a
process pool must pickle the ``O(ns x ed)`` memories — is dissolved by
the store tier: workers ``mmap`` the engine's spilled
:class:`~repro.store.MmapStore` *read-only* and compute against their
mapped shards (``M_OUT`` zero-copy out of the shared page cache; the
row-major ``M_IN`` laid out feature-major once, at solver build).
Only the ``O(nq x ed)`` question matrix crosses the pipe inbound and
the ``O(nq x ed)`` :class:`~repro.core.column.PartialOutput` triple
outbound.  Workers
pin their BLAS pools (:mod:`repro.core.thread_limits`) so P workers
never run P x T BLAS threads.

Determinism: shard results are collected **in shard order** regardless
of completion order, and the merge happens on the caller's side, so
the process backend is bit-identical to the serial one at every worker
count (each worker runs the same
:class:`~repro.core.column.ColumnMemNN` kernel on the same shard
bytes; the differential suite asserts equality, not closeness).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .column import ColumnMemNN, PartialOutput
from .config import ChunkConfig, ZeroSkipConfig
from .stats import OpStats
from .thread_limits import apply_blas_limit

__all__ = [
    "FLOAT32_LOGIT_TOLERANCE",
    "ProcessShardRunner",
]

#: Documented agreement bound between the float32 compute path and the
#: float64 reference on final logits (see DESIGN.md §10 and
#: tests/test_core_execution.py; observed ~1e-6 on the test grid).
FLOAT32_LOGIT_TOLERANCE = 1e-4

#: Env override for the multiprocessing start method ("fork"/"spawn"/
#: "forkserver"); unset picks fork where available (no interpreter
#: re-import per worker) and falls back to spawn.
_START_METHOD_ENV = "REPRO_MP_START_METHOD"


# --- process backend ---------------------------------------------------------


@dataclass(frozen=True)
class _ShardSpec:
    """Everything a worker needs to (re)build one shard's kernel from
    the spilled store — a few strings and ints, so the solver cache in
    each worker can key on it and the pipe never carries memory rows.
    """

    store_path: str
    shard: int
    num_shards: int
    policy: str
    chunk_size: int


#: Per-worker-process solver cache: reopening the store and gathering
#: a strided shard are one-time costs per (store, geometry), not
#: per-request ones.  Lives at module level so it survives across
#: tasks in the same worker.
_WORKER_SOLVERS: dict[_ShardSpec, ColumnMemNN] = {}


def _worker_init(blas_threads: int | None) -> None:
    """Worker-process initializer: pin the BLAS pool width before the
    first GEMM so P pool workers never fan out P x T BLAS threads."""
    if blas_threads is not None:
        apply_blas_limit(blas_threads)


def _worker_solver(spec: _ShardSpec) -> ColumnMemNN:
    solver = _WORKER_SOLVERS.get(spec)
    if solver is None:
        # Local import: workers under the spawn start method import
        # this module fresh; keeping the store import here keeps the
        # core package free of an import-time store dependency.
        from ..store.mmap_store import MmapStore
        from .sharded import ShardPlan

        store = MmapStore.open(spec.store_path)
        plan = ShardPlan(store.num_rows, spec.num_shards, spec.policy)
        m_in, m_out = store.map_rows(plan.indices(spec.shard))
        store.close()  # the mappings outlive the read descriptors
        solver = ColumnMemNN(
            m_in,
            m_out,
            chunk=ChunkConfig(spec.chunk_size),
            dtype=store.dtype,
        )
        _WORKER_SOLVERS[spec] = solver
    return solver


def _shard_task(
    spec: _ShardSpec,
    u: np.ndarray,
    zero_skip: ZeroSkipConfig | None,
    stable: bool,
) -> tuple[PartialOutput, OpStats]:
    """One shard's partial, computed inside a worker process against
    its zero-copy mapped slice of the spilled store."""
    return _worker_solver(spec).partial_output(
        u, zero_skip=zero_skip, stable=stable
    )


def _start_method() -> str:
    configured = os.environ.get(_START_METHOD_ENV)
    available = multiprocessing.get_all_start_methods()
    if configured:
        if configured not in available:
            raise ValueError(
                f"{_START_METHOD_ENV}={configured!r} is not available "
                f"on this platform (choices: {available})"
            )
        return configured
    return "fork" if "fork" in available else "spawn"


class ProcessShardRunner:
    """Shard fan-out over a persistent :class:`ProcessPoolExecutor`.

    Owned by a :class:`~repro.core.sharded.ShardedMemNN` configured
    with the ``"process"`` backend.  The pool is created lazily on the
    first run (so merely *constructing* a process-configured solver is
    cheap) and persists across requests — worker startup and the
    strided shards' one-time row gather amortize over the solver's
    life.  Callers must :meth:`close` when invalidating the solver;
    ``__del__`` is a best-effort backstop.

    Args:
        store_path: directory of the spilled :class:`MmapStore` every
            worker maps read-only.
        num_shards: shard count ``K`` (one task per shard per run).
        policy: row-partition policy of the shard plan.
        chunk_size: per-shard chunk size (must match the serial path's
            for bit-identity).
        num_workers: pool width (clamped to the shard count).
        blas_threads: per-worker BLAS pool width (``None`` = library
            default; the engine passes the anti-oversubscription
            default of :meth:`ExecutionConfig.worker_blas_threads`).
    """

    def __init__(
        self,
        store_path: str,
        num_shards: int,
        policy: str,
        chunk_size: int,
        num_workers: int,
        blas_threads: int | None = None,
    ) -> None:
        self._specs = [
            _ShardSpec(
                store_path=str(store_path),
                shard=shard,
                num_shards=num_shards,
                policy=policy,
                chunk_size=chunk_size,
            )
            for shard in range(num_shards)
        ]
        self._num_workers = max(1, min(num_workers, num_shards))
        self._blas_threads = blas_threads
        self._pool: ProcessPoolExecutor | None = None

    @property
    def num_workers(self) -> int:
        return self._num_workers

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._num_workers,
                mp_context=multiprocessing.get_context(_start_method()),
                initializer=_worker_init,
                initargs=(self._blas_threads,),
            )
        return self._pool

    def run(
        self,
        u: np.ndarray,
        zero_skip: ZeroSkipConfig | None = None,
        stable: bool = True,
    ) -> list[tuple[PartialOutput, OpStats]]:
        """Every shard's ``(partial, stats)``, collected in shard order.

        A dead worker (OOM-killed, segfaulted, ``os._exit``) breaks
        the pool; that surfaces here as a :class:`RuntimeError` naming
        the failure instead of a hang — the pool is torn down so the
        next run starts fresh.
        """
        pool = self._ensure_pool()
        try:
            futures: list[Future] = [
                pool.submit(_shard_task, spec, u, zero_skip, stable)
                for spec in self._specs
            ]
            return [future.result() for future in futures]
        except BrokenExecutor as error:
            self.close()
            raise RuntimeError(
                "a shard worker process died mid-computation (crashed or "
                "was killed); the process pool has been shut down — "
                f"retry re-creates it ({error!r})"
            ) from error

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass
