"""The disk memory-store backend: persisted ``M_IN``/``M_OUT`` shards.

On-disk layout (one directory per store)::

    <path>/
      store.json    # {"format": 1, "dtype": "float32", "rows": ns, "dim": ed}
      m_in.bin      # ns x ed row-major values, the meta dtype
      m_out.bin     # ns x ed row-major values, the meta dtype

The format is dtype-aware (float32, the engine's default and the
``FLOAT_BYTES`` footprint the serving model charges, or the float64
reference) and deliberately trivial: raw C-order matrices that
``np.memmap`` can map and any other tool can stream.  Both are
row-major although ``M_IN`` is feature-major in RAM (DESIGN.md §10):
a row is one extent an append-in-place write path can extend, and
format 1 stores stay readable.  :meth:`MmapStore.save`
writes atomically-enough for a single writer — on any error the
partially-written directory is removed, so a store directory either
holds a complete, openable store or nothing.

Chunk reads (:meth:`MmapStore.read_chunk`) are positional reads on
descriptors the store opens once and holds until
:meth:`MmapStore.close` (whoever saved or opened the store closes it):
one ``os.preadv`` per matrix lands the span in a ``(rows, ed)``
array, and the ``M_IN`` one is then transposed: 27 us per 1000 x 48
float32 chunk — once per chunk the resident tier admits, on the fetch
thread under lookahead — against 25-35 us saved by each score GEMM
over it at nq = 2 (unbudgeted streaming at nq = 1 alone does not earn
it back: gemv 5.9 -> 5.6 us).  A positional read has no shared file
offset and releases the GIL for the whole transfer, so
:class:`~repro.store.prefetch.ChunkPrefetcher`'s fetch thread overlaps
the compute thread's BLAS calls (the paper's §3.1 load/compute
overlap), and a file that shrank since :meth:`MmapStore.open` is an
``OSError``, not a shorter chunk.  Row gathers for strided shards use
the mapping (page-granular random access).
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Sequence

import numpy as np

from .base import RowSubsetStore, check_dtype, feature_major

__all__ = ["MmapStore"]

#: On-disk format version (bump on any layout change).
FORMAT_VERSION = 1

_META_NAME = "store.json"
_M_IN_NAME = "m_in.bin"
_M_OUT_NAME = "m_out.bin"
_BIN_NAMES = (_M_IN_NAME, _M_OUT_NAME)

#: Rows copied per step while persisting (bounds save()'s working set,
#: so saving a larger-than-RAM conversion never materializes it).
_SAVE_ROWS = 8192


class MmapStore:
    """Disk-backed ``M_IN``/``M_OUT`` with a ``save``/``open`` format.

    Construct via :meth:`save` (persist arrays) or :meth:`open` (map an
    existing store directory); the initializer itself only wires up an
    already-validated directory.
    """

    #: Read descriptors of ``_BIN_NAMES``; ``None`` once closed (and
    #: while ``__init__`` has not opened them, for the finaliser).
    _fds: tuple[int, ...] | None = None

    def __init__(self, path: Path, rows: int, dim: int, dtype: np.dtype) -> None:
        self.path = Path(path)
        self._rows = rows
        self._dim = dim
        self._dtype = dtype
        self._fds = tuple(
            os.open(self.path / name, os.O_RDONLY) for name in _BIN_NAMES
        )
        shape = (rows, dim)
        self.m_in = np.memmap(
            self.path / _M_IN_NAME, dtype=dtype, mode="r", shape=shape
        )
        self.m_out = np.memmap(
            self.path / _M_OUT_NAME, dtype=dtype, mode="r", shape=shape
        )

    def close(self) -> None:
        """Release the chunk-read descriptors; :meth:`read_chunk` then
        raises.  The ``m_in``/``m_out`` mappings (and row gathers
        through them) are unaffected.  Idempotent."""
        fds, self._fds = self._fds, None
        for fd in fds or ():
            os.close(fd)

    __del__ = close

    # --- persistence ---------------------------------------------------------

    @classmethod
    def save(
        cls,
        path,
        m_in: np.ndarray,
        m_out: np.ndarray,
        dtype=None,
        overwrite: bool = False,
    ) -> "MmapStore":
        """Persist a memory pair to ``path`` and return the opened store.

        Args:
            path: target directory (created; must not exist unless
                ``overwrite``).
            m_in: ``(ns, ed)`` input memory.
            m_out: ``(ns, ed)`` output memory.
            dtype: on-disk dtype (default: ``m_in``'s dtype if
                supported, else float64).
            overwrite: replace an existing directory.

        On any error the partially-written directory is removed before
        the exception propagates (no half-stores left behind).
        """
        m_in = np.asarray(m_in)
        m_out = np.asarray(m_out)
        if m_in.ndim != 2 or m_out.ndim != 2:
            raise ValueError("memories must be 2-D (ns, ed)")
        if m_in.shape != m_out.shape:
            raise ValueError(
                f"M_IN and M_OUT shapes differ: {m_in.shape} vs {m_out.shape}"
            )
        if m_in.shape[0] == 0:
            raise ValueError("cannot save an empty store (0 rows)")
        if dtype is None:
            dtype = m_in.dtype if m_in.dtype in (np.float32, np.float64) \
                else np.float64
        dtype = check_dtype(dtype)

        path = Path(path)
        if path.exists():
            if not overwrite:
                raise FileExistsError(
                    f"store directory already exists: {path} "
                    "(pass overwrite=True to replace it)"
                )
            shutil.rmtree(path)
        path.mkdir(parents=True)
        try:
            cls._write_matrix(path / _M_IN_NAME, m_in, dtype)
            cls._write_matrix(path / _M_OUT_NAME, m_out, dtype)
            meta = {
                "format": FORMAT_VERSION,
                "dtype": dtype.name,
                "rows": int(m_in.shape[0]),
                "dim": int(m_in.shape[1]),
            }
            (path / _META_NAME).write_text(json.dumps(meta, indent=2) + "\n")
        except BaseException:
            shutil.rmtree(path, ignore_errors=True)
            raise
        return cls.open(path)

    @staticmethod
    def _write_matrix(target: Path, matrix: np.ndarray, dtype: np.dtype) -> None:
        rows, dim = matrix.shape
        out = np.memmap(target, dtype=dtype, mode="w+", shape=(rows, dim))
        for start in range(0, rows, _SAVE_ROWS):
            stop = min(start + _SAVE_ROWS, rows)
            out[start:stop] = matrix[start:stop]
        out.flush()
        del out

    @classmethod
    def open(cls, path) -> "MmapStore":
        """Map an existing store directory (read-only)."""
        path = Path(path)
        meta_path = path / _META_NAME
        if not meta_path.is_file():
            raise FileNotFoundError(f"not a store directory (no {_META_NAME}): {path}")
        meta = json.loads(meta_path.read_text())
        if meta.get("format") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported store format {meta.get('format')!r} "
                f"(this build reads format {FORMAT_VERSION})"
            )
        dtype = check_dtype(meta["dtype"])
        rows, dim = int(meta["rows"]), int(meta["dim"])
        for name in _BIN_NAMES:
            expected = rows * dim * dtype.itemsize
            actual = (path / name).stat().st_size
            if actual != expected:
                raise ValueError(
                    f"{name} is {actual} bytes, metadata implies {expected} "
                    f"({rows} x {dim} {dtype.name})"
                )
        if rows == 0:
            raise ValueError("cannot open an empty store (0 rows)")
        return cls(path, rows, dim, dtype)

    # --- MemoryStore protocol ------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._rows

    @property
    def embedding_dim(self) -> int:
        return self._dim

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def resident(self) -> bool:
        return False

    def read_chunk(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Load a row span from disk into fresh buffers (``M_IN``
        transposed to feature-major as it lands).

        One positional read per matrix on the held descriptors (no
        shared offset, GIL released), so a prefetch thread calling
        this genuinely runs concurrently with compute.  Raises
        ``OSError`` when a file ends before the span does.
        """
        if self._fds is None:
            raise ValueError(f"store is closed: {self.path}")
        start = max(0, start)
        shape = (max(0, min(stop, self._rows) - start), self._dim)
        offset = start * self._dim * self._dtype.itemsize
        pair = []
        for fd, name in zip(self._fds, _BIN_NAMES):
            chunk = np.empty(shape, dtype=self._dtype)
            got = os.preadv(fd, [chunk], offset)
            if got != chunk.nbytes:
                raise OSError(
                    f"{self.path / name}: short read at offset {offset}, "
                    f"{chunk.nbytes - got} of {chunk.nbytes} bytes missing"
                )
            pair.append(chunk)
        return feature_major(pair[0]), pair[1]

    def read_rows(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        indices = np.asarray(indices, dtype=np.intp)
        return feature_major(self.m_in[indices]), np.asarray(self.m_out[indices])

    def map_rows(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The worker-side open path of the process execution backend:
        ``(m_in, m_out)`` restricted to ``indices``, *without copying*
        when the indices form one ascending contiguous run (a
        contiguous shard) — the returned arrays are then plain memmap
        slices, so every worker process that maps this store shares
        the same physical pages.  Scattered indices (a strided shard)
        fall back to a one-time gather."""
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size and np.array_equal(
            indices, np.arange(indices[0], indices[-1] + 1)
        ):
            lo, hi = int(indices[0]), int(indices[-1]) + 1
            return self.m_in[lo:hi], self.m_out[lo:hi]
        return self.read_rows(indices)

    def select(self, indices: Sequence[int]) -> RowSubsetStore:
        """A lazy row-subset view (shards never materialize the tier)."""
        return RowSubsetStore(self, indices)
