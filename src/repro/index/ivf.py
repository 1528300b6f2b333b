"""IVF (inverted-file) index over ``M_IN`` rows.

The retrieval tier's data structure: k-means clusters the memory rows
once, then each query probes the ``nprobe`` clusters whose centroids
score highest under the attention inner product and the exact kernel
runs on the union of their member rows.  Per query that costs
``O(nlist * ed)`` centroid scores plus ``O(ns * nprobe / nlist)``
candidate rows — sublinear in ``ns`` at the classic ``nlist = sqrt(ns)``
sizing, versus the ``O(ns * ed)`` full scan.

This is the same structure sparse-access memories (Rae et al.) and
hierarchical memory networks (Chandar et al.) put in front of large
external memories; the FAISS-style variant here is deliberately plain
NumPy:

* **Build** — Lloyd k-means with blocked assignment: rows stream
  through in ``block_rows`` slices straight from the
  :class:`~repro.store.MemoryStore` tier, so building over an
  out-of-core memory never materializes it.  Nearest-centroid uses the
  ``argmax(x . c - ||c||^2 / 2)`` identity (the ``||x||^2`` term is
  constant per row), and per-cluster sums use one ``bincount`` per
  embedding column instead of ``ufunc.at`` scatter-adds.
* **Probe** — one ``(nq, nlist)`` GEMM against the centroids, an
  ``argpartition`` top-``nprobe`` per query, then the union of the
  selected clusters across the batch (the column kernel runs once per
  batch, so the batch shares one candidate set) as *runs* of the
  member permutation: a memory stored in member order (cluster-major)
  is scanned run by run with no gather, and the candidates' original
  row ids are only materialized on request (:meth:`IVFIndex.rows`).

Determinism: centroid seeding is driven by the config seed, ties in
``argmax``/``argpartition`` resolve the NumPy way, and member lists are
kept in sorted row order — the same memories and config always build
the same index and return the same candidates.
"""

from __future__ import annotations

import numpy as np

from ..store.base import MemoryStore, iter_chunk_spans

__all__ = ["IVFIndex"]

#: Rows per blocked k-means assignment pass (bounds the transient
#: ``(block, nlist)`` score matrix; 64k rows x 256 clusters x 8B = 128MB
#: worst case at the default sizing).
DEFAULT_BLOCK_ROWS = 65_536


class IVFIndex:
    """A k-means clustered inverted file over memory rows.

    Build with :meth:`build`; query with :meth:`probe`.  The index
    holds only the ``(nlist, ed)`` centroid matrix and the member-row
    permutation — ``O(nlist * ed + ns)`` memory, independent of the
    tier the rows themselves live on (a cluster-major copy of a
    resident memory belongs to the tier that scans it,
    :class:`~repro.index.topk.TopKMemNN`).

    Attributes:
        centroids: ``(nlist, ed)`` float64 cluster centroids.
    """

    def __init__(
        self,
        centroids: np.ndarray,
        members: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        self.centroids = np.ascontiguousarray(centroids, dtype=np.float64)
        self._members = np.asarray(members, dtype=np.intp)
        self._offsets = np.asarray(offsets, dtype=np.intp)
        if self.centroids.ndim != 2:
            raise ValueError("centroids must be 2-D (nlist, ed)")
        if len(self._offsets) != len(self.centroids) + 1:
            raise ValueError("offsets must have nlist + 1 entries")

    @property
    def nlist(self) -> int:
        return self.centroids.shape[0]

    @property
    def num_rows(self) -> int:
        return len(self._members)

    @property
    def embedding_dim(self) -> int:
        return self.centroids.shape[1]

    @property
    def members(self) -> np.ndarray:
        """The ``(ns,)`` member permutation: row ids cluster by cluster,
        sorted within each cluster.  ``memory[members]`` is the
        cluster-major layout the runs of :meth:`probe` index."""
        return self._members

    def cluster_members(self, cluster: int) -> np.ndarray:
        """Sorted row indices assigned to ``cluster``."""
        return self._members[self._offsets[cluster] : self._offsets[cluster + 1]]

    def rows(self, runs: np.ndarray) -> np.ndarray:
        """Sorted original row ids of the members ``runs`` cover."""
        if np.diff(runs).sum() == self.num_rows:
            # Every member covered: a permutation of all rows.
            return np.arange(self.num_rows, dtype=np.intp)
        return np.sort(
            np.concatenate([self._members[start:stop] for start, stop in runs])
        )

    @property
    def cluster_sizes(self) -> np.ndarray:
        return np.diff(self._offsets)

    @classmethod
    def build(
        cls,
        store: MemoryStore,
        nlist: int,
        kmeans_iters: int = 4,
        seed: int = 0,
        block_rows: int = DEFAULT_BLOCK_ROWS,
    ) -> "IVFIndex":
        """Cluster the store's ``M_IN`` rows into ``nlist`` cells.

        Rows stream through in ``block_rows`` slices, so the build
        works unchanged over out-of-core stores.  Empty clusters keep
        their previous centroid (they simply attract no probes).
        """
        ns = store.num_rows
        if ns == 0:
            raise ValueError("cannot build an index over an empty memory")
        nlist = max(1, min(nlist, ns))
        if kmeans_iters < 1:
            raise ValueError(f"kmeans_iters must be >= 1, got {kmeans_iters}")

        rng = np.random.default_rng(seed)
        seed_rows = np.sort(rng.choice(ns, size=nlist, replace=False))
        centroids = store.read_rows(seed_rows)[0].astype(np.float64, copy=True)

        ed = store.embedding_dim
        assignments = np.empty(ns, dtype=np.intp)
        for _ in range(kmeans_iters):
            cls._assign(store, centroids, assignments, block_rows)
            counts = np.bincount(assignments, minlength=nlist).astype(np.float64)
            sums = np.zeros((nlist, ed), dtype=np.float64)
            for start, stop in iter_chunk_spans(ns, block_rows):
                rows = np.asarray(
                    store.read_chunk(start, stop)[0], dtype=np.float64
                )
                block_assign = assignments[start:stop]
                for dim in range(ed):
                    sums[:, dim] += np.bincount(
                        block_assign, weights=rows[:, dim], minlength=nlist
                    )
            nonempty = counts > 0
            centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        # One final assignment so membership matches the centroids a
        # probe will score (the loop updates centroids after assigning).
        cls._assign(store, centroids, assignments, block_rows)

        order = np.argsort(assignments, kind="stable")
        offsets = np.zeros(nlist + 1, dtype=np.intp)
        np.cumsum(np.bincount(assignments, minlength=nlist), out=offsets[1:])
        return cls(centroids, order, offsets)

    @staticmethod
    def _assign(
        store: MemoryStore,
        centroids: np.ndarray,
        out: np.ndarray,
        block_rows: int,
    ) -> None:
        """Nearest-centroid (L2) assignment, blocked over the store."""
        half_sq = 0.5 * np.einsum("ij,ij->i", centroids, centroids)
        for start, stop in iter_chunk_spans(store.num_rows, block_rows):
            rows = np.asarray(store.read_chunk(start, stop)[0], dtype=np.float64)
            scores = rows @ centroids.T
            scores -= half_sq
            np.argmax(scores, axis=1, out=out[start:stop])

    def probe(self, u: np.ndarray, nprobe: int) -> tuple[np.ndarray, np.ndarray]:
        """Candidate runs for a question batch.

        Each question scores every centroid under the attention inner
        product and selects its ``nprobe`` best clusters; the batch's
        candidate set is the union of the selected clusters' members
        (the exact column kernel runs once for the whole batch, so the
        candidate set is shared — per-question subsets would forfeit
        the batch's single memory stream).

        Args:
            u: ``(nq, ed)`` question state vectors.
            nprobe: clusters probed per question.

        Returns:
            ``(runs, clusters)`` — the candidates as ``(r, 2)``
            ``[start, stop)`` spans of the member permutation, ascending
            and disjoint (adjacent probed clusters merge into one run),
            and the sorted unique cluster ids they came from.
        """
        if nprobe < 1:
            raise ValueError(f"nprobe must be >= 1, got {nprobe}")
        u = np.atleast_2d(np.asarray(u, dtype=np.float64))
        if u.shape[1] != self.embedding_dim:
            raise ValueError(
                f"questions must be (nq, {self.embedding_dim}), got {u.shape}"
            )
        nprobe = min(nprobe, self.nlist)
        scores = u @ self.centroids.T
        if nprobe == self.nlist:
            clusters = np.arange(self.nlist, dtype=np.intp)
        else:
            top = np.argpartition(scores, -nprobe, axis=1)[:, -nprobe:]
            clusters = np.unique(top).astype(np.intp)
        starts, stops = self._offsets[clusters], self._offsets[clusters + 1]
        # A run opens where a cluster does not start at its predecessor's
        # end, and closes before the next opening.
        opens = np.ones(len(clusters), dtype=bool)
        np.not_equal(starts[1:], stops[:-1], out=opens[1:])
        closes = np.ones(len(clusters), dtype=bool)
        closes[:-1] = opens[1:]
        runs = np.stack([starts[opens], stops[closes]], axis=1)
        return runs[runs[:, 1] > runs[:, 0]], clusters
