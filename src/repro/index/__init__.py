"""Approximate top-k retrieval tier in front of exact attention.

Every exact attention path still touches all ``ns`` memory rows per
hop; MnnFast's zero-skipping data (§3.2, Fig. 6) shows most of those
rows carry negligible attention mass.  This package cashes that in the
way sparse-access memories (Rae et al.) and hierarchical memory
networks (Chandar et al.) do: an IVF index over ``M_IN`` selects
candidate rows per question batch, and the *exact* lazy-softmax column
kernel runs on the candidates only — ``O(sqrt(ns))``-ish work per
question instead of ``O(ns)``, with the approximation confined to
which rows are examined.

* :class:`IVFIndex` — the k-means clustered inverted file (build +
  probe), streaming-built so out-of-core memories index without
  materializing.
* :class:`TopKMemNN` — the solver the engine dispatches to: probe,
  gather (resident rows or a lazy
  :class:`~repro.store.base.RowSubsetStore` view of a disk tier),
  exact attention, with a bit-exact full-scan fallback at or below
  ``TopKConfig.min_rows`` (8 192 rows, the measured crossover of
  ``make topk-crossover``: the exact scan is faster below it).
* :class:`IndexStats` — per-pass observability (candidates examined,
  probe/build time, attention-mass recall).
* :func:`synthetic_topical_workload` — the topic-structured stories
  and revisiting questions the tier's recall is measured on.
"""

from .harness import synthetic_topical_workload
from .ivf import IVFIndex
from .stats import IndexStats
from .topk import TopKMemNN

__all__ = [
    "IVFIndex",
    "IndexStats",
    "TopKMemNN",
    "synthetic_topical_workload",
]
