"""Observability counters of the top-k retrieval tier.

Kept dependency-free (no imports from :mod:`repro.core` or
:mod:`repro.store`) so result containers anywhere in the stack can
carry an :class:`IndexStats` without creating an import cycle —
``repro.index`` depends on the core kernels, not the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["IndexStats"]


@dataclass(frozen=True)
class IndexStats:
    """What the retrieval tier did for one inference pass.

    Attributes:
        num_rows: total memory rows (``ns``) behind the tier.
        candidate_rows: rows the exact kernel actually examined — the
            union of the probed clusters' members across the question
            batch (every row under exact-scan fallback).
        nlist: cluster count of the index (``0`` when no index was
            used — fallback or tier disabled).
        nprobe: clusters probed per question.
        used_index: ``True`` when the pass went through the IVF index;
            ``False`` means the exact-scan fallback ran (bit-exact).
        build_seconds: wall-clock spent building the index, charged to
            the first pass that triggered the build (``0.0`` after).
        probe_seconds: wall-clock of the centroid probe and run
            selection for this pass (the candidate scan itself is the
            kernel's time, not the probe's).
        recall: mean attention-mass recall across the batch — the
            fraction of the exact softmax mass the candidate set
            captured (``None`` unless the config asked the tier to
            measure it; ``1.0`` exactly under fallback).
        candidates: the candidate row IDs themselves, sorted (``None``
            unless ``TopKConfig.record_candidates`` asked the tier to
            keep them — measurement machinery for qrels-style retrieval
            evaluation, where *which* rows were examined is the ground
            truth being scored).  Under exact-scan fallback every row
            is a candidate, so nothing is recorded.
    """

    num_rows: int
    candidate_rows: int
    nlist: int
    nprobe: int
    used_index: bool
    build_seconds: float = 0.0
    probe_seconds: float = 0.0
    recall: float | None = None
    candidates: tuple[int, ...] | None = None

    @property
    def candidate_fraction(self) -> float:
        """Fraction of the memory the exact kernel touched."""
        return self.candidate_rows / self.num_rows if self.num_rows else 1.0
