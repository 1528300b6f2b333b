"""The host reference: a frozen plain-NumPy MemN2N pass.

One call is one *ref unit* of work.  Every gated timing in perfbench is
a wall duration divided by the median duration of the reference calls
interleaved with it, so a slow or fast phase of the host cancels out.
The reference must share the measured code's operation mix (small GEMM,
row max, exp, mask multiply, weighted-sum GEMM, per-chunk Python
overhead), not just its FLOPs: against a bare GEMM the normalised
latency still drifted by a third, against this loop by one percent
(README, "Why host-relative units").

This file is frozen.  It imports nothing from ``repro`` (a test checks
that), builds its arrays from a fixed generator rather than from
``--seed``, and must not change when the engine does: editing it
redefines the unit every recorded number is expressed in.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Shape of the reference's embedding dictionary and answer layer.
_VOCAB, _WORDS, _ANSWERS = 4096, 8, 2048


@dataclass(frozen=True)
class RefSpec:
    """Shape of one workload's reference call.

    ``ed``/``nq``/``chunk``/``hops`` are the workload's own; ``rows`` is
    the reference memory size and ``passes`` how many question batches
    one call answers (tiny memories need several passes for a call to be
    long enough to time).  ``on_disk`` reads each chunk with
    ``np.fromfile`` from a file the reference owns.
    """

    ed: int
    nq: int
    chunk: int
    hops: int
    rows: int
    passes: int = 1
    on_disk: bool = False


class HostRef:
    """Benchmark-owned arrays plus the pass over them."""

    def __init__(self, spec: RefSpec) -> None:
        self.spec = spec
        rng = np.random.default_rng(20190622)
        self._table = rng.normal(0.0, 0.35, (_VOCAB, spec.ed))
        self._ids = rng.integers(1, _VOCAB, (spec.passes, spec.nq, _WORDS))
        self._answer = rng.normal(0.0, 0.1, (_ANSWERS, spec.ed))
        m_in = rng.normal(0.0, 1.0, (spec.rows, spec.ed))
        m_out = rng.normal(0.0, 0.2, (spec.rows, spec.ed))
        self._tmp: tempfile.TemporaryDirectory | None = None
        if spec.on_disk:
            self._tmp = tempfile.TemporaryDirectory(prefix="perfbench-ref-")
            self._paths = (
                Path(self._tmp.name) / "m_in.bin",
                Path(self._tmp.name) / "m_out.bin",
            )
            m_in.tofile(self._paths[0])
            m_out.tofile(self._paths[1])
        else:
            self._memories = (m_in, m_out)

    def close(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def _chunk(self, start: int) -> tuple[np.ndarray, np.ndarray]:
        spec = self.spec
        if not spec.on_disk:
            m_in, m_out = self._memories
            return m_in[start : start + spec.chunk], m_out[start : start + spec.chunk]
        count = min(spec.chunk, spec.rows - start) * spec.ed
        offset = start * spec.ed * 8
        return tuple(
            np.fromfile(path, dtype=np.float64, count=count, offset=offset)
            .reshape(-1, spec.ed)
            for path in self._paths
        )

    def _hop(self, u: np.ndarray) -> np.ndarray:
        """The seed column chunk loop: fresh allocations per chunk,
        unconditional rescale, all-ones keep-mask multiply."""
        nq, ed = u.shape
        log_max = np.full(nq, -np.inf)
        denom = np.zeros(nq)
        acc = np.zeros((nq, ed))
        for start in range(0, self.spec.rows, self.spec.chunk):
            chunk_in, chunk_out = self._chunk(start)
            scores = u @ chunk_in.T
            new_max = np.maximum(log_max, scores.max(axis=1))
            with np.errstate(invalid="ignore"):
                scale = np.where(np.isneginf(log_max), 0.0, np.exp(log_max - new_max))
            exp_scores = np.exp(scores - new_max[:, None])
            denom = denom * scale + exp_scores.sum(axis=1)
            acc *= scale[:, None]
            log_max = new_max
            keep = np.ones_like(scores, dtype=bool)
            acc += (exp_scores * keep) @ chunk_out
        return acc / denom[:, None]

    def __call__(self) -> int:
        """One reference call; the returned answer ids make the caller
        consume the result inside its timed region."""
        total = 0
        for ids in self._ids:
            u = self._table[ids].sum(axis=1)
            for _ in range(self.spec.hops):
                u = u + self._hop(u)
            total += int(np.argmax(u @ self._answer.T, axis=1).sum())
        return total
