"""Document ingestion: chunk documents into provenance-tagged memory rows.

The document-QA workload treats the memory network's sentence store as
a retrieval corpus: each document is tokenized
(:func:`repro.data.vocab.tokenize`), interned through a
:class:`~repro.data.vocab.Vocabulary`, and chunked into fixed-width
rows of ``max_words`` word IDs — exactly the ``(n, nw)`` layout
:meth:`~repro.core.engine.MnnFastEngine.store_story` embeds.  Every row
carries :class:`RowProvenance` back to its ``(doc_id, span)``, which is
what turns retrieval statistics (which rows did the top-k tier probe?
where did the attention mass land?) into scorable qrels judgments
(:mod:`repro.docqa.queries`, :mod:`repro.docqa.evaluate`).

A document's rows are **contiguous** in the store, in document order,
so a session of questions about one document reads one row span.

Two ingestion paths:

* :func:`ingest_documents` — the general path: any iterable of raw
  text strings (or pre-tokenized word lists).
* :func:`synthetic_corpus` — a deterministic generator layering
  per-document and per-row anchor words over a Zipfian background
  stream (:class:`~repro.data.corpus.ZipfCorpus`), so queries built
  from a row's tokens have a planted, recoverable supporting span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..data.corpus import ZipfCorpus
from ..data.vocab import Vocabulary, tokenize

__all__ = [
    "RowProvenance",
    "DocqaCorpus",
    "ingest_documents",
    "synthetic_corpus",
]


@dataclass(frozen=True)
class RowProvenance:
    """Where one memory row came from.

    Attributes:
        row_id: the row's index in the corpus (== its row in the
            engine's memory matrices once stored).
        doc_id: index of the source document.
        span: ``[start, stop)`` token offsets within the source
            document's token stream covered by this row.
    """

    row_id: int
    doc_id: int
    span: tuple[int, int]

    def __post_init__(self) -> None:
        start, stop = self.span
        if not 0 <= start < stop:
            raise ValueError(f"span must satisfy 0 <= start < stop, got {self.span}")


@dataclass(frozen=True)
class DocqaCorpus:
    """A chunked document collection in engine-ready row form.

    Attributes:
        rows: ``(num_rows, max_words)`` padded word IDs — feed directly
            to :meth:`~repro.core.engine.MnnFastEngine.store_story`.
        provenance: one :class:`RowProvenance` per row, in row order.
        vocabulary: the (frozen) word <-> ID mapping the rows use.
        doc_row_ranges: per-document ``[start, stop)`` row ranges;
            documents occupy contiguous, ordered row blocks.
    """

    rows: np.ndarray
    provenance: tuple[RowProvenance, ...]
    vocabulary: Vocabulary
    doc_row_ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.rows.ndim != 2:
            raise ValueError(f"rows must be (n, nw), got shape {self.rows.shape}")
        if len(self.provenance) != len(self.rows):
            raise ValueError(
                f"{len(self.provenance)} provenance records for "
                f"{len(self.rows)} rows"
            )
        cursor = 0
        for doc_id, (start, stop) in enumerate(self.doc_row_ranges):
            if start != cursor or stop <= start:
                raise ValueError(
                    "doc_row_ranges must be contiguous, ordered, non-empty; "
                    f"doc {doc_id} has [{start}, {stop}) after row {cursor}"
                )
            cursor = stop
        if cursor != len(self.rows):
            raise ValueError(
                f"doc_row_ranges cover {cursor} rows, corpus has {len(self.rows)}"
            )
        for row_id, record in enumerate(self.provenance):
            if record.row_id != row_id:
                raise ValueError(
                    f"provenance[{row_id}] claims row_id {record.row_id}"
                )

    @property
    def num_rows(self) -> int:
        return int(self.rows.shape[0])

    @property
    def num_docs(self) -> int:
        return len(self.doc_row_ranges)

    @property
    def max_words(self) -> int:
        return int(self.rows.shape[1])

    def row_range(self, doc_id: int) -> tuple[int, int]:
        """``[start, stop)`` row indices of one document."""
        if not 0 <= doc_id < self.num_docs:
            raise IndexError(f"doc_id {doc_id} out of range [0, {self.num_docs})")
        return self.doc_row_ranges[doc_id]

    def rows_of_doc(self, doc_id: int) -> range:
        """Row indices of one document, in document order."""
        start, stop = self.row_range(doc_id)
        return range(start, stop)

    def doc_of_row(self, row_id: int) -> int:
        """The document a row came from."""
        if not 0 <= row_id < self.num_rows:
            raise IndexError(f"row_id {row_id} out of range [0, {self.num_rows})")
        return self.provenance[row_id].doc_id


def ingest_documents(
    documents: Sequence[str] | Sequence[Sequence[str]],
    max_words: int,
    vocabulary: Vocabulary | None = None,
) -> DocqaCorpus:
    """Chunk documents into ``max_words``-wide memory rows.

    Each document is tokenized (raw strings go through
    :func:`~repro.data.vocab.tokenize`; token lists are taken as-is),
    interned into the vocabulary, and split into consecutive rows of at
    most ``max_words`` word IDs (the final row of a document is padded).
    Rows are laid out document-by-document, so each document's rows are
    contiguous.

    Args:
        documents: raw text strings or pre-tokenized word lists; every
            document must produce at least one token.
        max_words: row width ``nw`` (the engine's BoW width).
        vocabulary: intern into this vocabulary (a fresh one by
            default).  The returned corpus's vocabulary is frozen.

    Returns:
        The chunked, provenance-tagged :class:`DocqaCorpus`.
    """
    if max_words < 1:
        raise ValueError(f"max_words must be >= 1, got {max_words}")
    if len(documents) == 0:
        raise ValueError("need at least one document")
    vocab = vocabulary if vocabulary is not None else Vocabulary()

    row_arrays: list[np.ndarray] = []
    provenance: list[RowProvenance] = []
    doc_ranges: list[tuple[int, int]] = []
    for doc_id, document in enumerate(documents):
        tokens = tokenize(document) if isinstance(document, str) else list(document)
        if not tokens:
            raise ValueError(f"document {doc_id} produced no tokens")
        start_row = len(row_arrays)
        for start in range(0, len(tokens), max_words):
            chunk = tokens[start : start + max_words]
            row_arrays.append(vocab.encode(chunk, width=max_words))
            provenance.append(
                RowProvenance(
                    row_id=len(provenance),
                    doc_id=doc_id,
                    span=(start, start + len(chunk)),
                )
            )
        doc_ranges.append((start_row, len(row_arrays)))
    vocab.freeze()
    return DocqaCorpus(
        rows=np.stack(row_arrays),
        provenance=tuple(provenance),
        vocabulary=vocab,
        doc_row_ranges=tuple(doc_ranges),
    )


def synthetic_corpus(
    num_docs: int = 16,
    rows_per_doc: int = 32,
    max_words: int = 8,
    background_vocab: int = 2_000,
    zipf_exponent: float = 1.0,
    seed: int = 0,
) -> DocqaCorpus:
    """A deterministic document collection with planted retrieval signal.

    Every row (one "sentence" of a document) carries three layers:

    * a **document anchor** word (``doc<d>``) shared by all of the
      document's rows — what ties same-document rows together (graded
      relevance 1 in the qrels);
    * a **fact anchor** word (``fact<d>.<r>``) unique to the row — the
      recoverable supporting-span signal (relevance 2);
    * ``max_words - 2`` **background** words drawn from a seeded
      Zipfian stream (:class:`~repro.data.corpus.ZipfCorpus`), the
      realistic word-frequency noise floor.

    The same ``seed`` reproduces the corpus byte-for-byte (rows,
    provenance, and vocabulary assignment are all derived from it).

    Args:
        num_docs: number of documents.
        rows_per_doc: rows (sentences) per document.
        max_words: row width; must be >= 3 to fit both anchors plus at
            least one background word.
        background_vocab: distinct background words.
        zipf_exponent: background word-frequency skew.
        seed: RNG seed for the background stream.
    """
    if num_docs < 1 or rows_per_doc < 1:
        raise ValueError(
            f"need num_docs >= 1 and rows_per_doc >= 1, got {num_docs}, {rows_per_doc}"
        )
    if max_words < 3:
        raise ValueError(f"max_words must be >= 3 for anchors + background, got {max_words}")
    stream = ZipfCorpus(
        vocab_size=background_vocab, exponent=zipf_exponent, seed=seed
    )
    fill = max_words - 2
    background = stream.sample(num_docs * rows_per_doc * fill)
    documents: list[list[str]] = []
    cursor = 0
    for doc_id in range(num_docs):
        tokens: list[str] = []
        for row in range(rows_per_doc):
            tokens.append(f"doc{doc_id}")
            tokens.append(f"fact{doc_id}.{row}")
            tokens.extend(f"w{int(w)}" for w in background[cursor : cursor + fill])
            cursor += fill
        documents.append(tokens)
    return ingest_documents(documents, max_words=max_words)
