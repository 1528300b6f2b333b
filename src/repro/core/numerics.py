"""Numerical primitives shared by the baseline and MnnFast algorithms.

These are the building blocks of Fig. 2 in the paper: the bag-of-words
embedding that turns sentences into internal state vectors, the softmax
used by the input memory representation, and the position encoding some
MemNN variants multiply into the word vectors before summation
(footnote 1 of §2.1).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import compiled_fold

__all__ = [
    "softmax",
    "unstable_softmax",
    "bow_embed",
    "bow_embed_each",
    "BowEmbedder",
    "position_encoding",
    "PAD_ID",
]

#: Sentences :func:`bow_embed_each` embeds into ``outs`` per pass.
EMBED_BLOCK_ROWS = 512

#: Word ID reserved for padding; its embedding row is forced to zero.
PAD_ID = 0


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    Subtracts the running maximum before exponentiation so that large
    scores do not overflow; identical to the textbook definition
    ``e^{x_i} / sum_j e^{x_j}`` used in Eq. (1) of the paper.
    """
    x = np.asarray(x, dtype=np.float64)
    out = x - x.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def unstable_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """The paper-faithful softmax without max subtraction.

    Equation (1) as written: ``Softmax(x_i) = e^{x_i} / sum_j e^{x_j}``.
    Overflows for large scores — kept for the ablation of the lazy
    softmax's numerical behaviour (DESIGN.md §5).
    """
    exp = np.exp(np.asarray(x, dtype=np.float64))
    return exp / np.sum(exp, axis=axis, keepdims=True)


def bow_embed(
    embedding: np.ndarray,
    sentences: np.ndarray,
    encoding: np.ndarray | None = None,
) -> np.ndarray:
    """Embed sentences with the bag-of-words model (§2.1).

    Each word is looked up in the embedding matrix and the resulting
    vectors are summed to represent the sentence.

    Args:
        embedding: ``(V, ed)`` embedding dictionary. Row :data:`PAD_ID`
            is treated as padding and contributes zero.
        sentences: ``(n, nw)`` integer word IDs, padded with
            :data:`PAD_ID`.
        encoding: optional ``(nw, ed)`` position-encoding weights
            multiplied element-wise into each word vector before the
            sum (footnote 1 of §2.1).

    Returns:
        ``(n, ed)`` internal state vectors.
    """
    return bow_embed_each((embedding,), sentences, encoding)[0]


def bow_embed_each(
    embeddings: Sequence[np.ndarray],
    sentences: np.ndarray,
    encoding: np.ndarray | None = None,
    outs: Sequence[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """:func:`bow_embed` of the same sentences under several
    equal-shaped dictionaries (a hop's ``A`` and ``C``): the word IDs
    are range-checked once, before any result is written.

    A word's vector is multiplied by its pad mask (0 for :data:`PAD_ID`,
    else 1), then by its position's ``encoding`` row, and a sentence's
    vectors are added to zero position by position, in the dictionary's
    dtype (float64 for an engine's); an ``out`` of another dtype
    receives each sum rounded once.  This is the NumPy referee: the
    compiled embedding of ``_fold.c`` does exactly this arithmetic in one
    call per dictionary pair, without temporaries, and is reached only
    through :class:`BowEmbedder`, which falls back here for arrays it
    refuses (``tests/test_compiled_bow.py``).

    Args:
        embeddings: ``(V, ed)`` dictionaries.
        sentences: ``(n, nw)`` integer word IDs.
        encoding: optional ``(nw, ed)`` position-encoding weights.
        outs: optional ``(n, ed)`` arrays, one per dictionary, the sums
            are written into (an append buffer's free rows).

    Returns:
        One ``(n, ed)`` array per dictionary (``outs`` when given).
    """
    sentences = np.asarray(sentences)
    if sentences.ndim != 2:
        raise ValueError(f"sentences must be 2-D (n, nw), got shape {sentences.shape}")
    vocab, ed = embeddings[0].shape
    for embedding in embeddings:
        if embedding.shape != (vocab, ed):
            raise ValueError("embedding dictionaries must share a shape")
    if encoding is not None and encoding.shape != (sentences.shape[1], ed):
        raise ValueError(
            "encoding shape must be (nw, ed) = "
            f"{(sentences.shape[1], ed)}, got {encoding.shape}"
        )
    if sentences.min(initial=0) < 0 or sentences.max(initial=0) >= vocab:
        raise ValueError(BAD_WORD)
    if outs is not None and len(sentences) > EMBED_BLOCK_ROWS:
        # Slice by slice: the (nw, rows, ed) float64 gather stays
        # cache-sized however many sentences a story brings at once.
        for lo in range(0, len(sentences), EMBED_BLOCK_ROWS):
            rows = slice(lo, lo + EMBED_BLOCK_ROWS)
            bow_embed_each(
                embeddings, sentences[rows], encoding, [out[rows] for out in outs]
            )
        return list(outs)
    mask = (sentences != PAD_ID).T[..., None]  # (nw, n, 1)
    results = []
    for index, embedding in enumerate(embeddings):
        vectors = embedding[sentences.T]  # (nw, n, ed) — a fresh gather
        vectors *= mask
        if encoding is not None:
            vectors = vectors * encoding[:, None, :]
        # Word by word from zero, not a reduction over the word axis:
        # NumPy sums that pairwise when it is the contiguous one (ed == 1).
        total = np.zeros(vectors.shape[1:], vectors.dtype)
        for words in vectors:
            total += words
        if outs is None:
            results.append(total)
        else:
            outs[index][...] = total
            results.append(outs[index])
    return results


BAD_WORD = "sentence word IDs out of range for the embedding matrix"


class BowEmbedder:
    """:func:`bow_embed_each` under dictionaries fixed for good (an
    engine's): their shapes are checked, and the compiled embedding's
    struct pointers to them taken, once.  A call embeds into rows
    ``start ...`` of whole ``outs`` (an engine's append buffers), one
    compiled call per ``(A, C)`` pair, bitwise as
    :func:`bow_embed_each` into those rows."""

    def __init__(self, embeddings, encoding=None) -> None:
        if any(table.shape != embeddings[0].shape for table in embeddings):
            raise ValueError("embedding dictionaries must share a shape")
        self._embeddings, self._encoding = list(embeddings), encoding
        self._kernel = compiled_fold.bow_kernels()
        self._held, at = compiled_fold.structs([encoding, *embeddings])
        self._weights_at, self._tables_at = at[0], at[1:]

    def __call__(self, sentences, outs, start=0, bound=None) -> None:
        """Embed ``(n, nw)`` word IDs into rows ``[start, start + n)`` of
        ``outs``; ``bound`` is ``compiled_fold.structs(outs)``, kept by a
        caller that embeds into the same arrays again."""
        if not self.compiled(sentences, outs, start, bound):
            rows = slice(start, start + len(sentences))
            bow_embed_each(
                self._embeddings, sentences, self._encoding, [o[rows] for o in outs]
            )

    def compiled(self, sentences, outs, start=0, bound=None) -> bool:
        """:meth:`__call__` by the compiled embedding, one call per
        ``(A, C)`` pair; ``False`` when there is none or it refuses an
        array.  An out-of-range word ID raises before a row is written."""
        if self._kernel is None:
            return False
        # The capsules stay referenced until the calls return: each owns
        # the struct its pointer addresses.
        held = bound or compiled_fold.structs(outs)
        words = sentences.__array_struct__
        words_at = compiled_fold.struct_pointer(words, None)
        tables, outs_at = self._tables_at + [None], held[1] + [None]
        for lo in range(0, len(tables) - 1, 2):
            status = self._kernel(
                words_at, self._weights_at, tables[lo], outs_at[lo],
                tables[lo + 1], outs_at[lo + 1], start,
            )  # fmt: skip
            if status == compiled_fold.BOW_BAD_WORD:
                raise ValueError(BAD_WORD)
            if status < 0:
                return False
        return True


def position_encoding(max_words: int, embedding_dim: int) -> np.ndarray:
    """Position-encoding matrix of Sukhbaatar et al. (2015), Eq. (4).

    ``l_kj = (1 - j/J) - (k/d) (1 - 2j/J)`` with 1-based ``j`` (word
    position) and ``k`` (embedding dimension). Preserves word order
    information that a plain BoW sum discards.

    Returns:
        ``(max_words, embedding_dim)`` weight matrix.
    """
    if max_words <= 0 or embedding_dim <= 0:
        raise ValueError("max_words and embedding_dim must be positive")
    j = np.arange(1, max_words + 1, dtype=np.float64)[:, None]  # word position
    k = np.arange(1, embedding_dim + 1, dtype=np.float64)[None, :]  # dimension
    big_j = float(max_words)
    big_d = float(embedding_dim)
    return (1.0 - j / big_j) - (k / big_d) * (1.0 - 2.0 * j / big_j)
