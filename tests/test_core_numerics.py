"""Unit tests for repro.core.numerics."""

import numpy as np
import pytest

from repro.core.numerics import (
    EMBED_BLOCK_ROWS,
    PAD_ID,
    bow_embed,
    bow_embed_each,
    position_encoding,
    softmax,
    unstable_softmax,
)


class TestSoftmax:
    def test_sums_to_one(self, rng):
        x = rng.normal(size=(4, 7))
        np.testing.assert_allclose(softmax(x).sum(axis=-1), 1.0)

    def test_matches_definition(self, rng):
        x = rng.normal(size=10)
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(softmax(x), expected)

    def test_stable_for_huge_scores(self):
        x = np.array([1000.0, 1001.0, 999.0])
        p = softmax(x)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0)

    def test_unstable_overflows_for_huge_scores(self):
        # Documents the paper-faithful Eq. (1) behaviour the stable
        # variant exists to fix.
        with np.errstate(over="ignore", invalid="ignore"):
            p = unstable_softmax(np.array([1000.0, 1001.0]))
        assert not np.all(np.isfinite(p))

    def test_agreement_in_safe_range(self, rng):
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(softmax(x), unstable_softmax(x))

    def test_shift_invariance(self, rng):
        x = rng.normal(size=8)
        np.testing.assert_allclose(softmax(x), softmax(x + 123.0))

    def test_axis_argument(self, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(softmax(x, axis=0).sum(axis=0), 1.0)


class TestBowEmbed:
    def test_sums_word_vectors(self, rng):
        emb = rng.normal(size=(10, 4))
        emb[PAD_ID] = 0.0
        sent = np.array([[1, 2, 3]])
        np.testing.assert_allclose(bow_embed(emb, sent)[0], emb[1] + emb[2] + emb[3])

    def test_padding_contributes_zero(self, rng):
        emb = rng.normal(size=(10, 4))  # pad row deliberately nonzero
        padded = np.array([[1, 2, PAD_ID, PAD_ID]])
        unpadded = np.array([[1, 2]])
        np.testing.assert_allclose(bow_embed(emb, padded), bow_embed(emb, unpadded))

    def test_batch_shape(self, rng):
        emb = rng.normal(size=(10, 4))
        out = bow_embed(emb, np.array([[1, 2], [3, 4], [5, 6]]))
        assert out.shape == (3, 4)

    def test_rejects_out_of_range_ids(self, rng):
        emb = rng.normal(size=(10, 4))
        with pytest.raises(ValueError, match="out of range"):
            bow_embed(emb, np.array([[11]]))

    def test_rejects_1d_input(self, rng):
        emb = rng.normal(size=(10, 4))
        with pytest.raises(ValueError, match="2-D"):
            bow_embed(emb, np.array([1, 2]))

    def test_position_encoding_weights_words(self, rng):
        emb = rng.normal(size=(10, 4))
        enc = position_encoding(2, 4)
        sent = np.array([[1, 2]])
        expected = emb[1] * enc[0] + emb[2] * enc[1]
        np.testing.assert_allclose(bow_embed(emb, sent, enc)[0], expected)

    def test_encoding_shape_validated(self, rng):
        emb = rng.normal(size=(10, 4))
        with pytest.raises(ValueError, match="encoding"):
            bow_embed(emb, np.array([[1, 2]]), position_encoding(3, 4))


class TestBowEmbedEach:
    def test_matches_bow_embed_per_dictionary_bitwise(self, rng):
        emb_a, emb_c = rng.normal(size=(10, 4)), rng.normal(size=(10, 4))
        sentences = np.array([[1, 2, PAD_ID], [3, PAD_ID, PAD_ID], [9, 8, 7]])
        for encoding in (None, position_encoding(3, 4)):
            both = bow_embed_each((emb_a, emb_c), sentences, encoding)
            for embedding, result in zip((emb_a, emb_c), both):
                expected = bow_embed(embedding, sentences, encoding)
                assert result.tobytes() == expected.tobytes()

    def test_writes_into_the_given_rows(self, rng):
        emb_a, emb_c = rng.normal(size=(10, 4)), rng.normal(size=(10, 4))
        sentences = np.array([[1, 2], [3, PAD_ID]])
        buffers = [np.full((5, 4), np.nan), np.full((5, 4), np.nan)]
        outs = [buffer[1:3] for buffer in buffers]
        results = bow_embed_each((emb_a, emb_c), sentences, outs=outs)
        for embedding, buffer, out, result in zip(
            (emb_a, emb_c), buffers, outs, results
        ):
            assert result is out
            np.testing.assert_array_equal(
                buffer[1:3], bow_embed(embedding, sentences)
            )
            assert np.isnan(buffer[[0, 3, 4]]).all()

    def test_bad_input_is_rejected_before_anything_is_written(self, rng):
        emb = rng.normal(size=(10, 4))
        outs = [np.full((1, 4), np.nan), np.full((1, 4), np.nan)]
        with pytest.raises(ValueError, match="out of range"):
            bow_embed_each((emb, emb), np.array([[1, -1]]), outs=outs)
        with pytest.raises(ValueError, match="share a shape"):
            bow_embed_each((emb, emb[:5]), np.array([[1, 2]]), outs=outs)
        assert all(np.isnan(out).all() for out in outs)

    @pytest.mark.parametrize("out_dtype", [None, np.float64, np.float32])
    def test_long_input_is_embedded_in_slices_bitwise(self, rng, out_dtype):
        """More than ``EMBED_BLOCK_ROWS`` sentences are written into
        ``outs`` slice by slice: the same sums (rounded once into float32
        rows), and a bad ID in the last slice is still rejected before
        any row is written."""
        n = 2 * EMBED_BLOCK_ROWS + 7
        emb_a, emb_c = rng.normal(size=(30, 4)), rng.normal(size=(30, 4))
        sentences = rng.integers(0, 30, size=(n, 5))
        expected = [
            np.concatenate(
                [bow_embed(emb, sentences[lo : lo + 100]) for lo in range(0, n, 100)]
            )
            for emb in (emb_a, emb_c)
        ]
        outs = None
        if out_dtype is not None:
            outs = [np.full((n, 4), np.nan, dtype=out_dtype) for _ in range(2)]
            bad = sentences.copy()
            bad[-1, 0] = 30
            with pytest.raises(ValueError, match="out of range"):
                bow_embed_each((emb_a, emb_c), bad, outs=outs)
            assert all(np.isnan(out).all() for out in outs)
        results = bow_embed_each((emb_a, emb_c), sentences, outs=outs)
        for index, (result, want) in enumerate(zip(results, expected)):
            assert outs is None or result is outs[index]
            assert result.tobytes() == want.astype(out_dtype or np.float64).tobytes()


class TestPositionEncoding:
    def test_shape(self):
        assert position_encoding(6, 20).shape == (6, 20)

    def test_matches_sukhbaatar_formula(self):
        enc = position_encoding(4, 3)
        j, k, big_j, big_d = 2, 1, 4.0, 3.0
        expected = (1 - j / big_j) - (k / big_d) * (1 - 2 * j / big_j)
        assert enc[j - 1, k - 1] == pytest.approx(expected)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            position_encoding(0, 5)
