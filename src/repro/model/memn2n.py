"""End-to-end memory network (Sukhbaatar et al. 2015) in NumPy.

This is the network the paper accelerates (Fig. 2): BoW/position
encoding, input/output memory representations, multi-hop inference,
and a final linear answer layer — trained here with manual backprop so
the zero-skipping accuracy/computation tradeoff (Fig. 7) can be
measured on genuinely *trained* attention distributions.

Weight tying follows the paper's *adjacent* scheme: one embedding
table per "layer boundary" (``E_0 .. E_K`` for K hops) with
``A_k = E_{k-1}``, ``C_k = E_k``, question embedding ``B = E_0`` and
answer matrix ``W^T = E_K``.  Temporal encodings are tied the same
way.

Inference-time zero-skipping (§3.2) is available in :meth:`forward`
via ``skip_threshold``: attention entries below the threshold are
dropped from the output weighted sum without renormalization, exactly
as the MnnFast engines do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.numerics import position_encoding
from .layers import (
    attention_softmax,
    attention_softmax_backward,
    embed_sum,
    embed_sum_backward,
    softmax_cross_entropy,
)

__all__ = ["MemN2NConfig", "MemN2N", "ForwardState"]


@dataclass(frozen=True)
class MemN2NConfig:
    """Hyper-parameters of the trainable network."""

    vocab_size: int
    embedding_dim: int = 24
    hops: int = 2
    max_sentences: int = 20
    max_words: int = 12
    use_position_encoding: bool = True
    use_temporal_encoding: bool = True
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        if self.vocab_size <= 1:
            raise ValueError("vocab_size must exceed the padding token")
        for name in ("embedding_dim", "hops", "max_sentences", "max_words"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class ForwardState:
    """Cache of one forward pass (inputs to the backward pass)."""

    stories: np.ndarray
    questions: np.ndarray
    valid: np.ndarray
    u: list[np.ndarray]
    memories: list[np.ndarray]
    outputs_mem: list[np.ndarray]
    probs: list[np.ndarray]
    logits: np.ndarray
    kept_fraction: float = 1.0


class MemN2N:
    """Trainable end-to-end memory network."""

    def __init__(self, config: MemN2NConfig, rng: np.random.Generator | None = None):
        self.config = config
        rng = rng if rng is not None else np.random.default_rng(0)
        K, V, D, S = (
            config.hops,
            config.vocab_size,
            config.embedding_dim,
            config.max_sentences,
        )
        # Adjacent tying: E_0..E_K embedding tables, T_0..T_K temporal.
        self.embeddings = [
            rng.normal(0.0, config.init_scale, (V, D)) for _ in range(K + 1)
        ]
        for table in self.embeddings:
            table[0] = 0.0
        self.temporal = [
            rng.normal(0.0, config.init_scale, (S, D)) for _ in range(K + 1)
        ]
        self._encoding = (
            position_encoding(config.max_words, D)
            if config.use_position_encoding
            else None
        )

    # --- parameter plumbing -----------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        params = list(self.embeddings)
        if self.config.use_temporal_encoding:
            params += list(self.temporal)
        return params

    def zero_grads(self) -> list[np.ndarray]:
        return [np.zeros_like(p) for p in self.parameters()]

    # --- forward -------------------------------------------------------------------

    def forward(
        self,
        stories: np.ndarray,
        questions: np.ndarray,
        skip_threshold: float = 0.0,
    ) -> ForwardState:
        """Run the network.

        Args:
            stories: ``(B, S, W)`` padded word IDs.
            questions: ``(B, W)`` padded word IDs.
            skip_threshold: inference-time zero-skipping threshold;
                attention entries below it are dropped from the output
                weighted sum (not renormalized), as in §3.2.
        """
        stories, questions = self._check_inputs(stories, questions)
        cfg = self.config
        valid = (stories != 0).any(axis=-1)  # (B, S) real sentences

        u = [embed_sum(self.embeddings[0], questions, self._encoding)]
        memories, outputs_mem, probs = [], [], []
        kept_total, slots_total = 0, 0

        for k in range(cfg.hops):
            m = embed_sum(self.embeddings[k], stories, self._encoding)
            c = embed_sum(self.embeddings[k + 1], stories, self._encoding)
            if cfg.use_temporal_encoding:
                m = m + self.temporal[k][None, : stories.shape[1]]
                c = c + self.temporal[k + 1][None, : stories.shape[1]]
            m = m * valid[..., None]
            c = c * valid[..., None]

            scores = np.einsum("bd,bsd->bs", u[-1], m)
            p = attention_softmax(scores, valid)
            if skip_threshold > 0.0:
                keep = p >= skip_threshold
                weights = np.where(keep, p, 0.0)
                kept_total += int(np.count_nonzero(keep & valid))
                slots_total += int(np.count_nonzero(valid))
            else:
                weights = p
                kept_total += int(np.count_nonzero(valid))
                slots_total += int(np.count_nonzero(valid))
            o = np.einsum("bs,bsd->bd", weights, c)

            memories.append(m)
            outputs_mem.append(c)
            probs.append(p)
            u.append(u[-1] + o)

        logits = u[-1] @ self.embeddings[-1].T  # W^T = E_K
        return ForwardState(
            stories=stories,
            questions=questions,
            valid=valid,
            u=u,
            memories=memories,
            outputs_mem=outputs_mem,
            probs=probs,
            logits=logits,
            kept_fraction=kept_total / slots_total if slots_total else 1.0,
        )

    def predict(
        self, stories: np.ndarray, questions: np.ndarray, skip_threshold: float = 0.0
    ) -> np.ndarray:
        """Argmax answer IDs."""
        return np.argmax(self.forward(stories, questions, skip_threshold).logits, axis=-1)

    def attention(self, stories: np.ndarray, questions: np.ndarray, hop: int = 0) -> np.ndarray:
        """Attention probabilities of one hop (for Fig. 6)."""
        state = self.forward(stories, questions)
        if not 0 <= hop < len(state.probs):
            raise ValueError(f"hop must be in [0, {len(state.probs)}), got {hop}")
        return state.probs[hop]

    # --- loss + backward --------------------------------------------------------------

    def loss_and_grads(
        self,
        stories: np.ndarray,
        questions: np.ndarray,
        answers: np.ndarray,
    ) -> tuple[float, list[np.ndarray], ForwardState]:
        """Mean cross-entropy and gradients w.r.t. :meth:`parameters`."""
        state = self.forward(stories, questions)
        loss, grad_logits, _ = softmax_cross_entropy(state.logits, answers)

        cfg = self.config
        K = cfg.hops
        grad_emb = [np.zeros_like(e) for e in self.embeddings]
        grad_temp = [np.zeros_like(t) for t in self.temporal]

        # logits = u_K @ E_K^T
        grad_emb[K] += grad_logits.T @ state.u[-1]
        grad_u = grad_logits @ self.embeddings[K]

        for k in reversed(range(K)):
            m, c, p = state.memories[k], state.outputs_mem[k], state.probs[k]
            # u_{k+1} = u_k + o_k with o_k = p @ c.
            grad_o = grad_u
            grad_p = np.einsum("bd,bsd->bs", grad_o, c)
            grad_c = p[..., None] * grad_o[:, None, :]
            grad_scores = attention_softmax_backward(grad_p, p)
            grad_u_scores = np.einsum("bs,bsd->bd", grad_scores, m)
            grad_m = grad_scores[..., None] * state.u[k][:, None, :]

            grad_m = grad_m * state.valid[..., None]
            grad_c = grad_c * state.valid[..., None]
            if cfg.use_temporal_encoding:
                grad_temp[k][: grad_m.shape[1]] += grad_m.sum(axis=0)
                grad_temp[k + 1][: grad_c.shape[1]] += grad_c.sum(axis=0)
            embed_sum_backward(grad_m, grad_emb[k], state.stories, self._encoding)
            embed_sum_backward(grad_c, grad_emb[k + 1], state.stories, self._encoding)

            grad_u = grad_u + grad_u_scores

        embed_sum_backward(grad_u, grad_emb[0], state.questions, self._encoding)

        grads = grad_emb + (grad_temp if cfg.use_temporal_encoding else [])
        return loss, grads, state

    # --- helpers ------------------------------------------------------------------------

    def _check_inputs(
        self, stories: np.ndarray, questions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        stories = np.asarray(stories)
        questions = np.asarray(questions)
        cfg = self.config
        if stories.ndim != 3:
            raise ValueError(f"stories must be (B, S, W), got {stories.shape}")
        if questions.ndim != 2:
            raise ValueError(f"questions must be (B, W), got {questions.shape}")
        if stories.shape[0] != questions.shape[0]:
            raise ValueError("stories and questions batch sizes differ")
        if stories.shape[1] > cfg.max_sentences:
            raise ValueError(
                f"{stories.shape[1]} sentences exceed max_sentences={cfg.max_sentences}"
            )
        if stories.shape[2] != cfg.max_words or questions.shape[1] != cfg.max_words:
            raise ValueError(f"word dimension must be max_words={cfg.max_words}")
        if stories.max(initial=0) >= cfg.vocab_size or stories.min(initial=0) < 0:
            raise ValueError("story word IDs out of vocabulary range")
        return stories, questions
