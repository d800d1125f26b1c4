"""Autoregressive transformer decoder shared by both sequence losses.

The decoder vocabulary extends the CTC vocabulary with two reserved ids:
start-of-sequence (V) and end-of-sequence (V + 1); blank stays 0 and is
never a decoder target. Blocks are pre-norm: causal self-attention, cross
attention over encoder frames, then a swish feed-forward, each residual.

The decoder runs a list of input sequences as one packed (sum of lengths, D)
batch. Self-attention is causal inside each sequence and blind across them.
Cross attention reads one encoder memory per input sequence, packed in the
same order, or one memory that they all share. So the teacher-forced loss
(every utterance of a training batch, each over its own memory) and
rescoring (every beam hypothesis of one utterance over its memory) share one
code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .encoder import (AttentionParams, Dropout, EncodedSequence, FeedForwardParams,
                      NormParams, _dropout, _ffn_branch, _glorot, _init_ffn, _init_norm,
                      _norm, attach_positions, attention_branch, init_attention)
from .errors import EmptySequenceError
from .ctc import check_tokens

CTC_WEIGHT = 0.5


@dataclass
class DecoderBlockParams:
    self_attn: AttentionParams
    cross_attn: AttentionParams
    ffn: FeedForwardParams


@dataclass
class DecoderParams:
    embed: Parameter                  # (V + 2, D)
    blocks: list[DecoderBlockParams]
    final_norm: NormParams
    out_w: Parameter                  # (D, V + 2)
    out_b: Parameter

    @property
    def vocab_size(self) -> int:
        """CTC vocabulary size; reserved ids sit above it."""
        return self.embed.value.data.shape[0] - 2

    @property
    def sos_id(self) -> int:
        return self.vocab_size

    @property
    def eos_id(self) -> int:
        return self.vocab_size + 1


def init_decoder(rng: np.random.Generator, d_model: int, depth: int, vocab_size: int,
                 ffn_multiple: int) -> DecoderParams:
    v_out = vocab_size + 2
    blocks = [
        DecoderBlockParams(
            self_attn=init_attention(rng, d_model),
            cross_attn=init_attention(rng, d_model),
            ffn=_init_ffn(rng, d_model, ffn_multiple),
        )
        for _ in range(depth)
    ]
    return DecoderParams(
        embed=Parameter(_glorot(rng, v_out, d_model)),
        blocks=blocks,
        final_norm=_init_norm(d_model),
        out_w=Parameter(_glorot(rng, d_model, v_out)),
        out_b=Parameter(np.zeros(v_out)),
    )


def decoder_logits(enc: EncodedSequence, inputs: list[list[int]], params: DecoderParams,
                   heads: int, drop: Dropout | None = None) -> Tensor:
    """Logits over the extended vocabulary for each position of each input sequence.

    The sequences run as one packed batch: their rows are stacked in order,
    and self-attention stays causal inside each sequence, so no sequence sees
    another. Sequence i attends to the i-th memory packed in ``enc`` or, when
    ``enc`` holds one sequence, all of them attend to it. ``drop``
    (training) applies to each feed-forward output.
    """
    if enc.length == 0:
        raise EmptySequenceError("decoder needs at least one encoder frame")
    if not inputs or not all(inputs):
        raise EmptySequenceError("decoder needs at least one input token per sequence")
    lengths = [len(seq) for seq in inputs]
    x = ad.gather_rows(params.embed.value, [t for seq in inputs for t in seq])
    x = attach_positions(x, lengths)
    for block in params.blocks:
        x = ad.add(x, attention_branch(x, block.self_attn, heads, lengths, causal=True))
        x = ad.add(x, attention_branch(x, block.cross_attn, heads, lengths, enc))
        x = ad.add(x, _dropout(_ffn_branch(x, block.ffn), drop))
    x = _norm(x, params.final_norm)
    return ad.affine(x, params.out_w.value, params.out_b.value)


def aed_loss(enc: EncodedSequence, token_seqs, params: DecoderParams, heads: int,
             drop: Dropout | None = None) -> Tensor:
    """Teacher-forced cross-entropy over tokens plus end-of-sequence.

    ``token_seqs`` holds one token sequence per utterance packed in ``enc``.
    Each utterance's loss is its mean per position, so an empty sequence
    scores its end-of-sequence term alone; the result is their sum, from one
    packed decoder pass.
    """
    token_seqs = [check_tokens(tokens, params.vocab_size) for tokens in token_seqs]
    inputs = [[params.sos_id] + tokens for tokens in token_seqs]
    targets = [t for tokens in token_seqs for t in tokens + [params.eos_id]]
    logits = decoder_logits(enc, inputs, params, heads, drop)
    return ad.cross_entropy_mean(logits, targets, [len(seq) for seq in inputs])


def _log_likelihoods(enc: EncodedSequence, sequences, params: DecoderParams,
                     heads: int) -> list[float]:
    """Decoder log likelihood of each token sequence, end-of-sequence included, in one pass."""
    sequences = [check_tokens(tokens, params.vocab_size) for tokens in sequences]
    inputs = [[params.sos_id] + tokens for tokens in sequences]
    targets = [t for tokens in sequences for t in tokens + [params.eos_id]]
    log_probs = ad.log_softmax_rows(decoder_logits(enc, inputs, params, heads)).data
    picked = log_probs[np.arange(len(targets)), targets]
    ends = np.cumsum([len(seq) for seq in inputs])[:-1]
    return [float(part.sum()) for part in np.split(picked, ends)]


def rescore(enc: EncodedSequence, hypotheses: list[tuple[tuple[int, ...], float]],
            params: DecoderParams, heads: int) -> tuple[int, list[float]]:
    """Rank alignment-free hypotheses by decoder likelihood plus ``CTC_WEIGHT`` times CTC score.

    All hypotheses are scored in one packed decoder pass. Returns (index of
    the best hypothesis, combined score per hypothesis); ties break toward
    the lower index.
    """
    if not hypotheses:
        raise EmptySequenceError("rescore requires at least one hypothesis")
    lls = _log_likelihoods(enc, [tokens for tokens, _ in hypotheses], params, heads)
    scores = [ll + CTC_WEIGHT * ctc_score for ll, (_, ctc_score) in zip(lls, hypotheses)]
    best = max(range(len(scores)), key=scores.__getitem__)
    return best, scores
