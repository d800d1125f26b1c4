"""Conformer-style encoder blocks over packed frame sequences.

Block layout, every branch residual (including the trailing norm, so a
block with zeroed branch outputs is exactly the identity):

    x += 0.5 * ffn(norm(x))
    x += self_attention(norm(x))
    x += conv_module(norm(x))
    x += 0.5 * ffn(norm(x))
    x += norm(x)            # trailing norm, residual form

The conv module is pointwise-to-2D / GLU / depthwise / norm / swish /
pointwise. Absolute sinusoidal positions are added once, before the first
block; split-off subsequences are treated as contiguous afterwards.

A sequence may pack several utterances row-wise (``EncodedSequence.lengths``).
Norms, feed-forwards and the pointwise layers act on rows alone; attention
and the depthwise conv take the lengths, so no utterance sees another.

Dropout is an argument, not a process setting: a block drops its branch
outputs only when the caller passes a ``make_dropout`` function, so
inference and eval, which pass none, are deterministic functions of weights
and frames.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import EmptySequenceError, ParameterError

Dropout = Callable[[Tensor], Tensor]


def make_dropout(rate: float, rng: np.random.Generator | None) -> Dropout | None:
    """Inverted dropout at ``rate`` with masks drawn from ``rng``.

    None, meaning no dropout, without a generator or at rate 0.
    """
    if rng is None or rate == 0.0:
        return None

    def drop(x: Tensor) -> Tensor:
        return ad.mul(x, (rng.random(x.data.shape) >= rate) / (1.0 - rate))
    return drop


def _dropout(x: Tensor, drop: Dropout | None) -> Tensor:
    return x if drop is None else drop(x)


@dataclass
class EncodedSequence:
    """Frames plus each row's index in its utterance's pre-split frame order.

    The one packed-sequence type from the frontend on: ``lengths`` lists the
    row counts of the utterances packed one after another; built without
    it, the rows are one utterance: ``(length,)``. The frontend numbers each
    utterance's frames from 0; a split keeps each row's number, so recover
    can merge rows back in time order.
    """

    frames: Tensor            # (L, D)
    orig_index: np.ndarray    # (L,) int64, strictly increasing within each utterance
    lengths: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.lengths is None:
            self.lengths = (self.length,)

    @property
    def length(self) -> int:
        return self.frames.data.shape[0]


@dataclass
class NormParams:
    gain: Parameter
    bias: Parameter


@dataclass
class FeedForwardParams:
    norm: NormParams
    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter


@dataclass
class AttentionParams:
    norm: NormParams
    wq: Parameter
    bq: Parameter
    wk: Parameter
    bk: Parameter
    wv: Parameter
    bv: Parameter
    wo: Parameter
    bo: Parameter


@dataclass
class ConvModuleParams:
    norm: NormParams
    w_in: Parameter           # (D, 2D) pointwise, split by the GLU
    b_in: Parameter
    dw_w: Parameter           # (K, D) depthwise kernel, K odd
    dw_b: Parameter
    mid_norm: NormParams
    w_out: Parameter          # (D, D) pointwise
    b_out: Parameter


@dataclass
class ConformerBlockParams:
    ffn1: FeedForwardParams
    attn: AttentionParams
    conv: ConvModuleParams
    ffn2: FeedForwardParams
    out_norm: NormParams


def _glorot(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Glorot-uniform draws; the fans are the rows and the product of the other axes."""
    lim = np.sqrt(6.0 / (shape[0] + math.prod(shape[1:])))
    return rng.uniform(-lim, lim, size=shape)


def _init_norm(d: int) -> NormParams:
    return NormParams(gain=Parameter(np.ones(d)), bias=Parameter(np.zeros(d)))


def _init_ffn(rng, d: int, mult: int) -> FeedForwardParams:
    return FeedForwardParams(
        norm=_init_norm(d),
        w1=Parameter(_glorot(rng, d, mult * d)),
        b1=Parameter(np.zeros(mult * d)),
        w2=Parameter(_glorot(rng, mult * d, d)),
        b2=Parameter(np.zeros(d)),
    )


def init_attention(rng, d: int) -> AttentionParams:
    return AttentionParams(
        norm=_init_norm(d),
        wq=Parameter(_glorot(rng, d, d)), bq=Parameter(np.zeros(d)),
        wk=Parameter(_glorot(rng, d, d)), bk=Parameter(np.zeros(d)),
        wv=Parameter(_glorot(rng, d, d)), bv=Parameter(np.zeros(d)),
        wo=Parameter(_glorot(rng, d, d)), bo=Parameter(np.zeros(d)),
    )


def _init_conv(rng, d: int, kernel: int) -> ConvModuleParams:
    if kernel % 2 == 0 or kernel < 1:
        raise ParameterError(f"depthwise kernel must be odd and positive, got {kernel}")
    return ConvModuleParams(
        norm=_init_norm(d),
        w_in=Parameter(_glorot(rng, d, 2 * d)),
        b_in=Parameter(np.zeros(2 * d)),
        dw_w=Parameter(rng.uniform(-1, 1, size=(kernel, d)) * np.sqrt(3.0 / kernel)),
        dw_b=Parameter(np.zeros(d)),
        mid_norm=_init_norm(d),
        w_out=Parameter(_glorot(rng, d, d)),
        b_out=Parameter(np.zeros(d)),
    )


def init_block(rng: np.random.Generator, d_model: int, heads: int, kernel: int,
               ffn_multiple: int) -> ConformerBlockParams:
    if d_model % heads:
        raise ParameterError(f"model width {d_model} not divisible by {heads} heads")
    return ConformerBlockParams(
        ffn1=_init_ffn(rng, d_model, ffn_multiple),
        attn=init_attention(rng, d_model),
        conv=_init_conv(rng, d_model, kernel),
        ffn2=_init_ffn(rng, d_model, ffn_multiple),
        out_norm=_init_norm(d_model),
    )


def zero_residual_branches(block: ConformerBlockParams) -> ConformerBlockParams:
    """Zero every branch's output stage so the block computes the identity."""
    for p in (block.ffn1.w2, block.ffn1.b2, block.attn.wo, block.attn.bo,
              block.conv.w_out, block.conv.b_out, block.ffn2.w2, block.ffn2.b2,
              block.out_norm.gain, block.out_norm.bias):
        p.value.data[...] = 0.0
    return block


def _norm(x: Tensor, n: NormParams) -> Tensor:
    return ad.layer_norm(x, n.gain.value, n.bias.value)


def _ffn_branch(x: Tensor, p: FeedForwardParams) -> Tensor:
    h = _norm(x, p.norm)
    h = ad.swish(ad.affine(h, p.w1.value, p.b1.value))
    return ad.affine(h, p.w2.value, p.b2.value)


def attention_branch(x: Tensor, p: AttentionParams, heads: int, lengths,
                     memory: EncodedSequence | None = None, causal: bool = False) -> Tensor:
    """Pre-norm multi-head attention of each packed sequence of ``x``.

    Without ``memory`` it attends to itself (causally, with ``causal``);
    with it, sequence i reads the i-th sequence packed in ``memory``, or
    every sequence reads a lone one. ``lengths`` as in ``EncodedSequence``.
    The encoder's and both decoder attentions are this one function.
    """
    h = _norm(x, p.norm)
    src, src_lengths = (h, lengths) if memory is None else (memory.frames, memory.lengths)
    q = ad.affine(h, p.wq.value, p.bq.value)
    k = ad.affine(src, p.wk.value, p.bk.value)
    v = ad.affine(src, p.wv.value, p.bv.value)
    ctx = ad.attention_core(q, k, v, heads, causal=causal, q_lengths=lengths,
                            k_lengths=src_lengths)
    return ad.affine(ctx, p.wo.value, p.bo.value)


def self_attention_branch(x: Tensor, p: AttentionParams, heads: int, lengths) -> Tensor:
    """The encoder's self-attention within each packed sequence, a name of its own to trace."""
    return attention_branch(x, p, heads, lengths)


def _conv_branch(x: Tensor, p: ConvModuleParams, lengths) -> Tensor:
    h = _norm(x, p.norm)
    h = ad.glu_halves(ad.affine(h, p.w_in.value, p.b_in.value))
    h = ad.depthwise_conv1d(h, p.dw_w.value, p.dw_b.value, lengths)
    h = ad.swish(_norm(h, p.mid_norm))
    return ad.affine(h, p.w_out.value, p.b_out.value)


def conformer_block(seq: EncodedSequence, p: ConformerBlockParams, heads: int,
                    drop: Dropout | None = None) -> EncodedSequence:
    """One block; ``drop`` (training) applies to each branch output."""
    if seq.length == 0 or 0 in seq.lengths:
        raise EmptySequenceError("conformer block requires at least one frame per sequence")
    x = seq.frames
    x = ad.add(x, ad.mul(_dropout(_ffn_branch(x, p.ffn1), drop), 0.5))
    x = ad.add(x, _dropout(self_attention_branch(x, p.attn, heads, seq.lengths), drop))
    x = ad.add(x, _dropout(_conv_branch(x, p.conv, seq.lengths), drop))
    x = ad.add(x, ad.mul(_dropout(_ffn_branch(x, p.ffn2), drop), 0.5))
    x = ad.add(x, _norm(x, p.out_norm))
    return EncodedSequence(frames=x, orig_index=seq.orig_index, lengths=seq.lengths)


def run_blocks(seq: EncodedSequence, blocks: list[ConformerBlockParams], heads: int,
               drop: Dropout | None = None) -> EncodedSequence:
    for p in blocks:
        seq = conformer_block(seq, p, heads, drop)
    return seq


_POS_CACHE: dict[int, np.ndarray] = {}   # d_model -> the longest table built


def positional_table(length: int, d_model: int) -> np.ndarray:
    """Interleaved sine/cosine absolute position table, (length, d_model).

    One table per width is kept, rebuilt only for a longer length; a shorter
    one is its first rows, bit-identical to a table built at that length.
    """
    table = _POS_CACHE.get(d_model)
    if table is None or len(table) < length:
        pos = np.arange(length)[:, None]
        idx = np.arange(d_model)[None, :]
        angle = pos / np.power(10000.0, (2 * (idx // 2)) / d_model)
        table = _POS_CACHE[d_model] = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return table[:length]


def attach_positions(frames: Tensor, lengths=None) -> Tensor:
    """Add absolute positions 0..n-1 to each packed sequence of n rows.

    ``lengths`` as in ``EncodedSequence``. Rows of a longer table are
    bit-identical to those of a shorter one, so one table of the longest
    length serves every sequence.
    """
    n, d = frames.data.shape
    lengths = (n,) if lengths is None else lengths
    table = positional_table(max(lengths), d)
    positions = table if len(lengths) == 1 else np.concatenate([table[:m] for m in lengths])
    return ad.add(frames, positions.astype(frames.data.dtype))
