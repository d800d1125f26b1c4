"""Convolutional subsampling from raw feature frames to encoder frames.

Two 3x3 stride-2 valid convolutions with swish, channel count equal to the
model width, then a linear projection of the flattened channel/frequency
axes back to the model width. Time shrinks by a factor just over 4:
    T = ((T_in - 1) // 2 - 1) // 2
The convolutions run channels last, on (time, frequency, channel) arrays,
and a batch of utterances runs through them packed along time.
Position handling is left to the encoder; nothing positional is added here.

The convolutions and swishes run over blocks of output rows, at most
``BLOCK_BYTES`` of conv2's im2col columns each (frequency'' x channels x 9
values per row). Output rows [r0, r1) read input rows [4*r0, 4*r1 + 3), and
the last block reads to the end of the input. One pass over a long input
would hold its full-length conv1 output, the swish's temporaries and
conv2's columns at once: 142 MB for one 1090-frame utterance at 80
features and 256 channels. That peak sets the process's resident size, and
each call faults in fresh pages for it. An input that fits one block runs
the single pass's ops, to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .encoder import EncodedSequence, _glorot
from .errors import DimensionError, InputTooShortError

KERNEL = 3
MIN_INPUT_FRAMES = 7  # smallest T_in that survives both stride-2 convs
# conv2's im2col columns per block of output rows. On m5n7's long-encode
# inputs (1002-1178 frames) process peak RSS read 456-460 MiB for budgets
# of 4 to 16 MiB, 477 at 32 and 549 at 64; 16 MiB keeps the fewest blocks of
# those, and a desk training batch (under 6 MiB of columns) in one block.
BLOCK_BYTES = 16 << 20


@dataclass
class FeatureSequence:
    """Raw input frames for one utterance: (T_in, F)."""

    utterance_id: str
    frames: np.ndarray

    @property
    def length(self) -> int:
        return self.frames.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.frames.shape[1]


@dataclass
class FrontendParams:
    conv1_w: Parameter        # (C, 1, 3, 3)
    conv1_b: Parameter
    conv2_w: Parameter        # (C, C, 3, 3)
    conv2_b: Parameter
    proj_w: Parameter         # (C * F'', D)
    proj_b: Parameter


def _conv_len(n: int) -> int:
    return (n - KERNEL) // 2 + 1


def subsampled_length(t_in: int) -> int:
    """Closed form for the output length of the two stride-2 convs."""
    return (((t_in - 1) // 2) - 1) // 2


def reduced_feature_dim(feature_dim: int) -> int:
    return _conv_len(_conv_len(feature_dim))


def init_frontend(rng: np.random.Generator, feature_dim: int, d_model: int) -> FrontendParams:
    if feature_dim < MIN_INPUT_FRAMES:
        raise DimensionError(f"feature dim {feature_dim} too small for two 3x3 stride-2 convs")
    c = d_model
    f2 = reduced_feature_dim(feature_dim)

    return FrontendParams(
        conv1_w=Parameter(_glorot(rng, c, 1, KERNEL, KERNEL)),
        conv1_b=Parameter(np.zeros(c)),
        conv2_w=Parameter(_glorot(rng, c, c, KERNEL, KERNEL)),
        conv2_b=Parameter(np.zeros(c)),
        proj_w=Parameter(_glorot(rng, c * f2, d_model)),
        proj_b=Parameter(np.zeros(d_model)),
    )


def _convolve(x: np.ndarray, params: FrontendParams) -> Tensor:
    """(T_in, F, 1) features -> (T, C, F'') rows after both convs and swishes."""
    h = ad.swish(ad.conv2d_s2(x, params.conv1_w.value, params.conv1_b.value))
    h = ad.swish(ad.conv2d_s2(h, params.conv2_w.value, params.conv2_b.value))
    # Projection rows run over (channel, frequency): (T, F'', C) -> (T, C, F'').
    return ad.permute(h, (0, 2, 1))


def subsample(feats: FeatureSequence | list[FeatureSequence],
              params: FrontendParams) -> EncodedSequence:
    """(T_in, F) features -> (T, D) frames with T = ((T_in-1)//2 - 1)//2.

    A list of utterances runs as one packed batch and comes back packed, its
    ``lengths`` per utterance and its ``orig_index`` numbering each
    utterance's frames from 0. The features are stacked
    along time, every utterance but the last zero-padded to a multiple of 4
    frames, so an utterance starts at an input frame s that is a multiple of
    4 and its output frame t, packed row s/4 + t, reads only its own inputs
    s + 4t to s + 4t + 6. The convolutions and swishes run over blocks of
    packed output rows (module docstring), whose outputs are stacked; one
    gather keeps each utterance's rows and drops those that straddle a
    boundary, and the projection runs once. A lone utterance is a batch of
    one: its ``lengths`` is ``(T,)``.
    """
    batch = [feats] if isinstance(feats, FeatureSequence) else list(feats)
    if not batch:
        raise DimensionError("subsample needs at least one utterance")
    feat_dim = batch[0].feature_dim
    for utt in batch:
        if utt.length < MIN_INPUT_FRAMES:
            raise InputTooShortError(
                f"utterance {utt.utterance_id!r} has {utt.length} frames; "
                f"subsampling needs at least {MIN_INPUT_FRAMES}")
        if utt.feature_dim != feat_dim:
            raise DimensionError(f"utterance {utt.utterance_id!r} has feature dim "
                                 f"{utt.feature_dim}, the batch {feat_dim}")
    expected_cols = params.conv2_w.value.data.shape[0] * reduced_feature_dim(feat_dim)
    if params.proj_w.value.data.shape[0] != expected_cols:
        raise DimensionError(
            f"feature dim {feat_dim} incompatible with projection "
            f"{params.proj_w.value.data.shape}")
    lengths = [subsampled_length(utt.length) for utt in batch]
    if len(batch) == 1:
        frames = batch[0].frames
        keep = None
    else:
        starts = np.cumsum([0] + [-(-utt.length // 4) * 4 for utt in batch[:-1]])
        frames = np.zeros((starts[-1] + batch[-1].length, feat_dim),
                          dtype=np.result_type(*(utt.frames for utt in batch)))
        for s, utt in zip(starts, batch):
            frames[s:s + utt.length] = utt.frames
        keep = np.concatenate([s // 4 + np.arange(n) for s, n in zip(starts, lengths)])
    # The features are a constant to the tape: they get no gradient.
    x = frames[:, :, None]
    row_bytes = (expected_cols * KERNEL * KERNEL
                 * np.result_type(frames, params.conv1_w.value.data).itemsize)
    block = max(1, BLOCK_BYTES // row_bytes)
    n_rows = subsampled_length(frames.shape[0])
    blocks = []
    for r0 in range(0, n_rows, block):
        r1 = r0 + block
        blocks.append(_convolve(x[4 * r0:4 * r1 + 3 if r1 < n_rows else None], params))
    h = ad.concat_rows(*blocks)
    if keep is not None:
        h = ad.gather_rows(h, keep)
    t, c, f2 = h.data.shape
    out = ad.affine(ad.reshape(h, (t, c * f2)), params.proj_w.value, params.proj_b.value)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return EncodedSequence(frames=out, orig_index=np.arange(out.data.shape[0]) - starts,
                           lengths=tuple(lengths))
