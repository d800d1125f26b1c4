"""Seeded benchmark inputs in a fixed synthetic language, and the blank probe.

The language (one feature prototype per token id plus a silence prototype)
is ``skiprec.synth.prototypes`` of a fixed ``SynthSpec``. Utterance content
and noise come from the benchmark seed, so each seed gives utterances the
desk fixture never trained on, in the language it was trained on. Utterances
follow the recipe of ``skiprec.synth.generate``: a silence gap, then per
token a run of token frames and another gap, plus Gaussian noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from skiprec import encoder, frontend, synth
from skiprec.frontend import FeatureSequence

# Input frames one subsampled frame sees: two 3-wide, stride-2 convolutions.
RECEPTIVE_FIELD = 7
STRIDE = 4


@dataclass
class Utterance:
    feats: FeatureSequence
    tokens: list[int]
    silent: np.ndarray   # per input frame: the noise-free twin frame is silence


def utterances(spec: synth.SynthSpec, seed: int, salt: int, prefix: str) -> Iterator[Utterance]:
    """Endless stream of utterances in ``spec``'s language, drawn from ``seed``."""
    token_protos, silence = synth.prototypes(spec)
    rng = np.random.default_rng([seed, salt])

    def gap() -> np.ndarray:
        return np.tile(silence, (int(rng.integers(spec.gap_min, spec.gap_max + 1)), 1))

    k = 0
    while True:
        count = int(rng.integers(spec.tokens_min, spec.tokens_max + 1))
        tokens = [int(t) for t in rng.integers(1, spec.vocab_size, size=count)]
        chunks = [gap()]
        for tok in tokens:
            run = int(rng.integers(spec.frames_per_token_min, spec.frames_per_token_max + 1))
            chunks.append(np.tile(token_protos[tok], (run, 1)))
            chunks.append(gap())
        clean = np.concatenate(chunks, axis=0)
        silent = (clean == silence).all(axis=1)
        frames = clean + spec.noise * rng.normal(size=clean.shape)
        yield Utterance(FeatureSequence(f"{prefix}{k:06d}", frames), tokens, silent)
        k += 1


def silent_subsampled(silent: np.ndarray) -> np.ndarray:
    """Silence label per subsampled frame: every input frame it sees is silence."""
    n = frontend.subsampled_length(silent.shape[0])
    windows = np.lib.stride_tricks.sliding_window_view(silent, RECEPTIVE_FIELD)[::STRIDE]
    return windows[:n].all(axis=1)


def stage1_frames(utt: Utterance, params, heads: int) -> np.ndarray:
    """Encoder stage-1 output for one utterance, through the public stage functions."""
    sub = frontend.subsample(utt.feats, params.frontend)
    x = encoder.EncodedSequence(frames=encoder.attach_positions(sub.frames),
                                orig_index=np.arange(sub.length, dtype=np.int64))
    return encoder.run_blocks(x, params.e1, heads).frames.data


# Logit margin on each side of the blank threshold; large enough that the
# probe's decision, not the softmax, sets which frames are flagged.
PROBE_SHARPNESS = 40.0
PROBE_RIDGE = 1.0


def fit_blank_probe(params, heads: int, blank_threshold: float, utts: list[Utterance]) -> float:
    """Make ``params.inter_head`` flag silence frames; returns its training accuracy.

    A ridge regression from stage-1 frames to 0/1 silence labels becomes the
    blank logit, scaled so that a probe output above 0.5 gives a blank
    posterior above ``blank_threshold``; every other logit is zero.
    """
    xs, ys = [], []
    for utt in utts:
        xs.append(stage1_frames(utt, params, heads))
        ys.append(silent_subsampled(utt.silent))
    x = np.concatenate(xs)
    y = np.concatenate(ys).astype(np.float64)
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    w = np.linalg.solve(xb.T @ xb + PROBE_RIDGE * np.eye(xb.shape[1]), xb.T @ y)
    head = params.inter_head
    vocab = head.w.value.data.shape[1]
    # Blank posterior e^z / (e^z + V - 1) exceeds the threshold iff z > offset.
    offset = np.log(blank_threshold / (1.0 - blank_threshold) * (vocab - 1))
    head.w.value.data[...] = 0.0
    head.b.value.data[...] = 0.0
    head.w.value.data[:, 0] = PROBE_SHARPNESS * w[:-1]
    head.b.value.data[0] = PROBE_SHARPNESS * (w[-1] - 0.5) + offset
    return float(np.mean((xb @ w > 0.5) == (y > 0.5)))
