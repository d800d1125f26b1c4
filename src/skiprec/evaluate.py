"""Corpus evaluation: token error rate, frame-budget stats, per-utterance traces."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ctc
from . import decoder as dec_mod
from . import model as model_mod
from .config import LossConfig, ModelConfig
from .errors import ConfigError

DEFAULT_BEAM = 8   # prefix beam width of the rescoring decode, eval and bench alike


def edit_distance(ref: list[int], hyp: list[int]) -> int:
    """Levenshtein distance over token ids."""
    n, m = len(ref), len(hyp)
    if n == 0:
        return m
    if m == 0:
        return n
    prev = list(range(m + 1))
    cur = [0] * (m + 1)
    for i in range(1, n + 1):
        cur[0] = i
        ri = ref[i - 1]
        for j in range(1, m + 1):
            sub = prev[j - 1] + (ri != hyp[j - 1])
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, sub)
        prev, cur = cur, prev
    return prev[m]


@dataclass
class EvalReport:
    error_rate: float
    substitutions_plus: int          # total edit operations
    reference_tokens: int
    reduction_mean: float            # input frames / final grid frames
    crucial_frac_mean: float         # crucial / subsampled frames
    fallback_fraction: float
    loss_means: dict = field(default_factory=dict)
    utterances: list = field(default_factory=list)


def evaluate_corpus(params, model_cfg: ModelConfig, loss_cfg: LossConfig,
                    corpus, decode: str = "greedy", beam: int = DEFAULT_BEAM,
                    compute_losses: bool = False,
                    force_all_crucial: bool = False) -> EvalReport:
    """Decode every utterance and aggregate error/cost statistics.

    ``decode`` is "greedy" (final CTC head argmax) or "rescoring" (prefix beam
    on the final grid, then joint CTC + decoder scores pick the winner).
    ``compute_losses`` adds the mean of each ``component_losses`` term,
    scored on the decode trace unless training's forward would differ.
    """
    if decode not in ("greedy", "rescoring"):
        raise ConfigError(f"unknown decode strategy {decode!r}")
    if params.decoder.vocab_size != model_cfg.vocab_size:
        raise ConfigError(
            f"checkpoint vocab {params.decoder.vocab_size} != config vocab "
            f"{model_cfg.vocab_size}")

    loss_sums: dict[str, float] = {}
    per_utt = []
    for feats, tokens in corpus:
        trace = model_mod.forward_utterance(
            feats, params, model_cfg, loss_cfg, target=None,
            force_all_crucial=force_all_crucial)
        if decode == "greedy":
            hyp = ctc.greedy_decode(trace.final_grid)
        else:
            hyps = ctc.prefix_beam_search(trace.final_grid, beam)
            best, _scores = dec_mod.rescore(trace.h2, hyps, params.decoder, model_cfg.heads)
            hyp = list(hyps[best][0])
        per_utt.append({
            "id": feats.utterance_id,
            "ref": tokens,
            "hyp": hyp,
            "edits": edit_distance(tokens, hyp),
            "input_frames": trace.input_len,
            "subsampled_frames": trace.subsampled_len,
            "crucial_frames": trace.crucial_len,
            "output_frames": trace.output_len,
            "fallback": trace.fallback,
        })
        if compute_losses:
            # The decode trace is the one training would score, unless it
            # skipped no frames by force, or its split is too short for the
            # target: training's forward falls back then.
            if force_all_crucial or (not trace.fallback
                                     and model_mod.too_short_for(tokens, trace.output_len)):
                trace = model_mod.forward_utterance(
                    feats, params, model_cfg, loss_cfg, target=tokens)
            terms = model_mod.component_losses(trace, [tokens], params, model_cfg, loss_cfg)
            for k, v in terms.items():
                loss_sums[k] = loss_sums.get(k, 0.0) + v

    n_utt = max(len(per_utt), 1)   # means as sums over n_utt: an empty corpus reads 0
    edits = sum(rec["edits"] for rec in per_utt)
    ref_total = sum(len(rec["ref"]) for rec in per_utt)
    inputs, subsampled, crucial, outputs = (
        np.array([rec[k] for rec in per_utt], dtype=np.float64)
        for k in ("input_frames", "subsampled_frames", "crucial_frames", "output_frames"))
    return EvalReport(
        error_rate=edits / max(ref_total, 1),
        substitutions_plus=edits,
        reference_tokens=ref_total,
        reduction_mean=float(np.sum(inputs / outputs)) / n_utt,
        crucial_frac_mean=float(np.sum(crucial / subsampled)) / n_utt,
        fallback_fraction=sum(rec["fallback"] for rec in per_utt) / n_utt,
        loss_means={k: v / n_utt for k, v in loss_sums.items()},
        utterances=per_utt,
    )
