"""Full model assembly: skip low-information frames, recover frame order.

Each utterance's path: subsample, add positions, run the first encoder
stage, read blank flags off the intermediate alignment head, group frames,
run the second stage on crucial frames only, then merge trivial frames back
in original time order for the final head and the decoder losses.

A batch runs packed: ``forward_batch`` subsamples the whole batch in one
frontend pass into one (sum of lengths, D) matrix and runs every later
stage once for the whole batch, so only crucial frames enter the second
stage. Its ``ForwardTrace`` keeps every per-frame record packed by row:
the flags, one set of frame groups over packed rows, built once for the
batch, and the split and recover as one gather each. ``forward_utterance``
is a batch of one, and a batch of one makes no padding copy.

Fallbacks: an empty crucial group, or (given a target) a merged sequence
too short to spell it, bypasses the splitter and treats every frame as
crucial for that utterance (``too_short_for`` is the target rule). The
groups are then built once more with that utterance's flags cleared.

The forward and the loss are functions of their arguments: weights,
features, configs and, in training, the dropout generator. One loss path,
the sum of a trace's utterances' objectives, has two views: ``total_loss``,
the training objective on the tape, and ``component_losses``, its terms as
floats for logging. Either takes a ForwardTrace and one target per
utterance. Each loss pair weighs its pre-split and its post-recover loss
equally, by ``STAGE_WEIGHT``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import ctc as ctc_mod
from . import decoder as dec_mod
from . import encoder as enc_mod
from . import frontend as fe_mod
from . import splitter as sp_mod
from .autodiff import Parameter, Tensor
from .config import LossConfig, ModelConfig
from .encoder import EncodedSequence
from .errors import ConfigError, ContractError
from .frontend import FeatureSequence

STAGE_WEIGHT = 0.5   # weight of the pre-split and of the post-recover loss in each pair


@dataclass
class ModelParams:
    frontend: fe_mod.FrontendParams
    e1: list[enc_mod.ConformerBlockParams]
    e2: list[enc_mod.ConformerBlockParams]
    inter_head: ctc_mod.HeadParams
    final_head: ctc_mod.HeadParams
    decoder: dec_mod.DecoderParams


def init_model(seed: int, cfg: ModelConfig) -> ModelParams:
    rng = np.random.default_rng(seed)
    return ModelParams(
        frontend=fe_mod.init_frontend(rng, cfg.feature_dim, cfg.d_model),
        e1=[enc_mod.init_block(rng, cfg.d_model, cfg.heads, cfg.kernel_e1, cfg.ffn_multiple)
            for _ in range(cfg.e1_blocks)],
        e2=[enc_mod.init_block(rng, cfg.d_model, cfg.heads, cfg.kernel_e2, cfg.ffn_multiple)
            for _ in range(cfg.e2_blocks)],
        inter_head=ctc_mod.init_head(rng, cfg.d_model, cfg.vocab_size),
        final_head=ctc_mod.init_head(rng, cfg.d_model, cfg.vocab_size),
        decoder=dec_mod.init_decoder(rng, cfg.d_model, cfg.heads, cfg.decoder_blocks,
                                     cfg.vocab_size, cfg.ffn_multiple),
    )


def named_parameters(params: ModelParams) -> list[tuple[str, Parameter]]:
    """All trainable parameters in a stable, name-sorted-by-structure order."""
    out: list[tuple[str, Parameter]] = []

    def walk(prefix: str, node) -> None:
        if isinstance(node, Parameter):
            out.append((prefix, node))
        elif dataclasses.is_dataclass(node):
            for f in dataclasses.fields(node):
                walk(f"{prefix}.{f.name}", getattr(node, f.name))
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(f"{prefix}.{i}", item)

    for f in dataclasses.fields(params):
        walk(f.name, getattr(params, f.name))
    return out


def cast_params(params: ModelParams, dtype) -> ModelParams:
    """Cast parameter values in place; used for float32 inference timing runs."""
    for _, p in named_parameters(params):
        p.value.data = p.value.data.astype(dtype)
    return params


@dataclass
class ForwardTrace:
    """A batch's forward, packed: every per-frame record lies by row in batch order.

    ``h1`` and ``inter_grid`` hold each utterance's subsampled frames
    (``h1.lengths``), ``h2`` and ``final_grid`` its recovered frames
    (``h2.lengths``). ``flags`` is per ``h1`` row, and ``groups`` indexes
    ``h1`` rows, so for a batch of one they are the utterance's frame
    indices. ``input_len``, ``subsampled_len``, ``crucial_len`` and
    ``output_len`` are batch totals; ``fallbacks`` holds one entry per
    utterance.
    """

    input_len: int
    h1: EncodedSequence
    inter_grid: ctc_mod.PosteriorGrid
    flags: np.ndarray
    groups: sp_mod.FrameGroups
    h2: EncodedSequence
    final_grid: ctc_mod.PosteriorGrid
    fallbacks: tuple[bool, ...]

    @property
    def fallback(self) -> bool:
        return any(self.fallbacks)

    @property
    def subsampled_len(self) -> int:
        return self.h1.length

    @property
    def crucial_len(self) -> int:
        return len(self.groups.crucial)

    @property
    def output_len(self) -> int:
        return self.h2.length


def recover(crucial: EncodedSequence, trivial: EncodedSequence) -> EncodedSequence:
    """Merge two sequences back into ascending original-frame order.

    Packed inputs hold the same utterances in the same order; each
    utterance's rows merge with its own, in one gather for the batch.
    """
    c_len, t_len = crucial.lengths, trivial.lengths
    if len(c_len) != len(t_len):
        raise ContractError(f"recover received {len(c_len)} and {len(t_len)} packed sequences")
    seq = np.concatenate([np.repeat(np.arange(len(c_len)), c_len),
                          np.repeat(np.arange(len(t_len)), t_len)])
    merged_idx = np.concatenate([crucial.orig_index, trivial.orig_index])
    order = np.lexsort((merged_idx, seq))
    sorted_idx, sorted_seq = merged_idx[order], seq[order]
    same = (sorted_idx[1:] == sorted_idx[:-1]) & (sorted_seq[1:] == sorted_seq[:-1])
    if np.any(same):
        dup = int(sorted_idx[np.flatnonzero(same)[0]])
        raise ContractError(f"recover received frame index {dup} in both groups")
    frames = ad.gather_rows(ad.concat_rows(crucial.frames, trivial.frames), order)
    return EncodedSequence(frames=frames, orig_index=sorted_idx,
                           lengths=tuple(c + t for c, t in zip(c_len, t_len)))


def too_short_for(target, kept_frames: int) -> bool:
    """Whether a split keeping ``kept_frames`` frames cannot spell ``target``.

    This is the target-aware fallback: given a target, ``forward_batch``
    bypasses such a split. It is the only way a target changes the forward.
    """
    return target is not None and kept_frames < ctc_mod.min_frames(target)


def forward_batch(batch: list[FeatureSequence], params: ModelParams, cfg: ModelConfig,
                  loss_cfg: LossConfig, targets=None, force_all_crucial: bool = False,
                  dropout_rng: np.random.Generator | None = None) -> ForwardTrace:
    """Run the full encoder path for a batch of utterances, packed.

    ``targets`` (one per utterance) enables the length-feasibility fallback
    used in training; ``force_all_crucial`` bypasses the splitter outright
    (no-skip baseline). An utterance that bypasses it has its flags cleared
    for the grouping, so all its frames are crucial. With ``dropout_rng``
    (training), encoder branch outputs are dropped at rate ``cfg.dropout``;
    without it the forward is deterministic.
    """
    if targets is not None and len(targets) != len(batch):
        raise ContractError(f"{len(targets)} targets for a batch of {len(batch)}")
    sub = fe_mod.subsample(batch, params.frontend)
    lengths = sub.lengths
    x = dataclasses.replace(sub, frames=enc_mod.attach_positions(sub.frames, lengths))
    drop = enc_mod.make_dropout(cfg.dropout, dropout_rng)
    h1 = enc_mod.run_blocks(x, params.e1, cfg.heads, drop)
    inter_grid = ctc_mod.posterior_grid(h1, params.inter_head)
    flags = ctc_mod.blank_flags(inter_grid, loss_cfg.blank_threshold)

    def group(row_flags: np.ndarray) -> sp_mod.FrameGroups:
        return sp_mod.assign_groups(sp_mod.compute_sets(row_flags, lengths),
                                    loss_cfg.split_mode)

    groups = group(flags)
    utt = np.repeat(np.arange(len(lengths)), lengths)   # each h1 row's utterance
    crucial = np.bincount(utt[groups.crucial], minlength=len(lengths))
    kept = crucial + np.bincount(utt[groups.trivial], minlength=len(lengths))
    fallbacks = tuple(not force_all_crucial and bool(c == 0 or too_short_for(target, k))
                      for c, k, target in zip(crucial, kept, targets or [None] * len(batch)))
    bypass = np.asarray(fallbacks) | force_all_crucial
    if bypass.any():
        groups = group(flags & ~bypass[utt])

    h1_crucial, h1_trivial = sp_mod.split_frames(h1, groups)
    h2_crucial = enc_mod.run_blocks(h1_crucial, params.e2, cfg.heads, drop)
    h2 = recover(h2_crucial, h1_trivial)
    return ForwardTrace(
        input_len=sum(f.length for f in batch),
        h1=h1,
        inter_grid=inter_grid,
        flags=flags,
        groups=groups,
        h2=h2,
        final_grid=ctc_mod.posterior_grid(h2, params.final_head),
        fallbacks=fallbacks,
    )


def forward_utterance(feats: FeatureSequence, params: ModelParams, cfg: ModelConfig,
                      loss_cfg: LossConfig, target=None,
                      force_all_crucial: bool = False) -> ForwardTrace:
    """Run the full encoder path for one utterance: ``forward_batch`` on a batch of one."""
    return forward_batch([feats], params, cfg, loss_cfg,
                         targets=None if target is None else [target],
                         force_all_crucial=force_all_crucial)


def _loss_and_terms(trace, token_seqs, params: ModelParams, cfg: ModelConfig,
                    loss_cfg: LossConfig, drop: enc_mod.Dropout | None
                    ) -> tuple[Tensor, dict[str, float]]:
    """The summed objective of the utterances of ``trace`` and its terms.

    ``token_seqs`` holds one target per utterance, in trace order.
    """
    if len(token_seqs) != len(trace.h1.lengths):
        raise ContractError(f"{len(token_seqs)} targets for a trace of "
                            f"{len(trace.h1.lengths)} utterances")
    alpha = loss_cfg.ctc_weight
    pairs = []
    if alpha > 0.0:
        pairs.append(("ctc", alpha,
                      ctc_mod.ctc_loss(trace.inter_grid, token_seqs, trace.h1.lengths),
                      ctc_mod.ctc_loss(trace.final_grid, token_seqs, trace.h2.lengths)))
    if alpha < 1.0:
        pairs.append(("dec", 1.0 - alpha,
                      dec_mod.aed_loss(trace.h1, token_seqs, params.decoder, cfg.heads, drop),
                      dec_mod.aed_loss(trace.h2, token_seqs, params.decoder, cfg.heads, drop)))
    loss = None
    terms: dict[str, float] = {}
    for name, share, inter, final in pairs:
        pair = ad.add(ad.mul(inter, STAGE_WEIGHT), ad.mul(final, STAGE_WEIGHT))
        weighted = ad.mul(pair, share)
        loss = weighted if loss is None else ad.add(loss, weighted)
        terms[f"{name}_inter"] = float(inter.data)
        terms[f"{name}_final"] = float(final.data)
    terms["total"] = float(loss.data)
    return loss, terms


def total_loss(trace: ForwardTrace, token_seqs, params: ModelParams,
               cfg: ModelConfig, loss_cfg: LossConfig,
               dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Joint objective, summed over the trace's utterances, on one tape.

    ctc_weight * (alignment pair) + (1 - ctc_weight) * (decoder pair), each
    pair weighing its pre-split and its post-recover loss by ``STAGE_WEIGHT``.
    A pair with zero weight is never evaluated and receives no gradient.
    ``token_seqs`` holds one target per utterance: ``[tokens]`` for a batch
    of one. Each CTC loss is one lattice op over its packed grid, and each
    decoder pair one packed pass over the utterances' own encoder frames.
    With ``dropout_rng`` (training), the decoder's feed-forward outputs are
    dropped at rate ``cfg.dropout``.
    """
    drop = enc_mod.make_dropout(cfg.dropout, dropout_rng)
    return _loss_and_terms(trace, token_seqs, params, cfg, loss_cfg, drop)[0]


def component_losses(trace: ForwardTrace, token_seqs, params: ModelParams,
                     cfg: ModelConfig, loss_cfg: LossConfig) -> dict[str, float]:
    """The terms of ``total_loss``, without dropout, as floats for logging.

    Maps each evaluated loss ("ctc_inter", "ctc_final", "dec_inter",
    "dec_final") and "total", the objective's value, to a float.
    """
    return _loss_and_terms(trace, token_seqs, params, cfg, loss_cfg, None)[1]


def checkpoint_tensors(params: ModelParams, step: int | None = None,
                       with_moments: bool = False,
                       epoch: int | None = None) -> dict[str, np.ndarray]:
    """Named tensors for serialization; optimizer state rides along when asked.

    A parameter that has not taken an Adam step yet is saved with float64
    zero moments, the state its first step starts from.
    """
    out: dict[str, np.ndarray] = {}
    for name, p in named_parameters(params):
        out[name] = p.value.data
        if with_moments:
            shape = p.value.data.shape
            # np.zeros is calloc-backed, so unwritten moments cost no pages.
            out[name + ".m1"] = np.zeros(shape) if p.moment1 is None else p.moment1
            out[name + ".m2"] = np.zeros(shape) if p.moment2 is None else p.moment2
    if step is not None:
        out["trainer.step"] = np.asarray(float(step))
    if epoch is not None:
        out["trainer.epoch"] = np.asarray(float(epoch))
    return out


def load_params_from_tensors(params: ModelParams, tensors: dict[str, np.ndarray],
                             restore_moments: bool = False) -> int:
    """Fill parameters from named tensors, returning the saved step (0 if absent).

    With ``restore_moments``, a parameter saved with both Adam moments resumes
    at the saved step; one saved without them (e.g. from ``best.ckpt``) is
    left without moments and with its bias-correction count at zero, so its
    first update is a fresh Adam step. A parameter with only one moment, or
    with a moment of the wrong shape, is rejected.
    """
    step = int(tensors.get("trainer.step", np.asarray(0.0)))
    for name, p in named_parameters(params):
        if name not in tensors:
            raise ConfigError(f"checkpoint is missing tensor {name!r}")
        arr = tensors[name]
        if arr.shape != p.value.data.shape:
            raise ConfigError(
                f"checkpoint tensor {name!r} has shape {arr.shape}, "
                f"model expects {p.value.data.shape}")
        p.value.data = arr.astype(np.float64)
        if restore_moments:
            m1, m2 = tensors.get(name + ".m1"), tensors.get(name + ".m2")
            if (m1 is None) != (m2 is None):
                raise ConfigError(f"checkpoint has only one Adam moment for {name!r}")
            if m1 is None:
                p.moment1 = p.moment2 = None
                p.step_count = 0
            else:
                if m1.shape != arr.shape or m2.shape != arr.shape:
                    raise ConfigError(
                        f"checkpoint moments of {name!r} have shapes {m1.shape} and "
                        f"{m2.shape}, model expects {arr.shape}")
                p.moment1 = m1.astype(np.float64)
                p.moment2 = m2.astype(np.float64)
                p.step_count = step
    return step
