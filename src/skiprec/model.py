"""Full model assembly: skip low-information frames, recover frame order.

Per utterance: subsample, add positions, run the first encoder stage, read
blank flags off the intermediate alignment head, group frames, run the
second stage on crucial frames only, then merge trivial frames back in
original time order for the final head and the decoder losses.

Fallbacks: an empty crucial group, or (given a target) a merged sequence
too short to spell it, bypasses the splitter and treats every frame as
crucial for that utterance.
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
    """Cast parameter values in place (moments included); used for timing runs."""
    for _, p in named_parameters(params):
        p.value.data = p.value.data.astype(dtype)
        p.moment1 = p.moment1.astype(dtype)
        p.moment2 = p.moment2.astype(dtype)
    return params


@dataclass
class ForwardTrace:
    utterance_id: str
    input_len: int
    time_map: np.ndarray
    h1: EncodedSequence
    inter_grid: ctc_mod.PosteriorGrid
    flags: np.ndarray
    groups: sp_mod.FrameGroups
    h2: EncodedSequence
    final_grid: ctc_mod.PosteriorGrid
    fallback: bool

    @property
    def subsampled_len(self) -> int:
        return self.h1.length

    @property
    def crucial_len(self) -> int:
        return len(self.groups.crucial)

    @property
    def output_len(self) -> int:
        return self.h2.length

    @property
    def reduction_factor(self) -> float:
        return self.input_len / self.output_len


def _all_crucial_groups(n: int) -> sp_mod.FrameGroups:
    everything = tuple(range(n))
    return sp_mod.FrameGroups(
        sets=sp_mod.BoundarySets(non_blank=everything, blank=(),
                                 left_adjacent=(), right_adjacent=()),
        crucial=everything, trivial=(), ignoring=())


def recover(crucial: EncodedSequence, trivial: EncodedSequence) -> EncodedSequence:
    """Merge two sequences back into ascending original-frame order."""
    merged_idx = np.concatenate([crucial.orig_index, trivial.orig_index])
    order = np.argsort(merged_idx, kind="stable")
    sorted_idx = merged_idx[order]
    if sorted_idx.size > 1 and np.any(sorted_idx[1:] == sorted_idx[:-1]):
        dup = int(sorted_idx[np.flatnonzero(sorted_idx[1:] == sorted_idx[:-1])[0]])
        raise ContractError(f"recover received frame index {dup} in both groups")
    frames = ad.gather_rows(ad.concat_rows(crucial.frames, trivial.frames), order)
    return EncodedSequence(frames=frames, orig_index=sorted_idx)


def forward_utterance(feats: FeatureSequence, params: ModelParams, cfg: ModelConfig,
                      loss_cfg: LossConfig, target=None,
                      force_all_crucial: bool = False) -> ForwardTrace:
    """Run the full encoder path for one utterance.

    ``target`` enables the length-feasibility fallback used in training;
    ``force_all_crucial`` bypasses the splitter outright (no-skip baseline).
    """
    sub = fe_mod.subsample(feats, params.frontend)
    x = EncodedSequence(
        frames=enc_mod.attach_positions(sub.frames),
        orig_index=np.arange(sub.length, dtype=np.int64),
    )
    h1 = enc_mod.run_blocks(x, params.e1, cfg.heads)
    inter_grid = ctc_mod.posterior_grid(h1, params.inter_head)
    flags = ctc_mod.blank_flags(inter_grid, loss_cfg.blank_threshold)

    groups = sp_mod.assign_groups(sp_mod.compute_sets(flags), loss_cfg.split_mode)
    fallback = False
    if force_all_crucial:
        groups = _all_crucial_groups(h1.length)
    elif not groups.crucial:
        groups = _all_crucial_groups(h1.length)
        fallback = True
    elif target is not None and len(groups.crucial) + len(groups.trivial) < ctc_mod.min_frames(target):
        groups = _all_crucial_groups(h1.length)
        fallback = True

    h1_crucial, h1_trivial = sp_mod.split_frames(h1, groups)
    h2_crucial = enc_mod.run_blocks(h1_crucial, params.e2, cfg.heads)
    h2 = recover(h2_crucial, h1_trivial)
    final_grid = ctc_mod.posterior_grid(h2, params.final_head)
    return ForwardTrace(
        utterance_id=feats.utterance_id,
        input_len=feats.length,
        time_map=sub.time_map,
        h1=h1,
        inter_grid=inter_grid,
        flags=flags,
        groups=groups,
        h2=h2,
        final_grid=final_grid,
        fallback=fallback,
    )


def combine_losses(ctc_inter: Tensor | None, ctc_final: Tensor | None,
                   dec_inter: Tensor | None, dec_final: Tensor | None,
                   loss_cfg: LossConfig) -> Tensor:
    """Weighted sum: ctc_weight * (alignment pair) + rest * (decoder pair),
    each pair mixed by inter_weight / final_weight."""

    def pair(a, b):
        return ad.add(ad.scale(a, loss_cfg.inter_weight), ad.scale(b, loss_cfg.final_weight))

    alpha = loss_cfg.ctc_weight
    if alpha == 1.0:
        return ad.scale(pair(ctc_inter, ctc_final), alpha)
    if alpha == 0.0:
        return ad.scale(pair(dec_inter, dec_final), 1.0 - alpha)
    return ad.add(ad.scale(pair(ctc_inter, ctc_final), alpha),
                  ad.scale(pair(dec_inter, dec_final), 1.0 - alpha))


def total_loss(trace: ForwardTrace, tokens, params: ModelParams, cfg: ModelConfig,
               loss_cfg: LossConfig) -> Tensor:
    """Joint objective over both heads and both decoder passes.

    With ctc_weight = 1 the decoder is never evaluated and receives no
    gradient; with ctc_weight = 0 the alignment heads are skipped likewise.
    """
    alpha = loss_cfg.ctc_weight
    ctc_inter = ctc_final = dec_inter = dec_final = None
    if alpha > 0.0:
        ctc_inter = ctc_mod.ctc_loss(trace.inter_grid, tokens)
        ctc_final = ctc_mod.ctc_loss(trace.final_grid, tokens)
    if alpha < 1.0:
        dec_inter = dec_mod.aed_loss(trace.h1, tokens, params.decoder, cfg.heads)
        dec_final = dec_mod.aed_loss(trace.h2, tokens, params.decoder, cfg.heads)
    return combine_losses(ctc_inter, ctc_final, dec_inter, dec_final, loss_cfg)


def component_losses(trace: ForwardTrace, tokens, params: ModelParams, cfg: ModelConfig,
                     loss_cfg: LossConfig) -> dict[str, float]:
    """Loss terms as floats for logging; computed off-tape."""
    out = {
        "ctc_inter": float(ctc_mod.ctc_loss(trace.inter_grid, tokens).data),
        "ctc_final": float(ctc_mod.ctc_loss(trace.final_grid, tokens).data),
        "dec_inter": float(dec_mod.aed_loss(trace.h1, tokens, params.decoder, cfg.heads).data),
        "dec_final": float(dec_mod.aed_loss(trace.h2, tokens, params.decoder, cfg.heads).data),
    }
    w = loss_cfg
    out["total"] = (w.ctc_weight * (w.inter_weight * out["ctc_inter"] + w.final_weight * out["ctc_final"])
                    + (1.0 - w.ctc_weight) * (w.inter_weight * out["dec_inter"]
                                              + w.final_weight * out["dec_final"]))
    return out


def checkpoint_tensors(params: ModelParams, step: int | None = None,
                       with_moments: bool = False) -> dict[str, np.ndarray]:
    """Named tensors for serialization; optimizer state rides along when asked."""
    out: dict[str, np.ndarray] = {}
    for name, p in named_parameters(params):
        out[name] = p.value.data
        if with_moments:
            out[name + ".m1"] = p.moment1
            out[name + ".m2"] = p.moment2
    if step is not None:
        out["trainer.step"] = np.asarray(float(step))
    return out


def load_params_from_tensors(params: ModelParams, tensors: dict[str, np.ndarray],
                             restore_moments: bool = False) -> int:
    """Fill parameters from named tensors, returning the saved step (0 if absent).

    With ``restore_moments``, a parameter saved with both Adam moments resumes
    at the saved step; one saved without them (e.g. from ``best.ckpt``)
    restarts its moments and its bias-correction count at zero, so its first
    update is a fresh Adam step. A parameter with only one moment, or with a
    moment of the wrong shape, is rejected.
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
        p.value.data = arr.astype(np.float64).copy()
        if restore_moments:
            m1, m2 = tensors.get(name + ".m1"), tensors.get(name + ".m2")
            if (m1 is None) != (m2 is None):
                raise ConfigError(f"checkpoint has only one Adam moment for {name!r}")
            if m1 is None:
                p.moment1, p.moment2 = np.zeros_like(p.value.data), np.zeros_like(p.value.data)
                p.step_count = 0
            else:
                if m1.shape != arr.shape or m2.shape != arr.shape:
                    raise ConfigError(
                        f"checkpoint moments of {name!r} have shapes {m1.shape} and "
                        f"{m2.shape}, model expects {arr.shape}")
                p.moment1 = m1.astype(np.float64).copy()
                p.moment2 = m2.astype(np.float64).copy()
                p.step_count = step
    return step
