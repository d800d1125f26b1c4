"""Run configuration: typed sections, JSON loading, strict validation.

A field exists only for a setting that some run varies; a value that every
run shares is a constant of the module that reads it (``autodiff.ADAM_*``
and ``LAYER_NORM_EPS``, ``model.STAGE_WEIGHT``, ``decoder.CTC_WEIGHT``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    heads: int = 4
    e1_blocks: int = 2        # blocks before the split
    e2_blocks: int = 2        # blocks after it, crucial frames only
    kernel_e1: int = 15
    kernel_e2: int = 5
    ffn_multiple: int = 4
    decoder_blocks: int = 2
    vocab_size: int = 20      # includes blank at 0
    feature_dim: int = 16
    dropout: float = 0.0


@dataclass(frozen=True)
class LossConfig:
    ctc_weight: float = 0.3       # alignment loss share; remainder goes to the decoder
    blank_threshold: float = 0.99
    split_mode: int = 2


@dataclass(frozen=True)
class OptimizerConfig:
    peak_lr: float = 1e-3
    warmup_steps: int = 500


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    eval_every: int = 5       # epochs between metric records
    seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = ModelConfig()
    loss: LossConfig = LossConfig()
    optimizer: OptimizerConfig = OptimizerConfig()
    training: TrainConfig = TrainConfig()


_SECTIONS = {"model": ModelConfig, "loss": LossConfig,
             "optimizer": OptimizerConfig, "training": TrainConfig}
_ACCEPTS = {"int": int, "float": (int, float)}   # an int is a valid float; a bool is neither


def validate_run_config(cfg: RunConfig) -> RunConfig:
    for name, cls in _SECTIONS.items():
        for f in dataclasses.fields(cls):   # f.type is the annotation's text
            value = getattr(getattr(cfg, name), f.name)
            if isinstance(value, bool) or not isinstance(value, _ACCEPTS[f.type]):
                raise ConfigError(f"{name}.{f.name} must be {f.type}, got {value!r}")
    m, l, o, t = cfg.model, cfg.loss, cfg.optimizer, cfg.training
    checks = [
        (m.d_model >= 1, "model.d_model must be positive"),
        (m.heads >= 1, "model.heads must be positive"),
        (m.d_model % m.heads == 0, f"model.d_model {m.d_model} not divisible by heads {m.heads}"),
        (m.e1_blocks >= 1, "model.e1_blocks must be positive"),
        (m.e2_blocks >= 1, "model.e2_blocks must be positive"),
        (m.kernel_e1 >= 1 and m.kernel_e1 % 2 == 1, "model.kernel_e1 must be odd and positive"),
        (m.kernel_e2 >= 1 and m.kernel_e2 % 2 == 1, "model.kernel_e2 must be odd and positive"),
        (m.ffn_multiple >= 1, "model.ffn_multiple must be positive"),
        (m.decoder_blocks >= 1, "model.decoder_blocks must be positive"),
        (m.vocab_size >= 2, "model.vocab_size must hold blank plus at least one token"),
        (m.feature_dim >= 7, "model.feature_dim must be at least 7 for the frontend convs"),
        (0.0 <= m.dropout < 1.0, "model.dropout must lie in [0, 1)"),
        (0.0 <= l.ctc_weight <= 1.0, "loss.ctc_weight must lie in [0, 1]"),
        (0.0 < l.blank_threshold < 1.0, "loss.blank_threshold must lie in (0, 1)"),
        (1 <= l.split_mode <= 5, "loss.split_mode must be in 1..5"),
        (o.peak_lr > 0.0, "optimizer.peak_lr must be positive"),
        (o.warmup_steps >= 1, "optimizer.warmup_steps must be positive"),
        (t.epochs >= 0, "training.epochs must be non-negative"),
        (t.batch_size >= 1, "training.batch_size must be positive"),
        (t.eval_every >= 1, "training.eval_every must be positive"),
    ]
    for ok, msg in checks:
        if not ok:
            raise ConfigError(msg)
    return cfg


def run_config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from nested dicts; unknown sections or keys are errors."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown, key=repr)}")
    sections = {}
    for name, cls in _SECTIONS.items():
        body = raw.get(name, {})
        if not isinstance(body, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        known = {f.name for f in dataclasses.fields(cls)}
        bad = set(body) - known
        if bad:
            raise ConfigError(f"unknown keys in config section {name!r}: {sorted(bad, key=repr)}")
        sections[name] = cls(**body)
    return validate_run_config(RunConfig(**sections))


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
    return run_config_from_dict(raw)


def save_run_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def full_scale_presets() -> dict[str, ModelConfig]:
    """Full-scale reference shapes; desk runs use the smaller defaults above."""
    return {
        "m5n7": ModelConfig(d_model=256, heads=4, e1_blocks=5, e2_blocks=7,
                            kernel_e1=15, kernel_e2=5, ffn_multiple=8,
                            decoder_blocks=6, vocab_size=5000, feature_dim=80),
    }
