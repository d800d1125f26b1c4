"""Seeded training loop with warmup/decay schedule and JSONL metrics.

Metric records carry no wall-clock fields, so two runs with the same
config, corpus, seed, and thread count produce byte-identical logs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import fileio
from . import model as model_mod
from .config import ModelConfig, RunConfig, validate_run_config
from .errors import ConfigError
from .evaluate import evaluate_corpus
from .frontend import FeatureSequence


def learning_rate(step: int, peak: float, warmup: int) -> float:
    """Linear warmup to ``peak`` over ``warmup`` steps, then 1/sqrt decay."""
    return peak * min(step / warmup, (warmup / step) ** 0.5)


def load_corpus(features_path, transcripts_path, cfg: ModelConfig
                ) -> list[tuple[FeatureSequence, list[int]]]:
    """Pair feature utterances with transcripts by id, in feature-file order,
    each checked against ``cfg``'s vocabulary and feature width."""
    feats = fileio.read_features(features_path)
    trans = fileio.read_transcripts(transcripts_path)
    corpus = []
    for utt_id, frames in feats:
        if utt_id not in trans:
            raise ConfigError(f"utterance {utt_id!r} has features but no transcript")
        if frames.shape[1] != cfg.feature_dim:
            raise ConfigError(f"utterance {utt_id!r} has {frames.shape[1]}-dim features; "
                              f"the model takes feature_dim {cfg.feature_dim}")
        tokens = trans[utt_id]
        for t in tokens:
            if not (1 <= t < cfg.vocab_size):
                raise ConfigError(
                    f"utterance {utt_id!r} token {t} outside vocab of size {cfg.vocab_size}")
        corpus.append((FeatureSequence(utterance_id=utt_id, frames=frames), tokens))
    return corpus


@dataclass
class TrainResult:
    last_checkpoint: Path
    best_checkpoint: Path
    metrics_path: Path
    steps: int
    best_error_rate: float
    final_error_rate: float


def train_run(cfg: RunConfig, features_path, transcripts_path, out_dir,
              resume_path=None, dev_features=None, dev_transcripts=None,
              quiet: bool = True) -> TrainResult:
    """Train, evaluating and checkpointing every ``eval_every`` epochs and at the end.

    The run owns its random streams: batch order from ``seed + 1`` and
    dropout from ``seed``, re-seeded with ``seed + 1000 + epoch`` after each
    eval. Evals run without dropout. A resume from a ``last.ckpt`` that
    records its epoch continues the schedule: epoch numbers go on from the
    saved one, the batch order skips the permutations already drawn and
    dropout starts from the saved epoch's seed, so it trains as the
    uninterrupted run would have. The saved best error rate and after-warmup
    fallback counts carry on too, so ``best.ckpt``, ``best_error_rate`` and
    the fallback warning cover the whole run. ``epochs`` counts the epochs
    this call trains.
    """
    validate_run_config(cfg)
    if (dev_features is None) != (dev_transcripts is None):
        raise ConfigError("a dev set needs both its features and its transcripts")
    corpus = load_corpus(features_path, transcripts_path, cfg.model)
    if dev_features is not None:
        eval_corpus = load_corpus(dev_features, dev_transcripts, cfg.model)
    else:
        eval_corpus = corpus
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    params = model_mod.init_model(cfg.training.seed, cfg.model)
    step = start = 0
    best_error = float("inf")
    after_warmup = (0, 0)
    if resume_path is not None:
        tensors = fileio.load_checkpoint(resume_path)
        step = model_mod.load_params_from_tensors(params, tensors, restore_moments=True)
        start = int(tensors.get("trainer.epoch", np.asarray(0.0)))
        best_error = float(tensors.get("trainer.best_error", np.asarray(np.inf)))
        after_warmup = tuple(int(tensors.get(f"trainer.after_warmup_{k}", np.asarray(0.0)))
                             for k in ("utterances", "fallbacks"))
        del tensors   # the parameters hold their own copies

    seed = cfg.training.seed
    order_rng = np.random.default_rng(seed + 1)
    for _ in range(start):
        order_rng.permutation(len(corpus))
    dropout_rng = np.random.default_rng(seed + 1000 + start if start else seed)
    since_eval = (0, 0)
    final_error = float("inf")
    end = start + cfg.training.epochs
    metrics_path = out_dir / "metrics.jsonl"
    with open(metrics_path, "a" if resume_path is not None else "w", encoding="utf-8") as log:
        # Zero epochs still evaluate and checkpoint once, as the saved epoch.
        for epoch in range(min(start + 1, end), end + 1):
            if epoch > start:
                step, fell_back = _train_epoch(cfg, params, corpus,
                                               order_rng.permutation(len(corpus)), step,
                                               dropout_rng)
                since_eval = (since_eval[0] + len(fell_back),
                              since_eval[1] + sum(f for _, f in fell_back))
                late = [f for s, f in fell_back if s >= cfg.optimizer.warmup_steps]
                after_warmup = (after_warmup[0] + len(late), after_warmup[1] + sum(late))
            if epoch % cfg.training.eval_every == 0 or epoch == end:
                final_error = _eval_and_checkpoint(cfg, params, eval_corpus, step, epoch,
                                                   since_eval, after_warmup, best_error,
                                                   out_dir, log, quiet)
                best_error = min(best_error, final_error)
                since_eval = (0, 0)
                dropout_rng = np.random.default_rng(seed + 1000 + epoch)
    return TrainResult(out_dir / "last.ckpt", out_dir / "best.ckpt", metrics_path, step,
                       best_error, final_error)


def _train_epoch(cfg: RunConfig, params, corpus, order, step: int,
                 dropout_rng: np.random.Generator) -> tuple[int, list[tuple[int, bool]]]:
    """One pass over ``corpus`` in ``order``, one Adam step per batch.

    Each batch runs packed: one forward, one loss (the sum of its
    utterances' objectives) and one backward. Returns the new step count
    and, per utterance, the step it trained in and whether its forward fell
    back to the no-skip path.
    """
    named = model_mod.named_parameters(params)
    opt = cfg.optimizer
    fell_back = []
    for start in range(0, len(order), cfg.training.batch_size):
        batch = [corpus[int(j)] for j in order[start:start + cfg.training.batch_size]]
        feats = [f for f, _ in batch]
        tokens = [t for _, t in batch]
        for _, p in named:
            p.zero_grad()
        with ad.tape() as tp:
            trace = model_mod.forward_batch(feats, params, cfg.model, cfg.loss,
                                            targets=tokens, dropout_rng=dropout_rng)
            tp.backward(model_mod.total_loss(trace, tokens, params, cfg.model, cfg.loss,
                                             dropout_rng))
        fell_back.extend((step, f) for f in trace.fallbacks)
        step += 1
        lr = learning_rate(step, opt.peak_lr, opt.warmup_steps)
        inv = 1.0 / len(batch)
        for _, p in named:
            grad = p.grad if p.grad is not None else np.zeros_like(p.value.data)
            ad.adam_step(p, grad * inv, lr)
    return step, fell_back


def _eval_and_checkpoint(cfg: RunConfig, params, eval_corpus, step: int, epoch: int,
                         since_eval: tuple[int, int], after_warmup: tuple[int, int],
                         best_error: float, out_dir: Path, log, quiet: bool) -> float:
    """Log one metrics record, write ``best.ckpt`` on a new best, then ``last.ckpt``.

    The fallback counts are (utterances, fallbacks) since the previous eval
    and after warmup. ``last.ckpt`` records the best error rate so far and
    the after-warmup counts for a resume; it is written second, so it never
    names a best that ``best.ckpt`` does not hold. Returns the eval error
    rate.
    """
    opt = cfg.optimizer
    report = evaluate_corpus(params, cfg.model, cfg.loss, eval_corpus,
                             decode="greedy", compute_losses=True)
    record = {
        "step": step,
        "epoch": epoch,
        "lr": learning_rate(max(step, 1), opt.peak_lr, opt.warmup_steps),
        "error_rate": report.error_rate,
        "reduction_mean": report.reduction_mean,
        "crucial_frac_mean": report.crucial_frac_mean,
        "fallback_fraction": since_eval[1] / max(since_eval[0], 1),
        **{f"loss_{k}": v for k, v in report.loss_means.items()},
    }
    # >10% of post-warmup utterances on the bypass path is worth flagging.
    if step > opt.warmup_steps and after_warmup[0] > 0:
        frac = after_warmup[1] / after_warmup[0]
        if frac > 0.1:
            record["warning"] = f"fallback on {frac:.2%} of utterances after warmup"
    log.write(json.dumps(record, sort_keys=True) + "\n")
    log.flush()
    if not quiet:
        print(json.dumps(record, sort_keys=True))
    if report.error_rate < best_error:
        fileio.save_checkpoint(out_dir / "best.ckpt",
                               model_mod.checkpoint_tensors(params, step=step))
    last = model_mod.checkpoint_tensors(params, step=step, with_moments=True, epoch=epoch)
    last["trainer.best_error"] = np.asarray(min(best_error, report.error_rate))
    last["trainer.after_warmup_utterances"] = np.asarray(float(after_warmup[0]))
    last["trainer.after_warmup_fallbacks"] = np.asarray(float(after_warmup[1]))
    fileio.save_checkpoint(out_dir / "last.ckpt", last)
    return report.error_rate
