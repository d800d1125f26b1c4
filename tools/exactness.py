"""Print SHA-256 digests of outputs that a refactor must leave bit-identical.

Run it from the repository root on two trees (for example a change and its
parent) and compare the lines; equal digests mean equal bytes:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python tools/exactness.py

It digests:
  * 48 desk decodes: the perfbench fixture model on ``inputs.utterances``
    (seed 1, salt 1), with and without skipping: both grids, the flags, the
    frame groups, the prefix-beam hypotheses (beam 8) and the rescoring;
  * one packed dropout training batch of 8 (seed 1, salt 3, dropout seed 5):
    the loss and every parameter gradient;
  * the same batch where the first utterance's target is one token too long
    for its kept frames, so that utterance falls back;
  * ``metrics.jsonl``, ``last.ckpt`` and ``best.ckpt`` of a short
    ``train_run`` (the acceptance suite's determinism recipe) from a fresh
    initialisation, which also pins the initial weights.

It uses only what ``forward_utterance``, ``forward_batch``, ``total_loss``
and ``train_run`` have returned since packed training, so older trees run it
too.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from skiprec import autodiff as ad  # noqa: E402
from skiprec import config, ctc, decoder, fileio, model, synth, train  # noqa: E402

FIXTURE = ROOT / "perfbench" / "fixture" / "desk_last.ckpt"
DECODES = 48
BATCH = 8
BEAM = 8


def _update(h, *values) -> None:
    for v in values:
        h.update(v.tobytes() if isinstance(v, np.ndarray) else repr(v).encode())


def desk_model():
    cfg = config.RunConfig()
    params = model.init_model(cfg.training.seed, cfg.model)
    model.load_params_from_tensors(params, fileio.load_checkpoint(FIXTURE))
    return cfg, params


def decodes(cfg, params) -> str:
    h = hashlib.sha256()
    stream = inputs.utterances(synth.SynthSpec(), 1, 1, "dec")
    for _ in range(DECODES):
        feats = next(stream).feats
        for no_skip in (False, True):
            trace = model.forward_utterance(feats, params, cfg.model, cfg.loss,
                                            force_all_crucial=no_skip)
            hyps = ctc.prefix_beam_search(trace.final_grid, BEAM)
            best, scores = decoder.rescore(trace.h2, hyps, params.decoder, cfg.model.heads)
            _update(h, trace.inter_grid.log_probs.data, trace.final_grid.log_probs.data,
                    np.asarray(trace.flags), trace.groups, hyps, best, np.asarray(scores))
    return h.hexdigest()


def training_batch(cfg, params, lengthen_first: bool) -> tuple[str, float, int, bool]:
    """Digest of one dropout batch's loss and gradients, its loss, tape ops and fallback."""
    stream = inputs.utterances(synth.SynthSpec(), 1, 3, "trn")
    utts = [next(stream) for _ in range(BATCH)]
    feats = [u.feats for u in utts]
    tokens = [u.tokens for u in utts]
    if lengthen_first:
        # Distinct neighbours need no blanks: kept + 1 tokens fit every frame
        # but not the kept ones.
        probe = model.forward_utterance(feats[0], params, cfg.model, cfg.loss)
        if probe.output_len >= probe.subsampled_len:
            raise SystemExit("the first utterance keeps every frame; nothing can fall back")
        tokens[0] = [1 + i % 2 for i in range(probe.output_len + 1)]
    named = model.named_parameters(params)
    for _, p in named:
        p.zero_grad()
    rng = np.random.default_rng(5)
    with ad.tape() as tp:
        trace = model.forward_batch(feats, params, cfg.model, cfg.loss, targets=tokens,
                                    dropout_rng=rng)
        loss = model.total_loss(trace, tokens, params, cfg.model, cfg.loss, rng)
        tp.backward(loss)
        ops = len(tp)
    h = hashlib.sha256()
    _update(h, loss.data)
    for name, p in named:
        _update(h, name, np.zeros(0) if p.grad is None else p.grad)
    for _, p in named:
        p.zero_grad()
    return h.hexdigest(), float(loss.data), ops, bool(trace.fallbacks[0])


def short_run(directory: Path) -> dict[str, str]:
    spec = synth.SynthSpec(vocab_size=8, utterances=3, tokens_min=1, tokens_max=2,
                           frames_per_token_min=2, frames_per_token_max=3,
                           gap_min=6, gap_max=8, feature_dim=8, noise=0.05, seed=1)
    features, transcripts = synth.write_corpus(spec, directory / "corpus")
    cfg = config.RunConfig(
        model=config.ModelConfig(d_model=8, heads=2, e1_blocks=1, e2_blocks=1,
                                 kernel_e1=3, kernel_e2=3, ffn_multiple=2,
                                 decoder_blocks=1, vocab_size=8, feature_dim=8),
        optimizer=config.OptimizerConfig(peak_lr=1e-3, warmup_steps=5),
        training=config.TrainConfig(epochs=2, batch_size=2, eval_every=1, seed=0))
    out = directory / "run"
    train.train_run(cfg, features, transcripts, out)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("metrics.jsonl", "last.ckpt", "best.ckpt")}


def main() -> int:
    cfg, params = desk_model()
    print(f"decodes {decodes(cfg, params)}")
    for label, lengthen in (("dropout batch", False), ("fallback batch", True)):
        digest, loss, ops, fell_back = training_batch(cfg, params, lengthen)
        print(f"{label} {digest} (loss {loss!r}, {ops} tape ops, "
              f"first utterance fell back: {fell_back})")
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in short_run(Path(tmp)).items():
            print(f"train_run {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
