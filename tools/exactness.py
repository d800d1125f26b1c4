"""Print SHA-256 digests of outputs that a refactor must leave bit-identical.

Run it from the repository root on two trees (for example a change and its
parent) and compare the lines; equal digests mean equal bytes:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python tools/exactness.py [--write]

With ``--write`` it also saves the reference values that
``tests/test_exactness.py`` recomputes to ``tests/exactness_reference.json``:
every discrete output as it is (flags as a string of 0s and 1s, groups as
lists of ints, hypothesis prefixes, rescoring index, tape ops, fallbacks),
every float as it is, and every float array as its norm and one seeded
projection.

It digests:
  * 48 desk decodes: the perfbench fixture model on ``inputs.utterances``
    (seed 1, salt 1), with and without skipping: both grids, the flags, the
    frame groups, the prefix-beam hypotheses (beam 8) and the rescoring;
  * one packed dropout training batch of 8 (seed 1, salt 3, dropout rate
    ``DROPOUT`` and seed 5): the loss and every parameter gradient;
  * the same batch without dropout, where the first utterance's target is
    one token too long for its kept frames, so that utterance falls back;
  * ``metrics.jsonl``, ``last.ckpt`` and ``best.ckpt`` of a short
    ``train_run`` (the acceptance suite's determinism recipe) from a fresh
    initialisation, which also pins the initial weights.

It uses only what ``forward_utterance``, ``forward_batch``, ``total_loss``
and ``train_run`` have returned since packed training, so older trees run it
too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
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
REFERENCE = ROOT / "tests" / "exactness_reference.json"
DECODES = 48
BATCH = 8
BEAM = 8
DROPOUT = 0.1   # the default RunConfig drops nothing
PROJECTION_SEED = 0


def _update(h, *values) -> None:
    for v in values:
        h.update(v.tobytes() if isinstance(v, np.ndarray) else repr(v).encode())


def _ints(idx) -> list[int]:
    return [int(i) for i in idx]


def _tuple_groups(groups):
    """``groups`` with every index container a tuple of ints, the form the digest hashes."""
    sets = groups.sets
    return dataclasses.replace(
        groups,
        sets=dataclasses.replace(sets, **{f.name: tuple(_ints(getattr(sets, f.name)))
                                          for f in dataclasses.fields(sets)}),
        crucial=tuple(_ints(groups.crucial)), trivial=tuple(_ints(groups.trivial)),
        ignoring=tuple(_ints(groups.ignoring)))


def summary(x: np.ndarray) -> list[float]:
    """An array's norm and its dot product with a fixed standard normal vector."""
    x = np.asarray(x, dtype=np.float64).ravel()
    probe = np.random.default_rng(PROJECTION_SEED).standard_normal(x.size)
    return [float(np.linalg.norm(x)), float(probe @ x)]


def desk_model():
    cfg = config.RunConfig()
    params = model.init_model(cfg.training.seed, cfg.model)
    model.load_params_from_tensors(params, fileio.load_checkpoint(FIXTURE))
    return cfg, params


def decodes(cfg, params) -> tuple[str, list[dict]]:
    h = hashlib.sha256()
    values = []
    stream = inputs.utterances(synth.SynthSpec(), 1, 1, "dec")
    for _ in range(DECODES):
        feats = next(stream).feats
        for no_skip in (False, True):
            trace = model.forward_utterance(feats, params, cfg.model, cfg.loss,
                                            force_all_crucial=no_skip)
            hyps = ctc.prefix_beam_search(trace.final_grid, BEAM)
            best, scores = decoder.rescore(trace.h2, hyps, params.decoder, cfg.model.heads)
            g = trace.groups
            _update(h, trace.inter_grid.log_probs.data, trace.final_grid.log_probs.data,
                    np.asarray(trace.flags), _tuple_groups(g), hyps, best, np.asarray(scores))
            values.append({
                "inter_grid": summary(trace.inter_grid.log_probs.data),
                "final_grid": summary(trace.final_grid.log_probs.data),
                "flags": "".join("1" if f else "0" for f in trace.flags),
                "groups": [_ints(g.crucial), _ints(g.trivial), _ints(g.ignoring)],
                "hyps": [[_ints(prefix), float(score)] for prefix, score in hyps],
                "best": int(best),
                "scores": [float(s) for s in scores],
            })
    return h.hexdigest(), values


def training_batch(cfg, params, lengthen_first: bool, dropout: float) -> tuple[str, dict]:
    """Digest and values of one batch at ``dropout``: loss, tape ops, fallback and gradients."""
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, dropout=dropout))
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
    grads = {}
    for name, p in named:
        grad = np.zeros(0) if p.grad is None else p.grad
        _update(h, name, grad)
        grads[name] = summary(grad)
    for _, p in named:
        p.zero_grad()
    return h.hexdigest(), {"loss": float(loss.data), "tape_ops": ops,
                           "fell_back": bool(trace.fallbacks[0]), "grads": grads}


def short_run(directory: Path) -> tuple[dict[str, str], dict[str, list[float]]]:
    """Digests of a short run's files, and the summaries of its ``last.ckpt`` tensors."""
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
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("metrics.jsonl", "last.ckpt", "best.ckpt")}
    tensors = fileio.load_checkpoint(out / "last.ckpt")
    return digests, {name: summary(tensors[name]) for name in sorted(tensors)}


def run_all() -> tuple[list[str], dict]:
    """The digest lines this tool prints and the reference values it writes."""
    cfg, params = desk_model()
    digest, decoded = decodes(cfg, params)
    lines = [f"decodes {digest}"]
    values = {"decodes": decoded}
    for label, lengthen, dropout in (("dropout batch", False, DROPOUT),
                                     ("fallback batch", True, 0.0)):
        digest, batch = training_batch(cfg, params, lengthen, dropout)
        lines.append(f"{label} {digest} (loss {batch['loss']!r}, {batch['tape_ops']} tape ops, "
                     f"first utterance fell back: {batch['fell_back']})")
        values[label.replace(" ", "_")] = batch
    with tempfile.TemporaryDirectory() as tmp:
        digests, values["last_ckpt"] = short_run(Path(tmp))
    lines += [f"train_run {name} {digest}" for name, digest in digests.items()]
    return lines, values


def main(argv: list[str]) -> int:
    lines, values = run_all()
    print("\n".join(lines))
    if "--write" in argv:
        REFERENCE.write_text(json.dumps(values, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
