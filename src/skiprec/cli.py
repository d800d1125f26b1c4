"""Command line interface: gen, train, eval, bench, sweep.

BLAS thread counts are pinned before numpy loads so timing and determinism
hold; every numpy-touching import happens lazily, after the pin.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path


def _pin_threads() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def _add_shared(p: argparse.ArgumentParser, checkpoint: bool = False) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="JSON run config; defaults apply when omitted")
    p.add_argument("--split-mode", type=int, default=argparse.SUPPRESS, choices=range(1, 6),
                   help="override the frame-routing mode (1..5)")
    p.add_argument("--blank-threshold", type=float, default=argparse.SUPPRESS,
                   help="override the blank-confidence cutoff in (0, 1)")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="override the run seed")
    if checkpoint:
        p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None, help="output directory or file")


def _given(args, *names: str) -> dict:
    """The options among ``names`` that the user gave; the library owns each default."""
    return {name: getattr(args, name) for name in names if name in args}


def _load_config(args) -> "RunConfig":
    from .config import RunConfig, load_run_config, validate_run_config
    cfg = load_run_config(args.config) if args.config else RunConfig()
    return validate_run_config(dataclasses.replace(
        cfg, loss=dataclasses.replace(cfg.loss, **_given(args, "split_mode", "blank_threshold")),
        training=dataclasses.replace(cfg.training, **_given(args, "seed"))))


def _load_model(args, cfg):
    from . import fileio, model as model_mod
    params = model_mod.init_model(cfg.training.seed, cfg.model)
    model_mod.load_params_from_tensors(params, fileio.load_checkpoint(args.checkpoint))
    return params


def _cmd_gen(args) -> int:
    from .synth import SynthSpec, write_corpus
    spec = SynthSpec(**_given(args, *(f.name for f in dataclasses.fields(SynthSpec))))
    feats, trans = write_corpus(spec, args.out)
    print(f"wrote {feats} and {trans}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    from .train import train_run
    out = args.out if args.out else Path("run")
    result = train_run(cfg, args.features, args.transcripts, out,
                       resume_path=args.resume,
                       dev_features=args.dev_features,
                       dev_transcripts=args.dev_transcripts,
                       quiet=args.quiet)
    print(f"trained {result.steps} steps; "
          f"best error rate {result.best_error_rate:.4f} -> {result.best_checkpoint}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    params = _load_model(args, cfg)
    from .evaluate import evaluate_corpus
    from .train import load_corpus
    corpus = load_corpus(args.features, args.transcripts, cfg.model.vocab_size)
    report = evaluate_corpus(params, cfg.model, cfg.loss, corpus,
                             force_all_crucial=args.no_skip, **_given(args, "decode", "beam"))
    summary = {
        "error_rate": report.error_rate,
        "edits": report.substitutions_plus,
        "reference_tokens": report.reference_tokens,
        "reduction_mean": report.reduction_mean,
        "crucial_frac_mean": report.crucial_frac_mean,
        "fallback_fraction": report.fallback_fraction,
    }
    print(json.dumps(summary, sort_keys=True))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            for rec in report.utterances:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        print(f"wrote per-utterance traces to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    cfg = _load_config(args)
    params = _load_model(args, cfg)
    from . import model as model_mod
    from .bench import bench_corpus, rows_to_text, rows_to_tsv
    from .frontend import FeatureSequence
    from .train import load_corpus
    corpus = load_corpus(args.features, args.transcripts, cfg.model.vocab_size)
    if args.dtype == "f32":
        # With both parameters and features in float32 every op stays float32.
        import numpy as np
        model_mod.cast_params(params, np.float32)
        corpus = [(FeatureSequence(f.utterance_id, f.frames.astype(np.float32)), tokens)
                  for f, tokens in corpus]
    row = bench_corpus(params, cfg.model, cfg.loss, corpus,
                       time_full_path=not args.encoder_only, **_given(args, "repeats", "beam"))
    print(rows_to_text([row]), end="")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(rows_to_tsv([row]), encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    """``--blocks``: semicolon-separated positive E1,E2 depth pairs."""
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2 or not all(p.strip().isdigit() and int(p) >= 1 for p in parts):
            raise argparse.ArgumentTypeError(
                f"depth pair {chunk!r} is not two positive integers E1,E2")
        pairs.append((int(parts[0]), int(parts[1])))
    return pairs


def _parse_modes(text: str) -> list[int]:
    """``--modes``: comma-separated split modes, each one of 1-5."""
    modes = []
    for chunk in text.split(","):
        if not chunk.strip().isdigit() or int(chunk) not in range(1, 6):
            raise argparse.ArgumentTypeError(f"split mode {chunk!r} is not one of 1-5")
        modes.append(int(chunk))
    return modes


def _count_at_least(low: int, what: str):
    """An argument type: an integer of at least ``low`` (``--beam``, ``--repeats``)."""
    def parse(text: str) -> int:
        if not text.strip().isdigit() or int(text) < low:
            raise argparse.ArgumentTypeError(f"{what} {text!r} is not an integer >= {low}")
        return int(text)
    return parse


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    from .bench import rows_to_text, rows_to_tsv, sweep
    rows = sweep(cfg, args.features, args.transcripts, args.blocks, args.modes,
                 out_dir=args.out, quiet=args.quiet, **_given(args, "repeats"))
    print(rows_to_text(rows), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sweep.tsv").write_text(rows_to_tsv(rows), encoding="utf-8")
        (out / "sweep.txt").write_text(rows_to_text(rows), encoding="utf-8")
        print(f"wrote {out / 'sweep.tsv'} and {out / 'sweep.txt'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .bench import MIN_REPEATS
    beam, repeats = _count_at_least(1, "beam"), _count_at_least(MIN_REPEATS, "repeats")
    parser = argparse.ArgumentParser(
        prog="skiprec",
        description="Frame-skipping encoder harness: corpus generation, "
                    "training, evaluation, and benchmarking.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic corpus",
                       argument_default=argparse.SUPPRESS)   # dests are SynthSpec fields
    g.add_argument("--vocab", dest="vocab_size", type=int)
    g.add_argument("--utterances", type=int)
    g.add_argument("--tokens-min", type=int)
    g.add_argument("--tokens-max", type=int)
    g.add_argument("--frames-min", dest="frames_per_token_min", type=int)
    g.add_argument("--frames-max", dest="frames_per_token_max", type=int)
    g.add_argument("--gap-min", type=int)
    g.add_argument("--gap-max", type=int)
    g.add_argument("--feature-dim", type=int)
    g.add_argument("--noise", type=float)
    g.add_argument("--seed", type=int)
    g.add_argument("--out", type=Path, default=Path("corpus"))
    g.set_defaults(func=_cmd_gen)

    t = sub.add_parser("train", help="train a model on a corpus")
    _add_shared(t)
    t.add_argument("--features", type=Path, required=True)
    t.add_argument("--transcripts", type=Path, required=True)
    t.add_argument("--resume", type=Path, default=None,
                   help="last.ckpt to continue from: the epoch count, batch order and "
                        "dropout seeds go on where it stopped; metrics log is appended")
    t.add_argument("--dev-features", type=Path, default=None)
    t.add_argument("--dev-transcripts", type=Path, default=None)
    t.add_argument("--quiet", action="store_true")
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("eval", help="decode a corpus and report error rate")
    _add_shared(e, checkpoint=True)
    e.add_argument("--features", type=Path, required=True)
    e.add_argument("--transcripts", type=Path, required=True)
    e.add_argument("--decode", choices=("greedy", "rescoring"), default=argparse.SUPPRESS)
    e.add_argument("--beam", type=beam, default=argparse.SUPPRESS)
    e.add_argument("--no-skip", action="store_true",
                   help="route every frame through both encoder stacks")
    e.set_defaults(func=_cmd_eval)

    b = sub.add_parser("bench", help="time the skipping and no-skip paths")
    _add_shared(b, checkpoint=True)
    b.add_argument("--features", type=Path, required=True)
    b.add_argument("--transcripts", type=Path, required=True)
    b.add_argument("--repeats", type=repeats, default=argparse.SUPPRESS)
    b.add_argument("--beam", type=beam, default=argparse.SUPPRESS)
    b.add_argument("--encoder-only", action="store_true",
                   help="skip timing the beam + rescoring path")
    b.add_argument("--dtype", choices=("f64", "f32"), default="f64",
                   help="parameter precision for the timed forward passes")
    b.set_defaults(func=_cmd_bench)

    s = sub.add_parser("sweep", help="train per depth pair and bench every mode")
    _add_shared(s)
    s.add_argument("--features", type=Path, required=True)
    s.add_argument("--transcripts", type=Path, required=True)
    s.add_argument("--blocks", type=_parse_pairs, default="2,2;1,3;3,1",
                   help="semicolon-separated E1,E2 depth pairs, e.g. 2,2;1,3")
    s.add_argument("--modes", type=_parse_modes, default="1,2,3,4,5",
                   help="comma-separated split modes, each one of 1-5")
    s.add_argument("--repeats", type=repeats, default=argparse.SUPPRESS)
    s.add_argument("--quiet", action="store_true")
    s.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    _pin_threads()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
