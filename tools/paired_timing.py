"""Time two source trees against each other in one process, for sizing a change.

Between processes the same code can drift by 5-10%, which hides smaller
effects. This script loads ``src/skiprec`` of two trees into one process
under distinct package names, builds each tree's model from the same
tensors, and runs the two through ``evaluate_corpus`` on the same utterances,
alternating which goes first. It prints each tree's median time per
operation, the median per-operation ratio (second tree / first) and the
share of operations the second tree won. Use it to size a change before
measuring it; a claim still comes from ``perfbench/run.py``.

    python tools/paired_timing.py BASE_TREE [CHANGE_TREE] \\
        [--workload desk-decode|long-encode] [--ops N] [--seed S]

CHANGE_TREE defaults to this checkout; a tree is any directory holding
``src/skiprec``, such as a ``git archive`` of another commit. The workloads
take their fixture, utterance spec and probe settings from
``perfbench/workloads.py``: desk-decode decodes held-out utterances with the
perfbench fixture model (prefix beam 8 plus rescoring); long-encode runs the
``m5n7`` preset, its blank probe fitted once in the first tree and copied
into both, on ~1000-frame utterances with greedy decoding. Files under
``perfbench/`` are only read.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

# BLAS is pinned to one thread before numpy loads, as in perfbench.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
MODULES = ("config", "ctc", "encoder", "evaluate", "fileio", "frontend", "model", "synth",
           "train")
WARMUP_OPS = 3


def load_tree(tree: Path, name: str):
    """``tree/src/skiprec`` imported as package ``name``, with the modules used here."""
    pkg_dir = tree / "src" / "skiprec"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for mod in MODULES:
        setattr(pkg, mod, importlib.import_module(f"{name}.{mod}"))
    return pkg


def import_workloads(pkg):
    """perfbench's ``workloads`` module, its ``skiprec`` imports bound to ``pkg``."""
    aliases = {"skiprec" + key[len(pkg.__name__):]: mod for key, mod in sys.modules.items()
               if key == pkg.__name__ or key.startswith(pkg.__name__ + ".")}
    sys.modules.update(aliases)
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        for key in aliases:
            del sys.modules[key]


def workload(name: str, base, wl, seed: int):
    """(model config, loss config, shared tensors, utterance stream, decode kwargs)."""
    inputs = wl.inputs
    if name == "desk-decode":
        cfg = base.config.RunConfig()
        _, tensors = wl.load_fixture()
        stream = inputs.utterances(base.synth.SynthSpec(), seed, 1, "dec")
        return cfg.model, cfg.loss, tensors, stream, {"decode": "rescoring", "beam": 8}
    # As perfbench/workloads.LongEncode.
    model_cfg = base.config.full_scale_presets()["m5n7"]
    loss_cfg = base.config.LossConfig()
    params = base.model.init_model(0, model_cfg)
    probe = inputs.utterances(wl.LONG_SPEC, wl.PROBE_SEED, 0, "probe")
    inputs.fit_blank_probe(params, model_cfg.heads, loss_cfg.blank_threshold,
                           [next(probe) for _ in range(wl.PROBE_UTTERANCES)])
    tensors = base.model.checkpoint_tensors(params)
    return model_cfg, loss_cfg, tensors, inputs.utterances(wl.LONG_SPEC, seed, 2, "long"), \
        {"decode": "greedy"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path, help="first tree (the baseline)")
    ap.add_argument("change", type=Path, nargs="?", default=ROOT,
                    help="second tree (default: this checkout)")
    ap.add_argument("--workload", choices=("desk-decode", "long-encode"), default="desk-decode")
    ap.add_argument("--ops", type=int, default=200, help="timed operations per tree")
    ap.add_argument("--seed", type=int, default=1, help="utterance stream seed")
    args = ap.parse_args(argv)

    trees = [load_tree(args.base.resolve(), "skiprec_base"),
             load_tree(args.change.resolve(), "skiprec_change")]
    wl = import_workloads(trees[0])
    model_cfg, loss_cfg, tensors, stream, decode = workload(args.workload, trees[0], wl,
                                                            args.seed)
    models = []
    for pkg in trees:
        params = pkg.model.init_model(0, model_cfg)
        pkg.model.load_params_from_tensors(params, tensors)
        models.append(params)
    del tensors

    times: list[list[float]] = [[], []]
    for i in range(WARMUP_OPS + args.ops):
        utt = next(stream)
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for k in order:
            pkg = trees[k]
            corpus = [(pkg.frontend.FeatureSequence(utt.feats.utterance_id, utt.feats.frames),
                       utt.tokens)]
            t0 = time.perf_counter()
            pkg.evaluate.evaluate_corpus(models[k], model_cfg, loss_cfg, corpus, **decode)
            if i >= WARMUP_OPS:
                times[k].append(time.perf_counter() - t0)

    ratios = [b / a for a, b in zip(*times)]
    won = sum(b < a for a, b in zip(*times)) / len(ratios)
    print(f"workload {args.workload}, {args.ops} operations per tree, seed {args.seed}")
    for label, tree, ts in (("base", args.base, times[0]), ("change", args.change, times[1])):
        print(f"  {label:6s} {statistics.median(ts) * 1e3:9.3f} ms median  ({tree})")
    q = statistics.quantiles(ratios, n=4)
    print(f"  per-operation ratio change/base: median {statistics.median(ratios):.4f} "
          f"(quartiles {q[0]:.4f}-{q[2]:.4f})")
    print(f"  change faster in {won:.1%} of operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
