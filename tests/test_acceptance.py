"""End-to-end acceptance checks.

Ten criteria, one test each, in order. Every test finishes through
``verdict``, which prints a single "criterion NN PASS/FAIL" line (shown for
passing tests via the suite's -rP report setting) before asserting.
"""

import dataclasses
import itertools
import json
import math
import time

import numpy as np
import pytest

from skiprec import autodiff as ad
from skiprec import bench as bench_mod
from skiprec import cli
from skiprec import config as cfgmod
from skiprec import ctc
from skiprec import evaluate as ev
from skiprec import fileio
from skiprec import model as model_mod
from skiprec import splitter as sp
from skiprec import synth
from skiprec import train as train_mod
from skiprec.encoder import EncodedSequence
from skiprec.frontend import FeatureSequence

from support import grad_check, zero_residual_branches


def verdict(num: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# Independent oracles
# --------------------------------------------------------------------------

def oracle_sets(flags):
    """Literal reading of the four index-set definitions."""
    n = len(flags)
    c_set = {i for i in range(n) if not flags[i]}
    b_set = {i for i in range(n) if flags[i]}
    left, right = set(), set()
    for c in c_set:
        lower = [b for b in b_set if b < c]
        if lower:
            left.add(max(lower))
        upper = [b for b in b_set if b > c]
        if upper:
            right.add(min(upper))
    return c_set, b_set, left, right


def oracle_groups(flags, mode):
    c_set, b_set, left, right = oracle_sets(flags)
    if mode == 1:
        parts = (c_set, b_set, set())
    elif mode == 2:
        parts = (c_set, right, b_set - right)
    elif mode == 3:
        parts = (c_set | right, set(), b_set - right)
    elif mode == 4:
        parts = (left | c_set, set(), b_set - left)
    else:
        parts = (left | c_set | right, set(), b_set - right - left)
    return tuple(tuple(sorted(p)) for p in parts)


def collapse(path):
    out = []
    prev = -1
    for cls in path:
        if cls != prev and cls != 0:
            out.append(int(cls))
        prev = cls
    return tuple(out)


_BUCKETS: dict = {}


def path_buckets(n_frames, vocab):
    """All frame paths for (L, V), grouped by their collapsed label sequence."""
    key = (n_frames, vocab)
    if key not in _BUCKETS:
        paths = np.array(list(itertools.product(range(vocab), repeat=n_frames)),
                         dtype=np.int64).reshape(-1, n_frames)
        ids: dict = {}
        bucket = np.empty(paths.shape[0], dtype=np.int64)
        for i in range(paths.shape[0]):
            bucket[i] = ids.setdefault(collapse(paths[i]), len(ids))
        _BUCKETS[key] = (paths, bucket, ids)
    return _BUCKETS[key]


def logsumexp(values):
    m = float(np.max(values))
    return m + math.log(float(np.sum(np.exp(values - m))))


def log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def oracle_ctc_nll(lp, tokens):
    n_frames, vocab = lp.shape
    paths, bucket, ids = path_buckets(n_frames, vocab)
    key = tuple(tokens)
    assert key in ids, "target not reachable despite feasibility check"
    scores = lp[np.arange(n_frames)[None, :], paths].sum(axis=1)
    return -logsumexp(scores[bucket == ids[key]])


def gap_threshold(params, feats, cfg):
    """A blank cutoff centered in the widest posterior gap, so tiny parameter
    perturbations cannot flip any frame's flag; falls back to a far-away
    cutoff when the posteriors leave no usable gap."""
    trace = model_mod.forward_utterance(feats, params, cfg,
                                        cfgmod.LossConfig(blank_threshold=0.5))
    post = np.sort(np.exp(trace.inter_grid.log_probs.data[:, 0]))
    if post.size >= 2:
        gaps = np.diff(post)
        i = int(np.argmax(gaps))
        if gaps[i] >= 2e-3:
            beta = (post[i] + post[i + 1]) / 2
            return float(min(max(beta, 1e-6), 1 - 1e-6))
    return 0.99


TOY = cfgmod.ModelConfig(d_model=8, heads=2, e1_blocks=1, e2_blocks=1,
                         kernel_e1=3, kernel_e2=3, ffn_multiple=2,
                         decoder_blocks=1, vocab_size=5, feature_dim=8)


# --------------------------------------------------------------------------
# Criteria
# --------------------------------------------------------------------------

def test_criterion_01_split_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    mismatches = 0

    def check(flags):
        nonlocal checked, mismatches
        sets = sp.compute_sets(flags)
        c_set, b_set, left, right = oracle_sets(flags)
        if (set(sets.non_blank) != c_set or set(sets.blank) != b_set
                or set(sets.left_adjacent) != left or set(sets.right_adjacent) != right):
            mismatches += 1
        for mode in range(1, 6):
            g = sp.assign_groups(sets, mode)
            groups = (tuple(g.crucial.tolist()), tuple(g.trivial.tolist()),
                      tuple(g.ignoring.tolist()))
            if groups != oracle_groups(flags, mode):
                mismatches += 1
            checked += 1

    for length in range(13):
        for bits in range(1 << length):
            check(np.array([(bits >> i) & 1 == 1 for i in range(length)]))
    rng = np.random.default_rng(1)
    for _ in range(40):
        length = int(rng.integers(13, 49))
        check(rng.random(length) < rng.random())

    elapsed = time.perf_counter() - t0
    verdict(1, mismatches == 0 and elapsed < 10.0,
            f"{checked} vector-mode pairs, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_02_partition_invariant():
    rng = np.random.default_rng(2)
    violations = 0
    n_vectors = 100_000
    lengths = rng.integers(0, 21, size=n_vectors)
    for length in lengths:
        flags = rng.random(length) < rng.random()
        sets = sp.compute_sets(flags)
        full = set(range(int(length)))
        for mode in range(1, 6):
            g = sp.assign_groups(sets, mode)
            merged = g.crucial.tolist() + g.trivial.tolist() + g.ignoring.tolist()
            if len(merged) != length or set(merged) != full:
                violations += 1
    verdict(2, violations == 0,
            f"{n_vectors} vectors x 5 modes, {violations} violations")


def test_criterion_03_ctc_loss_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        n_frames = int(rng.integers(1, 7))
        vocab = int(rng.integers(2, 5))
        lp = log_softmax(rng.normal(size=(n_frames, vocab)))
        tokens = [1]
        for _ in range(20):
            cand = [int(t) for t in rng.integers(1, vocab, size=rng.integers(0, n_frames + 1))]
            repeats = sum(1 for a, b in zip(cand, cand[1:]) if a == b)
            if len(cand) + repeats <= n_frames:
                tokens = cand
                break
        ours = float(ctc.ctc_loss(ctc.PosteriorGrid(ad.Tensor(lp)), [tokens], [n_frames]).data)
        worst = max(worst, abs(ours - oracle_ctc_nll(lp, tokens)))
    verdict(3, worst <= 1e-6, f"1000 grids, max |diff| {worst:.2e}")


def test_criterion_04_prefix_beam_exactness():
    rng = np.random.default_rng(4)
    wrong = 0
    for _ in range(200):
        n_frames = int(rng.integers(1, 6))
        vocab = int(rng.integers(2, 4))
        lp = log_softmax(rng.normal(size=(n_frames, vocab)))
        paths, bucket, ids = path_buckets(n_frames, vocab)
        scores = lp[np.arange(n_frames)[None, :], paths].sum(axis=1)
        best_seq, best_val = None, -np.inf
        for seq, b in ids.items():
            val = logsumexp(scores[bucket == b])
            if val > best_val:
                best_seq, best_val = seq, val
        results = ctc.prefix_beam_search(ctc.PosteriorGrid(ad.Tensor(lp)),
                                         beam=vocab ** n_frames)
        if results[0][0] != best_seq:
            wrong += 1
    verdict(4, wrong == 0, f"200 grids at exhaustive beam, {wrong} top-1 mismatches")


def test_criterion_05_gradient_correctness():
    reference = model_mod.named_parameters(model_mod.init_model(0, TOY))
    names = [name for name, _ in reference]
    order = np.random.default_rng(123).permutation(len(names))
    chunk = -(-len(names) // 20)
    slices = [[names[i] for i in order[k * chunk:(k + 1) * chunk]] for k in range(20)]
    assert set().union(*map(set, slices)) == set(names)

    worst = 0.0
    for seed in range(20):
        params = model_mod.init_model(seed, TOY)
        by_name = dict(model_mod.named_parameters(params))
        feats = FeatureSequence("toy", np.random.default_rng(1000 + seed).normal(size=(12, 8)))
        beta = gap_threshold(params, feats, TOY)
        loss_cfg = cfgmod.LossConfig(blank_threshold=beta, split_mode=2)
        target = [1, 3]

        def loss(*_):
            trace = model_mod.forward_utterance(feats, params, TOY, loss_cfg,
                                                target=target)
            return model_mod.total_loss(trace, [target], params, TOY, loss_cfg)

        tensors = [by_name[nm].value for nm in slices[seed] if nm]
        err = grad_check(loss, tensors)
        worst = max(worst, err)
    verdict(5, worst <= 1e-4,
            f"20 seeds, all {len(names)} tensors covered, max rel err {worst:.2e}")


def test_criterion_06_recover_contract_and_identity_stage():
    rng = np.random.default_rng(6)
    merge_ok = True
    for _ in range(200):
        universe = int(rng.integers(1, 41))
        m = int(rng.integers(0, universe + 1))
        subset = np.sort(rng.choice(universe, size=m, replace=False)).astype(np.int64)
        side = rng.random(m) < 0.5
        src = rng.normal(size=(universe, 5))
        a_idx, b_idx = subset[side], subset[~side]
        a = EncodedSequence(frames=ad.Tensor(src[a_idx]), orig_index=a_idx)
        b = EncodedSequence(frames=ad.Tensor(src[b_idx]), orig_index=b_idx)
        merged = model_mod.recover(a, b)
        if not (np.all(np.diff(merged.orig_index) > 0)
                and np.array_equal(merged.orig_index, subset)
                and np.array_equal(merged.frames.data, src[subset])):
            merge_ok = False

    identity_ok = True
    for seed in range(3):
        params = model_mod.init_model(seed, TOY)
        for block in params.e2:
            zero_residual_branches(block)
        feats = FeatureSequence("u", np.random.default_rng(60 + seed).normal(size=(35, 8)))
        beta = gap_threshold(params, feats, TOY)
        for mode in range(1, 6):
            trace = model_mod.forward_utterance(
                feats, params, TOY, cfgmod.LossConfig(blank_threshold=beta, split_mode=mode))
            kept = np.sort(np.concatenate([trace.groups.crucial, trace.groups.trivial]))
            if not (np.array_equal(trace.h2.orig_index, kept)
                    and np.array_equal(trace.h2.frames.data, trace.h1.frames.data[kept])):
                identity_ok = False

    verdict(6, merge_ok and identity_ok,
            f"200 merges ok={merge_ok}, identity second stage ok={identity_ok}")


def test_criterion_07_length_reduction_reproduction(tmp_path):
    spec = synth.SynthSpec()
    twin = dataclasses.replace(spec, noise=0.0)
    _, silence = synth.prototypes(twin)
    total = gap_frames = 0
    for _, frames, _ in synth.generate(twin):
        total += frames.shape[0]
        gap_frames += int((frames == silence).all(axis=1).sum())
    gap_fraction = gap_frames / total

    features, transcripts = synth.write_corpus(spec, tmp_path / "corpus")
    cfg = cfgmod.RunConfig()
    t0 = time.perf_counter()
    result = train_mod.train_run(cfg, features, transcripts, tmp_path / "run")
    train_seconds = time.perf_counter() - t0

    params = model_mod.init_model(cfg.training.seed, cfg.model)
    model_mod.load_params_from_tensors(params,
                                       fileio.load_checkpoint(result.last_checkpoint))
    corpus = train_mod.load_corpus(features, transcripts, cfg.model)
    report = ev.evaluate_corpus(params, cfg.model, cfg.loss, corpus)

    traces_path = tmp_path / "traces.jsonl"
    with open(traces_path, "w", encoding="utf-8") as fh:
        for rec in report.utterances:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    loaded = [json.loads(line) for line in traces_path.read_text().splitlines()]
    recomputed = float(np.mean([r["input_frames"] / r["output_frames"] for r in loaded]))

    checks = {
        "gap fraction >= 0.6": gap_fraction >= 0.6,
        "token error <= 5%": report.error_rate <= 0.05,
        "reduction >= 8": report.reduction_mean >= 8.0,
        "trace recompute exact": recomputed == report.reduction_mean,
        "budget <= 600s": train_seconds <= 600.0,
    }
    verdict(7, all(checks.values()),
            f"gaps={gap_fraction:.2f} ter={report.error_rate:.3f} "
            f"reduction={report.reduction_mean:.2f} train={train_seconds:.0f}s "
            f"failed={[k for k, v in checks.items() if not v]}")


def test_criterion_08_speedup_direction(tmp_path):
    spec = synth.SynthSpec(utterances=6, tokens_min=38, tokens_max=42,
                           frames_per_token_min=6, frames_per_token_max=10,
                           gap_min=24, gap_max=28, seed=11)
    features, transcripts = synth.write_corpus(spec, tmp_path / "corpus")
    cfg = cfgmod.RunConfig(
        model=cfgmod.ModelConfig(d_model=32, heads=2, e1_blocks=2, e2_blocks=1,
                                 kernel_e1=7, kernel_e2=3, ffn_multiple=2,
                                 decoder_blocks=1, vocab_size=20, feature_dim=16),
        loss=cfgmod.LossConfig(ctc_weight=1.0, blank_threshold=0.5),
        optimizer=cfgmod.OptimizerConfig(peak_lr=2e-3, warmup_steps=15),
        training=cfgmod.TrainConfig(epochs=50, batch_size=2, eval_every=50, seed=0))
    result = train_mod.train_run(cfg, features, transcripts, tmp_path / "run")
    params = model_mod.init_model(cfg.training.seed, cfg.model)
    model_mod.load_params_from_tensors(params,
                                       fileio.load_checkpoint(result.last_checkpoint))
    corpus = train_mod.load_corpus(features, transcripts, cfg.model)
    row = bench_mod.bench_corpus(params, cfg.model, cfg.loss, corpus,
                                 repeats=3, time_full_path=False)
    checks = {
        "long utterances": row.mean_subsampled >= 256,
        "crucial fraction <= 0.5": row.mean_crucial_frac <= 0.5,
        "skip strictly faster": row.encoder_ms_skip < row.encoder_ms_noskip,
        "within 2x of analytic": 0.5 <= row.agreement <= 2.0,
    }
    verdict(8, all(checks.values()),
            f"T={row.mean_subsampled:.0f} crucial={row.mean_crucial_frac:.3f} "
            f"measured={row.measured_speedup:.2f} analytic={row.analytic_speedup:.2f} "
            f"agreement={row.agreement:.2f} "
            f"failed={[k for k, v in checks.items() if not v]}")


def test_criterion_09_ablation_sweep(tmp_path):
    spec = synth.SynthSpec(vocab_size=12, utterances=4, tokens_min=10, tokens_max=12,
                           frames_per_token_min=6, frames_per_token_max=10,
                           gap_min=24, gap_max=28, feature_dim=16, seed=5)
    features, transcripts = synth.write_corpus(spec, tmp_path / "corpus")
    cfg = cfgmod.RunConfig(
        model=cfgmod.ModelConfig(d_model=32, heads=2, e1_blocks=2, e2_blocks=2,
                                 kernel_e1=7, kernel_e2=3, ffn_multiple=2,
                                 decoder_blocks=1, vocab_size=12, feature_dim=16),
        loss=cfgmod.LossConfig(ctc_weight=1.0, blank_threshold=0.5),
        optimizer=cfgmod.OptimizerConfig(peak_lr=2e-3, warmup_steps=15),
        training=cfgmod.TrainConfig(epochs=80, batch_size=2, eval_every=80, seed=0))
    rows = bench_mod.sweep(cfg, features, transcripts,
                           [(2, 2), (1, 3), (3, 1)], [1, 2, 3, 4, 5],
                           repeats=3, out_dir=tmp_path / "sweep")
    table = bench_mod.rows_to_tsv(rows)

    checks = {"15 rows": len(rows) == 15,
              "table emitted": len(table.strip().split("\n")) == 16}
    fracs = []
    for pair in ((2, 2), (1, 3), (3, 1)):
        by_mode = {r.mode: r for r in rows
                   if (r.e1_blocks, r.e2_blocks) == pair}
        checks[f"{pair} all modes"] = sorted(by_mode) == [1, 2, 3, 4, 5]
        checks[f"{pair} mode2 <= mode1 output"] = (
            by_mode[2].mean_output_len <= by_mode[1].mean_output_len + 1e-9)
        checks[f"{pair} mode1 keeps everything"] = (
            by_mode[1].mean_output_len == pytest.approx(by_mode[1].mean_subsampled))
        checks[f"{pair} mode3 <= mode5 crucial"] = (
            by_mode[3].mean_crucial_frac <= by_mode[5].mean_crucial_frac + 1e-9)
        checks[f"{pair} mode4 <= mode5 crucial"] = (
            by_mode[4].mean_crucial_frac <= by_mode[5].mean_crucial_frac + 1e-9)
        fracs.append(round(by_mode[2].mean_crucial_frac, 3))
    verdict(9, all(checks.values()),
            f"mode2 crucial fractions per pair {fracs} "
            f"failed={[k for k, v in checks.items() if not v]}")


def test_criterion_10_training_determinism(tmp_path):
    spec = synth.SynthSpec(vocab_size=8, utterances=3, tokens_min=1, tokens_max=2,
                           frames_per_token_min=2, frames_per_token_max=3,
                           gap_min=6, gap_max=8, feature_dim=8, noise=0.05, seed=1)
    features, transcripts = synth.write_corpus(spec, tmp_path / "corpus")
    cfg = cfgmod.RunConfig(
        model=cfgmod.ModelConfig(d_model=8, heads=2, e1_blocks=1, e2_blocks=1,
                                 kernel_e1=3, kernel_e2=3, ffn_multiple=2,
                                 decoder_blocks=1, vocab_size=8, feature_dim=8),
        optimizer=cfgmod.OptimizerConfig(peak_lr=1e-3, warmup_steps=5),
        training=cfgmod.TrainConfig(epochs=2, batch_size=2, eval_every=1, seed=0))
    cfg_path = tmp_path / "run.json"
    cfgmod.save_run_config(cfg, cfg_path)

    for run in ("a", "b"):
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--features", str(features),
                       "--transcripts", str(transcripts),
                       "--out", str(tmp_path / run), "--quiet"])
        assert rc == 0
    same_metrics = ((tmp_path / "a" / "metrics.jsonl").read_bytes()
                    == (tmp_path / "b" / "metrics.jsonl").read_bytes())
    same_weights = ((tmp_path / "a" / "last.ckpt").read_bytes()
                    == (tmp_path / "b" / "last.ckpt").read_bytes())
    verdict(10, same_metrics and same_weights,
            f"metrics identical={same_metrics}, checkpoints identical={same_weights}")
