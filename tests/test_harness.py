"""Tests for the training loop, evaluation, benchmarking, and the CLI."""

import dataclasses
import functools
import inspect
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from skiprec import autodiff as ad
from skiprec import bench as bench_mod
from skiprec import cli
from skiprec import config as cfgmod
from skiprec import evaluate as ev
from skiprec import fileio, model as model_mod, synth, train as train_mod
from skiprec.errors import ConfigError, NumericError, ParameterError

from support import tensor

TINY_SPEC = synth.SynthSpec(vocab_size=6, utterances=3,
                            tokens_min=1, tokens_max=2,
                            frames_per_token_min=2, frames_per_token_max=3,
                            gap_min=6, gap_max=8,
                            feature_dim=8, noise=0.05, seed=1)

TINY_CFG = cfgmod.RunConfig(
    model=cfgmod.ModelConfig(d_model=8, heads=2, e1_blocks=1, e2_blocks=1,
                             kernel_e1=3, kernel_e2=3, ffn_multiple=2,
                             decoder_blocks=1, vocab_size=6, feature_dim=8),
    optimizer=cfgmod.OptimizerConfig(peak_lr=1e-3, warmup_steps=5),
    training=cfgmod.TrainConfig(epochs=2, batch_size=2, eval_every=1, seed=0))


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    fp, tp = synth.write_corpus(TINY_SPEC, out)
    return fp, tp


@pytest.fixture(scope="module")
def tiny_model(tiny_corpus, tmp_path_factory):
    fp, tp = tiny_corpus
    out = tmp_path_factory.mktemp("run")
    result = train_mod.train_run(TINY_CFG, fp, tp, out)
    params = model_mod.init_model(TINY_CFG.training.seed, TINY_CFG.model)
    model_mod.load_params_from_tensors(params, fileio.load_checkpoint(result.last_checkpoint))
    corpus = train_mod.load_corpus(fp, tp, TINY_CFG.model)
    return params, corpus, result


class TestLearningRate:
    def test_linear_warmup(self):
        assert train_mod.learning_rate(250, 1e-3, 500) == pytest.approx(5e-4)
        assert train_mod.learning_rate(500, 1e-3, 500) == pytest.approx(1e-3)

    def test_inverse_sqrt_decay(self):
        assert train_mod.learning_rate(2000, 1e-3, 500) == pytest.approx(5e-4)

    def test_peak_sits_at_warmup_boundary(self):
        values = [train_mod.learning_rate(s, 1e-3, 100) for s in range(1, 400)]
        assert int(np.argmax(values)) + 1 == 100
        assert values[:99] == sorted(values[:99])
        assert values[99:] == sorted(values[99:], reverse=True)


class TestEditDistance:
    @pytest.mark.parametrize("ref,hyp,want", [
        ([], [], 0),
        ([1, 2], [1, 2], 0),
        ([1, 2, 3], [2, 2, 3], 1),
        ([1, 2, 3], [1, 3], 1),
        ([1, 3], [1, 2, 3], 1),
        ([], [4, 5], 2),
        ([4, 5], [], 2),
        ([1, 2, 3, 4], [4, 3, 2, 1], 4),
    ])
    def test_known_cases(self, ref, hyp, want):
        assert ev.edit_distance(ref, hyp) == want

    def test_matches_recursive_oracle(self):
        @functools.lru_cache(maxsize=None)
        def oracle(a, b):
            if not a:
                return len(b)
            if not b:
                return len(a)
            return min(oracle(a[1:], b) + 1,
                       oracle(a, b[1:]) + 1,
                       oracle(a[1:], b[1:]) + (a[0] != b[0]))

        rng = np.random.default_rng(0)
        for _ in range(200):
            ref = tuple(rng.integers(1, 4, size=rng.integers(0, 7)).tolist())
            hyp = tuple(rng.integers(1, 4, size=rng.integers(0, 7)).tolist())
            assert ev.edit_distance(list(ref), list(hyp)) == oracle(ref, hyp)

    def test_symmetry_and_triangle_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = list(rng.integers(1, 5, size=rng.integers(0, 6)))
            b = list(rng.integers(1, 5, size=rng.integers(0, 6)))
            d = ev.edit_distance(a, b)
            assert d == ev.edit_distance(b, a)
            assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


class TestLoadCorpus:
    def test_pairs_features_with_transcripts(self, tiny_corpus):
        fp, tp = tiny_corpus
        corpus = train_mod.load_corpus(fp, tp, TINY_CFG.model)
        assert len(corpus) == 3
        for feats, tokens in corpus:
            assert feats.frames.shape[1] == 8
            assert all(1 <= t < 6 for t in tokens)

    def test_missing_transcript_rejected(self, tmp_path):
        fileio.write_features(tmp_path / "f.bin", [("a", np.zeros((4, 8)))])
        fileio.write_transcripts(tmp_path / "t.tsv", [("b", [1])])
        with pytest.raises(ConfigError):
            train_mod.load_corpus(tmp_path / "f.bin", tmp_path / "t.tsv", TINY_CFG.model)

    def test_out_of_vocab_token_rejected(self, tmp_path):
        fileio.write_features(tmp_path / "f.bin", [("a", np.zeros((4, 8)))])
        fileio.write_transcripts(tmp_path / "t.tsv", [("a", [9])])
        with pytest.raises(ConfigError, match="outside vocab of size 6"):
            train_mod.load_corpus(tmp_path / "f.bin", tmp_path / "t.tsv", TINY_CFG.model)

    def test_wrong_feature_width_rejected(self, tmp_path):
        fileio.write_features(tmp_path / "f.bin", [("a", np.zeros((4, 8))),
                                                   ("b", np.zeros((4, 20)))])
        fileio.write_transcripts(tmp_path / "t.tsv", [("a", [1]), ("b", [2])])
        with pytest.raises(ConfigError, match=r"'b' has 20-dim .* feature_dim 8"):
            train_mod.load_corpus(tmp_path / "f.bin", tmp_path / "t.tsv", TINY_CFG.model)

    @pytest.mark.parametrize("dev", [False, True])
    def test_train_run_checks_its_corpora_before_making_its_directory(self, tiny_corpus,
                                                                      tmp_path, dev):
        fp, tp = tiny_corpus
        fileio.write_features(tmp_path / "f.bin", [("a", np.zeros((40, 20)))])
        fileio.write_transcripts(tmp_path / "t.tsv", [("a", [1, 2])])
        wide = (tmp_path / "f.bin", tmp_path / "t.tsv")
        train, dev_set = ((fp, tp), wide) if dev else (wide, (None, None))
        with pytest.raises(ConfigError, match="20-dim"):
            train_mod.train_run(TINY_CFG, *train, tmp_path / "run",
                                dev_features=dev_set[0], dev_transcripts=dev_set[1])
        assert not (tmp_path / "run").exists()


class TestTrainRun:
    def test_zero_epochs_evaluates_and_checkpoints(self, tiny_corpus, tmp_path):
        fp, tp = tiny_corpus
        cfg = cfgmod.RunConfig(model=TINY_CFG.model,
                               training=cfgmod.TrainConfig(epochs=0, seed=0))
        result = train_mod.train_run(cfg, fp, tp, tmp_path / "run0")
        assert result.steps == 0
        assert result.last_checkpoint.exists()
        assert result.best_checkpoint.exists()
        records = [json.loads(line) for line in
                   result.metrics_path.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["step"] == 0 and records[0]["epoch"] == 0

    def test_zero_epochs_saves_zero_moments(self, tiny_corpus, tmp_path):
        fp, tp = tiny_corpus
        cfg = cfgmod.RunConfig(model=TINY_CFG.model,
                               training=cfgmod.TrainConfig(epochs=0, seed=0))
        result = train_mod.train_run(cfg, fp, tp, tmp_path / "run0")
        tensors = fileio.load_checkpoint(result.last_checkpoint)
        params = model_mod.init_model(0, cfg.model)
        for name, p in model_mod.named_parameters(params):
            for key in (".m1", ".m2"):
                m = tensors[name + key]
                assert m.dtype == np.float64 and m.shape == p.value.data.shape
                assert not m.any()

    def test_an_empty_transcript_trains(self, tmp_path):
        # The CTC loss, the fallback test and the decoder all score an empty
        # target; the decoder's loss is then its end-of-sequence term alone.
        utts = synth.generate(dataclasses.replace(TINY_SPEC, utterances=2))
        fp, tp = tmp_path / "f.bin", tmp_path / "t.tsv"
        fileio.write_features(fp, [(uid, frames) for uid, frames, _ in utts])
        fileio.write_transcripts(tp, [(utts[0][0], []), (utts[1][0], utts[1][2])])
        result = train_mod.train_run(TINY_CFG, fp, tp, tmp_path / "run")
        records = [json.loads(line) for line in result.metrics_path.read_text().splitlines()]
        assert result.steps == 2   # 2 epochs of one batch
        assert all(np.isfinite(r["loss_dec_final"]) for r in records)

    @pytest.mark.parametrize("half", ["dev_features", "dev_transcripts"])
    def test_a_dev_set_without_its_other_half_is_rejected_before_any_read(
            self, tiny_corpus, tmp_path, monkeypatch, half):
        fp, tp = tiny_corpus

        def no_read(*_):
            raise AssertionError("a file was read")

        monkeypatch.setattr(fileio, "read_features", no_read)
        monkeypatch.setattr(fileio, "read_transcripts", no_read)
        given = {"dev_features": fp, "dev_transcripts": tp}
        with pytest.raises(ConfigError, match="both its features and its transcripts"):
            train_mod.train_run(TINY_CFG, fp, tp, tmp_path / "run", **{half: given[half]})
        assert not (tmp_path / "run").exists()

    def test_metrics_log_structure(self, tiny_model):
        _, _, result = tiny_model
        records = [json.loads(line) for line in
                   result.metrics_path.read_text().splitlines()]
        assert len(records) == TINY_CFG.training.epochs  # eval_every = 1
        for rec in records:
            for key in ("step", "epoch", "lr", "error_rate", "reduction_mean",
                        "crucial_frac_mean", "fallback_fraction",
                        "loss_ctc_inter", "loss_ctc_final",
                        "loss_dec_inter", "loss_dec_final", "loss_total"):
                assert key in rec, key
        assert [r["epoch"] for r in records] == [1, 2]

    def test_resume_continues_the_step_counter(self, tiny_corpus, tmp_path):
        fp, tp = tiny_corpus
        out = tmp_path / "run"
        first = train_mod.train_run(TINY_CFG, fp, tp, out)
        assert first.steps == 4  # 2 epochs x ceil(3 / 2) batches
        more = train_mod.train_run(
            cfgmod.RunConfig(model=TINY_CFG.model, optimizer=TINY_CFG.optimizer,
                             training=cfgmod.TrainConfig(epochs=1, batch_size=2,
                                                         eval_every=1, seed=0)),
            fp, tp, out, resume_path=first.last_checkpoint)
        assert more.steps == 6
        records = [json.loads(line) for line in
                   more.metrics_path.read_text().splitlines()]
        steps = [r["step"] for r in records]
        assert steps == sorted(steps)
        assert steps[-1] == 6 and len(records) == 3

    def test_resume_equals_an_uninterrupted_run(self, tiny_corpus, tmp_path):
        fp, tp = tiny_corpus

        def cfg(epochs, peak_lr, seed):
            return dataclasses.replace(
                TINY_CFG, model=dataclasses.replace(TINY_CFG.model, dropout=0.3),
                optimizer=dataclasses.replace(TINY_CFG.optimizer, peak_lr=peak_lr),
                training=dataclasses.replace(TINY_CFG.training, epochs=epochs, eval_every=1,
                                             seed=seed))

        # The second run's eval errors go 1.0, 0.75, 1.0, 0.5, 0.5, 0.5: its
        # best model comes at the split and none that follows is better.
        for epochs, split, peak_lr, seed in [(3, 2, 1e-3, 0), (6, 4, 3e-2, 1)]:
            run = tmp_path / f"{epochs}-{split}"
            whole = train_mod.train_run(cfg(epochs, peak_lr, seed), fp, tp, run / "whole")
            first = train_mod.train_run(cfg(split, peak_lr, seed), fp, tp, run / "split")
            more = train_mod.train_run(cfg(epochs - split, peak_lr, seed), fp, tp,
                                       run / "split", resume_path=first.last_checkpoint)
            assert more.steps == whole.steps == 2 * epochs
            want = fileio.load_checkpoint(whole.last_checkpoint)
            got = fileio.load_checkpoint(more.last_checkpoint)
            assert sorted(got) == sorted(want)
            for name, arr in want.items():
                assert np.array_equal(got[name], arr), name
            assert int(got["trainer.epoch"]) == epochs
            records = more.metrics_path.read_text().splitlines()
            assert [json.loads(r)["epoch"] for r in records] == list(range(1, epochs + 1))
            assert records == whole.metrics_path.read_text().splitlines()
            assert more.best_checkpoint.read_bytes() == whole.best_checkpoint.read_bytes()
            assert more.best_error_rate == whole.best_error_rate
            assert float(got["trainer.best_error"]) == whole.best_error_rate

    def test_a_resume_into_a_new_directory_writes_its_own_best_checkpoint(self, tiny_corpus,
                                                                          tmp_path):
        # The saved best error rate is that of the old directory's best.ckpt;
        # a directory without one gets one at its first eval.
        fp, tp = tiny_corpus
        first = train_mod.train_run(TINY_CFG, fp, tp, tmp_path / "a")
        more = train_mod.train_run(TINY_CFG, fp, tp, tmp_path / "b",
                                   resume_path=first.last_checkpoint)
        assert more.best_checkpoint.exists()
        params = model_mod.init_model(TINY_CFG.training.seed, TINY_CFG.model)
        model_mod.load_params_from_tensors(params, fileio.load_checkpoint(more.best_checkpoint))
        corpus = train_mod.load_corpus(fp, tp, TINY_CFG.model)
        report = ev.evaluate_corpus(params, TINY_CFG.model, TINY_CFG.loss, corpus)
        assert report.error_rate == more.best_error_rate

    def test_the_run_directory_records_its_config(self, tiny_model):
        _, _, result = tiny_model
        assert cfgmod.load_run_config(result.metrics_path.parent / "config.json") == TINY_CFG

    def test_each_batch_trains_as_one_packed_forward(self, tiny_corpus, tmp_path,
                                                     monkeypatch):
        fp, tp = tiny_corpus
        calls, backwards = [], []
        forward, backward = model_mod.forward_batch, ad.Tape.backward

        def counting_forward(batch, *args, **kwargs):
            calls.append((len(batch), ad._TAPE is not None))
            return forward(batch, *args, **kwargs)

        def counting_backward(self, root):
            backwards.append(len(calls))
            return backward(self, root)

        monkeypatch.setattr(model_mod, "forward_batch", counting_forward)
        monkeypatch.setattr(ad.Tape, "backward", counting_backward)
        result = train_mod.train_run(TINY_CFG, fp, tp, tmp_path / "run")
        # Per epoch: 3 utterances in batches of 2 and 1 on a tape, each with
        # one backward, then an eval forward per utterance without a tape.
        epoch = [(2, True), (1, True)] + [(1, False)] * 3
        assert result.steps == 4
        assert calls == epoch * 2
        assert backwards == [1, 2, 6, 7]

    def test_identical_runs_write_identical_logs(self, tiny_corpus, tmp_path):
        fp, tp = tiny_corpus
        a = train_mod.train_run(TINY_CFG, fp, tp, tmp_path / "a")
        b = train_mod.train_run(TINY_CFG, fp, tp, tmp_path / "b")
        assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()
        assert (tmp_path / "a" / "last.ckpt").read_bytes() == \
               (tmp_path / "b" / "last.ckpt").read_bytes()

    def test_failed_run_leaves_the_forward_unchanged(self, tiny_corpus, tmp_path,
                                                     monkeypatch):
        fp, tp = tiny_corpus
        cfg = dataclasses.replace(
            TINY_CFG, model=dataclasses.replace(TINY_CFG.model, dropout=0.3))
        params = model_mod.init_model(0, cfg.model)
        feats, _ = train_mod.load_corpus(fp, tp, cfg.model)[0]
        before = model_mod.forward_utterance(feats, params, cfg.model, cfg.loss)

        def full_disk(*_args, **_kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(fileio, "save_checkpoint", full_disk)
        with pytest.raises(OSError):
            train_mod.train_run(cfg, fp, tp, tmp_path / "run")
        after = model_mod.forward_utterance(feats, params, cfg.model, cfg.loss)
        assert np.array_equal(after.final_grid.log_probs.data,
                              before.final_grid.log_probs.data)

    def test_dropout_runs_are_identical_and_evals_run_without_dropout(self, tmp_path):
        spec = dataclasses.replace(TINY_SPEC, vocab_size=8)
        fp, tp = synth.write_corpus(spec, tmp_path / "corpus")
        cfg = dataclasses.replace(TINY_CFG, model=dataclasses.replace(
            TINY_CFG.model, vocab_size=8, dropout=0.3))
        a = train_mod.train_run(cfg, fp, tp, tmp_path / "a")
        b = train_mod.train_run(cfg, fp, tp, tmp_path / "b")
        assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()
        assert a.last_checkpoint.read_bytes() == b.last_checkpoint.read_bytes()
        plain = train_mod.train_run(dataclasses.replace(
            cfg, model=dataclasses.replace(cfg.model, dropout=0.0)), fp, tp, tmp_path / "plain")
        assert plain.last_checkpoint.read_bytes() != a.last_checkpoint.read_bytes()
        params = model_mod.init_model(cfg.training.seed, cfg.model)
        model_mod.load_params_from_tensors(params, fileio.load_checkpoint(a.last_checkpoint))
        corpus = train_mod.load_corpus(fp, tp, cfg.model)
        report = ev.evaluate_corpus(params, cfg.model, cfg.loss, corpus)
        assert a.final_error_rate == report.error_rate


class TestEvaluate:
    def test_greedy_report_fields(self, tiny_model):
        params, corpus, _ = tiny_model
        report = ev.evaluate_corpus(params, TINY_CFG.model, TINY_CFG.loss, corpus)
        assert report.reference_tokens == sum(len(t) for _, t in corpus)
        assert report.error_rate == report.substitutions_plus / report.reference_tokens
        assert len(report.utterances) == 3
        for rec in report.utterances:
            assert rec["output_frames"] <= rec["subsampled_frames"]
            assert rec["edits"] == ev.edit_distance(rec["ref"], rec["hyp"])

    def test_rescoring_path_runs(self, tiny_model):
        params, corpus, _ = tiny_model
        report = ev.evaluate_corpus(params, TINY_CFG.model, TINY_CFG.loss, corpus,
                                    decode="rescoring", beam=3)
        assert len(report.utterances) == 3

    def test_no_skip_keeps_every_frame(self, tiny_model):
        params, corpus, _ = tiny_model
        report = ev.evaluate_corpus(params, TINY_CFG.model, TINY_CFG.loss, corpus,
                                    force_all_crucial=True)
        assert report.crucial_frac_mean == 1.0
        for rec in report.utterances:
            assert rec["output_frames"] == rec["subsampled_frames"]

    def test_unknown_decode_rejected(self, tiny_model):
        params, corpus, _ = tiny_model
        with pytest.raises(ConfigError):
            ev.evaluate_corpus(params, TINY_CFG.model, TINY_CFG.loss, corpus,
                               decode="viterbi")

    def test_vocab_mismatch_rejected(self, tiny_model):
        import dataclasses
        params, corpus, _ = tiny_model
        bigger = dataclasses.replace(TINY_CFG.model, vocab_size=8)
        with pytest.raises(ConfigError):
            ev.evaluate_corpus(params, bigger, TINY_CFG.loss, corpus)

    def test_losses_only_on_request(self, tiny_model):
        params, corpus, _ = tiny_model
        bare = ev.evaluate_corpus(params, TINY_CFG.model, TINY_CFG.loss, corpus)
        full = ev.evaluate_corpus(params, TINY_CFG.model, TINY_CFG.loss, corpus,
                                  compute_losses=True)
        assert bare.loss_means == {}
        assert set(full.loss_means) == {"ctc_inter", "ctc_final",
                                        "dec_inter", "dec_final", "total"}

    def test_every_utterance_falls_back_when_every_frame_reads_blank(self, tiny_corpus):
        # At a blank threshold of 1e-9 an untrained model flags every frame,
        # so no utterance keeps a crucial frame and each bypasses the splitter.
        corpus = train_mod.load_corpus(*tiny_corpus, TINY_CFG.model)
        params = model_mod.init_model(0, TINY_CFG.model)
        report = ev.evaluate_corpus(params, TINY_CFG.model,
                                    cfgmod.LossConfig(blank_threshold=1e-9), corpus)
        assert report.fallback_fraction == 1.0
        assert report.crucial_frac_mean == 1.0
        assert [rec["fallback"] for rec in report.utterances] == [True] * len(corpus)

    def test_losses_reuse_the_decode_forward(self, tiny_model, monkeypatch):
        params, corpus, _ = tiny_model
        calls = []
        forward = model_mod.forward_utterance

        def counting_forward(*args, **kwargs):
            trace = forward(*args, **kwargs)
            calls.append(trace)
            return trace

        monkeypatch.setattr(model_mod, "forward_utterance", counting_forward)
        ev.evaluate_corpus(params, TINY_CFG.model, TINY_CFG.loss, corpus, compute_losses=True)
        assert len(calls) == len(corpus)
        for trace, (_, tokens) in zip(calls, corpus):
            assert not model_mod.too_short_for(tokens, trace.output_len)


class TestBench:
    def test_too_few_repeats_rejected(self, tiny_model):
        params, corpus, _ = tiny_model
        with pytest.raises(ParameterError):
            bench_mod.bench_corpus(params, TINY_CFG.model, TINY_CFG.loss, corpus,
                                   repeats=2)

    def test_empty_corpus_rejected(self, tiny_model):
        params, _, _ = tiny_model
        with pytest.raises(ParameterError):
            bench_mod.bench_corpus(params, TINY_CFG.model, TINY_CFG.loss, [],
                                   repeats=3)

    def test_full_path_defaults_to_the_beam_eval_decodes_with(self):
        # An omitted --beam must time the decode that an omitted eval --beam runs.
        defaults = [inspect.signature(fn).parameters["beam"].default
                    for fn in (bench_mod.bench_corpus, ev.evaluate_corpus)]
        assert defaults[0] == defaults[1]

    def test_untrained_model_skips_nothing(self, tiny_corpus):
        # Blank confidence never clears the default threshold at init, so
        # the skip path degenerates to the no-skip path exactly.
        fp, tp = tiny_corpus
        params = model_mod.init_model(0, TINY_CFG.model)
        corpus = train_mod.load_corpus(fp, tp, TINY_CFG.model)
        row = bench_mod.bench_corpus(params, TINY_CFG.model, TINY_CFG.loss, corpus,
                                     repeats=3, time_full_path=False)
        assert row.mean_crucial_frac == 1.0
        assert row.analytic_cost_ratio == 1.0
        assert row.analytic_speedup == 1.0
        assert 0.5 <= row.measured_speedup <= 2.0

    @pytest.mark.parametrize("loss_cfg", [TINY_CFG.loss, cfgmod.LossConfig(blank_threshold=0.5)],
                             ids=["default", "skipping"])
    def test_statistics_are_those_of_the_greedy_eval_records(self, tiny_model, loss_cfg):
        # At threshold 0.5 the tiny model keeps 1 of 5 frames of one utterance.
        params, corpus, _ = tiny_model
        row = bench_mod.bench_corpus(params, TINY_CFG.model, loss_cfg, corpus,
                                     repeats=3, time_full_path=False)
        report = ev.evaluate_corpus(params, TINY_CFG.model, loss_cfg, corpus)
        records = report.utterances
        assert row.mean_crucial_frac == report.crucial_frac_mean
        assert row.mean_reduction == report.reduction_mean
        assert row.mean_subsampled == np.mean([rec["subsampled_frames"] for rec in records])
        assert row.mean_output_len == np.mean([rec["output_frames"] for rec in records])

    def test_timing_windows_alternate_with_one_batch(self, monkeypatch):
        # On a fake clock "a" takes 1 ms and "b" 50 ms. "a" needs 64 calls to
        # fill a 50 ms window, and "b" runs the same 64 in each of its windows.
        # Each repeat alternates them ALTERNATIONS times, the order reversed
        # every other time.
        clock = [0.0]
        calls = []

        def call(name, seconds):
            calls.append(name)
            clock[0] += seconds

        monkeypatch.setattr(bench_mod.time, "perf_counter", lambda: clock[0])
        times = bench_mod._timed_interleaved(
            [lambda: call("a", 0.001), lambda: call("b", 0.05)], repeats=3)
        assert times == pytest.approx([0.001, 0.05])
        calibration = sum(2 * n for n in (1, 2, 4, 8, 16, 32, 64))
        rounds = (["a"] * 64 + ["b"] * 64, ["b"] * 64 + ["a"] * 64)
        assert calls[calibration:] == [name for k in range(3 * bench_mod.ALTERNATIONS)
                                       for name in rounds[k % 2]]

    def test_row_serialization_shapes(self, tiny_model):
        params, corpus, _ = tiny_model
        row = bench_mod.bench_corpus(params, TINY_CFG.model, TINY_CFG.loss, corpus,
                                     repeats=3, beam=2)
        tsv = bench_mod.rows_to_tsv([row, row])
        lines = tsv.strip().split("\n")
        assert len(lines) == 3
        width = len(lines[0].split("\t"))
        assert all(len(line.split("\t")) == width for line in lines)
        text = bench_mod.rows_to_text([row])
        assert len(text.strip().split("\n")) == 2
        assert row.full_ms_skip == row.full_ms_skip  # timed path produced a number

    def test_sweep_rows_cover_requested_grid(self, tiny_corpus, tmp_path):
        fp, tp = tiny_corpus
        cfg = cfgmod.RunConfig(
            model=TINY_CFG.model, optimizer=TINY_CFG.optimizer,
            training=cfgmod.TrainConfig(epochs=1, batch_size=2, eval_every=1, seed=0))
        rows = bench_mod.sweep(cfg, fp, tp, [(1, 1)], [1, 2], repeats=3,
                               out_dir=tmp_path / "sweep")
        assert [(r.mode, r.e1_blocks, r.e2_blocks) for r in rows] == [(1, 1, 1), (2, 1, 1)]
        for row in rows:
            assert row.mean_subsampled > 0
            assert row.utterances == 3
        assert (tmp_path / "sweep" / "m1n1" / "last.ckpt").exists()

    def test_sweep_without_out_dir_trains_in_a_temporary_directory(self, tiny_corpus,
                                                                    tmp_path, monkeypatch):
        fp, tp = tiny_corpus
        cfg = cfgmod.RunConfig(
            model=TINY_CFG.model, optimizer=TINY_CFG.optimizer,
            training=cfgmod.TrainConfig(epochs=1, batch_size=2, eval_every=1, seed=0))
        run_dirs = []
        train_run = bench_mod.train_run

        def recording_train_run(cfg, features, transcripts, out_dir, **kwargs):
            run_dirs.append(Path(out_dir))
            return train_run(cfg, features, transcripts, out_dir, **kwargs)

        monkeypatch.setattr(bench_mod, "train_run", recording_train_run)
        monkeypatch.chdir(tmp_path)
        rows = bench_mod.sweep(cfg, fp, tp, [(1, 1), (1, 2)], [2], repeats=3)
        assert [(r.mode, r.e1_blocks, r.e2_blocks) for r in rows] == [(2, 1, 1), (2, 1, 2)]
        assert [d.name for d in run_dirs] == ["m1n1", "m1n2"]
        assert run_dirs[0].parent == run_dirs[1].parent
        assert not run_dirs[0].parent.exists()
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    corpus = base / "corpus"
    rc = cli.main(["gen", "--vocab", "6", "--utterances", "3",
                   "--tokens-min", "1", "--tokens-max", "2",
                   "--frames-min", "2", "--frames-max", "3",
                   "--gap-min", "6", "--gap-max", "8",
                   "--feature-dim", "8", "--noise", "0.05",
                   "--seed", "1", "--out", str(corpus)])
    assert rc == 0
    cfg_path = base / "run.json"
    cfgmod.save_run_config(TINY_CFG, cfg_path)
    run_dir = base / "run"
    rc = cli.main(["train", "--config", str(cfg_path),
                   "--features", str(corpus / "features.bin"),
                   "--transcripts", str(corpus / "transcripts.tsv"),
                   "--out", str(run_dir), "--quiet"])
    assert rc == 0
    return base, corpus, cfg_path, run_dir


class TestCli:
    def test_train_artifacts_exist(self, env):
        _, _, _, run_dir = env
        assert (run_dir / "last.ckpt").exists()
        assert (run_dir / "best.ckpt").exists()
        assert (run_dir / "metrics.jsonl").exists()

    def test_eval_prints_summary_and_writes_traces(self, env, capsys):
        base, corpus, cfg_path, run_dir = env
        traces = base / "traces.jsonl"
        rc = cli.main(["eval", "--config", str(cfg_path),
                       "--checkpoint", str(run_dir / "last.ckpt"),
                       "--features", str(corpus / "features.bin"),
                       "--transcripts", str(corpus / "transcripts.tsv"),
                       "--out", str(traces)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[0])
        assert {"error_rate", "edits", "reference_tokens", "reduction_mean",
                "crucial_frac_mean", "fallback_fraction"} <= set(summary)
        lines = traces.read_text().splitlines()
        assert len(lines) == 3
        assert all("hyp" in json.loads(line) for line in lines)

    def test_eval_rescoring_and_no_skip(self, env, capsys):
        base, corpus, cfg_path, run_dir = env
        rc = cli.main(["eval", "--config", str(cfg_path),
                       "--checkpoint", str(run_dir / "last.ckpt"),
                       "--features", str(corpus / "features.bin"),
                       "--transcripts", str(corpus / "transcripts.tsv"),
                       "--decode", "rescoring", "--beam", "3", "--no-skip"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[0])
        assert summary["crucial_frac_mean"] == 1.0

    def test_bench_writes_tsv(self, env, capsys):
        base, corpus, cfg_path, run_dir = env
        out = base / "bench.tsv"
        rc = cli.main(["bench", "--config", str(cfg_path),
                       "--checkpoint", str(run_dir / "last.ckpt"),
                       "--features", str(corpus / "features.bin"),
                       "--transcripts", str(corpus / "transcripts.tsv"),
                       "--repeats", "3", "--encoder-only", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0].split("\t")[0] == "mode"

    def test_bench_float32_path(self, env, capsys):
        base, corpus, cfg_path, run_dir = env
        rc = cli.main(["bench", "--config", str(cfg_path),
                       "--checkpoint", str(run_dir / "last.ckpt"),
                       "--features", str(corpus / "features.bin"),
                       "--transcripts", str(corpus / "transcripts.tsv"),
                       "--repeats", "3", "--encoder-only", "--dtype", "f32"])
        assert rc == 0
        capsys.readouterr()
        # finite checks stay on after a float32 bench
        big = tensor(np.array([1e308]))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            ad.add(big, big)

    def test_split_mode_override_rejects_bad_value(self, env):
        base, corpus, cfg_path, run_dir = env
        with pytest.raises(SystemExit):
            cli.main(["train", "--config", str(cfg_path),
                      "--features", str(corpus / "features.bin"),
                      "--transcripts", str(corpus / "transcripts.tsv"),
                      "--split-mode", "7"])

    @pytest.mark.parametrize("flag, value, message", [
        ("--config", "bad.json", "model.d_model must be positive"),
        ("--config", "no_heads.json", "model.heads must be positive"),
        ("--blank-threshold", "1.5", "loss.blank_threshold must lie in (0, 1)"),
        ("--features", "missing.bin", "No such file or directory: 'missing.bin'"),
    ], ids=["bad_config", "zero_heads", "blank_threshold", "missing_features"])
    def test_a_package_error_reaches_the_user_as_one_line(self, env, tmp_path, monkeypatch,
                                                          capsys, flag, value, message):
        # The later of two equal flags wins, so each case overrides the good line.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text('{"model": {"d_model": 0}}', encoding="utf-8")
        (tmp_path / "no_heads.json").write_text('{"model": {"heads": 0}}', encoding="utf-8")
        line = self.command_line(env, "train") + ["--out", "run", flag, value]
        assert cli.main(line) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("skiprec train: error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag, value", [("--modes", "2,7"), ("--blocks", "2")])
    def test_sweep_rejects_a_bad_grid_before_training(self, env, monkeypatch, capsys,
                                                       flag, value):
        base, corpus, cfg_path, run_dir = env

        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep ran on a rejected grid")

        monkeypatch.setattr(bench_mod, "sweep", no_sweep)
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--config", str(cfg_path),
                      "--features", str(corpus / "features.bin"),
                      "--transcripts", str(corpus / "transcripts.tsv"), flag, value])
        assert f"argument {flag}" in capsys.readouterr().err

    def test_sweep_writes_tables(self, env, capsys):
        base, corpus, cfg_path, run_dir = env
        sweep_cfg = cfgmod.RunConfig(
            model=TINY_CFG.model, optimizer=TINY_CFG.optimizer,
            training=cfgmod.TrainConfig(epochs=1, batch_size=2, eval_every=1, seed=0))
        sweep_cfg_path = base / "sweep.json"
        cfgmod.save_run_config(sweep_cfg, sweep_cfg_path)
        out = base / "sweepdir"
        rc = cli.main(["sweep", "--config", str(sweep_cfg_path),
                       "--features", str(corpus / "features.bin"),
                       "--transcripts", str(corpus / "transcripts.tsv"),
                       "--blocks", "1,1", "--modes", "1,2",
                       "--repeats", "3", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        tsv_lines = (out / "sweep.tsv").read_text().strip().split("\n")
        assert len(tsv_lines) == 3
        assert (out / "sweep.txt").exists()

    @staticmethod
    def command_line(env, command):
        base, corpus, cfg_path, run_dir = env
        line = [command, "--config", str(cfg_path),
                "--features", str(corpus / "features.bin"),
                "--transcripts", str(corpus / "transcripts.tsv")]
        return line + (["--checkpoint", str(run_dir / "last.ckpt")]
                       if command in ("eval", "bench") else [])

    @pytest.mark.parametrize("command, flag, value", [
        ("eval", "--beam", "0"), ("bench", "--beam", "0"), ("bench", "--beam", "-2"),
        ("bench", "--repeats", str(bench_mod.MIN_REPEATS - 1)), ("sweep", "--repeats", "2"),
        ("sweep", "--repeats", "three")])
    def test_a_bad_count_is_rejected_before_anything_runs(self, env, monkeypatch, capsys,
                                                          command, flag, value):
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{command} ran on a rejected {flag}")

        for owner, name in ((ev, "evaluate_corpus"), (bench_mod, "bench_corpus"),
                            (bench_mod, "sweep"), (train_mod, "load_corpus")):
            monkeypatch.setattr(owner, name, must_not_run)
        with pytest.raises(SystemExit):
            cli.main(self.command_line(env, command) + [flag, value])
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, owner, name, flags, given", [
        ("eval", ev, "evaluate_corpus", [], {}),
        ("eval", ev, "evaluate_corpus", ["--decode", "rescoring", "--beam", "1"],
         {"decode": "rescoring", "beam": 1}),
        ("bench", bench_mod, "bench_corpus", [], {}),
        ("bench", bench_mod, "bench_corpus", ["--repeats", "7", "--beam", "2"],
         {"repeats": 7, "beam": 2}),
        ("sweep", bench_mod, "sweep", [], {}),
        ("sweep", bench_mod, "sweep", ["--repeats", "4"], {"repeats": 4}),
    ])
    def test_only_the_counts_given_reach_the_library(self, env, monkeypatch, capsys,
                                                     command, owner, name, flags, given):
        # An omitted flag leaves the library function's own default in force.
        returns = {"evaluate_corpus": ev.EvalReport(0.0, 0, 0, 0.0, 0.0, 0.0),
                   "bench_corpus": bench_mod.BenchRow(
                       *[0] * len(dataclasses.fields(bench_mod.BenchRow))),
                   "sweep": []}
        seen = []

        def record(*args, **kwargs):
            seen.append(kwargs)
            return returns[name]

        monkeypatch.setattr(owner, name, record)
        assert cli.main(self.command_line(env, command) + flags) == 0
        capsys.readouterr()
        [kwargs] = seen
        assert {k: kwargs[k] for k in ("decode", "beam", "repeats") if k in kwargs} == given

    def test_train_out_defaults_to_run_in_the_parser(self, env, monkeypatch, capsys):
        seen = []

        def fake_train_run(cfg, features, transcripts, out_dir, **_):
            seen.append(out_dir)
            return SimpleNamespace(steps=0, best_error_rate=0.0, best_checkpoint=None)

        monkeypatch.setattr(train_mod, "train_run", fake_train_run)
        line = self.command_line(env, "train")
        assert cli.build_parser().parse_args(line).out == Path("run")
        assert cli.main(line) == 0
        assert seen == [Path("run")]
        capsys.readouterr()

    def test_config_overrides_land_on_their_fields(self, env):
        line = self.command_line(env, "train")
        assert cli._load_config(cli.build_parser().parse_args(line)) == TINY_CFG
        args = cli.build_parser().parse_args(
            line + ["--split-mode", "3", "--blank-threshold", "0.7", "--seed", "4"])
        assert cli._load_config(args) == dataclasses.replace(
            TINY_CFG, loss=dataclasses.replace(TINY_CFG.loss, split_mode=3, blank_threshold=0.7),
            training=dataclasses.replace(TINY_CFG.training, seed=4))

    def test_gen_without_flags_writes_the_default_spec(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["gen"]) == 0
        capsys.readouterr()
        want = synth.write_corpus(synth.SynthSpec(), tmp_path / "want")
        got = (tmp_path / "corpus" / "features.bin", tmp_path / "corpus" / "transcripts.tsv")
        assert [p.read_bytes() for p in got] == [p.read_bytes() for p in want]

    def test_each_gen_flag_lands_on_its_spec_field(self, tmp_path, monkeypatch, capsys):
        specs = []
        monkeypatch.setattr(synth, "write_corpus",
                            lambda spec, out: specs.append((spec, out)) or (out, out))
        flags = {"--vocab": 7, "--utterances": 9, "--tokens-min": 2, "--tokens-max": 4,
                 "--frames-min": 3, "--frames-max": 5, "--gap-min": 11, "--gap-max": 13,
                 "--feature-dim": 6, "--noise": 0.25, "--seed": 8}
        line = [text for flag, value in flags.items() for text in (flag, str(value))]
        assert cli.main(["gen", *line, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert specs == [(synth.SynthSpec(
            vocab_size=7, utterances=9, tokens_min=2, tokens_max=4,
            frames_per_token_min=3, frames_per_token_max=5, gap_min=11, gap_max=13,
            feature_dim=6, noise=0.25, seed=8), tmp_path)]
