"""Tests for the assembled skip-and-recover model."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from skiprec import autodiff as ad
from skiprec import encoder as enc_mod
from skiprec import frontend as fe_mod
from skiprec import model as model_mod
from skiprec import splitter
from skiprec.config import LossConfig, ModelConfig
from skiprec.encoder import EncodedSequence
from skiprec.errors import ConfigError, ContractError, InfeasibleAlignmentError
from skiprec.evaluate import evaluate_corpus
from skiprec.frontend import MIN_INPUT_FRAMES, FeatureSequence

TOY = ModelConfig(d_model=8, heads=2, e1_blocks=1, e2_blocks=1,
                  kernel_e1=3, kernel_e2=3, ffn_multiple=2,
                  decoder_blocks=1, vocab_size=5, feature_dim=8)


def toy_feats(rng, n_in=23, utt="u0"):
    return FeatureSequence(utterance_id=utt,
                           frames=rng.normal(size=(n_in, TOY.feature_dim)))


def median_threshold(params, feats, cfg):
    """A blank threshold that splits the init posteriors roughly in half."""
    trace = model_mod.forward_utterance(feats, params, cfg, LossConfig(blank_threshold=0.5))
    # The midpoint of the two middle distinct posteriors: a median taken over
    # an odd frame count would sit on one frame's posterior, and the flag of
    # that frame would then hang on rounding.
    blank = np.unique(np.exp(trace.inter_grid.log_probs.data[:, 0]))
    mid = blank.size // 2
    beta = float(blank[0]) if blank.size == 1 else float((blank[mid - 1] + blank[mid]) / 2)
    return min(max(beta, 1e-9), 1 - 1e-9)


def infeasible_target_case():
    """A split that keeps frames, and a target one token too long for them."""
    params = model_mod.init_model(4, TOY)
    for seed in range(40):
        feats = toy_feats(np.random.default_rng(seed), 39)
        loss_cfg = LossConfig(blank_threshold=median_threshold(params, feats, TOY), split_mode=2)
        probe = model_mod.forward_utterance(feats, params, TOY, loss_cfg)
        kept = probe.output_len
        total = probe.subsampled_len
        if probe.fallback or kept >= total:
            continue
        # Distinct-neighbor target one token longer than the kept frames
        # fits the full sequence but not the shortened one.
        target = [(i % 2) + 1 for i in range(kept + 1)]
        assert kept < len(target) <= total
        return params, feats, loss_cfg, target
    pytest.fail("no seed produced a shortened, non-fallback trace")


class TestRecover:
    def test_merges_back_into_original_order(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(1, 15))
            src = rng.normal(size=(n, 4))
            mask = rng.random(n) < 0.5
            a_idx = np.flatnonzero(mask).astype(np.int64)
            b_idx = np.flatnonzero(~mask).astype(np.int64)
            a = EncodedSequence(frames=ad.Tensor(src[a_idx]), orig_index=a_idx)
            b = EncodedSequence(frames=ad.Tensor(src[b_idx]), orig_index=b_idx)
            merged = model_mod.recover(a, b)
            assert merged.lengths == (n,)
            np.testing.assert_array_equal(merged.orig_index, np.arange(n))
            np.testing.assert_array_equal(merged.frames.data, src)

    def test_one_side_empty(self):
        rng = np.random.default_rng(1)
        src = rng.normal(size=(4, 3))
        full = EncodedSequence(frames=ad.Tensor(src), orig_index=np.arange(4))
        empty = EncodedSequence(frames=ad.Tensor(np.zeros((0, 3))),
                                orig_index=np.zeros(0, dtype=np.int64))
        for merged in (model_mod.recover(full, empty), model_mod.recover(empty, full)):
            np.testing.assert_array_equal(merged.frames.data, src)

    def test_duplicate_index_rejected(self):
        rng = np.random.default_rng(2)
        a = EncodedSequence(frames=ad.Tensor(rng.normal(size=(2, 3))),
                            orig_index=np.array([0, 2]))
        b = EncodedSequence(frames=ad.Tensor(rng.normal(size=(2, 3))),
                            orig_index=np.array([2, 3]))
        with pytest.raises(ContractError):
            model_mod.recover(a, b)

    def test_packed_sequences_merge_each_with_its_own(self):
        rng = np.random.default_rng(4)
        sizes = [6, 1, 9, 3]
        crucial, trivial, want = [], [], []
        for n in sizes:
            src = rng.normal(size=(n, 4))
            mask = rng.random(n) < 0.5
            keep = mask | (rng.random(n) < 0.7)
            a_idx = np.flatnonzero(mask).astype(np.int64)
            b_idx = np.flatnonzero(keep & ~mask).astype(np.int64)
            crucial.append((src[a_idx], a_idx))
            trivial.append((src[b_idx], b_idx))
            one = model_mod.recover(
                EncodedSequence(frames=ad.Tensor(src[a_idx]), orig_index=a_idx),
                EncodedSequence(frames=ad.Tensor(src[b_idx]), orig_index=b_idx))
            want.append(one)

        def packed(parts):
            return EncodedSequence(frames=ad.Tensor(np.concatenate([f for f, _ in parts])),
                                   orig_index=np.concatenate([i for _, i in parts]),
                                   lengths=tuple(i.size for _, i in parts))

        merged = model_mod.recover(packed(crucial), packed(trivial))
        assert merged.lengths == tuple(w.length for w in want)
        np.testing.assert_array_equal(merged.frames.data,
                                      np.concatenate([w.frames.data for w in want]))
        np.testing.assert_array_equal(merged.orig_index,
                                      np.concatenate([w.orig_index for w in want]))
        # the same frame index in two sequences is no duplicate; in one it is
        with pytest.raises(ContractError):
            model_mod.recover(packed([(np.ones((1, 4)), np.array([2])), crucial[1]]),
                              packed([(np.ones((1, 4)), np.array([2])), trivial[1]]))

    def test_packed_counts_must_match(self):
        rng = np.random.default_rng(5)
        two = EncodedSequence(frames=ad.Tensor(rng.normal(size=(3, 4))),
                              orig_index=np.array([0, 1, 0]), lengths=(2, 1))
        one = EncodedSequence(frames=ad.Tensor(rng.normal(size=(1, 4))),
                              orig_index=np.array([2]))
        with pytest.raises(ContractError, match="recover received 2 and 1 packed sequences"):
            model_mod.recover(two, one)

    def test_gradient_flows_to_both_sides(self):
        rng = np.random.default_rng(3)
        a = ad.Tensor(rng.normal(size=(2, 3)))
        b = ad.Tensor(rng.normal(size=(3, 3)))

        def loss(*_):
            sa = EncodedSequence(frames=a, orig_index=np.array([1, 3]))
            sb = EncodedSequence(frames=b, orig_index=np.array([0, 2, 4]))
            frames = model_mod.recover(sa, sb).frames
            return ad.sum_all(ad.mul(frames, frames))

        assert ad.grad_check(loss, [a, b]) <= 1e-5


class TestForwardStructure:
    def test_trace_lengths_are_consistent(self):
        rng = np.random.default_rng(4)
        params = model_mod.init_model(0, TOY)
        feats = toy_feats(rng, 31)
        beta = median_threshold(params, feats, TOY)
        trace = model_mod.forward_utterance(feats, params, TOY,
                                            LossConfig(blank_threshold=beta, split_mode=2))
        g = trace.groups
        assert trace.input_len == 31
        assert trace.subsampled_len == len(g.crucial) + len(g.trivial) + len(g.ignoring)
        assert trace.output_len == len(g.crucial) + len(g.trivial)
        np.testing.assert_array_equal(trace.h2.orig_index,
                                      np.sort(np.concatenate([g.crucial, g.trivial])))

    def test_mode_one_never_shortens(self):
        rng = np.random.default_rng(5)
        params = model_mod.init_model(1, TOY)
        for trial in range(5):
            feats = toy_feats(rng, int(rng.integers(15, 60)))
            beta = median_threshold(params, feats, TOY)
            trace = model_mod.forward_utterance(
                feats, params, TOY, LossConfig(blank_threshold=beta, split_mode=1))
            assert trace.output_len == trace.subsampled_len

    def test_near_uniform_init_flags_nothing(self):
        # Blank posterior starts near 1/V, far below the default threshold,
        # so no frame is skipped and reduction tracks the subsampling alone.
        rng = np.random.default_rng(6)
        params = model_mod.init_model(2, TOY)
        feats = toy_feats(rng, 43)
        trace = model_mod.forward_utterance(feats, params, TOY, LossConfig())
        assert not trace.flags.any()
        assert not trace.fallback
        assert trace.output_len == trace.subsampled_len
        assert 3.5 <= trace.input_len / trace.output_len <= 7.0

    def test_all_blank_falls_back_to_everything_crucial(self):
        rng = np.random.default_rng(7)
        params = model_mod.init_model(3, TOY)
        feats = toy_feats(rng, 27)
        trace = model_mod.forward_utterance(
            feats, params, TOY, LossConfig(blank_threshold=1e-9, split_mode=2))
        assert trace.flags.all()
        assert trace.fallback
        assert trace.crucial_len == trace.subsampled_len
        assert trace.output_len == trace.subsampled_len

    def test_infeasible_target_falls_back(self):
        params, feats, loss_cfg, target = infeasible_target_case()
        trace = model_mod.forward_utterance(feats, params, TOY, loss_cfg, target=target)
        assert trace.fallback
        assert trace.output_len == trace.subsampled_len

    def test_eval_losses_use_the_target_aware_forward(self):
        params, feats, loss_cfg, target = infeasible_target_case()
        report = evaluate_corpus(params, TOY, loss_cfg, [(feats, target)], compute_losses=True)
        assert not report.utterances[0]["fallback"]
        trace = model_mod.forward_utterance(feats, params, TOY, loss_cfg, target=target)
        assert report.loss_means == model_mod.component_losses(trace, [target], params, TOY,
                                                               loss_cfg)

    def test_force_all_crucial_bypasses_splitter(self):
        rng = np.random.default_rng(9)
        params = model_mod.init_model(5, TOY)
        feats = toy_feats(rng, 27)
        trace = model_mod.forward_utterance(
            feats, params, TOY, LossConfig(blank_threshold=1e-9, split_mode=2),
            force_all_crucial=True)
        assert not trace.fallback
        assert trace.crucial_len == trace.subsampled_len


class TestIdentitySecondStage:
    def test_zeroed_second_stage_returns_kept_rows_bitwise(self):
        rng = np.random.default_rng(10)
        params = model_mod.init_model(6, TOY)
        for block in params.e2:
            enc_mod.zero_residual_branches(block)
        feats = toy_feats(rng, 35)
        beta = median_threshold(params, feats, TOY)
        for mode in (1, 2, 5):
            trace = model_mod.forward_utterance(
                feats, params, TOY, LossConfig(blank_threshold=beta, split_mode=mode))
            kept = np.sort(np.concatenate([trace.groups.crucial, trace.groups.trivial]))
            np.testing.assert_array_equal(trace.h2.orig_index, kept)
            np.testing.assert_array_equal(trace.h2.frames.data,
                                          trace.h1.frames.data[kept])

    def test_mode_one_identity_stage_is_full_passthrough(self):
        rng = np.random.default_rng(11)
        params = model_mod.init_model(7, TOY)
        for block in params.e2:
            enc_mod.zero_residual_branches(block)
        feats = toy_feats(rng, 27)
        beta = median_threshold(params, feats, TOY)
        trace = model_mod.forward_utterance(
            feats, params, TOY, LossConfig(blank_threshold=beta, split_mode=1))
        np.testing.assert_array_equal(trace.h2.frames.data, trace.h1.frames.data)


class TestAttentionCost:
    def test_tally_matches_block_lengths_exactly(self, monkeypatch):
        rng = np.random.default_rng(12)
        cfg = dataclasses.replace(TOY, e1_blocks=2, e2_blocks=3)
        params = model_mod.init_model(8, cfg)
        feats = toy_feats(rng, 51)
        beta = median_threshold(params, feats, cfg)
        query_lengths = []
        core = ad.attention_core

        def recording_core(q, *args, **kwargs):
            query_lengths.append(q.data.shape[0])
            return core(q, *args, **kwargs)

        monkeypatch.setattr(ad, "attention_core", recording_core)
        trace = model_mod.forward_utterance(
            feats, params, cfg, LossConfig(blank_threshold=beta, split_mode=2))
        t = trace.subsampled_len
        c = trace.crucial_len
        assert c < t
        assert query_lengths == [t] * 2 + [c] * 3


def stubbed_total_loss(monkeypatch, loss_cfg, **values):
    """``total_loss`` and ``component_losses`` over fixed loss terms.

    Evaluating a term not given fails.
    """
    trace = SimpleNamespace(inter_grid="ctc_inter", final_grid="ctc_final",
                            h1=SimpleNamespace(term="dec_inter", lengths=(3,)),
                            h2=SimpleNamespace(term="dec_final", lengths=(2,)))
    monkeypatch.setattr(model_mod.ctc_mod, "ctc_loss",
                        lambda grid, _tokens, _lengths: ad.Tensor(np.asarray(values[grid])))
    monkeypatch.setattr(model_mod.dec_mod, "aed_loss",
                        lambda h, *_: ad.Tensor(np.asarray(values[h.term])))
    params = SimpleNamespace(decoder=None)
    return (model_mod.total_loss(trace, [[1]], params, TOY, loss_cfg),
            model_mod.component_losses(trace, [[1]], params, TOY, loss_cfg))


class TestLossCombination:
    def test_worked_weighting_example(self, monkeypatch):
        out, terms = stubbed_total_loss(monkeypatch, LossConfig(), ctc_inter=1.0,
                                        ctc_final=2.0, dec_inter=3.0, dec_final=4.0)
        assert out.data == pytest.approx(2.9, rel=1e-12)
        assert terms == {"ctc_inter": 1.0, "ctc_final": 2.0, "dec_inter": 3.0,
                         "dec_final": 4.0, "total": float(out.data)}

    def test_pure_alignment_share_ignores_decoder_terms(self, monkeypatch):
        out, terms = stubbed_total_loss(monkeypatch, LossConfig(ctc_weight=1.0),
                                        ctc_inter=2.0, ctc_final=4.0)
        assert out.data == pytest.approx(3.0)
        assert set(terms) == {"ctc_inter", "ctc_final", "total"}

    def test_pure_decoder_share_ignores_alignment_terms(self, monkeypatch):
        out, terms = stubbed_total_loss(monkeypatch, LossConfig(ctc_weight=0.0),
                                        dec_inter=2.0, dec_final=4.0)
        assert out.data == pytest.approx(3.0)
        assert set(terms) == {"dec_inter", "dec_final", "total"}

    def test_pure_alignment_training_leaves_decoder_untouched(self):
        rng = np.random.default_rng(13)
        params = model_mod.init_model(9, TOY)
        feats = toy_feats(rng, 27)
        loss_cfg = LossConfig(ctc_weight=1.0)
        with ad.tape() as t:
            trace = model_mod.forward_utterance(feats, params, TOY, loss_cfg,
                                                target=[1, 2])
            loss = model_mod.total_loss(trace, [[1, 2]], params, TOY, loss_cfg)
            t.backward(loss)
        assert params.decoder.embed.grad is None
        assert params.inter_head.w.grad is not None
        assert params.final_head.w.grad is not None
        assert params.frontend.conv1_w.grad is not None

    def test_component_losses_match_total(self):
        rng = np.random.default_rng(14)
        params = model_mod.init_model(10, TOY)
        feats = toy_feats(rng, 27)
        for ctc_weight in (0.3, 0.0, 1.0):
            loss_cfg = LossConfig(ctc_weight=ctc_weight)
            trace = model_mod.forward_utterance(feats, params, TOY, loss_cfg, target=[1, 2])
            loss = model_mod.total_loss(trace, [[1, 2]], params, TOY, loss_cfg)
            terms = model_mod.component_losses(trace, [[1, 2]], params, TOY, loss_cfg)
            assert terms["total"] == float(loss.data)
            want = 0.0
            for pair, share in (("ctc", ctc_weight), ("dec", 1.0 - ctc_weight)):
                names = {f"{pair}_inter", f"{pair}_final"}
                if share == 0.0:
                    assert not names & set(terms)
                else:
                    want += share * (0.5 * terms[f"{pair}_inter"]
                                     + 0.5 * terms[f"{pair}_final"])
            assert terms["total"] == pytest.approx(want, rel=1e-12)


class TestLazyAdamState:
    def test_init_model_allocates_no_moments(self):
        params = model_mod.init_model(25, TOY)
        for _, p in model_mod.named_parameters(params):
            assert p.moment1 is None and p.moment2 is None and p.step_count == 0

    def test_init_model_allocates_little_beyond_the_weights(self):
        # Two eager float64 moments would make this ratio about 3.
        tracemalloc.start()
        try:
            params = model_mod.init_model(0, ModelConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        weights = sum(p.value.data.nbytes for _, p in model_mod.named_parameters(params))
        assert peak <= 1.5 * weights

    def test_checkpoint_saves_zero_moments_before_the_first_step(self):
        params = model_mod.init_model(26, TOY)
        ad.adam_step(params.final_head.b, np.ones(TOY.vocab_size), lr=1e-3)
        tensors = model_mod.checkpoint_tensors(params, step=1, with_moments=True)
        for name, p in model_mod.named_parameters(params):
            for key in (".m1", ".m2"):
                m = tensors[name + key]
                assert m.shape == p.value.data.shape and m.dtype == np.float64
                assert m.any() == (name == "final_head.b")

    def test_cast_leaves_moments_unallocated(self):
        params = model_mod.cast_params(model_mod.init_model(27, TOY), np.float32)
        for _, p in model_mod.named_parameters(params):
            assert p.value.data.dtype == np.float32 and p.moment1 is None


class TestCheckpointRoundTrip:
    def test_forward_is_bit_identical_after_reload(self):
        rng = np.random.default_rng(15)
        params = model_mod.init_model(11, TOY)
        feats = toy_feats(rng, 31)
        before = model_mod.forward_utterance(feats, params, TOY, LossConfig())
        tensors = model_mod.checkpoint_tensors(params, step=17, with_moments=True)
        other = model_mod.init_model(99, TOY)
        step = model_mod.load_params_from_tensors(other, tensors, restore_moments=True)
        assert step == 17
        after = model_mod.forward_utterance(feats, other, TOY, LossConfig())
        np.testing.assert_array_equal(after.final_grid.log_probs.data,
                                      before.final_grid.log_probs.data)
        np.testing.assert_array_equal(after.h2.frames.data, before.h2.frames.data)

    def test_missing_tensor_rejected(self):
        params = model_mod.init_model(12, TOY)
        tensors = model_mod.checkpoint_tensors(params)
        del tensors["final_head.w"]
        with pytest.raises(ConfigError):
            model_mod.load_params_from_tensors(model_mod.init_model(0, TOY), tensors)

    def test_shape_mismatch_rejected(self):
        params = model_mod.init_model(13, TOY)
        tensors = model_mod.checkpoint_tensors(params)
        tensors["final_head.w"] = np.zeros((3, 3))
        with pytest.raises(ConfigError):
            model_mod.load_params_from_tensors(model_mod.init_model(0, TOY), tensors)

    def test_cast_changes_dtype_and_forward_still_runs(self):
        rng = np.random.default_rng(16)
        params = model_mod.cast_params(model_mod.init_model(14, TOY), np.float32)
        assert params.final_head.w.value.data.dtype == np.float32
        feats = FeatureSequence("u0", rng.normal(size=(27, 8)).astype(np.float32))
        trace = model_mod.forward_utterance(feats, params, TOY, LossConfig())
        assert trace.output_len > 0

    def test_float32_forward_stays_float32(self):
        rng = np.random.default_rng(19)
        cfg = ModelConfig()
        params = model_mod.cast_params(model_mod.init_model(20, cfg), np.float32)
        feats = FeatureSequence(
            "u0", rng.normal(size=(60, cfg.feature_dim)).astype(np.float32))
        trace = model_mod.forward_utterance(feats, params, cfg, LossConfig())
        assert trace.h1.frames.data.dtype == np.float32
        assert trace.h2.frames.data.dtype == np.float32
        assert trace.final_grid.log_probs.data.dtype == np.float32

    def test_resume_without_moments_is_a_fresh_adam_step(self):
        params = model_mod.init_model(21, TOY)
        for _, p in model_mod.named_parameters(params):
            p.step_count = 750
        tensors = model_mod.checkpoint_tensors(params, step=750)
        other = model_mod.init_model(0, TOY)
        assert model_mod.load_params_from_tensors(other, tensors, restore_moments=True) == 750
        for _, p in model_mod.named_parameters(other):
            assert p.step_count == 0
            assert p.moment1 is None and p.moment2 is None
        p = other.final_head.b
        before = p.value.data.copy()
        fresh = ad.Parameter(before.copy())
        grad = np.linspace(-1.0, 1.0, before.size).reshape(before.shape) + 0.05
        ad.adam_step(p, grad, lr=1e-3)
        ad.adam_step(fresh, grad, lr=1e-3)
        assert np.array_equal(p.value.data, fresh.value.data)
        # a fresh bias-corrected step moves each coordinate by ~lr
        np.testing.assert_allclose(before - p.value.data, 1e-3 * np.sign(grad), rtol=1e-5)

    @pytest.mark.parametrize("with_moments", [True, False])
    def test_restore_returns_the_saved_step(self, with_moments):
        tensors = model_mod.checkpoint_tensors(model_mod.init_model(24, TOY), step=33,
                                               with_moments=with_moments)
        other = model_mod.init_model(0, TOY)
        assert model_mod.load_params_from_tensors(other, tensors, restore_moments=True) == 33
        for name, p in model_mod.named_parameters(other):
            assert p.step_count == (33 if with_moments else 0)
            if with_moments:
                assert np.array_equal(p.moment1, tensors[name + ".m1"])
                assert p.moment1 is not tensors[name + ".m1"]
            else:
                assert p.moment1 is None and p.moment2 is None

    def test_resume_with_moments_keeps_step_count(self):
        tensors = model_mod.checkpoint_tensors(model_mod.init_model(22, TOY), step=40,
                                               with_moments=True)
        other = model_mod.init_model(0, TOY)
        model_mod.load_params_from_tensors(other, tensors, restore_moments=True)
        assert all(p.step_count == 40 for _, p in model_mod.named_parameters(other))

    @pytest.mark.parametrize("damage", ["one_moment", "moment_shape"])
    def test_malformed_moments_rejected(self, damage):
        tensors = model_mod.checkpoint_tensors(model_mod.init_model(23, TOY), step=5,
                                               with_moments=True)
        if damage == "one_moment":
            del tensors["final_head.w.m2"]
        else:
            tensors["final_head.w.m1"] = np.zeros((2,) + tensors["final_head.w"].shape)
        with pytest.raises(ConfigError):
            model_mod.load_params_from_tensors(model_mod.init_model(0, TOY), tensors,
                                               restore_moments=True)


class TestShortestInput:
    """An utterance of exactly MIN_INPUT_FRAMES subsamples to a single frame."""

    def test_one_token_trains_on_a_one_frame_lattice(self):
        params = model_mod.init_model(11, TOY)
        feats = toy_feats(np.random.default_rng(40), MIN_INPUT_FRAMES)
        with ad.tape() as tp:
            trace = model_mod.forward_utterance(feats, params, TOY, LossConfig(), target=[1])
            loss = model_mod.total_loss(trace, [[1]], params, TOY, LossConfig())
            tp.backward(loss)
        assert trace.subsampled_len == 1 and trace.final_grid.length == 1
        assert np.isfinite(float(loss.data))
        for name, p in model_mod.named_parameters(params):
            assert p.grad is not None and np.all(np.isfinite(p.grad)), name
        assert np.any(params.inter_head.w.grad) and np.any(params.final_head.w.grad)

    def test_a_target_longer_than_one_frame_is_infeasible(self):
        params = model_mod.init_model(11, TOY)
        feats = toy_feats(np.random.default_rng(40), MIN_INPUT_FRAMES)
        trace = model_mod.forward_utterance(feats, params, TOY, LossConfig(), target=[1, 2])
        with pytest.raises(InfeasibleAlignmentError):
            model_mod.total_loss(trace, [[1, 2]], params, TOY, LossConfig())


class TestBatchOfOne:
    """One utterance is a packed batch of one, whichever way it is built."""

    def test_probe_style_stage_one_is_the_forward_stage_one(self):
        rng = np.random.default_rng(41)
        params = model_mod.init_model(12, TOY)
        feats = toy_feats(rng, 37)
        trace = model_mod.forward_utterance(feats, params, TOY, LossConfig())
        sub = fe_mod.subsample(feats, params.frontend)
        x = EncodedSequence(frames=enc_mod.attach_positions(sub.frames),
                            orig_index=np.arange(sub.length, dtype=np.int64))
        h1 = enc_mod.run_blocks(x, params.e1, TOY.heads)
        assert sub.lengths == x.lengths == h1.lengths == trace.h1.lengths
        assert trace.h1.lengths == (trace.subsampled_len,)
        assert trace.h2.lengths == (trace.output_len,)
        assert np.array_equal(h1.frames.data, trace.h1.frames.data)

    def test_the_loss_takes_one_target_per_utterance(self):
        params = model_mod.init_model(13, TOY)
        feats = toy_feats(np.random.default_rng(42), 31)
        trace = model_mod.forward_utterance(feats, params, TOY, LossConfig(), target=[1, 2])
        for targets in ([1, 2], [[1], [2]], []):
            with pytest.raises(ContractError, match="trace of 1 utterances"):
                model_mod.total_loss(trace, targets, params, TOY, LossConfig())
            with pytest.raises(ContractError, match="trace of 1 utterances"):
                model_mod.component_losses(trace, targets, params, TOY, LossConfig())


def ragged_batch_case():
    """A ragged batch whose split exercises every per-utterance path.

    Utterance 0 has exactly MIN_INPUT_FRAMES input frames. At the chosen
    blank threshold every frame of utterance 1 is blank, so its crucial group
    is empty and it falls back; utterance 2 gets a target one token too long
    for its kept frames and falls back on that; the rest skip frames.
    """
    params = model_mod.init_model(6, TOY)
    lengths = [MIN_INPUT_FRAMES, 31, 45, 38, 23, 52]
    for seed in range(60):
        rng = np.random.default_rng(100 + seed)
        feats = [toy_feats(rng, n, f"u{i}") for i, n in enumerate(lengths)]
        probe = model_mod.forward_batch(feats, params, TOY, LossConfig(blank_threshold=0.5))
        blank = np.split(np.exp(probe.inter_grid.log_probs.data[:, 0]),
                         np.cumsum(probe.h1.lengths)[:-1])
        beta = float(blank[1].min()) * (1.0 - 1e-9)
        loss_cfg = LossConfig(blank_threshold=beta, split_mode=2)
        trace = model_mod.forward_batch(feats, params, TOY, loss_cfg)
        kept = trace.h2.lengths
        if trace.fallbacks != (False, True) + (False,) * 4:
            continue
        if not all(0 < k < t for k, t in zip(kept[2:], trace.h1.lengths[2:])):
            continue
        targets = [[1], [2, 1], [(i % 2) + 1 for i in range(kept[2] + 1)]]
        targets += [[1 + i % (TOY.vocab_size - 1), 1 + (i + 1) % (TOY.vocab_size - 1)]
                    for i in range(3, len(lengths))]
        return params, feats, loss_cfg, targets
    pytest.fail("no seed gave the wanted splits")


def group_lists(groups):
    """The seven index arrays of a FrameGroups and its sets as lists, to compare by value."""
    s = groups.sets
    return [idx.tolist() for idx in (s.non_blank, s.blank, s.left_adjacent, s.right_adjacent,
                                     groups.crucial, groups.trivial, groups.ignoring)]


def utterance_groups(trace, i):
    """Utterance ``i``'s slice of a packed trace's groups, in its own frame indices."""
    start = sum(trace.h1.lengths[:i])
    stop = start + trace.h1.lengths[i]
    return [[r - start for r in rows if start <= r < stop] for rows in group_lists(trace.groups)]


def assert_packed_matches_per_utterance(params, feats, loss_cfg, targets):
    """Packed forward, loss and gradients against one utterance at a time."""
    named = model_mod.named_parameters(params)
    with ad.tape() as tp:
        batch = model_mod.forward_batch(feats, params, TOY, loss_cfg, targets=targets)
        loss = model_mod.total_loss(batch, targets, params, TOY, loss_cfg)
        tp.backward(loss)
    packed = {name: p.grad for name, p in named}
    for _, p in named:
        p.zero_grad()
    want = 0.0
    rows1 = np.split(np.arange(batch.h1.length), np.cumsum(batch.h1.lengths)[:-1])
    rows2 = np.split(np.arange(batch.h2.length), np.cumsum(batch.h2.lengths)[:-1])
    for i, (f, tokens) in enumerate(zip(feats, targets)):
        with ad.tape() as tp:
            trace = model_mod.forward_utterance(f, params, TOY, loss_cfg, target=tokens)
            one = model_mod.total_loss(trace, [tokens], params, TOY, loss_cfg)
            tp.backward(one)
        want += float(one.data)
        assert trace.fallback == batch.fallbacks[i]
        assert group_lists(trace.groups) == utterance_groups(batch, i)
        np.testing.assert_array_equal(trace.flags, batch.flags[rows1[i]])
        np.testing.assert_array_equal(trace.h2.orig_index, batch.h2.orig_index[rows2[i]])
        for have, ref, rows in ((batch.inter_grid, trace.inter_grid, rows1[i]),
                                (batch.final_grid, trace.final_grid, rows2[i])):
            assert np.max(np.abs(have.log_probs.data[rows] - ref.log_probs.data)) <= 1e-12
    assert abs(float(loss.data) - want) <= 1e-12 * abs(want)
    for name, p in named:
        # A gradient that is zero up to rounding (the attention key biases)
        # is compared on an absolute scale, as grad_check does.
        scale = max(float(np.abs(p.grad).max()), 1e-3)
        assert np.max(np.abs(packed[name] - p.grad)) <= 1e-12 * scale, name
    return batch


class TestPackedBatch:
    """A packed batch computes what its utterances compute one at a time."""

    def test_every_split_path_matches_per_utterance_runs(self):
        params, feats, loss_cfg, targets = ragged_batch_case()
        batch = assert_packed_matches_per_utterance(params, feats, loss_cfg, targets)
        assert batch.fallbacks == (False, True, True, False, False, False)
        assert batch.h1.lengths[0] == 1 and batch.flags[1:1 + batch.h1.lengths[1]].all()

    def test_targets_must_match_the_batch(self):
        params, feats, loss_cfg, targets = ragged_batch_case()
        with pytest.raises(ContractError):
            model_mod.forward_batch(feats, params, TOY, loss_cfg, targets=targets[:-1])
        batch = model_mod.forward_batch(feats, params, TOY, loss_cfg, targets=targets)
        with pytest.raises(ContractError):
            model_mod.total_loss(batch, targets[:1], params, TOY, loss_cfg)

    def test_groups_are_built_once_per_batch_and_once_more_for_a_bypass(self, monkeypatch):
        params, feats, loss_cfg, targets = ragged_batch_case()
        calls = []
        compute_sets = splitter.compute_sets

        def counting(flags, lengths=None):
            calls.append(lengths)
            return compute_sets(flags, lengths)

        monkeypatch.setattr(splitter, "compute_sets", counting)
        model_mod.forward_batch(feats[2:], params, TOY, loss_cfg)
        assert calls == [tuple(fe_mod.subsampled_length(f.length) for f in feats[2:])]
        model_mod.forward_batch(feats, params, TOY, loss_cfg, targets=targets)
        assert len(calls) == 3 and calls[1] == calls[2]

    def test_force_all_crucial_makes_every_row_crucial(self):
        params, feats, loss_cfg, targets = ragged_batch_case()
        trace = model_mod.forward_batch(feats, params, TOY, loss_cfg, targets=targets,
                                        force_all_crucial=True)
        assert trace.fallbacks == (False,) * len(feats)
        assert trace.groups.crucial.tolist() == list(range(trace.h1.length))
        assert trace.groups.trivial.tolist() == trace.groups.ignoring.tolist() == []
        assert trace.h2.lengths == trace.h1.lengths
        np.testing.assert_array_equal(trace.h2.orig_index, trace.h1.orig_index)
        # The trace keeps the flags as the head set them: utterance 1 is all blank.
        start = trace.h1.lengths[0]
        assert trace.flags[start:start + trace.h1.lengths[1]].all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_ragged_batches_match_per_utterance_runs(self, seed):
        rng = np.random.default_rng(200 + seed)
        params = model_mod.init_model(seed, TOY)
        feats = [toy_feats(rng, int(n), f"u{i}")
                 for i, n in enumerate(rng.integers(19, 70, size=5))]
        targets = [[int(t) for t in rng.integers(1, TOY.vocab_size, size=1 + i % 2)]
                   for i in range(len(feats))]
        beta = median_threshold(params, feats[-1], TOY)
        assert_packed_matches_per_utterance(params, feats, LossConfig(blank_threshold=beta),
                                            targets)


class TestEndToEndGradient:
    def test_total_loss_gradient_on_selected_tensors(self):
        rng = np.random.default_rng(17)
        params = model_mod.init_model(18, TOY)
        frames = rng.normal(size=(15, TOY.feature_dim))
        loss_cfg = LossConfig(blank_threshold=0.5, split_mode=2)

        def loss(*_):
            feats = FeatureSequence("u0", frames)
            trace = model_mod.forward_utterance(feats, params, TOY, loss_cfg,
                                                target=[1, 2])
            return model_mod.total_loss(trace, [[1, 2]], params, TOY, loss_cfg)

        targets = [params.frontend.conv1_w.value, params.inter_head.w.value,
                   params.final_head.b.value, params.decoder.embed.value,
                   params.e2[0].attn.wv.value]
        assert ad.grad_check(loss, targets) <= 1e-4
