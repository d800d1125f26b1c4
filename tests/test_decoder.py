"""Tests for the autoregressive decoder and hypothesis rescoring."""

import dataclasses
import math

import numpy as np
import pytest

from skiprec import autodiff as ad
from skiprec import decoder as dec
from skiprec.autodiff import Parameter
from skiprec.encoder import (EncodedSequence, _ffn_branch, _norm,
                             positional_table)
from skiprec.errors import ContractError, DimensionError, EmptySequenceError

from support import grad_check


def make_enc(rng, length, d):
    return EncodedSequence(frames=ad.Tensor(rng.normal(size=(length, d))),
                           orig_index=np.arange(length, dtype=np.int64))


def collect_parameters(node):
    found = []
    if isinstance(node, Parameter):
        found.append(node)
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            found.extend(collect_parameters(getattr(node, f.name)))
    elif isinstance(node, list):
        for item in node:
            found.extend(collect_parameters(item))
    return found


def zero_output_stage(params):
    """Force uniform output distributions regardless of the input."""
    params.out_w.value.data[...] = 0.0
    params.out_b.value.data[...] = 0.0
    return params


class TestStructure:
    def test_reserved_id_layout(self):
        rng = np.random.default_rng(0)
        params = dec.init_decoder(rng, 8, depth=2, vocab_size=5, ffn_multiple=2)
        assert params.vocab_size == 5
        assert params.sos_id == 5
        assert params.eos_id == 6
        assert params.embed.value.data.shape == (7, 8)
        assert params.out_w.value.data.shape == (8, 7)
        assert len(params.blocks) == 2

    def test_logits_shape_covers_extended_vocab(self):
        rng = np.random.default_rng(1)
        params = dec.init_decoder(rng, 8, 1, 5, 2)
        enc = make_enc(rng, 4, 8)
        logits = dec.decoder_logits(enc, [[params.sos_id, 1, 2]], params, heads=2)
        assert logits.data.shape == (3, 7)

    def test_empty_encoder_rejected(self):
        rng = np.random.default_rng(4)
        params = dec.init_decoder(rng, 8, 1, 5, 2)
        enc = make_enc(rng, 0, 8)
        with pytest.raises(EmptySequenceError):
            dec.decoder_logits(enc, [[params.sos_id]], params, heads=2)

    def test_empty_input_rejected(self):
        rng = np.random.default_rng(5)
        params = dec.init_decoder(rng, 8, 1, 5, 2)
        with pytest.raises(EmptySequenceError):
            dec.decoder_logits(make_enc(rng, 3, 8), [], params, heads=2)


class TestUniformOutputs:
    def test_loss_of_uniform_head_is_log_extended_vocab(self):
        rng = np.random.default_rng(6)
        params = zero_output_stage(dec.init_decoder(rng, 8, 1, 5, 2))
        enc = make_enc(rng, 4, 8)
        loss = dec.aed_loss(enc, [[1, 3, 2]], params, heads=2)
        assert loss.data == pytest.approx(math.log(7), rel=1e-12)

    def test_single_token_likelihood_scores_two_positions(self):
        # One real token plus the forced end marker: two uniform picks.
        rng = np.random.default_rng(7)
        params = zero_output_stage(dec.init_decoder(rng, 8, 1, 5, 2))
        enc = make_enc(rng, 4, 8)
        [ll] = dec._log_likelihoods(enc, [[2]], params, heads=2)
        assert ll == pytest.approx(-2 * math.log(7), rel=1e-12)

    def test_empty_sequence_scores_end_marker_alone(self):
        rng = np.random.default_rng(8)
        params = zero_output_stage(dec.init_decoder(rng, 8, 1, 5, 2))
        enc = make_enc(rng, 4, 8)
        [ll] = dec._log_likelihoods(enc, [[]], params, heads=2)
        assert ll == pytest.approx(-math.log(7), rel=1e-12)


class TestCausality:
    def test_later_token_cannot_change_earlier_logits(self):
        rng = np.random.default_rng(9)
        params = dec.init_decoder(rng, 8, 2, 5, 2)
        enc = make_enc(rng, 5, 8)
        base = dec.decoder_logits(enc, [[params.sos_id, 1, 2, 3]], params, 2).data
        for pos in range(1, 4):
            tokens = [params.sos_id, 1, 2, 3]
            tokens[pos] = 4
            logits = dec.decoder_logits(enc, [tokens], params, 2).data
            np.testing.assert_array_equal(logits[:pos], base[:pos])
            assert not np.array_equal(logits[pos], base[pos])

    def test_likelihood_depends_on_encoder_content(self):
        rng = np.random.default_rng(10)
        params = dec.init_decoder(rng, 8, 1, 5, 2)
        [a] = dec._log_likelihoods(make_enc(rng, 4, 8), [[1, 2]], params, 2)
        [b] = dec._log_likelihoods(make_enc(rng, 4, 8), [[1, 2]], params, 2)
        assert a != b


class TestTokenValidation:
    @pytest.mark.parametrize("bad", [0, -3, 5, 6, 7])
    def test_out_of_range_targets_rejected(self, bad):
        rng = np.random.default_rng(11)
        params = dec.init_decoder(rng, 8, 1, 5, 2)
        enc = make_enc(rng, 3, 8)
        with pytest.raises(ContractError):
            dec.aed_loss(enc, [[1, bad]], params, heads=2)

    def test_empty_target_loss_is_the_end_marker_term_alone(self):
        rng = np.random.default_rng(12)
        params = dec.init_decoder(rng, 8, 1, 5, 2)
        enc = make_enc(rng, 3, 8)
        empty_ll, ll = dec._log_likelihoods(enc, [[], [1, 2]], params, heads=2)
        assert dec.aed_loss(enc, [[]], params, heads=2).data == pytest.approx(-empty_ll, rel=1e-12)
        packed = dec.aed_loss(enc, [[], [1, 2]], params, heads=2).data
        assert packed == pytest.approx(-empty_ll - ll / 3, rel=1e-12)


class TestRescore:
    def test_singleton_is_trivially_best(self):
        rng = np.random.default_rng(13)
        params = dec.init_decoder(rng, 8, 1, 5, 2)
        enc = make_enc(rng, 4, 8)
        best, scores = dec.rescore(enc, [((1, 2), -3.0)], params, heads=2)
        assert best == 0 and len(scores) == 1

    def test_scores_match_direct_computation(self):
        rng = np.random.default_rng(14)
        params = dec.init_decoder(rng, 8, 1, 5, 2)
        enc = make_enc(rng, 4, 8)
        hyps = [((1, 2), -1.5), ((3,), -0.2), ((), -4.0)]
        best, scores = dec.rescore(enc, hyps, params, heads=2)
        for (tokens, ctc_score), got in zip(hyps, scores):
            [ll] = dec._log_likelihoods(enc, [tokens], params, 2)
            want = ll + dec.CTC_WEIGHT * ctc_score
            assert got == pytest.approx(want, rel=1e-12)
        assert best == int(np.argmax(scores))

    def test_zero_weight_ignores_alignment_scores(self):
        # Less the CTC share, the scores are the decoder's alone.
        rng = np.random.default_rng(15)
        params = dec.init_decoder(rng, 8, 1, 5, 2)
        enc = make_enc(rng, 4, 8)
        hyps_a = [((1,), -100.0), ((2,), 0.0)]
        hyps_b = [((1,), 0.0), ((2,), -100.0)]
        _, scores_a = dec.rescore(enc, hyps_a, params, 2)
        _, scores_b = dec.rescore(enc, hyps_b, params, 2)
        decoder_only = [[s - dec.CTC_WEIGHT * c for s, (_, c) in zip(scores, hyps)]
                        for scores, hyps in ((scores_a, hyps_a), (scores_b, hyps_b))]
        assert decoder_only[0] == pytest.approx(decoder_only[1], rel=0.0, abs=1e-12)

    def test_permuting_hypotheses_permutes_scores(self):
        rng = np.random.default_rng(16)
        params = dec.init_decoder(rng, 8, 1, 5, 2)
        enc = make_enc(rng, 4, 8)
        hyps = [((1, 2), -1.0), ((2,), -2.0), ((4, 4), -0.5)]
        best_f, scores_f = dec.rescore(enc, hyps, params, 2)
        best_r, scores_r = dec.rescore(enc, hyps[::-1], params, 2)
        assert scores_r == scores_f[::-1]
        assert hyps[best_f] == hyps[::-1][best_r]

    def test_no_hypotheses_rejected(self):
        rng = np.random.default_rng(17)
        params = dec.init_decoder(rng, 8, 1, 5, 2)
        with pytest.raises(EmptySequenceError):
            dec.rescore(make_enc(rng, 3, 8), [], params, heads=2)


class TestTraining:
    def test_one_optimizer_step_reduces_loss(self):
        rng = np.random.default_rng(18)
        params = dec.init_decoder(rng, 8, 1, 5, 2)
        enc_frames = rng.normal(size=(4, 8))
        tokens = [1, 3, 3, 2]

        def compute():
            enc = EncodedSequence(frames=ad.Tensor(enc_frames.copy()),
                                  orig_index=np.arange(4))
            return dec.aed_loss(enc, [tokens], params, heads=2)

        with ad.tape() as t:
            loss = compute()
            t.backward(loss)
        before = float(loss.data)
        for p in collect_parameters(params):
            if p.grad is not None:
                ad.adam_step(p, p.grad, lr=1e-2)
            p.zero_grad()
        after = float(compute().data)
        assert after < before

    def test_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        params = dec.init_decoder(rng, 8, 1, 5, 2)
        frames = ad.Tensor(rng.normal(size=(3, 8)))

        def loss(*_):
            enc = EncodedSequence(frames=frames, orig_index=np.arange(3))
            return dec.aed_loss(enc, [[1, 4]], params, heads=2)

        targets = [frames, params.embed.value, params.out_w.value,
                   params.blocks[0].cross_attn.wk.value]
        assert grad_check(loss, targets) <= 1e-4


class TestPackedLoss:
    """Several utterances, each over its own encoder memory, in one decoder pass."""

    MEMORY_LENGTHS = (3, 5, 1)
    TOKENS = ([1, 4], [2, 2, 3, 1], [3])

    def test_matches_the_sum_of_per_utterance_losses(self):
        rng = np.random.default_rng(20)
        params = dec.init_decoder(rng, 8, 2, 5, 2)
        frames = rng.normal(size=(sum(self.MEMORY_LENGTHS), 8))
        orig = np.concatenate([np.arange(n) for n in self.MEMORY_LENGTHS])
        packed = ad.Tensor(frames.copy())
        enc = EncodedSequence(frames=packed, orig_index=orig, lengths=self.MEMORY_LENGTHS)
        with ad.tape() as tp:
            loss = dec.aed_loss(enc, list(self.TOKENS), params, heads=2)
            tp.backward(loss)
        got = [p.grad.copy() for p in collect_parameters(params)]
        for p in collect_parameters(params):
            p.zero_grad()
        want, want_frames, start = 0.0, [], 0
        for n, tokens in zip(self.MEMORY_LENGTHS, self.TOKENS):
            part = ad.Tensor(frames[start:start + n].copy())
            with ad.tape() as tp:
                one = dec.aed_loss(make_enc_from(part), [tokens], params, heads=2)
                tp.backward(one)
            want += float(one.data)
            want_frames.append(part.grad)
            start += n
        assert abs(float(loss.data) - want) <= 1e-12 * abs(want)
        assert np.max(np.abs(packed.grad - np.concatenate(want_frames))) <= 1e-12
        for g, p in zip(got, collect_parameters(params)):
            assert np.max(np.abs(g - p.grad)) <= 1e-12 * max(np.abs(p.grad).max(), 1e-3)

    def test_memory_count_must_match_the_sequences(self):
        rng = np.random.default_rng(21)
        params = dec.init_decoder(rng, 8, 1, 5, 2)
        enc = EncodedSequence(frames=ad.Tensor(rng.normal(size=(4, 8))),
                              orig_index=np.array([0, 1, 0, 1]), lengths=(2, 2))
        with pytest.raises(DimensionError):
            dec.aed_loss(enc, [[1], [2], [3]], params, heads=2)


def make_enc_from(frames):
    return EncodedSequence(frames=frames, orig_index=np.arange(frames.data.shape[0]))


def single_sequence_log_likelihood_reference(enc, tokens, params, heads):
    """The one-sequence decoder pass the packed scorer replaced."""
    inputs = [params.sos_id] + list(tokens)
    targets = np.asarray(list(tokens) + [params.eos_id], dtype=np.int64)
    d = params.embed.value.data.shape[1]
    x = ad.gather_rows(params.embed.value, np.asarray(inputs, dtype=np.int64))
    x = ad.add(x, positional_table(len(inputs), d))

    def attention(x, p, memory=None):
        h = _norm(x, p.norm)
        src = h if memory is None else memory
        q = ad.affine(h, p.wq.value, p.bq.value)
        k, v = (ad.affine(src, w.value, b.value) for w, b in ((p.wk, p.bk), (p.wv, p.bv)))
        ctx = ad.attention_core(q, k, v, heads, causal=memory is None,
                                q_lengths=[q.data.shape[0]], k_lengths=[k.data.shape[0]])
        return ad.affine(ctx, p.wo.value, p.bo.value)

    for block in params.blocks:
        x = ad.add(x, attention(x, block.self_attn))
        x = ad.add(x, attention(x, block.cross_attn, enc.frames))
        x = ad.add(x, _ffn_branch(x, block.ffn))
    logits = ad.affine(_norm(x, params.final_norm), params.out_w.value,
                       params.out_b.value).data
    m = logits.max(axis=1, keepdims=True)
    lse = (np.log(np.exp(logits - m).sum(axis=1, keepdims=True)) + m)[:, 0]
    return float((logits[np.arange(len(targets)), targets] - lse).sum())


def per_hypothesis_rescore_reference(enc, hypotheses, params, heads, ctc_weight=0.5):
    """The loop that ran the decoder once per hypothesis."""
    scores = [single_sequence_log_likelihood_reference(enc, tokens, params, heads)
              + ctc_weight * ctc_score for tokens, ctc_score in hypotheses]
    best = 0
    for i, sc in enumerate(scores):
        if sc > scores[best]:
            best = i
    return best, scores


class TestPackedRescore:
    """One packed decoder pass scores every hypothesis as if it ran alone."""

    @pytest.mark.parametrize("hyps", [
        [((), -2.0)],
        [((3, 1, 2), -1.0)],
        [((1, 2), -1.5), ((3, 4), -0.2), ((2, 2), -3.0)],
        [((), -4.0), ((1,), -2.5), ((4, 4, 1, 3, 2), -1.0), ((2, 1), -0.5)],
    ])
    def test_matches_per_hypothesis_passes(self, hyps):
        rng = np.random.default_rng(40)
        params = dec.init_decoder(rng, 8, 2, 5, 2)
        enc = make_enc(rng, 6, 8)
        best, scores = dec.rescore(enc, hyps, params, heads=2)
        want_best, want = per_hypothesis_rescore_reference(enc, hyps, params, 2)
        assert len(scores) == len(hyps)
        assert all(type(sc) is float for sc in scores)
        assert max(abs(a - b) for a, b in zip(scores, want)) <= 1e-12
        assert best == want_best

    def test_beam_output_on_random_hypotheses(self):
        rng = np.random.default_rng(41)
        params = dec.init_decoder(rng, 8, 2, 7, 2)
        enc = make_enc(rng, 9, 8)
        for _ in range(10):
            hyps = [(tuple(int(t) for t in rng.integers(1, 7, size=rng.integers(0, 9))),
                     float(rng.normal())) for _ in range(int(rng.integers(1, 9)))]
            _, scores = dec.rescore(enc, hyps, params, heads=2)
            _, want = per_hypothesis_rescore_reference(enc, hyps, params, 2)
            assert max(abs(a - b) for a, b in zip(scores, want)) <= 1e-12

    def test_other_hypotheses_do_not_leak(self):
        rng = np.random.default_rng(42)
        params = dec.init_decoder(rng, 8, 2, 5, 2)
        enc = make_enc(rng, 5, 8)
        hyps = [((1, 2, 3), -1.0), ((4,), -2.0), ((), -3.0), ((2, 2, 1, 4), -0.5)]
        _, base = dec.rescore(enc, hyps, params, heads=2)
        for i, changed in enumerate([(3, 3, 3, 1, 2), (1, 4, 4), (2,), ()]):
            moved = list(hyps)
            moved[i] = (changed, hyps[i][1])
            _, scores = dec.rescore(enc, moved, params, heads=2)
            assert abs(scores[i] - base[i]) > 1e-9
            others = [j for j in range(len(hyps)) if j != i]
            assert max(abs(scores[j] - base[j]) for j in others) <= 1e-12

    def test_equal_scores_pick_the_lower_index(self):
        rng = np.random.default_rng(43)
        params = dec.init_decoder(rng, 8, 1, 5, 2)
        enc = make_enc(rng, 4, 8)
        best, scores = dec.rescore(enc, [((1, 2), -1.0), ((1, 2), -1.0)], params, 2)
        assert scores[0] == scores[1] and best == 0

    def test_packed_logits_equal_separate_ones(self):
        rng = np.random.default_rng(44)
        params = dec.init_decoder(rng, 8, 2, 5, 2)
        enc = make_enc(rng, 5, 8)
        seqs = [[params.sos_id, 1, 2], [params.sos_id], [params.sos_id, 4, 4, 3, 1]]
        packed = dec.decoder_logits(enc, seqs, params, 2).data
        alone = np.concatenate([dec.decoder_logits(enc, [s], params, 2).data for s in seqs])
        assert packed.shape == (9, 7)
        assert np.max(np.abs(packed - alone)) <= 1e-12

    def test_empty_input_sequence_rejected(self):
        rng = np.random.default_rng(45)
        params = dec.init_decoder(rng, 8, 1, 5, 2)
        with pytest.raises(EmptySequenceError):
            dec.decoder_logits(make_enc(rng, 3, 8), [[params.sos_id], []], params, 2)
