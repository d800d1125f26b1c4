"""Tests for the conformer-style encoder blocks."""

import math

import numpy as np
import pytest

from skiprec import autodiff as ad
from skiprec import encoder as enc
from skiprec.errors import EmptySequenceError, ParameterError


def make_seq(rng, length, d):
    frames = ad.Tensor(rng.normal(size=(length, d)))
    return enc.EncodedSequence(frames=frames, orig_index=np.arange(length, dtype=np.int64))


class TestBlockShapes:
    def test_shape_and_index_passthrough(self):
        rng = np.random.default_rng(0)
        block = enc.init_block(rng, d_model=8, heads=2, kernel=3, ffn_multiple=2)
        seq = make_seq(rng, 5, 8)
        seq.orig_index = np.array([0, 2, 3, 7, 9], dtype=np.int64)
        out = enc.conformer_block(seq, block, heads=2)
        assert out.frames.data.shape == (5, 8)
        assert out.orig_index is seq.orig_index

    def test_a_sequence_built_without_lengths_is_one_utterance(self):
        rng = np.random.default_rng(0)
        seq = make_seq(rng, 5, 8)
        assert seq.lengths == (5,)
        block = enc.init_block(rng, d_model=8, heads=2, kernel=3, ffn_multiple=2)
        assert enc.conformer_block(seq, block, heads=2).lengths == (5,)

    @pytest.mark.parametrize("length", [1, 2, 9])
    def test_run_blocks_matches_sequential_application(self, length):
        rng = np.random.default_rng(1)
        blocks = [enc.init_block(rng, 8, 2, 3, 2) for _ in range(3)]
        seq = make_seq(rng, length, 8)
        stacked = enc.run_blocks(seq, blocks, heads=2)
        manual = seq
        for b in blocks:
            manual = enc.conformer_block(manual, b, heads=2)
        np.testing.assert_array_equal(stacked.frames.data, manual.frames.data)

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(2)
        block = enc.init_block(rng, 8, 2, 3, 2)
        seq = make_seq(rng, 0, 8)
        with pytest.raises(EmptySequenceError):
            enc.conformer_block(seq, block, heads=2)

    def test_even_kernel_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ParameterError):
            enc.init_block(rng, 8, 2, kernel=4, ffn_multiple=2)

    def test_width_not_divisible_by_heads_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ParameterError):
            enc.init_block(rng, 9, 2, kernel=3, ffn_multiple=2)


class TestIdentityBlock:
    def test_zeroed_branches_give_bitwise_identity(self):
        rng = np.random.default_rng(5)
        block = enc.zero_residual_branches(enc.init_block(rng, 8, 2, 3, 2))
        for trial in range(5):
            seq = make_seq(rng, int(rng.integers(1, 12)), 8)
            before = seq.frames.data.copy()
            out = enc.conformer_block(seq, block, heads=2)
            np.testing.assert_array_equal(out.frames.data, before)

    def test_zeroed_stack_is_still_identity(self):
        rng = np.random.default_rng(6)
        blocks = [enc.zero_residual_branches(enc.init_block(rng, 8, 4, 5, 2))
                  for _ in range(3)]
        seq = make_seq(rng, 7, 8)
        before = seq.frames.data.copy()
        out = enc.run_blocks(seq, blocks, heads=4)
        np.testing.assert_array_equal(out.frames.data, before)

    def test_unzeroed_block_changes_input(self):
        rng = np.random.default_rng(7)
        block = enc.init_block(rng, 8, 2, 3, 2)
        seq = make_seq(rng, 6, 8)
        out = enc.conformer_block(seq, block, heads=2)
        assert not np.allclose(out.frames.data, seq.frames.data)


class TestAttentionBranch:
    def test_constant_values_give_their_projection(self):
        # With every value row equal, each frame's weights, which sum to one,
        # give that row back, and the branch is its output projection.
        rng = np.random.default_rng(8)
        p = enc.init_attention(rng, 8)
        p.wv.value.data[...] = 0.0
        p.bv.value.data[...] = rng.normal(size=8)
        x = ad.Tensor(rng.normal(size=(6, 8)))
        out = enc.self_attention_branch(x, p, heads=2, lengths=(3, 3))
        want = p.bv.value.data @ p.wo.value.data + p.bo.value.data
        np.testing.assert_allclose(out.data, np.tile(want, (6, 1)), rtol=0, atol=1e-12)


def attention_macs(monkeypatch):
    """Score-matrix multiply-accumulates of every ``attention_core`` call."""
    macs = []
    core = ad.attention_core

    def counting_core(q, k, v, heads, *args, **kwargs):
        macs.append(q.data.shape[0] * k.data.shape[0] * q.data.shape[1])
        return core(q, k, v, heads, *args, **kwargs)

    monkeypatch.setattr(ad, "attention_core", counting_core)
    return macs


class TestMacCounter:
    @pytest.mark.parametrize("length,d,heads", [(5, 8, 2), (9, 8, 4), (3, 16, 2)])
    def test_single_block_tally(self, length, d, heads, monkeypatch):
        rng = np.random.default_rng(10)
        block = enc.init_block(rng, d, heads, 3, 2)
        seq = make_seq(rng, length, d)
        macs = attention_macs(monkeypatch)
        enc.conformer_block(seq, block, heads=heads)
        assert macs == [heads * length * length * (d // heads)]

    def test_stack_tally_accumulates(self, monkeypatch):
        rng = np.random.default_rng(11)
        blocks = [enc.init_block(rng, 8, 2, 3, 2) for _ in range(3)]
        seq = make_seq(rng, 4, 8)
        macs = attention_macs(monkeypatch)
        enc.run_blocks(seq, blocks, heads=2)
        assert sum(macs) == 3 * 2 * 4 * 4 * 4


class TestPositionalTable:
    def test_values_match_direct_formula(self):
        table = enc.positional_table(10, 8)
        for pos in range(10):
            for j in range(8):
                angle = pos / 10000.0 ** ((j - j % 2) / 8)
                want = math.sin(angle) if j % 2 == 0 else math.cos(angle)
                assert table[pos, j] == pytest.approx(want, abs=1e-12)

    def test_first_row_alternates_zero_one(self):
        table = enc.positional_table(4, 6)
        np.testing.assert_allclose(table[0], [0, 1, 0, 1, 0, 1], atol=1e-15)

    def test_attach_positions_adds_table(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(6, 8))
        out = enc.attach_positions(ad.Tensor(x.copy()))
        np.testing.assert_allclose(out.data, x + enc.positional_table(6, 8), atol=0)

    def test_cache_returns_consistent_values(self):
        a = enc.positional_table(5, 4)
        b = enc.positional_table(5, 4)
        np.testing.assert_array_equal(a, b)

    def test_shorter_request_reads_the_longer_table_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(enc, "_POS_CACHE", {})
        fresh = {}
        for n in (1, 7, 38, 265, 278):
            enc._POS_CACHE.clear()
            fresh[n] = enc.positional_table(n, 64).copy()
        enc._POS_CACHE.clear()
        enc.positional_table(300, 64)
        enc.positional_table(300, 8)
        for n, table in fresh.items():
            assert np.array_equal(enc.positional_table(n, 64), table)
        assert sorted((d, len(t)) for d, t in enc._POS_CACHE.items()) == [(8, 300), (64, 300)]


class TestDropout:
    def test_dropout_perturbs_and_disabling_restores(self):
        rng = np.random.default_rng(14)
        block = enc.init_block(rng, 8, 2, 3, 2)
        seq = make_seq(rng, 6, 8)
        clean = enc.conformer_block(seq, block, heads=2).frames.data.copy()
        drop = enc.make_dropout(0.5, np.random.default_rng(1))
        noisy = enc.conformer_block(seq, block, 2, drop).frames.data
        assert not np.array_equal(noisy, clean)
        again = enc.conformer_block(seq, block, heads=2).frames.data
        np.testing.assert_array_equal(again, clean)
        assert enc.make_dropout(0.0, np.random.default_rng(1)) is None
        assert enc.make_dropout(0.5, None) is None


class TestBlockGradients:
    def test_gradient_wrt_input_frames(self):
        rng = np.random.default_rng(15)
        block = enc.init_block(rng, 8, 2, 3, 2)
        x = ad.Tensor(rng.normal(size=(3, 8)))

        def loss(frames):
            seq = enc.EncodedSequence(frames=frames, orig_index=np.arange(3))
            out = enc.conformer_block(seq, block, heads=2)
            return ad.sum_all(ad.mul(out.frames, out.frames))

        err = ad.grad_check(loss, [x])
        assert err <= 1e-4

    def test_gradient_wrt_selected_parameters(self):
        rng = np.random.default_rng(16)
        block = enc.init_block(rng, 8, 2, 3, 2)
        frames = rng.normal(size=(3, 8))

        def loss(*_):
            seq = enc.EncodedSequence(frames=ad.Tensor(frames), orig_index=np.arange(3))
            out = enc.conformer_block(seq, block, heads=2)
            return ad.sum_all(ad.mul(out.frames, out.frames))

        targets = [block.attn.wq.value, block.conv.dw_w.value,
                   block.ffn1.w1.value, block.out_norm.gain.value]
        err = ad.grad_check(loss, targets)
        assert err <= 1e-4
