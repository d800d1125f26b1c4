"""Tests for the output head, alignment loss, decoding, and blank flags."""

import itertools
import math

import numpy as np
import pytest

from skiprec import autodiff as ad
from skiprec import ctc
from skiprec.encoder import EncodedSequence
from skiprec.errors import (ContractError, DimensionError,
                            InfeasibleAlignmentError, ParameterError)


def log_softmax(logits):
    m = logits.max(axis=1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def uniform_grid(n_frames, vocab):
    lp = np.full((n_frames, vocab), -math.log(vocab))
    return ctc.PosteriorGrid(log_probs=ad.Tensor(lp))


def random_grid(rng, n_frames, vocab):
    return ctc.PosteriorGrid(log_probs=ad.Tensor(log_softmax(rng.normal(size=(n_frames, vocab)))))


def collapse(path):
    out = []
    prev = -1
    for cls in path:
        if cls != prev and cls != ctc.BLANK_ID:
            out.append(int(cls))
        prev = cls
    return tuple(out)


def path_log_prob(lp, path):
    return sum(lp[t, cls] for t, cls in enumerate(path))


def exhaustive_nll(lp, tokens):
    """Sum probability over every frame path that collapses to ``tokens``."""
    target = tuple(tokens)
    n_frames, vocab = lp.shape
    total = -np.inf
    for path in itertools.product(range(vocab), repeat=n_frames):
        if collapse(path) == target:
            total = np.logaddexp(total, path_log_prob(lp, path))
    return -total


def exhaustive_prefix_scores(lp):
    """Total collapsed-sequence probabilities, aggregated over all paths."""
    n_frames, vocab = lp.shape
    scores = {}
    for path in itertools.product(range(vocab), repeat=n_frames):
        key = collapse(path)
        val = path_log_prob(lp, path)
        scores[key] = np.logaddexp(scores.get(key, -np.inf), val)
    return scores


class TestMinFrames:
    @pytest.mark.parametrize("tokens,want", [
        ([], 0), ([1], 1), ([1, 2], 2), ([1, 1], 3),
        ([1, 1, 1], 5), ([1, 2, 2, 3], 5),
    ])
    def test_known_values(self, tokens, want):
        assert ctc.min_frames(tokens) == want


class TestCtcLoss:
    def test_uniform_two_frame_single_token(self):
        # Three of the four two-frame paths over {blank, 1} spell "1".
        grid = uniform_grid(2, 2)
        loss = ctc.ctc_loss(grid, [1])
        assert loss.data == pytest.approx(-math.log(0.75), rel=1e-12)

    def test_single_frame_single_token(self):
        grid = uniform_grid(1, 3)
        assert ctc.ctc_loss(grid, [2]).data == pytest.approx(math.log(3), rel=1e-12)

    @pytest.mark.parametrize("n_frames,vocab,n_tokens", [
        (3, 2, 1), (4, 3, 2), (5, 3, 2), (5, 4, 3), (6, 2, 2),
    ])
    def test_matches_exhaustive_enumeration(self, n_frames, vocab, n_tokens):
        rng = np.random.default_rng(n_frames * 100 + vocab * 10 + n_tokens)
        for _ in range(8):
            grid = random_grid(rng, n_frames, vocab)
            tokens = list(rng.integers(1, vocab, size=n_tokens))
            if n_frames < ctc.min_frames(tokens):
                continue
            want = exhaustive_nll(grid.log_probs.data, tokens)
            assert ctc.ctc_loss(grid, tokens).data == pytest.approx(want, abs=1e-6)

    def test_empty_token_sequence_consumes_all_blanks(self):
        rng = np.random.default_rng(7)
        grid = random_grid(rng, 4, 3)
        want = -grid.log_probs.data[:, 0].sum()
        assert ctc.ctc_loss(grid, []).data == pytest.approx(want, abs=1e-9)

    def test_infeasible_target_rejected(self):
        grid = uniform_grid(2, 3)
        with pytest.raises(InfeasibleAlignmentError):
            ctc.ctc_loss(grid, [1, 1])

    def test_zero_frames_rejected(self):
        grid = ctc.PosteriorGrid(log_probs=ad.Tensor(np.zeros((0, 3))))
        with pytest.raises(DimensionError):
            ctc.ctc_loss(grid, [1])

    @pytest.mark.parametrize("bad", [0, -1, 3, 7])
    def test_out_of_range_token_rejected(self, bad):
        grid = uniform_grid(4, 3)
        with pytest.raises(ContractError):
            ctc.ctc_loss(grid, [1, bad])

    def test_loss_gradient_through_head(self):
        rng = np.random.default_rng(21)
        head = ctc.init_head(rng, 8, 4)
        frames = ad.Tensor(rng.normal(size=(5, 8)))

        def loss(*_):
            seq = EncodedSequence(frames=frames, orig_index=np.arange(5))
            grid = ctc.posterior_grid(seq, head)
            return ctc.ctc_loss(grid, [1, 2, 1])

        err = ad.grad_check(loss, [frames, head.w.value, head.b.value])
        assert err <= 1e-4


class TestHead:
    def test_posterior_rows_normalize(self):
        rng = np.random.default_rng(3)
        head = ctc.init_head(rng, 8, 5)
        seq = EncodedSequence(frames=ad.Tensor(rng.normal(size=(6, 8))),
                              orig_index=np.arange(6))
        grid = ctc.posterior_grid(seq, head)
        assert grid.length == 6 and grid.vocab_size == 5
        np.testing.assert_allclose(np.exp(grid.log_probs.data).sum(axis=1), 1.0, atol=1e-12)

    def test_zero_weight_head_is_uniform(self):
        head = ctc.HeadParams(w=ad.Parameter(np.zeros((8, 5))),
                              b=ad.Parameter(np.zeros(5)))
        seq = EncodedSequence(frames=ad.Tensor(np.random.default_rng(4).normal(size=(3, 8))),
                              orig_index=np.arange(3))
        grid = ctc.posterior_grid(seq, head)
        np.testing.assert_allclose(grid.log_probs.data, -math.log(5), atol=1e-12)

    def test_tiny_vocab_rejected(self):
        with pytest.raises(ParameterError):
            ctc.init_head(np.random.default_rng(0), 8, 1)


class TestGreedyDecode:
    def test_blank_token_token_blank_token(self):
        # argmax path [blank, a, a, blank, b] collapses to "a b"
        lp = np.full((5, 3), -10.0)
        for t, cls in enumerate([0, 1, 1, 0, 2]):
            lp[t, cls] = 0.0
        assert ctc.greedy_decode(ctc.PosteriorGrid(ad.Tensor(lp))) == [1, 2]

    def test_repeat_separated_by_blank_survives(self):
        lp = np.full((3, 2), -10.0)
        for t, cls in enumerate([1, 0, 1]):
            lp[t, cls] = 0.0
        assert ctc.greedy_decode(ctc.PosteriorGrid(ad.Tensor(lp))) == [1, 1]

    def test_all_blank_decodes_empty(self):
        lp = np.zeros((4, 3))
        lp[:, 0] = 5.0
        assert ctc.greedy_decode(ctc.PosteriorGrid(ad.Tensor(lp))) == []

    def test_decode_properties_hold_on_random_grids(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            grid = random_grid(rng, int(rng.integers(1, 12)), int(rng.integers(2, 6)))
            out = ctc.greedy_decode(grid)
            assert len(out) <= grid.length
            assert all(1 <= t < grid.vocab_size for t in out)
            assert out == list(collapse(np.argmax(grid.log_probs.data, axis=1)))


class TestBlankFlags:
    def test_strict_threshold(self):
        # Hunt for a log value whose exp is exactly the threshold so the
        # equality case is genuinely exercised.
        beta = 0.99
        x = math.log(beta)
        candidates = [x]
        for _ in range(6):
            candidates.append(np.nextafter(candidates[-1], np.inf))
            candidates.insert(0, np.nextafter(candidates[0], -np.inf))
        exact = [c for c in candidates if np.exp(c) == beta]
        assert exact, "no double maps to the threshold exactly"
        lp = np.array([[exact[0], math.log(0.01)],
                       [math.log(0.995), math.log(0.005)],
                       [math.log(0.5), math.log(0.5)]])
        flags = ctc.blank_flags(ctc.PosteriorGrid(ad.Tensor(lp)), beta)
        assert flags.tolist() == [False, True, False]

    def test_flags_shape_and_dtype(self):
        rng = np.random.default_rng(9)
        grid = random_grid(rng, 7, 4)
        flags = ctc.blank_flags(grid, 0.5)
        assert flags.shape == (7,) and flags.dtype == np.bool_
        np.testing.assert_array_equal(
            flags, np.exp(grid.log_probs.data[:, 0]) > 0.5)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.2, 1.5])
    def test_threshold_domain_enforced(self, beta):
        grid = uniform_grid(3, 2)
        with pytest.raises(ParameterError):
            ctc.blank_flags(grid, beta)


class TestPrefixBeamSearch:
    def test_uniform_grid_matches_exhaustive_sums(self):
        # Five uniform frames over {blank, 1} can spell exactly four label
        # sequences, so a beam of four must recover all of them exactly.
        grid = uniform_grid(5, 2)
        oracle = exhaustive_prefix_scores(grid.log_probs.data)
        results = ctc.prefix_beam_search(grid, beam=4)
        assert len(results) == 4
        assert {r[0] for r in results} == {(), (1,), (1, 1), (1, 1, 1)}
        for prefix, score in results:
            assert score == pytest.approx(oracle[prefix], abs=1e-9)
        scores = [s for _, s in results]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("n_frames,vocab", [(3, 2), (4, 2), (3, 3), (5, 2)])
    def test_wide_beam_top1_matches_exhaustive(self, n_frames, vocab):
        rng = np.random.default_rng(n_frames * 10 + vocab)
        for _ in range(10):
            grid = random_grid(rng, n_frames, vocab)
            oracle = exhaustive_prefix_scores(grid.log_probs.data)
            best_prefix = max(oracle.items(), key=lambda kv: (kv[1], kv[0]))[0]
            results = ctc.prefix_beam_search(grid, beam=vocab ** n_frames + 1)
            assert results[0][0] == best_prefix
            assert results[0][1] == pytest.approx(oracle[best_prefix], abs=1e-9)

    def test_tie_breaks_lexicographically(self):
        grid = uniform_grid(1, 3)
        results = ctc.prefix_beam_search(grid, beam=3)
        assert [r[0] for r in results] == [(), (1,), (2,)]

    def test_bad_beam_rejected(self):
        with pytest.raises(ParameterError):
            ctc.prefix_beam_search(uniform_grid(2, 2), 0)


def dict_loop_prefix_beam_reference(grid, beam):
    """The per-prefix, per-token dict loop the vectorized search replaced."""
    lp = grid.log_probs.data
    n_frames, vocab = lp.shape
    beams = {(): [0.0, ad.NEG_FILL]}
    for t in range(n_frames):
        row = lp[t]
        nxt = {}

        def slot(prefix):
            e = nxt.get(prefix)
            if e is None:
                e = [ad.NEG_FILL, ad.NEG_FILL]
                nxt[prefix] = e
            return e

        for prefix, (p_blank, p_symbol) in beams.items():
            total = np.logaddexp(p_blank, p_symbol)
            stay = slot(prefix)
            stay[0] = np.logaddexp(stay[0], total + row[ctc.BLANK_ID])
            if prefix:
                stay[1] = np.logaddexp(stay[1], p_symbol + row[prefix[-1]])
            for c in range(1, vocab):
                grown = slot(prefix + (c,))
                if prefix and c == prefix[-1]:
                    grown[1] = np.logaddexp(grown[1], p_blank + row[c])
                else:
                    grown[1] = np.logaddexp(grown[1], total + row[c])
        ranked = sorted(nxt.items(), key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0]))
        beams = dict(ranked[:beam])
    scored = [(prefix, float(np.logaddexp(pb, ps))) for prefix, (pb, ps) in beams.items()]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


class TestPrefixBeamAgainstReference:
    """The vectorized search returns exactly what the dict loop returns."""

    @pytest.mark.parametrize("kind", ["plain", "peaky", "blank_heavy", "tied"])
    def test_identical_on_random_grids(self, kind):
        rng = np.random.default_rng(["plain", "peaky", "blank_heavy", "tied"].index(kind))
        for _ in range(300):
            n_frames = int(rng.integers(1, 25))
            vocab = int(rng.choice([2, 3, 5, 20]))
            beam = int(rng.choice([1, 3, 8, 40]))
            logits = rng.normal(size=(n_frames, vocab)) * (4.0 if kind == "peaky" else 1.0)
            if kind == "blank_heavy":
                logits[:, ctc.BLANK_ID] += 4.0
            if kind == "tied":
                logits = np.round(logits)
            grid = ctc.PosteriorGrid(log_probs=ad.Tensor(log_softmax(logits)))
            got = ctc.prefix_beam_search(grid, beam)
            assert got == dict_loop_prefix_beam_reference(grid, beam)
            assert all(type(score) is float for _, score in got)

    def test_identical_with_exact_ties(self):
        for n_frames, vocab, beam in [(1, 5, 3), (3, 4, 5), (4, 3, 2), (6, 2, 3)]:
            grid = uniform_grid(n_frames, vocab)
            assert ctc.prefix_beam_search(grid, beam) == \
                dict_loop_prefix_beam_reference(grid, beam)

    def test_beam_wider_than_hypothesis_count(self):
        # One frame over {blank, 1} spells only () and (1,).
        grid = uniform_grid(1, 2)
        got = ctc.prefix_beam_search(grid, beam=8)
        assert got == dict_loop_prefix_beam_reference(grid, 8)
        assert [prefix for prefix, _ in got] == [(), (1,)]
        rng = np.random.default_rng(5)
        for n_frames, vocab in [(2, 2), (3, 2), (2, 3)]:
            grid = random_grid(rng, n_frames, vocab)
            got = ctc.prefix_beam_search(grid, beam=100)
            assert got == dict_loop_prefix_beam_reference(grid, 100)
            assert len(got) < 100

    def test_zero_frames_give_the_empty_prefix(self):
        grid = ctc.PosteriorGrid(log_probs=ad.Tensor(np.zeros((0, 3))))
        assert ctc.prefix_beam_search(grid, 4) == [((), 0.0)]
