"""Tests for the output head, alignment loss, decoding, and blank flags."""

import itertools
import math

import numpy as np
import pytest

from skiprec import autodiff as ad
from skiprec import ctc
from skiprec.encoder import EncodedSequence
from skiprec.errors import (ContractError, DimensionError,
                            InfeasibleAlignmentError, NumericError, ParameterError)

from support import grad_check, sum_all, tensor


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
        loss = ctc.ctc_loss(grid, [[1]], [2])
        assert loss.data == pytest.approx(-math.log(0.75), rel=1e-12)

    def test_single_frame_single_token(self):
        grid = uniform_grid(1, 3)
        assert ctc.ctc_loss(grid, [[2]], [1]).data == pytest.approx(math.log(3), rel=1e-12)

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
            assert ctc.ctc_loss(grid, [tokens], [n_frames]).data == pytest.approx(want, abs=1e-6)

    def test_empty_token_sequence_consumes_all_blanks(self):
        rng = np.random.default_rng(7)
        grid = random_grid(rng, 4, 3)
        want = -grid.log_probs.data[:, 0].sum()
        assert ctc.ctc_loss(grid, [[]], [4]).data == pytest.approx(want, abs=1e-9)

    def test_infeasible_target_rejected(self):
        grid = uniform_grid(2, 3)
        with pytest.raises(InfeasibleAlignmentError):
            ctc.ctc_loss(grid, [[1, 1]], [2])

    def test_zero_frames_rejected(self):
        grid = ctc.PosteriorGrid(log_probs=ad.Tensor(np.zeros((0, 3))))
        with pytest.raises(DimensionError):
            ctc.ctc_loss(grid, [[1]], [0])

    @pytest.mark.parametrize("bad", [0, -1, 3, 7])
    def test_out_of_range_token_rejected(self, bad):
        grid = uniform_grid(4, 3)
        with pytest.raises(ContractError):
            ctc.ctc_loss(grid, [[1, bad]], [4])

    def test_loss_gradient_through_head(self):
        rng = np.random.default_rng(21)
        head = ctc.init_head(rng, 8, 4)
        frames = ad.Tensor(rng.normal(size=(5, 8)))

        def loss(*_):
            seq = EncodedSequence(frames=frames, orig_index=np.arange(5))
            grid = ctc.posterior_grid(seq, head)
            return ctc.ctc_loss(grid, [[1, 2, 1]], [5])

        err = grad_check(loss, [frames, head.w.value, head.b.value])
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


# The composed loss that ``autodiff.lattice_nll`` replaced: per-frame tape
# ops for the start mask, the emission gather and the lattice step.

def _ref_gather_cells(x, rows, cols):
    out = ad.Tensor(x.data[rows, cols])

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, cols), g)
        ad._accum(x, gx)

    ad._record(out, bwd)
    return out


def _ref_masked_keep(x, keep):
    filled = x.data.copy()
    filled[~keep] = ad.NEG_FILL
    out = ad._make(filled, "masked_keep")

    def bwd(g):
        ad._accum(x, g * keep)

    ad._record(out, bwd)
    return out


def _ref_shifted_logsumexp3(x, allow_skip):
    n = x.data.shape[0]
    fill = np.full(2, ad.NEG_FILL, dtype=x.data.dtype)
    b0 = x.data
    b1 = np.concatenate([fill[:1], x.data[:-1]])
    b2 = np.concatenate([fill, x.data[:-2]]) if n >= 2 else np.full(n, ad.NEG_FILL, x.data.dtype)
    b2[~allow_skip] = ad.NEG_FILL
    m = np.maximum(np.maximum(b0, b1), b2)
    out = ad._make(m + np.log(np.exp(b0 - m) + np.exp(b1 - m) + np.exp(b2 - m)), "step")

    def bwd(g):
        gx = g * np.exp(b0 - out.data)
        gx[:-1] += (g * np.exp(b1 - out.data))[1:]
        if n >= 2:
            gx[:-2] += (g * np.exp(b2 - out.data) * allow_skip)[2:]
        ad._accum(x, gx)

    ad._record(out, bwd)
    return out


def _ref_logsumexp_all(x):
    m = float(x.data.max())
    out = ad._make(np.asarray(m + np.log(np.exp(x.data - m).sum())), "logsumexp_all")

    def bwd(g):
        ad._accum(x, g * np.exp(x.data - out.data))

    ad._record(out, bwd)
    return out


def composed_ctc_loss_reference(grid, tokens):
    """The CTC loss as 3T + 2 tape ops, as it was before the fused op."""
    lp = grid.log_probs
    ext = np.empty(2 * len(tokens) + 1, dtype=np.int64)
    ext[0::2] = ctc.BLANK_ID
    ext[1::2] = tokens
    s = ext.shape[0]
    allow_skip = np.zeros(s, dtype=bool)
    if s >= 3:
        allow_skip[2:] = (ext[2:] != ctc.BLANK_ID) & (ext[2:] != ext[:-2])
    alpha = _ref_masked_keep(_ref_gather_cells(lp, np.zeros(s, dtype=np.int64), ext),
                             np.arange(s) < 2)
    for t in range(1, lp.data.shape[0]):
        emit = _ref_gather_cells(lp, np.full(s, t, dtype=np.int64), ext)
        alpha = ad.add(_ref_shifted_logsumexp3(alpha, allow_skip), emit)
    final_states = [s - 1] if s == 1 else [s - 2, s - 1]
    return ad.mul(_ref_logsumexp_all(ad.gather_rows(alpha, final_states)), -1.0)


def ctc_loss_of_one(grid, tokens):
    """``ctc_loss`` of a grid that holds one utterance."""
    return ctc.ctc_loss(grid, [tokens], [grid.length])


def loss_and_grads(loss_fn, logits, tokens, extra=None):
    """Loss value and the log-prob and logits gradients of one tape pass.

    With ``extra``, a second term reads the log probs after the loss, so the
    loss's backward adds into a gradient that is already there.
    """
    x = tensor(logits, dtype=logits.dtype)
    with ad.tape() as tp:
        grid = ctc.PosteriorGrid(log_probs=ad.log_softmax_rows(x))
        loss = loss_fn(grid, tokens)
        root = ad.mul(loss, 0.7)
        if extra is not None:
            root = ad.add(root, sum_all(ad.mul(grid.log_probs, extra)))
        tp.backward(root)
    return loss.data, grid.log_probs.grad, x.grad


def random_lattice_case(rng, dtype):
    vocab = int(rng.choice([2, 3, 5, 20, 200]))
    n_tokens = int(rng.integers(0, 7))
    tokens = [int(t) for t in rng.integers(1, vocab, size=n_tokens)]
    if n_tokens > 1 and rng.random() < 0.3:
        tokens[1:] = [tokens[0]] * (n_tokens - 1)  # repeats force blanks
    need = max(ctc.min_frames(tokens), 1)
    n_frames = need + int(rng.choice([0, 0, 1, int(rng.integers(0, 30))]))
    logits = rng.normal(size=(n_frames, vocab)) * float(rng.choice([1.0, 4.0]))
    heavy = rng.random(n_frames) < float(rng.choice([0.0, 0.5, 0.9]))
    logits[heavy, ctc.BLANK_ID] += 8.0
    extra = rng.normal(size=logits.shape).astype(dtype) if rng.random() < 0.3 else None
    return logits.astype(dtype), tokens, extra


class TestLatticeOpAgainstComposedReference:
    """The fused lattice op is bit-identical to the composed per-frame ops."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_identical_on_random_grids(self, dtype):
        rng = np.random.default_rng(60 + (dtype == np.float32))
        for _ in range(1100):
            logits, tokens, extra = random_lattice_case(rng, dtype)
            got = loss_and_grads(ctc_loss_of_one, logits, tokens, extra)
            want = loss_and_grads(composed_ctc_loss_reference, logits, tokens, extra)
            assert got[0] == want[0] and got[0].dtype == want[0].dtype
            for have, ref in zip(got[1:], want[1:]):
                assert have.dtype == ref.dtype and np.array_equal(have, ref)

    @pytest.mark.parametrize("n_frames,tokens", [
        (1, []), (1, [1]), (3, [1, 1]), (5, [2, 2, 2]), (5, [1, 2, 2, 3]), (4, []),
    ])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_identical_at_the_edges(self, n_frames, tokens, dtype):
        rng = np.random.default_rng(n_frames)
        for logits in (rng.normal(size=(n_frames, 4)), np.zeros((n_frames, 4))):
            logits = logits.astype(dtype)
            logits[:, ctc.BLANK_ID] += 20.0
            got = loss_and_grads(ctc_loss_of_one, logits, tokens)
            want = loss_and_grads(composed_ctc_loss_reference, logits, tokens)
            assert got[0] == want[0]
            assert all(np.array_equal(h, r) for h, r in zip(got[1:], want[1:]))

    def test_float32_loss_backpropagates_in_float32(self):
        rng = np.random.default_rng(66)
        logits = rng.normal(size=(7, 5)).astype(np.float32)
        loss, lp_grad, x_grad = loss_and_grads(ctc_loss_of_one, logits, [1, 3, 3])
        assert loss.dtype == np.float32
        assert lp_grad.dtype == np.float32 and x_grad.dtype == np.float32

    def test_is_one_tape_entry(self):
        grid = uniform_grid(9, 5)
        with ad.tape() as tp:
            ctc.ctc_loss(grid, [[1, 2, 2]], [9])
        assert len(tp) == 1

    def test_rejects_malformed_lattices(self):
        lp = tensor(np.log(np.full((3, 4), 0.25)))
        for states, skips, size in [([0], [0], 0), ([0, 1, 0], [0, 0, 0], 4),
                                    ([0, 4, 0], [0, 0, 0], 3), ([0, 1], [0, 0, 0], 2),
                                    ([[0, 1, 0]], [[0, 0, 0]], 3)]:
            with pytest.raises(DimensionError):
                ad.lattice_nll(lp, [states], [skips], [size], [3])

    def test_non_finite_log_probs_on_the_path_raise(self):
        lp = np.log(np.full((3, 4), 0.25))
        lp[:, 3] = -np.inf  # class 3 is off the path, so the op never reads it
        ad.lattice_nll(tensor(lp), [[0, 2, 0]], [[False, False, False]], [3], [3])
        lp[1, 2] = np.nan
        with pytest.raises(NumericError, match="sequence 0"):
            ad.lattice_nll(tensor(lp), [[0, 2, 0]], [[False, False, False]], [3], [3])


def per_utterance_loss_and_grads(logits, token_seqs, lengths, extra=None):
    """The packed loss as it was before the packed op: one ``ctc_loss`` per
    utterance on its own rows, the losses summed in order with ``add``, and
    the row blocks' gradients stacked back into one grid gradient."""
    x = tensor(logits, dtype=logits.dtype)
    with ad.tape() as tp:
        grid = ad.log_softmax_rows(x)
        parts = [ad.Tensor(block) for block in np.split(grid.data, np.cumsum(lengths)[:-1])]

        def stack_grads(_):
            ad._accum(grid, np.concatenate([p.grad for p in parts]))

        # Every part feeds a loss, so the last part's gradient means all are in.
        ad._record(parts[-1], stack_grads)
        total = None
        for part, tokens in zip(parts, token_seqs):
            loss = ctc.ctc_loss(ctc.PosteriorGrid(part), [tokens], [part.data.shape[0]])
            total = loss if total is None else ad.add(total, loss)
        root = ad.mul(total, 0.7)
        if extra is not None:
            root = ad.add(root, sum_all(ad.mul(grid, extra)))
        tp.backward(root)
    return total.data, grid.grad, x.grad


def packed_loss_and_grads(logits, token_seqs, lengths, extra=None):
    x = tensor(logits, dtype=logits.dtype)
    with ad.tape() as tp:
        grid = ad.log_softmax_rows(x)
        loss = ctc.ctc_loss(ctc.PosteriorGrid(grid), token_seqs, lengths)
        root = ad.mul(loss, 0.7)
        if extra is not None:
            root = ad.add(root, sum_all(ad.mul(grid, extra)))
        tp.backward(root)
    return loss.data, grid.grad, x.grad


def random_batch_case(rng, dtype):
    """A ragged batch of 1 to 6 utterances over one vocabulary."""
    vocab = int(rng.choice([2, 3, 5, 20]))
    token_seqs, lengths = [], []
    for _ in range(int(rng.integers(1, 7))):
        tokens = [int(t) for t in rng.integers(1, vocab, size=int(rng.integers(0, 6)))]
        if len(tokens) > 1 and rng.random() < 0.3:
            tokens[1:] = [tokens[0]] * (len(tokens) - 1)  # repeats force blanks
        token_seqs.append(tokens)
        lengths.append(max(ctc.min_frames(tokens), 1) + int(rng.choice([0, 0, 1, 5, 20])))
    logits = rng.normal(size=(sum(lengths), vocab)) * float(rng.choice([1.0, 4.0]))
    logits[rng.random(sum(lengths)) < 0.5, ctc.BLANK_ID] += 8.0
    extra = rng.normal(size=logits.shape).astype(dtype) if rng.random() < 0.3 else None
    return logits.astype(dtype), token_seqs, lengths, extra


def assert_same_bits(got, want):
    assert got[0] == want[0] and got[0].dtype == want[0].dtype
    for have, ref in zip(got[1:], want[1:]):
        assert have.dtype == ref.dtype and np.array_equal(have, ref)


class TestPackedLattice:
    """One lattice op over a packed grid equals one call per utterance, to the bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_identical_to_per_utterance_calls_on_random_batches(self, dtype):
        rng = np.random.default_rng(70 + (dtype == np.float32))
        for _ in range(400):
            logits, token_seqs, lengths, extra = random_batch_case(rng, dtype)
            assert_same_bits(packed_loss_and_grads(logits, token_seqs, lengths, extra),
                             per_utterance_loss_and_grads(logits, token_seqs, lengths, extra))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_identical_at_the_edges(self, dtype):
        # One-frame utterances, empty targets and repeated tokens, side by side.
        token_seqs = [[1], [], [2, 2], [], [1, 2, 2, 3], [3, 3, 3]]
        lengths = [1, 1, 3, 4, 5, 5]
        rng = np.random.default_rng(72)
        for logits in (rng.normal(size=(sum(lengths), 4)), np.zeros((sum(lengths), 4))):
            logits = logits.astype(dtype)
            logits[:, ctc.BLANK_ID] += 20.0
            assert_same_bits(packed_loss_and_grads(logits, token_seqs, lengths),
                             per_utterance_loss_and_grads(logits, token_seqs, lengths))

    def test_is_one_tape_entry(self):
        grid = uniform_grid(12, 5)
        with ad.tape() as tp:
            ctc.ctc_loss(grid, [[1, 2, 2], [], [3]], [5, 3, 4])
        assert len(tp) == 1

    def test_non_finite_value_on_one_utterance_path_names_it(self):
        lp = np.log(np.full((9, 5), 0.2))
        lp[:, 4] = -np.inf  # no lattice reads class 4
        ctc.ctc_loss(ctc.PosteriorGrid(tensor(lp)), [[1], [2, 3], [1]], [2, 4, 3])
        lp[4, 3] = np.nan   # frame 2 of utterance 1, on its path
        with pytest.raises(NumericError, match="sequence 1"):
            ctc.ctc_loss(ctc.PosteriorGrid(tensor(lp)), [[1], [2, 3], [1]], [2, 4, 3])

    def test_per_utterance_errors_name_the_utterance(self):
        grid = uniform_grid(6, 4)
        with pytest.raises(InfeasibleAlignmentError, match="utterance 1"):
            ctc.ctc_loss(grid, [[1], [2, 2], [3]], [2, 2, 2])
        with pytest.raises(ContractError, match="utterance 2"):
            ctc.ctc_loss(grid, [[1], [2], [4]], [2, 2, 2])
        with pytest.raises(ContractError):
            ctc.ctc_loss(grid, [[1], [2]], [2, 2, 2])
        with pytest.raises(DimensionError):
            ctc.ctc_loss(grid, [[1], [2]], [2, 3])
        with pytest.raises(DimensionError):
            ctc.ctc_loss(grid, [[1], []], [6, 0])

    def test_a_bare_token_list_is_not_one_utterance(self):
        grid = uniform_grid(6, 4)
        with pytest.raises(ContractError, match="2 token sequences for 1 utterances"):
            ctc.ctc_loss(grid, [1, 2], [6])
        with pytest.raises(ContractError, match="utterance 0"):
            ctc.ctc_loss(grid, [3], [6])
