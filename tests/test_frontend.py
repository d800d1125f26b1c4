import tracemalloc

import numpy as np
import pytest

from skiprec import autodiff as ad
from skiprec import frontend
from skiprec.errors import DimensionError, InputTooShortError
from skiprec.frontend import FeatureSequence


def conv_len(n, kernel=3, stride=2):
    # direct simulation of one valid strided conv along one axis
    return 0 if n < kernel else (n - kernel) // stride + 1


class TestLengthFormula:
    def test_property_against_simulator(self):
        for t_in in range(7, 2001):
            expected = conv_len(conv_len(t_in))
            assert frontend.subsampled_length(t_in) == expected, t_in

    def test_minimum_input(self):
        assert frontend.subsampled_length(7) == 1

    def test_known_value(self):
        assert frontend.subsampled_length(103) == 25

    def test_too_short_names_minimum(self):
        params = frontend.init_frontend(np.random.default_rng(0), 16, 8)
        feats = FeatureSequence(utterance_id="u", frames=np.zeros((6, 16)))
        with pytest.raises(InputTooShortError) as e:
            frontend.subsample(feats, params)
        assert "7" in str(e.value)


class TestSubsample:
    def test_output_shape(self):
        rng = np.random.default_rng(1)
        params = frontend.init_frontend(rng, 16, 12)
        feats = FeatureSequence(utterance_id="u", frames=rng.normal(size=(50, 16)))
        out = frontend.subsample(feats, params)
        t = frontend.subsampled_length(50)
        assert out.frames.data.shape == (t, 12)

    def test_zero_input_zero_bias_gives_zero(self):
        rng = np.random.default_rng(2)
        params = frontend.init_frontend(rng, 16, 8)
        for p in (params.conv1_b, params.conv2_b, params.proj_b):
            p.value.data[...] = 0.0
        feats = FeatureSequence(utterance_id="u", frames=np.zeros((20, 16)))
        out = frontend.subsample(feats, params)
        assert np.array_equal(out.frames.data, np.zeros_like(out.frames.data))

    def test_narrow_feature_dim_rejected(self):
        with pytest.raises(DimensionError):
            frontend.init_frontend(np.random.default_rng(0), 6, 8)

    def test_features_too_wide_for_the_projection_rejected(self):
        # 20 features make more conv columns than a 16-feature projection takes.
        params = frontend.init_frontend(np.random.default_rng(0), 16, 8)
        feats = FeatureSequence(utterance_id="u", frames=np.zeros((20, 20)))
        with pytest.raises(DimensionError, match="feature dim 20 incompatible with projection"):
            frontend.subsample(feats, params)

    def test_deterministic_under_seed(self):
        a = frontend.init_frontend(np.random.default_rng(3), 16, 8)
        b = frontend.init_frontend(np.random.default_rng(3), 16, 8)
        assert np.array_equal(a.proj_w.value.data, b.proj_w.value.data)

    def test_grad_through_frontend(self):
        rng = np.random.default_rng(4)
        params = frontend.init_frontend(rng, 8, 8)
        frames = rng.normal(size=(12, 8))
        feats = FeatureSequence(utterance_id="u", frames=frames)

        # grad_check perturbs these live tensors in place; f recomputes from params
        def f(_w, _b):
            out = frontend.subsample(feats, params)
            return ad.sum_all(ad.mul(out.frames, out.frames))

        err = ad.grad_check(f, [params.conv1_w.value, params.proj_b.value], h=1e-5)
        assert err <= 1e-4


# The (Ci, H, W) convolution and per-utterance frontend that the
# channels-last, packed ones replaced, kept as the reference.

def reference_conv2d_s2(x, w, b):
    """Valid 2-D convolution with stride 2: (Ci, H, W) -> (Co, H', W')."""
    kh, kw = w.data.shape[2:]
    win = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(1, 2))[:, ::2, ::2]
    out = ad.Tensor(np.tensordot(w.data, win, axes=([1, 2, 3], [0, 3, 4]))
                    + b.data[:, None, None])
    ho, wo = out.data.shape[1:]

    def bwd(g):
        ad._accum(w, np.tensordot(g, win, axes=([1, 2], [1, 2])))
        ad._accum(b, g.sum(axis=(1, 2)))
        gx = np.zeros_like(x.data)
        for ky in range(kh):
            for kx in range(kw):
                gx[:, ky:ky + 2 * ho:2, kx:kx + 2 * wo:2] += np.tensordot(
                    w.data[:, :, ky, kx], g, axes=([0], [0]))
        ad._accum(x, gx)

    ad._record(out, bwd)
    return out


def reference_subsample(feats, params):
    t_in, feat_dim = feats.frames.shape
    x = ad.reshape(ad.Tensor(feats.frames), (1, t_in, feat_dim))
    h = ad.swish(reference_conv2d_s2(x, params.conv1_w.value, params.conv1_b.value))
    h = ad.swish(reference_conv2d_s2(h, params.conv2_w.value, params.conv2_b.value))
    c, t, f2 = h.data.shape
    h = ad.reshape(ad.permute(h, (1, 0, 2)), (t, c * f2))
    return ad.affine(h, params.proj_w.value, params.proj_b.value)


def frontend_grads(params, run):
    """Gradients of the frontend parameters under a fixed random readout."""
    named = [("conv1_w", params.conv1_w), ("conv1_b", params.conv1_b),
             ("conv2_w", params.conv2_w), ("conv2_b", params.conv2_b),
             ("proj_w", params.proj_w), ("proj_b", params.proj_b)]
    for _, p in named:
        p.zero_grad()
    with ad.tape() as tp:
        out = run()
        readout = np.random.default_rng(99).normal(size=out.data.shape)
        tp.backward(ad.sum_all(ad.mul(out, readout)))
    return out.data, {name: p.grad for name, p in named}


def assert_close(have, want, rel=1e-12):
    assert np.max(np.abs(have - want)) <= rel * max(float(np.abs(want).max()), 1e-3)


class TestChannelsLastConv:
    def test_matches_the_channels_first_reference(self):
        rng = np.random.default_rng(20)
        for h, w, ci, co in [(7, 9, 1, 4), (15, 8, 3, 5), (9, 7, 6, 6)]:
            x = rng.normal(size=(h, w, ci))
            kernel, bias = rng.normal(size=(co, ci, 3, 3)), rng.normal(size=co)
            g = rng.normal(size=((h - 3) // 2 + 1, (w - 3) // 2 + 1, co))
            results = []
            for conv, layout in ((ad.conv2d_s2, (0, 1, 2)), (reference_conv2d_s2, (2, 0, 1))):
                xt, kt, bt = ad.tensor(x.transpose(layout)), ad.tensor(kernel), ad.tensor(bias)
                with ad.tape() as tp:
                    out = conv(xt, kt, bt)
                    if conv is reference_conv2d_s2:
                        out = ad.permute(out, (1, 2, 0))
                    tp.backward(ad.sum_all(ad.mul(out, g)))
                gx = xt.grad if conv is ad.conv2d_s2 else xt.grad.transpose(1, 2, 0)
                results.append((out.data, gx, kt.grad, bt.grad))
            for have, want in zip(*results):
                assert have.shape == want.shape
                assert_close(have, want)


class TestPackedSubsample:
    # Every length mod 4, and exactly MIN_INPUT_FRAMES in mid-batch.
    LENGTHS = [9, 7, 10, 11, 8, 7]

    @staticmethod
    def batch(rng, lengths, feat_dim=16):
        return [FeatureSequence(f"u{i}", rng.normal(size=(n, feat_dim)))
                for i, n in enumerate(lengths)]

    def test_matches_per_utterance_calls_and_the_reference(self):
        rng = np.random.default_rng(21)
        params = frontend.init_frontend(rng, 16, 8)
        for p in (params.conv1_b, params.conv2_b, params.proj_b):
            p.value.data[...] = rng.normal(size=p.value.data.shape)
        feats = self.batch(rng, self.LENGTHS + [23, 50])
        packed = frontend.subsample(feats, params)
        assert packed.lengths == tuple(frontend.subsampled_length(n)
                                       for n in self.LENGTHS + [23, 50])
        out, grads = frontend_grads(params, lambda: frontend.subsample(feats, params).frames)
        rows = np.split(np.arange(out.shape[0]), np.cumsum(packed.lengths)[:-1])
        want = {name: 0.0 for name in grads}
        readout = np.random.default_rng(99).normal(size=out.shape)
        for utt, r in zip(feats, rows):
            one = frontend.subsample(utt, params)
            assert one.lengths == (one.length,)
            assert_close(out[r], one.frames.data)
            for p in (params.conv1_w, params.conv1_b, params.conv2_w, params.conv2_b,
                      params.proj_w, params.proj_b):
                p.zero_grad()
            with ad.tape() as tp:
                ref = reference_subsample(utt, params)
                tp.backward(ad.sum_all(ad.mul(ref, readout[r])))
            assert_close(out[r], ref.data)
            for name in want:
                want[name] = want[name] + getattr(params, name).grad
        for name, g in grads.items():
            assert_close(g, want[name])

    def test_a_batch_of_one_is_the_lone_call(self):
        rng = np.random.default_rng(22)
        params = frontend.init_frontend(rng, 16, 8)
        utt = self.batch(rng, [37])[0]
        one, lone = frontend.subsample([utt], params), frontend.subsample(utt, params)
        assert one.lengths == lone.lengths == (lone.length,)
        assert np.array_equal(one.frames.data, lone.frames.data)

    def test_perturbing_one_utterance_leaves_the_others_bitwise(self):
        rng = np.random.default_rng(23)
        params = frontend.init_frontend(rng, 16, 8)
        feats = self.batch(rng, self.LENGTHS)
        before = frontend.subsample(feats, params)
        rows = np.split(np.arange(before.length), np.cumsum(before.lengths)[:-1])
        for k in range(len(feats)):
            changed = list(feats)
            changed[k] = FeatureSequence(feats[k].utterance_id,
                                         feats[k].frames + rng.normal(size=feats[k].frames.shape))
            after = frontend.subsample(changed, params)
            for i, r in enumerate(rows):
                same = np.array_equal(after.frames.data[r], before.frames.data[r])
                assert same == (i != k), (k, i)

    def test_too_short_names_the_utterance(self):
        rng = np.random.default_rng(24)
        params = frontend.init_frontend(rng, 16, 8)
        feats = self.batch(rng, [12, 9, 6, 20])
        with pytest.raises(InputTooShortError, match="'u2' has 6 frames"):
            frontend.subsample(feats, params)

    def test_mismatched_feature_dims_rejected(self):
        rng = np.random.default_rng(25)
        params = frontend.init_frontend(rng, 16, 8)
        feats = self.batch(rng, [12, 9]) + self.batch(rng, [10], feat_dim=17)
        with pytest.raises(DimensionError):
            frontend.subsample(feats, params)
        with pytest.raises(DimensionError):
            frontend.subsample([], params)


class TestConstantFeatures:
    def test_a_plain_array_input_gets_no_gradient(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(11, 9, 1))
        kernel, bias = rng.normal(size=(4, 1, 3, 3)), rng.normal(size=4)
        g = rng.normal(size=(5, 4, 4))
        results = []
        for xin in (ad.tensor(x), x):
            kt, bt = ad.tensor(kernel), ad.tensor(bias)
            with ad.tape() as tp:
                out = ad.conv2d_s2(xin, kt, bt)
                tp.backward(ad.sum_all(ad.mul(out, g)))
            results.append((out.data, kt.grad, bt.grad))
        for have, want in zip(*results):
            assert np.array_equal(have, want)

    def test_the_frontend_passes_its_features_as_a_constant(self, monkeypatch):
        rng = np.random.default_rng(27)
        params = frontend.init_frontend(rng, 16, 8)
        feats = [FeatureSequence(f"u{i}", rng.normal(size=(n, 16))) for i, n in enumerate([23, 9])]
        _, want = frontend_grads(params, lambda: single_pass_subsample(feats, params))
        inputs = []

        def spy(x, w, b):
            inputs.append(x)
            return conv(x, w, b)

        conv = ad.conv2d_s2
        monkeypatch.setattr(ad, "conv2d_s2", spy)
        _, grads = frontend_grads(params, lambda: frontend.subsample(feats, params).frames)
        assert isinstance(inputs[0], np.ndarray) and isinstance(inputs[1], ad.Tensor)
        for name, g in grads.items():
            assert np.array_equal(g, want[name]), name


def single_pass_subsample(feats, params):
    """The frontend as one pass over the whole stacked input: both convs,
    both swishes and the projection run once, the feature input a tensor."""
    batch = [feats] if isinstance(feats, FeatureSequence) else feats
    starts = np.cumsum([0] + [-(-u.length // 4) * 4 for u in batch[:-1]])
    frames = np.zeros((starts[-1] + batch[-1].length, batch[0].feature_dim))
    for s, u in zip(starts, batch):
        frames[s:s + u.length] = u.frames
    x = ad.reshape(ad.Tensor(frames), (*frames.shape, 1))
    h = ad.swish(ad.conv2d_s2(x, params.conv1_w.value, params.conv1_b.value))
    h = ad.swish(ad.conv2d_s2(h, params.conv2_w.value, params.conv2_b.value))
    h = ad.permute(h, (0, 2, 1))
    if len(batch) > 1:
        h = ad.gather_rows(h, np.concatenate([
            s // 4 + np.arange(frontend.subsampled_length(u.length))
            for s, u in zip(starts, batch)]))
    t, c, f2 = h.data.shape
    return ad.affine(ad.reshape(h, (t, c * f2)), params.proj_w.value, params.proj_b.value)


class TestTimeBlocks:
    FEAT_DIM, WIDTH = 16, 8

    @pytest.fixture
    def params(self):
        rng = np.random.default_rng(28)
        params = frontend.init_frontend(rng, self.FEAT_DIM, self.WIDTH)
        for p in (params.conv1_b, params.conv2_b, params.proj_b):
            p.value.data[...] = rng.normal(size=p.value.data.shape)
        return params

    def force_block_rows(self, monkeypatch, rows):
        """Set the budget to exactly ``rows`` output rows per block; returns a
        list that collects the input length of each block."""
        row_bytes = frontend.reduced_feature_dim(self.FEAT_DIM) * self.WIDTH * 9 * 8
        monkeypatch.setattr(frontend, "BLOCK_BYTES", rows * row_bytes)
        seen = []
        convolve = frontend._convolve

        def spy(x, params):
            seen.append(x.shape[0])
            return convolve(x, params)

        monkeypatch.setattr(frontend, "_convolve", spy)
        return seen

    def batch(self, lengths, seed=29):
        rng = np.random.default_rng(seed)
        return [FeatureSequence(f"u{i}", rng.normal(size=(n, self.FEAT_DIM)))
                for i, n in enumerate(lengths)]

    def check_against_single_pass(self, feats, params, exact):
        rows, grads = frontend_grads(params, lambda: frontend.subsample(feats, params).frames)
        want_rows, want_grads = frontend_grads(params, lambda: single_pass_subsample(feats, params))
        if exact:
            assert np.array_equal(rows, want_rows)
        else:
            assert np.max(np.abs(rows - want_rows)) <= 1e-12
        for name, g in grads.items():
            if exact:
                assert np.array_equal(g, want_grads[name]), name
            else:
                assert_close(g, want_grads[name])

    @pytest.mark.parametrize("n_rows", [12, 11, 13])
    def test_row_counts_around_a_multiple_of_the_block(self, monkeypatch, params, n_rows):
        seen = self.force_block_rows(monkeypatch, 4)
        for t_in in range(4 * n_rows + 3, 4 * n_rows + 7):
            assert frontend.subsampled_length(t_in) == n_rows
            seen.clear()
            self.check_against_single_pass(self.batch([t_in])[0], params, exact=False)
            blocks = -(-n_rows // 4)
            # Every block but the last reads 4 * 4 + 3 frames; the last reads to the end.
            assert seen == [19] * (blocks - 1) + [t_in - 16 * (blocks - 1)]

    @pytest.mark.parametrize("lengths,boundary_row", [([32, 30], 8), ([26, 30], 7),
                                                      ([29, 17, 40], 8)])
    def test_packed_boundaries_on_and_inside_a_block(self, monkeypatch, params,
                                                     lengths, boundary_row):
        # The second utterance starts at packed output row ceil(L0 / 4); with
        # 4 rows per block, row 8 is a block boundary and row 7 is inside one.
        assert -(-lengths[0] // 4) == boundary_row
        seen = self.force_block_rows(monkeypatch, 4)
        feats = self.batch(lengths)
        self.check_against_single_pass(feats, params, exact=False)
        assert len(seen) > 1

    @pytest.mark.parametrize("rows", [1, 2])
    def test_utterances_of_exactly_min_input_frames(self, monkeypatch, params, rows):
        seen = self.force_block_rows(monkeypatch, rows)
        m = frontend.MIN_INPUT_FRAMES
        self.check_against_single_pass(self.batch([m, m, 13, m]), params, exact=False)
        assert len(seen) > 1
        # A lone one has one output row: one block, the single pass to the bit.
        seen.clear()
        self.check_against_single_pass(self.batch([m])[0], params, exact=True)
        assert seen == [m]

    def test_a_batch_of_one_is_the_lone_call(self, monkeypatch, params):
        seen = self.force_block_rows(monkeypatch, 3)
        utt = self.batch([61])[0]
        one, lone = frontend.subsample([utt], params), frontend.subsample(utt, params)
        assert len(seen) == 2 * 5
        assert one.lengths == lone.lengths == (lone.length,)
        assert np.array_equal(one.frames.data, lone.frames.data)

    @pytest.mark.parametrize("lengths", [[203], [37, 7, 120, 64], [9, 7, 10, 11, 8, 7]])
    def test_inputs_that_fit_one_block_are_the_single_pass(self, monkeypatch, params, lengths):
        feats = self.batch(lengths)
        seen = self.force_block_rows(monkeypatch, frontend.subsampled_length(
            sum(-(-n // 4) * 4 for n in lengths[:-1]) + lengths[-1]))
        self.check_against_single_pass(feats if len(lengths) > 1 else feats[0], params,
                                       exact=True)
        assert len(seen) == 1
        monkeypatch.undo()
        self.check_against_single_pass(feats, params, exact=True)

    def test_peak_memory_follows_the_budget_not_the_length(self):
        # m5n7 widths: 80 features, 256 channels, on a 2000-frame utterance.
        # One pass held 261 MiB, 14x the conv output, at once.
        rng = np.random.default_rng(30)
        params = frontend.init_frontend(rng, 80, 256)
        utt = FeatureSequence("long", rng.normal(size=(2000, 80)))
        out_bytes = (frontend.subsampled_length(2000) * frontend.reduced_feature_dim(80)
                     * 256 * 8)
        tracemalloc.start()
        try:
            frontend.subsample(utt, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One block's columns, conv1 output and temporaries stay under twice
        # the budget. The blocks' outputs and their concatenation hold twice
        # the conv output, and the projection's output is 1/19 of it.
        assert peak <= 2 * (frontend.BLOCK_BYTES + out_bytes), peak / 2**20
