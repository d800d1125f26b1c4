import functools
import math

import numpy as np
import pytest

from skiprec import autodiff as ad
from skiprec import model as model_mod
from skiprec.config import LossConfig, ModelConfig
from skiprec.errors import (ContractError, DimensionError, NumericError,
                            ParameterError)
from skiprec.frontend import FeatureSequence

from support import grad_check, sum_all, tensor


def check(f, *arrays, h=1e-5, tol=1e-5):
    inputs = [tensor(a) for a in arrays]
    err = grad_check(f, inputs, h=h)
    assert err <= tol, f"max relative gradient error {err}"


class TestSoftmax:
    """The row softmax the model reads, exp(log_softmax_rows)."""

    @staticmethod
    def softmax(x):
        return np.exp(ad.log_softmax_rows(tensor(x)).data)

    def test_symmetry(self):
        assert np.allclose(self.softmax([[0.0, 0.0]]), [[0.5, 0.5]])

    def test_large_equal_logits(self):
        assert np.allclose(self.softmax([[1000.0, 1000.0]]), [[0.5, 0.5]])

    def test_closed_form(self):
        assert np.allclose(self.softmax([[np.log(1.0), np.log(3.0)]]), [[0.25, 0.75]],
                           atol=1e-12)

    @pytest.mark.parametrize("magnitude", [1.0, 100.0, 1e4])
    def test_rows_sum_to_one(self, magnitude):
        rng = np.random.default_rng(int(magnitude))
        out = self.softmax(rng.uniform(-magnitude, magnitude, size=(20, 9)))
        assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-9)
        assert np.all(out >= 0.0)

    def test_empty_row_rejected(self):
        with pytest.raises(DimensionError):
            ad.log_softmax_rows(tensor(np.ones((2, 0))))

    def test_grad(self):
        rng = np.random.default_rng(1)
        check(lambda x: sum_all(ad.mul(ad.log_softmax_rows(x), x)),
              rng.normal(size=(4, 5)))


class TestLayerNorm:
    def test_constant_row(self):
        out = ad.layer_norm(tensor([[5.0, 5.0, 5.0]]),
                            tensor(np.ones(3)), tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0, atol=1e-3)

    def test_two_point_row(self):
        out = ad.layer_norm(tensor([[1.0, -1.0]]),
                            tensor(np.ones(2)), tensor(np.zeros(2)))
        scale = 1.0 / np.sqrt(1.0 + ad.LAYER_NORM_EPS)   # the row's variance is 1
        assert np.allclose(out.data, [[scale, -scale]], rtol=0.0, atol=1e-12)

    def test_affine_row(self):
        out = ad.layer_norm(tensor([[0.0, 2.0]]),
                            tensor(np.full(2, 2.0)), tensor(np.ones(2)))
        scale = 1.0 / np.sqrt(1.0 + ad.LAYER_NORM_EPS)
        assert np.allclose(out.data, [[1.0 - 2.0 * scale, 1.0 + 2.0 * scale]],
                           rtol=0.0, atol=1e-12)

    def test_normalization_property(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 8)) * 3.0
        out = ad.layer_norm(tensor(x), tensor(np.ones(8)),
                            tensor(np.zeros(8)))
        var = x.var(axis=1)
        assert np.allclose(out.data.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(out.data.var(axis=1), var / (var + ad.LAYER_NORM_EPS),
                           rtol=0.0, atol=1e-12)

    def test_grad(self):
        rng = np.random.default_rng(3)
        check(lambda x, g, b: sum_all(ad.mul(ad.layer_norm(x, g, b), x)),
              rng.normal(size=(3, 6)), rng.normal(size=6), rng.normal(size=6))


class TestAdam:
    def test_zero_grad_no_move(self):
        p = ad.Parameter(np.array([1.0, 2.0]))
        before = p.value.data.copy()
        ad.adam_step(p, np.zeros(2), lr=0.1)
        assert np.array_equal(p.value.data, before)

    def test_single_step_closed_form(self):
        # bias-corrected first step moves by lr against the gradient sign
        p = ad.Parameter(np.array(1.0))
        ad.adam_step(p, np.array(1.0), lr=0.1)
        assert abs(float(p.value.data) - 0.9) < 1e-6

    def test_step_counter(self):
        p = ad.Parameter(np.array(1.0))
        ad.adam_step(p, np.array(0.5), lr=0.01)
        ad.adam_step(p, np.array(0.5), lr=0.01)
        assert p.step_count == 2

    def test_nonfinite_grad_leaves_param(self):
        p = ad.Parameter(np.array([1.0, 2.0]))
        before = p.value.data.copy()
        with pytest.raises(NumericError):
            ad.adam_step(p, np.array([np.nan, 0.0]), lr=0.1)
        assert np.array_equal(p.value.data, before)
        assert p.step_count == 0

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            p = ad.Parameter(np.array([0.3, -0.7, 1.1]))
            for t in range(5):
                ad.adam_step(p, np.array([0.1, -0.2, 0.3]) * (t + 1), lr=0.05)
            runs.append(p.value.data.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.adam_step(ad.Parameter(np.ones(3)), np.ones(4), lr=0.1)

    def test_moments_are_allocated_on_the_first_step(self):
        p = ad.Parameter(np.ones((2, 3)))
        assert p.moment1 is None and p.moment2 is None
        with pytest.raises(NumericError):
            ad.adam_step(p, np.full((2, 3), np.inf), lr=0.1)
        assert p.moment1 is None and p.moment2 is None
        ad.adam_step(p, np.full((2, 3), 0.5), lr=0.1)
        for m in (p.moment1, p.moment2):
            assert m.shape == (2, 3) and m.dtype == np.float64 and np.all(m > 0.0)


class TestGradCheck:
    def test_polynomial(self):
        x = tensor([1.0, 2.0, 3.0])
        err = grad_check(lambda t: sum_all(ad.mul(t, t)), [x])
        assert err <= 1e-6
        assert np.allclose(x.grad, [2.0, 4.0, 6.0])

    def test_constant(self):
        x = tensor([1.0, 2.0])
        err = grad_check(lambda t: sum_all(ad.mul(t, 0.0)), [x])
        assert err == 0.0

    def test_nonscalar_rejected(self):
        with pytest.raises(ContractError):
            grad_check(lambda t: t, [tensor([1.0, 2.0])])

    def test_bad_step(self):
        with pytest.raises(ParameterError):
            grad_check(lambda t: sum_all(t), [tensor([1.0])], h=0.5)


class TestElementwiseGrads:
    """Every differentiable op passes a finite-difference check at 64-bit."""

    def test_add_sub_mul(self):
        rng = np.random.default_rng(4)
        check(lambda a, b: sum_all(ad.add(a, b)),
              rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))
        check(lambda a, b: sum_all(ad.add(a, ad.mul(b, -1.0))),
              rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))
        check(lambda a, b: sum_all(ad.mul(a, b)),
              rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))

    def test_constant_operand_rule(self):
        # A Tensor operand has exactly the other's shape; a constant has it
        # or is 0-d, and gets no gradient. Nothing broadcasts.
        a, row, scalar = tensor(np.ones((3, 4))), tensor(np.ones(4)), tensor(2.0)
        for op in (ad.add, ad.mul):
            for bad in (row, scalar, np.ones(4), np.ones((3, 1)), np.ones((1, 3, 4))):
                with pytest.raises(DimensionError, match=r"\(3, 4\) with .*\(") as err:
                    op(a, bad)
                assert str(np.shape(getattr(bad, "data", bad))) in str(err.value)
        const = np.arange(12.0).reshape(3, 4)
        x = tensor(np.full((3, 4), 2.0))
        with ad.tape() as tp:
            out = ad.add(ad.mul(x, const), ad.mul(x, 1.5))
            out = ad.add(ad.add(out, const), 0.25)
            tp.backward(sum_all(out))
        assert np.array_equal(out.data, 2.0 * const + 3.0 + const + 0.25)
        assert np.array_equal(x.grad, const + 1.5)
        assert np.array_equal(const, np.arange(12.0).reshape(3, 4))

    def test_scale_neg_const(self):
        rng = np.random.default_rng(5)
        check(lambda x: sum_all(ad.mul(x, 2.5)), rng.normal(size=(2, 3)))
        check(lambda x: sum_all(ad.mul(x, -1.0)), rng.normal(size=4))
        check(lambda x: sum_all(ad.add(x, 3.0)), rng.normal(size=4))
        check(lambda x: sum_all(ad.mul(x, -1.5)), rng.normal(size=4))

    def test_swish(self):
        rng = np.random.default_rng(6)
        check(lambda x: sum_all(ad.swish(x)), rng.normal(size=(3, 4)))
        assert float(ad.swish(tensor(np.zeros(1))).data[0]) == 0.0

    def test_glu(self):
        rng = np.random.default_rng(7)
        check(lambda x: sum_all(ad.glu_halves(x)), rng.normal(size=(3, 8)))
        with pytest.raises(DimensionError):
            ad.glu_halves(tensor(np.ones((2, 3))))

    def test_affine(self):
        rng = np.random.default_rng(8)
        check(lambda x, w, b: sum_all(ad.affine(x, w, b)),
              rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5))

    def test_reshape_permute(self):
        rng = np.random.default_rng(9)
        check(lambda x: sum_all(ad.mul(ad.reshape(x, (6, 2)), ad.reshape(x, (6, 2)))),
              rng.normal(size=(3, 4)))
        check(lambda x: sum_all(ad.mul(ad.permute(x, (1, 0)), ad.permute(x, (1, 0)))),
              rng.normal(size=(3, 4)))

    def test_gather_ops(self):
        rng = np.random.default_rng(10)
        idx = np.array([0, 2, 2, 1])

        def f(x):
            g = ad.gather_rows(x, idx)
            return sum_all(ad.mul(g, g))

        check(f, rng.normal(size=(4, 3)))
        with pytest.raises(DimensionError):
            ad.gather_rows(tensor(np.ones((2, 2))), [0, 5])

    def test_gather_rows_accumulates_repeats(self):
        x = tensor(np.arange(6.0).reshape(3, 2))
        with ad.tape() as tp:
            out = sum_all(ad.gather_rows(x, [1, 1, 1]))
            tp.backward(out)
        assert np.array_equal(x.grad, [[0, 0], [3, 3], [0, 0]])

    def test_concat_rows(self):
        rng = np.random.default_rng(11)
        check(lambda a, b: sum_all(ad.concat_rows(a, b)),
              rng.normal(size=(2, 3)), rng.normal(size=(4, 3)))

    def test_concat_rows_of_several_parts(self):
        rng = np.random.default_rng(12)

        def f(a, b, c):
            x = ad.concat_rows(a, b, c)
            return sum_all(ad.mul(x, x))

        check(f, rng.normal(size=(2, 3)), rng.normal(size=(0, 3)), rng.normal(size=(4, 3)))
        one = tensor(np.ones((2, 3)))
        assert ad.concat_rows(one) is one

    def test_lattice_nll(self):
        rng = np.random.default_rng(13)
        states = [0, 1, 0, 2, 0, 2, 0]
        allow = [False, False, False, True, False, False, False]
        check(lambda x: ad.lattice_nll(x, [states], [allow], [7], [6]),
              rng.normal(size=(6, 3)), tol=1e-4)
        # One frame and one token: the only path emits the token once.
        x = rng.normal(size=(1, 3))
        out = ad.lattice_nll(tensor(x), [[0, 1, 0]], [[False, False, False]], [3], [1])
        assert float(out.data) == -x[0, 1]

    def test_cross_entropy(self):
        rng = np.random.default_rng(14)
        targets = np.array([0, 2, 1])
        check(lambda z: ad.cross_entropy_mean(z, targets, [3]), rng.normal(size=(3, 4)))
        uniform = ad.cross_entropy_mean(tensor(np.zeros((2, 5))), [1, 3], [2])
        assert np.isclose(float(uniform.data), np.log(5.0))

    def test_conv2d(self):
        rng = np.random.default_rng(15)
        # Channels last: (H, W, Ci) in, (H', W', Co) out, kernel (Co, Ci, 3, 3).
        # Squaring the output makes the incoming gradient vary per element.
        def f(x, w, b):
            y = ad.conv2d_s2(x, w, b)
            return sum_all(ad.mul(y, y))

        check(f, rng.normal(size=(7, 9, 2)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3))
        with pytest.raises(DimensionError):
            ad.conv2d_s2(tensor(np.ones((2, 2, 1))),
                         tensor(np.ones((1, 1, 3, 3))), tensor(np.zeros(1)))
        with pytest.raises(DimensionError):
            ad.conv2d_s2(tensor(np.ones((7, 9, 3))),
                         tensor(np.ones((1, 2, 3, 3))), tensor(np.zeros(1)))

    def test_depthwise_conv(self):
        rng = np.random.default_rng(16)
        check(lambda x, w, b: sum_all(ad.depthwise_conv1d(x, w, b, [6])),
              rng.normal(size=(6, 4)), rng.normal(size=(3, 4)), rng.normal(size=4))
        with pytest.raises(ParameterError):
            ad.depthwise_conv1d(tensor(np.ones((4, 2))),
                                tensor(np.ones((2, 2))), tensor(np.zeros(2)), [4])

    def test_cross_entropy_sums_packed_sequence_means(self):
        rng = np.random.default_rng(26)
        lengths = [3, 1, 4]
        z = rng.normal(size=(8, 5))
        targets = rng.integers(0, 5, size=8)
        zt = tensor(z)
        with ad.tape() as tp:
            out = ad.cross_entropy_mean(zt, targets, lengths)
            tp.backward(ad.mul(out, 1.7))
        want, grads, start = 0.0, [], 0
        for n in lengths:
            part = tensor(z[start:start + n])
            with ad.tape() as tp:
                loss = ad.cross_entropy_mean(part, targets[start:start + n], [n])
                tp.backward(ad.mul(loss, 1.7))
            want += float(loss.data)
            grads.append(part.grad)
            start += n
        assert abs(float(out.data) - want) <= 1e-12 * abs(want)
        assert np.max(np.abs(zt.grad - np.concatenate(grads))) <= 1e-12
        check(lambda x: ad.cross_entropy_mean(x, targets, lengths), z)
        for bad in ([3, 4], [8, 0], [9, -1]):
            with pytest.raises(DimensionError):
                ad.cross_entropy_mean(tensor(z), targets, bad)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_depthwise_conv_packed_matches_per_sequence(self, k):
        rng = np.random.default_rng(27 + k)
        lengths = [4, 1, 6, 2]
        x, g = rng.normal(size=(13, 3)), rng.normal(size=(13, 3))
        w, b = rng.normal(size=(k, 3)), rng.normal(size=3)
        xt, wt, bt = tensor(x), tensor(w), tensor(b)
        with ad.tape() as tp:
            out = ad.depthwise_conv1d(xt, wt, bt, lengths)
            tp.backward(sum_all(ad.mul(out, g)))
        gw, gb, start = np.zeros_like(w), np.zeros_like(b), 0
        for n in lengths:
            rows = slice(start, start + n)
            parts = [tensor(x[rows]), tensor(w), tensor(b)]
            with ad.tape() as tp:
                want = ad.depthwise_conv1d(*parts, [n])
                tp.backward(sum_all(ad.mul(want, g[rows])))
            assert np.max(np.abs(out.data[rows] - want.data)) <= 1e-12
            assert np.max(np.abs(xt.grad[rows] - parts[0].grad)) <= 1e-12
            gw += parts[1].grad
            gb += parts[2].grad
            start += n
        assert np.max(np.abs(wt.grad - gw)) <= 1e-12
        assert np.max(np.abs(bt.grad - gb)) <= 1e-12
        check(lambda x, w, b: sum_all(ad.mul(ad.depthwise_conv1d(x, w, b, [2, 3]),
                                                ad.depthwise_conv1d(x, w, b, [2, 3]))),
              rng.normal(size=(5, 2)), rng.normal(size=(k, 2)), rng.normal(size=2))

    def test_depthwise_conv_one_sequence_is_unpacked_bit_for_bit(self):
        rng = np.random.default_rng(29)
        x, w, b = (tensor(rng.normal(size=s)) for s in ((9, 4), (5, 4), (4,)))
        assert np.array_equal(ad.depthwise_conv1d(x, w, b, [9]).data,
                              single_sequence_depthwise_reference(x, w, b, [9]).data)
        for bad in ([4, 4], [10, -1]):
            with pytest.raises(DimensionError):
                ad.depthwise_conv1d(x, w, b, bad)

    def test_depthwise_conv_identity_kernel(self):
        x = np.arange(12.0).reshape(4, 3)
        w = np.zeros((3, 3))
        w[1] = 1.0  # center tap passes the signal through
        out = ad.depthwise_conv1d(tensor(x), tensor(w), tensor(np.zeros(3)), [4])
        assert np.array_equal(out.data, x)


class TestAttention:
    def test_constant_values_come_back(self):
        # Each query's weights sum to one, so equal value rows give that row back.
        rng = np.random.default_rng(17)
        q = tensor(rng.normal(size=(5, 8)))
        k = tensor(rng.normal(size=(7, 8)))
        row = rng.normal(size=8)
        ctx = ad.attention_core(q, k, tensor(np.tile(row, (7, 1))), n_heads=2,
                                q_lengths=[5], k_lengths=[7])
        assert ctx.data.shape == (5, 8)
        assert np.max(np.abs(ctx.data - row)) <= 1e-12

    def test_causally_hidden_keys_do_not_reach_the_context(self):
        # Changing key and value 3 leaves queries 0-2, which may not see it, equal.
        rng = np.random.default_rng(19)
        x = rng.normal(size=(5, 4))
        y = x.copy()
        y[3] = rng.normal(size=4) * 10.0

        def context(kv):
            return ad.attention_core(tensor(x), tensor(kv), tensor(kv), n_heads=2,
                                     causal=True, q_lengths=[5], k_lengths=[5]).data

        before, after = context(x), context(y)
        assert np.array_equal(before[:3], after[:3])
        assert not np.array_equal(before[3:], after[3:])

    @pytest.mark.parametrize("causal", [False, True])
    def test_grad(self, causal):
        rng = np.random.default_rng(20 + causal)

        def f(q, k, v):
            ctx = ad.attention_core(q, k, v, n_heads=2, causal=causal, q_lengths=[4],
                                    k_lengths=[4])
            return sum_all(ad.mul(ctx, ctx))

        check(f, rng.normal(size=(4, 6)), rng.normal(size=(4, 6)),
              rng.normal(size=(4, 6)), tol=1e-4)


def masked_sigmoid_reference(x):
    """The sign-split logistic the tanh form replaced."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def einsum_attention_reference(q, k, v, n_heads, causal=False):
    """Einsum attention the batched-matmul form replaced.

    Returns the context and a function from the context's upstream gradient
    to the (q, k, v) gradients.
    """
    lq, d = q.shape
    lk = k.shape[0]
    dh = d // n_heads
    inv = 1.0 / np.sqrt(dh)
    qh = q.reshape(lq, n_heads, dh)
    kh = k.reshape(lk, n_heads, dh)
    vh = v.reshape(lk, n_heads, dh)
    scores = np.einsum("qhd,khd->hqk", qh, kh) * inv
    if causal:
        scores[:, ~np.tril(np.ones((lq, lk), dtype=bool))] = ad.NEG_FILL
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    weights = e / e.sum(axis=2, keepdims=True)
    ctx = np.einsum("hqk,khd->qhd", weights, vh).reshape(lq, d)

    def grads(g):
        gr = g.reshape(lq, n_heads, dh)
        gw = np.einsum("qhd,khd->hqk", gr, vh)
        gv = np.einsum("hqk,qhd->khd", weights, gr).reshape(lk, d)
        gs = weights * (gw - (gw * weights).sum(axis=2, keepdims=True))
        gq = (np.einsum("hqk,khd->qhd", gs, kh) * inv).reshape(lq, d)
        gk = (np.einsum("hqk,qhd->khd", gs, qh) * inv).reshape(lk, d)
        return gq, gk, gv

    return ctx, grads


def adam_reference(value, m1, m2, t, grad, lr, beta1, beta2, eps):
    """The allocating Adam update the in-place form replaced; returns new arrays."""
    m1 = beta1 * m1 + (1.0 - beta1) * grad
    m2 = beta2 * m2 + (1.0 - beta2) * grad * grad
    m_hat = m1 / (1.0 - beta1 ** t)
    v_hat = m2 / (1.0 - beta2 ** t)
    return value - lr * m_hat / (np.sqrt(v_hat) + eps), m1, m2


def log_softmax_reference(x):
    """The log-softmax that built its softmax eagerly; returns it and its backward."""
    m = x.max(axis=1, keepdims=True)
    z = x - m
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True)) + m
    out = x - lse
    sm = np.exp(out)
    return out, lambda g: g - sm * g.sum(axis=1, keepdims=True)


def stored_sigmoid_swish_reference(x: ad.Tensor) -> ad.Tensor:
    """The swish op that kept its forward sigmoid for the backward pass."""
    s = ad._sigmoid(x.data)
    out = ad._make(x.data * s, "swish")

    def bwd(g):
        ad._accum(x, g * (s * (1.0 + x.data * (1.0 - s))))

    ad._record(out, bwd)
    return out


def stored_sigmoid_glu_reference(x: ad.Tensor) -> ad.Tensor:
    """The GLU op that kept its forward sigmoid for the backward pass."""
    d = x.data.shape[1] // 2
    a, b = x.data[:, :d], x.data[:, d:]
    s = ad._sigmoid(b)
    out = ad._make(a * s, "glu_halves")

    def bwd(g):
        ad._accum(x, np.concatenate([g * s, g * a * s * (1.0 - s)], axis=1))

    ad._record(out, bwd)
    return out


def stored_xhat_layer_norm_reference(x, gain, bias, eps=1e-5):
    """The layer norm op that kept its normalized rows for the backward pass."""
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = ad._make(xhat * gain.data + bias.data, "layer_norm")

    def bwd(g):
        ad._accum(gain, (g * xhat).sum(axis=0))
        ad._accum(bias, g.sum(axis=0))
        gh = g * gain.data
        ad._accum(x, inv * (gh - gh.mean(axis=1, keepdims=True)
                            - xhat * (gh * xhat).mean(axis=1, keepdims=True)))

    ad._record(out, bwd)
    return out


def single_sequence_attention_reference(q, k, v, n_heads, causal=False, *,
                                        q_lengths, k_lengths):
    """The one-sequence (H, L, dh) attention op the padded batched form replaced.

    Takes the packed form's keywords but runs one query and one key sequence.
    """
    lq, d = q.data.shape
    lk = k.data.shape[0]
    assert len(q_lengths) == len(k_lengths) == 1
    dh = d // n_heads
    inv = 1.0 / math.sqrt(dh)
    qh = q.data.reshape(lq, n_heads, dh).transpose(1, 0, 2)
    kh = k.data.reshape(lk, n_heads, dh).transpose(1, 0, 2)
    vh = v.data.reshape(lk, n_heads, dh).transpose(1, 0, 2)
    scores = qh @ kh.transpose(0, 2, 1)
    scores *= inv
    if causal:
        scores[:, ~np.tril(np.ones((lq, lk), dtype=bool))] = ad.NEG_FILL
    scores -= scores.max(axis=2, keepdims=True)
    weights = np.exp(scores, out=scores)
    weights /= weights.sum(axis=2, keepdims=True)
    out = ad._make((weights @ vh).transpose(1, 0, 2).reshape(lq, d), "attention_core")

    def bwd(g):
        gr = g.reshape(lq, n_heads, dh).transpose(1, 0, 2)
        gv = weights.transpose(0, 2, 1) @ gr
        gs = gr @ vh.transpose(0, 2, 1)
        gs -= (gs * weights).sum(axis=2, keepdims=True)
        gs *= weights
        gq = gs @ kh
        gq *= inv
        gk = gs.transpose(0, 2, 1) @ qh
        gk *= inv
        ad._accum(q, gq.transpose(1, 0, 2).reshape(lq, d))
        ad._accum(k, gk.transpose(1, 0, 2).reshape(lk, d))
        ad._accum(v, gv.transpose(1, 0, 2).reshape(lk, d))

    ad._record(out, bwd)
    return out


def single_sequence_depthwise_reference(x, w, b, lengths):
    """The one-sequence depthwise conv op the packed form replaced."""
    assert len(lengths) == 1
    L, d = x.data.shape
    k = w.data.shape[0]
    pad = (k - 1) // 2
    xp = np.pad(x.data, ((pad, pad), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=0)
    out = ad._make(np.einsum("tdk,kd->td", win, w.data) + b.data, "depthwise_conv1d")

    def bwd(g):
        ad._accum(w, np.einsum("tdk,td->kd", win, g))
        ad._accum(b, g.sum(axis=0))
        gxp = np.zeros_like(xp)
        for kk in range(k):
            gxp[kk:kk + L] += g * w.data[kk]
        ad._accum(x, gxp[pad:pad + L])

    ad._record(out, bwd)
    return out


class TestBatchOfOneAgainstSingleSequenceOps:
    """A batch of one runs the packed ops without padding, to the bit."""

    def test_final_grid_and_gradients_are_bit_identical(self, monkeypatch):
        cfg = ModelConfig(d_model=8, heads=2, e1_blocks=1, e2_blocks=1, kernel_e1=5,
                          kernel_e2=3, ffn_multiple=2, decoder_blocks=1, vocab_size=6,
                          feature_dim=8)
        loss_cfg = LossConfig(blank_threshold=0.2)
        params = model_mod.init_model(3, cfg)
        named = model_mod.named_parameters(params)
        feats = FeatureSequence("u0", np.random.default_rng(58).normal(size=(41, 8)))
        target = [1, 2, 3]

        def run():
            for _, p in named:
                p.zero_grad()
            with ad.tape() as tp:
                trace = model_mod.forward_utterance(feats, params, cfg, loss_cfg, target=target)
                tp.backward(model_mod.total_loss(trace, [target], params, cfg, loss_cfg))
            return trace, [p.grad.copy() for _, p in named]

        trace, grads = run()
        monkeypatch.setattr(ad, "attention_core", single_sequence_attention_reference)
        monkeypatch.setattr(ad, "depthwise_conv1d", single_sequence_depthwise_reference)
        want, want_grads = run()
        assert 0 < trace.crucial_len < trace.subsampled_len
        assert np.array_equal(trace.final_grid.log_probs.data, want.final_grid.log_probs.data)
        assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))


class TestAgainstReference:
    GRID = np.concatenate([np.linspace(-1e3, 1e3, 2001), np.linspace(-40.0, 40.0, 8001),
                           [0.0, -0.0, 1e-300, -1e-300, 709.0, -745.0]])

    def test_sigmoid_matches_masked_form(self):
        with np.errstate(under="ignore"):
            want = masked_sigmoid_reference(self.GRID)
        assert np.max(np.abs(ad._sigmoid(self.GRID) - want)) <= 1e-15

    def test_sigmoid_raises_no_floating_point_error(self):
        with np.errstate(all="raise"):
            s = ad._sigmoid(self.GRID)
        assert np.all((s >= 0.0) & (s <= 1.0))

    @pytest.mark.parametrize("start", ["fresh", "restored"])
    @pytest.mark.parametrize("shape", [(), (7,), (5, 4)])
    def test_adam_matches_allocating_form(self, start, shape):
        rng = np.random.default_rng(31)
        value = rng.normal(size=shape)
        p = ad.Parameter(value.copy())
        m1 = m2 = np.zeros(shape)
        t = 0
        if start == "restored":
            m1, m2, t = rng.normal(size=shape) * 1e-2, rng.uniform(0, 1e-3, size=shape), 750
            p.moment1, p.moment2, p.step_count = m1.copy(), m2.copy(), t
        for i in range(5):
            grad = rng.normal(size=shape) * 10.0 ** (i - 2)
            lr = 1e-3 * (i + 1)
            t += 1
            value, m1, m2 = adam_reference(value, m1, m2, t, grad, lr, ad.ADAM_BETA1,
                                           ad.ADAM_BETA2, ad.ADAM_EPS)
            ad.adam_step(p, grad, lr)
            assert p.step_count == t
            assert np.array_equal(p.value.data, value)
            assert np.array_equal(p.moment1, m1) and np.array_equal(p.moment2, m2)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_log_softmax_matches_eager_form(self, dtype):
        rng = np.random.default_rng(32)
        x = (rng.normal(size=(13, 50)) * 8.0).astype(dtype)
        x[3] = 1e3
        g = rng.normal(size=x.shape).astype(dtype)
        want, want_grad = log_softmax_reference(x)
        xt = tensor(x, dtype=dtype)
        with ad.tape() as tp:
            out = ad.log_softmax_rows(xt)
            tp.backward(sum_all(ad.mul(out, g)))
        assert out.data.dtype == dtype and xt.grad.dtype == dtype
        assert np.array_equal(out.data, want)
        assert np.array_equal(xt.grad, want_grad(g))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("op,reference,shapes", [
        (ad.swish, stored_sigmoid_swish_reference, [(11, 7)]),
        (ad.glu_halves, stored_sigmoid_glu_reference, [(11, 8)]),
        (ad.layer_norm, stored_xhat_layer_norm_reference, [(11, 7), (7,), (7,)]),
    ], ids=["swish", "glu_halves", "layer_norm"])
    def test_recomputing_backward_matches_stored_form(self, op, reference, shapes, dtype):
        # These ops rebuild in the backward what they once kept from the forward.
        rng = np.random.default_rng(33)
        arrays = [(rng.normal(size=shape) * 6.0).astype(dtype) for shape in shapes]
        g = rng.normal(size=shapes[0][:1] + (op(*map(tensor, arrays)).data.shape[1],))
        g = g.astype(dtype)
        results = []
        for fn in (op, reference):
            inputs = [tensor(a, dtype=dtype) for a in arrays]
            with ad.tape() as tp:
                out = fn(*inputs)
                tp.backward(sum_all(ad.mul(out, g)))
            results.append([out.data] + [t.grad for t in inputs])
        for have, want in zip(*results):
            assert have.dtype == dtype and np.array_equal(have, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_forward_matches_the_product(self, dtype):
        # swish and glu_halves multiply into the sigmoid's buffer; products
        # commute, so they must equal the allocating expression to the bit.
        rng = np.random.default_rng(34)
        grid = self.GRID.astype(dtype)
        x = np.concatenate([grid, rng.permutation(grid)]).reshape(2, -1)
        with np.errstate(over="ignore", under="ignore"):
            swish, glu = ad.swish(tensor(x[0], dtype=dtype)), ad.glu_halves(
                tensor(x.T, dtype=dtype))
            want_swish = x[0] * ad._sigmoid(x[0])
            want_glu = x.T[:, :1] * ad._sigmoid(x.T[:, 1:])
        assert swish.data.dtype == glu.data.dtype == dtype
        assert np.array_equal(swish.data, want_swish)
        assert np.array_equal(glu.data, want_glu)

    @pytest.mark.parametrize("case", ["plain", "causal"])
    def test_attention_matches_einsum_form(self, case):
        rng = np.random.default_rng(30)
        lq, lk = (9, 9) if case == "causal" else (7, 11)
        q, k, v, g = (rng.normal(size=(n, 12)) for n in (lq, lk, lk, lq))
        causal = case == "causal"
        want_ctx, want_grads = einsum_attention_reference(q, k, v, 3, causal=causal)
        qt, kt, vt = tensor(q), tensor(k), tensor(v)
        with ad.tape() as tp:
            ctx = ad.attention_core(qt, kt, vt, 3, causal=causal, q_lengths=[lq],
                                    k_lengths=[lk])
            tp.backward(sum_all(ad.mul(ctx, g)))
        got = [ctx.data, qt.grad, kt.grad, vt.grad]
        for have, want in zip(got, [want_ctx, *want_grads(g)]):
            assert np.max(np.abs(have - want)) <= 1e-12


class TestSegmentedAttention:
    """Packed sequences attend exactly as if each ran alone."""

    LENGTHS = [3, 1, 5, 2]
    KEY_LENGTHS = [4, 2, 1, 6]

    @staticmethod
    def packed_against_per_sequence(q_lengths, k_lengths, causal, seed):
        """Run packed attention and per-sequence calls; return the largest difference.

        ``k_lengths`` None: one key sequence of as many rows as the queries,
        which every query sequence attends to.
        """
        rng = np.random.default_rng(seed)
        nq = sum(q_lengths)
        nk = nq if k_lengths is None else sum(k_lengths)
        q, g = rng.normal(size=(nq, 12)), rng.normal(size=(nq, 12))
        k, v = rng.normal(size=(nk, 12)), rng.normal(size=(nk, 12))
        qt, kt, vt = tensor(q), tensor(k), tensor(v)
        with ad.tape() as tp:
            ctx = ad.attention_core(qt, kt, vt, 3, causal=causal, q_lengths=q_lengths,
                                    k_lengths=[nk] if k_lengths is None else k_lengths)
            tp.backward(sum_all(ad.mul(ctx, g)))
        worst = 0.0
        gk, gv = np.zeros_like(k), np.zeros_like(v)
        q_start = k_start = 0
        for i, n in enumerate(q_lengths):
            m = nk if k_lengths is None else k_lengths[i]
            rows, keys = slice(q_start, q_start + n), slice(k_start, k_start + m)
            parts = [tensor(q[rows]), tensor(k[keys]), tensor(v[keys])]
            with ad.tape() as tp:
                want_ctx = ad.attention_core(*parts, 3, causal=causal, q_lengths=[n],
                                             k_lengths=[m])
                tp.backward(sum_all(ad.mul(want_ctx, g[rows])))
            for have, ref in zip([ctx.data[rows], qt.grad[rows]],
                                 [want_ctx.data, parts[0].grad]):
                worst = max(worst, float(np.max(np.abs(have - ref), initial=0.0)))
            if k_lengths is not None:
                # Other sequences' keys and values, however large, leave this
                # sequence's context equal to the bit.
                other = np.ones(nk, dtype=bool)
                other[keys] = False
                k2, v2 = k.copy(), v.copy()
                k2[other] = rng.normal(size=k2[other].shape) * 10.0
                v2[other] = rng.normal(size=v2[other].shape) * 10.0
                moved = ad.attention_core(qt, tensor(k2), tensor(v2), 3, causal=causal,
                                          q_lengths=q_lengths, k_lengths=k_lengths)
                assert np.array_equal(moved.data[rows], ctx.data[rows])
            gk[keys] += parts[1].grad
            gv[keys] += parts[2].grad
            q_start += n
            if k_lengths is not None:
                k_start += m
        for have, ref in ((kt.grad, gk), (vt.grad, gv)):
            worst = max(worst, float(np.max(np.abs(have - ref))))
        return worst

    @pytest.mark.parametrize("causal", [False, True])
    def test_matches_per_segment_attention(self, causal):
        assert self.packed_against_per_sequence(self.LENGTHS, self.LENGTHS, causal,
                                                50 + causal) <= 1e-12

    def test_cross_lengths_match_per_sequence_attention(self):
        assert self.packed_against_per_sequence(self.LENGTHS, self.KEY_LENGTHS, False,
                                                55) <= 1e-12

    def test_shared_keys_match_per_sequence_attention(self):
        # One key sequence serves every query sequence, as in rescoring.
        assert self.packed_against_per_sequence(self.LENGTHS, None, False, 56) <= 1e-12

    def test_single_segment_is_plain_causal_bit_for_bit(self):
        rng = np.random.default_rng(52)
        q, k, v = (tensor(rng.normal(size=(6, 8))) for _ in range(3))
        ctx = ad.attention_core(q, k, v, 2, causal=True, q_lengths=[6], k_lengths=[6])
        want_ctx = single_sequence_attention_reference(q, k, v, 2, causal=True,
                                                       q_lengths=[6], k_lengths=[6])
        assert np.array_equal(ctx.data, want_ctx.data)

    def test_grad(self):
        rng = np.random.default_rng(53)

        def f(q, k, v):
            ctx = ad.attention_core(q, k, v, n_heads=2, causal=True, q_lengths=[2, 3],
                                    k_lengths=[2, 3])
            return sum_all(ad.mul(ctx, ctx))

        check(f, rng.normal(size=(5, 6)), rng.normal(size=(5, 6)),
              rng.normal(size=(5, 6)), tol=1e-4)

        def g(q, k, v):
            ctx = ad.attention_core(q, k, v, n_heads=2, q_lengths=[2, 3], k_lengths=[1, 3])
            return sum_all(ad.mul(ctx, ctx))

        check(g, rng.normal(size=(5, 6)), rng.normal(size=(4, 6)),
              rng.normal(size=(4, 6)), tol=1e-4)

    @pytest.mark.parametrize("segments,lk", [([2, 2], 5), ([3, 3], 5), ([4, 2], 6),
                                             ([6, -1], 5), ([[5]], 5)])
    def test_segments_must_split_the_scores(self, segments, lk):
        rng = np.random.default_rng(54)
        q = tensor(rng.normal(size=(5, 4)))
        k = tensor(rng.normal(size=(lk, 4)))
        with pytest.raises(DimensionError):
            ad.attention_core(q, k, k, 2, q_lengths=segments, k_lengths=segments)

    @pytest.mark.parametrize("q_lengths,k_lengths,causal", [
        ([2, 3], [1, 1, 3], False),     # neither one key sequence per query nor one shared
        ([2, 3], [5, 0], False),        # a query sequence with no keys
        ([2, 3], [3, 2], True),         # causal scores must be square
        ([2, 3], [5], True),
    ])
    def test_key_sequences_must_fit_the_queries(self, q_lengths, k_lengths, causal):
        rng = np.random.default_rng(57)
        q, k = tensor(rng.normal(size=(5, 4))), tensor(rng.normal(size=(5, 4)))
        with pytest.raises(DimensionError):
            ad.attention_core(q, k, k, 2, causal=causal, q_lengths=q_lengths,
                              k_lengths=k_lengths)


def _t(*shape):
    return tensor(np.ones(shape))


SHAPE_ERRORS = [
    ("concat_rows_ranks", lambda: ad.concat_rows(_t(2, 3), _t(3)), "parts of one rank"),
    ("concat_rows_none", lambda: ad.concat_rows(), "parts of one rank"),
    ("affine", lambda: ad.affine(_t(3, 4), _t(5, 2), _t(2)), r"affine \(3, 4\) @ \(5, 2\)"),
    ("layer_norm", lambda: ad.layer_norm(_t(3, 4), _t(5), _t(4)), r"layer_norm \(3, 4\)"),
    ("cross_entropy_targets", lambda: ad.cross_entropy_mean(_t(3, 4), [0, 1], [3]),
     "vs targets"),
    ("cross_entropy_no_rows", lambda: ad.cross_entropy_mean(_t(0, 4), [], [0]),
     "at least one row$"),
    ("cross_entropy_target_range", lambda: ad.cross_entropy_mean(_t(3, 4), [0, 4, 1], [3]),
     "out of range for 4 classes"),
    ("cross_entropy_empty_sequence", lambda: ad.cross_entropy_mean(_t(3, 4), [0, 1, 2], [3, 0]),
     "at least one row per sequence"),
    ("lattice_nll_rank", lambda: ad.lattice_nll(_t(3, 4, 1), [[0]], [[False]], [1], [3]),
     r"\(T, V\) grid"),
    ("lattice_nll_count", lambda: ad.lattice_nll(_t(3, 4), [[0], [0]], [[False]], [1], [3]),
     r"states \(2, 1\), skip masks \(1, 1\), sizes \[1\] and lengths \[3\]"),
    ("depthwise_rank", lambda: ad.depthwise_conv1d(_t(3), _t(3, 1), _t(1), [3]),
     r"needs \(L, D\)"),
    ("depthwise_width", lambda: ad.depthwise_conv1d(_t(3, 4), _t(3, 2), _t(4), [3]),
     r"\(3, 4\) with kernel \(3, 2\)"),
    ("attention_shapes", lambda: ad.attention_core(_t(3, 4), _t(2, 4), _t(2, 6), 2,
                                                   q_lengths=[3], k_lengths=[2]),
     r"attention q \(3, 4\)"),
    ("attention_heads", lambda: ad.attention_core(_t(3, 4), _t(3, 4), _t(3, 4), 3,
                                                  q_lengths=[3], k_lengths=[3]),
     "not divisible by 3 heads"),
]


@pytest.mark.parametrize("call,message", [c[1:] for c in SHAPE_ERRORS],
                         ids=[c[0] for c in SHAPE_ERRORS])
def test_op_rejects_inconsistent_shapes(call, message):
    with pytest.raises(DimensionError, match=message):
        call()


class TestFiniteGuard:
    def test_overflow_is_caught(self):
        big = tensor(np.array([1e308]))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            ad.add(big, big)


class TestTape:
    def test_backward_requires_scalar(self):
        with ad.tape() as tp:
            x = ad.add(tensor([1.0, 2.0]), tensor([3.0, 4.0]))
            with pytest.raises(ContractError):
                tp.backward(x)

    def test_no_tape_means_no_grads(self):
        x = tensor([1.0, 2.0])
        out = sum_all(ad.mul(x, x))
        assert out.data == 5.0
        assert x.grad is None

    def test_backward_keeps_the_recorded_op_count(self):
        x = tensor([2.0, 3.0])
        with ad.tape() as tp:
            out = sum_all(ad.mul(ad.swish(x), x))
            recorded = len(tp)
            tp.backward(out)
            assert recorded == 3 and len(tp) == recorded
            ad.mul(out, 2.0)
            assert len(tp) == recorded + 1

    def test_an_op_whose_output_gets_no_gradient_runs_no_backward(self):
        # The tape calls a closure only when a gradient reached its output;
        # the spies record on the same outputs as the ops before them.
        x, y = tensor([1.0, 2.0]), tensor([3.0, 4.0])
        seen = []
        with ad.tape() as tp:
            dead = ad.mul(y, y)                     # never reaches the root
            ad._record(dead, lambda g: seen.append("dead"))
            live = ad.mul(x, 2.0)
            ad._record(live, lambda g: seen.append(g.copy()))
            tp.backward(sum_all(live))
            assert len(tp) == 5
        assert len(seen) == 1 and np.array_equal(seen[0], [1.0, 1.0])
        assert dead.grad is None and y.grad is None
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_scalar_results_keep_their_dtype(self):
        assert ad.Tensor(np.float32(1.5)).data.dtype == np.float32
        assert ad.Tensor(1.5).data.dtype == np.float64
        x = tensor(np.array(2.0, dtype=np.float32), dtype=np.float32)
        with ad.tape() as tp:
            out = ad.mul(x, 3.0)
            tp.backward(out)
        assert out.data.dtype == np.float32 and x.grad.dtype == np.float32

    def test_grad_accumulates_across_uses(self):
        x = tensor([2.0])
        with ad.tape() as tp:
            out = sum_all(ad.add(ad.mul(x, x), x))
            tp.backward(out)
        assert np.allclose(x.grad, [5.0])


# ---------------------------------------------------------------------------
# The ops call numpy ufuncs and array methods directly. Each reference below
# is the form an op had when it went through numpy's Python-level wrappers
# (np.all, np.mean, np.pad, sliding_window_view, a tril mask, x @ w + b);
# the ops must match them to the bit, values, gradients and dtypes.
# ---------------------------------------------------------------------------

def all_finite_reference(data):
    """The finite check as ``np.all``: True where ``_make`` must accept ``data``."""
    return data.dtype.kind != "f" or bool(np.all(np.isfinite(data)))


def bias_sum_affine_reference(x, w, b):
    """``x @ w + b`` with the bias gradient as ``g.sum(axis=0)``."""
    out = ad._make(x.data @ w.data + b.data, "affine")

    def bwd(g):
        ad._accum(x, g @ w.data.T)
        ad._accum(w, x.data.T @ g)
        ad._accum(b, g.sum(axis=0))

    ad._record(out, bwd)
    return out


def mean_layer_norm_reference(x, gain, bias, eps=1e-5):
    """The layer norm with ``.mean`` and ``.sum`` and an allocating tail."""
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    out = ad._make(xc * inv * gain.data + bias.data, "layer_norm")

    def bwd(g):
        xhat = (x.data - mu) * inv
        ad._accum(gain, (g * xhat).sum(axis=0))
        ad._accum(bias, g.sum(axis=0))
        gh = g * gain.data
        ad._accum(x, inv * (gh - gh.mean(axis=1, keepdims=True)
                            - xhat * (gh * xhat).mean(axis=1, keepdims=True)))

    ad._record(out, bwd)
    return out


def padded_depthwise_reference(x, w, b, lengths):
    """The depthwise conv that padded with ``np.pad`` and windowed with
    ``sliding_window_view``."""
    L, d = x.data.shape
    k = w.data.shape[0]
    pad = (k - 1) // 2
    lengths = ad._packed_lengths(lengths, L, "depthwise_conv1d")
    sel = None if lengths.size == 1 else \
        np.arange(L) + pad * np.repeat(np.arange(lengths.size), lengths)
    n_win = L + pad * (lengths.size - 1)

    def windows():
        if sel is None:
            xp = np.pad(x.data, ((pad, pad), (0, 0)))
        else:
            xp = np.zeros((n_win + 2 * pad, d), dtype=x.data.dtype)
            xp[sel + pad] = x.data
        return np.lib.stride_tricks.sliding_window_view(xp, k, axis=0)

    full = np.einsum("tdk,kd->td", windows(), w.data)
    out = ad._make((full if sel is None else full[sel]) + b.data, "depthwise_conv1d")

    def bwd(g):
        if sel is None:
            gw = g
        else:
            gw = np.zeros((n_win, d), dtype=g.dtype)
            gw[sel] = g
        ad._accum(w, np.einsum("tdk,td->kd", windows(), gw))
        ad._accum(b, g.sum(axis=0))
        gxp = np.zeros((n_win + 2 * pad, d), dtype=x.data.dtype)
        for kk in range(k):
            gxp[kk:kk + n_win] += gw * w.data[kk]
        ad._accum(x, gxp[pad:pad + L] if sel is None else gxp[sel + pad])

    ad._record(out, bwd)
    return out


def tril_mask_attention_reference(q, k, v, n_heads, causal=False, *, q_lengths, k_lengths):
    """The packed attention that hid keys with ``~np.tril`` and a boolean-index
    store and took the softmax with ``.max`` and ``.sum``."""
    lq, d = q.data.shape
    lk = k.data.shape[0]
    q_len = ad._packed_lengths(q_lengths, lq, "attention queries")
    k_len = ad._packed_lengths(k_lengths, lk, "attention keys")
    nq, nk = q_len.size, k_len.size
    dh = d // n_heads
    inv = 1.0 / math.sqrt(dh)
    q_rows, k_rows = ad._padded_rows(q_len), ad._padded_rows(k_len)

    def heads(a, lengths, rows):
        return ad._to_padded(a, lengths, rows).reshape(
            lengths.size, -1, n_heads, dh).transpose(0, 2, 1, 3)

    def packed(a, rows):
        return ad._from_padded(a.transpose(0, 2, 1, 3).reshape(a.shape[0], -1, d), rows)

    scores = heads(q.data, q_len, q_rows) @ heads(k.data, k_len, k_rows).transpose(0, 1, 3, 2)
    scores *= inv
    if causal:
        hidden = ~np.tril(np.ones(scores.shape[2:], dtype=bool))
        scores[:, :, hidden] = ad.NEG_FILL
    if k_rows is not None:
        padding = np.arange(scores.shape[3]) >= k_len[:, None]
        np.copyto(scores, ad.NEG_FILL, where=padding[:, None, None, :])
    scores -= scores.max(axis=3, keepdims=True)
    weights = np.exp(scores, out=scores)
    weights /= weights.sum(axis=3, keepdims=True)
    out = ad._make(packed(weights @ heads(v.data, k_len, k_rows), q_rows), "attention_core")

    def bwd(g):
        qh = heads(q.data, q_len, q_rows)
        kh = heads(k.data, k_len, k_rows)
        vh = heads(v.data, k_len, k_rows)
        gr = heads(g, q_len, q_rows)
        gv = weights.transpose(0, 1, 3, 2) @ gr
        gs = gr @ vh.transpose(0, 1, 3, 2)
        gs -= (gs * weights).sum(axis=3, keepdims=True)
        gs *= weights
        gq = gs @ kh
        gq *= inv
        gk = gs.transpose(0, 1, 3, 2) @ qh
        gk *= inv
        if nk < nq:
            gk = gk.sum(axis=0, keepdims=True)
            gv = gv.sum(axis=0, keepdims=True)
        ad._accum(q, packed(gq, q_rows))
        ad._accum(k, packed(gk, k_rows))
        ad._accum(v, packed(gv, k_rows))

    ad._record(out, bwd)
    return out


def windowed_conv2d_reference(x, w, b):
    """The stride-2 conv that built its im2col columns with ``sliding_window_view``."""
    xd = x.data
    h, wd, ci = xd.shape
    co, _, kh, kw = w.data.shape
    ho, wo = (h - kh) // 2 + 1, (wd - kw) // 2 + 1

    def columns():
        win = np.lib.stride_tricks.sliding_window_view(
            xd.transpose(2, 0, 1), (kh, kw), axis=(1, 2))[:, ::2, ::2]
        return win.transpose(0, 3, 4, 1, 2).reshape(ci * kh * kw, ho * wo)

    out2d = w.data.reshape(co, ci * kh * kw) @ columns() + b.data[:, None]
    out = ad._make(out2d.T.reshape(ho, wo, co), "conv2d_s2")

    def bwd(g):
        g2 = g.reshape(ho * wo, co)
        ad._accum(w, (g2.T @ columns().T).reshape(w.data.shape))
        ad._accum(b, g2.sum(axis=0))
        wm = w.data.transpose(0, 2, 3, 1).reshape(co, kh * kw * ci)
        gcols = (g2 @ wm).reshape(ho, wo, kh, kw, ci)
        gx = np.zeros((h, wd, ci), dtype=xd.dtype)
        for ky in range(kh):
            for kx in range(kw):
                gx[ky:ky + 2 * ho - 1:2, kx:kx + 2 * wo - 1:2] += gcols[:, :, ky, kx]
        ad._accum(x, gx)

    ad._record(out, bwd)
    return out


def mean_cross_entropy_reference(logits, targets, lengths):
    """The cross-entropy that took each sequence's mean with ``.mean``."""
    targets = np.asarray(targets, dtype=np.int64)
    n = logits.data.shape[0]
    lengths = ad._packed_lengths(lengths, n, "cross_entropy_mean")
    m = logits.data.max(axis=1, keepdims=True)
    lse = (np.log(np.exp(logits.data - m).sum(axis=1, keepdims=True)) + m)[:, 0]
    nll = lse - logits.data[np.arange(n), targets]
    out = ad._make(np.asarray(np.sum([part.mean() for part in
                                      np.split(nll, np.cumsum(lengths)[:-1])])),
                   "cross_entropy_mean")

    def bwd(g):
        sm = np.exp(logits.data - lse[:, None])
        sm[np.arange(n), targets] -= 1.0
        ad._accum(logits, sm * np.repeat(g / lengths.astype(sm.dtype), lengths)[:, None])

    ad._record(out, bwd)
    return out


PACKED = (5, 1, 7, 3)      # a ragged batch: unequal lengths, one of a single row


def wrapper_free_cases(batch):
    """(name, op, reference, input shapes, parameter count, keywords) per op.

    Parameters are the trailing inputs; ``batch`` packs ``PACKED`` sequences
    into the rows of every row-mixing op.
    """
    n = sum(PACKED) if batch else 9
    lengths = PACKED if batch else (n,)
    lk = 13 if batch else 6
    seqs = {"q_lengths": lengths, "k_lengths": lengths}
    cross = {"q_lengths": lengths, "k_lengths": (2, 4, 1, 6) if batch else (lk,)}
    return [
        ("affine", ad.affine, bias_sum_affine_reference, [(n, 6), (6, 5), (5,)], 2, {}),
        ("layer_norm", ad.layer_norm, mean_layer_norm_reference, [(n, 7), (7,), (7,)], 2, {}),
        ("depthwise_k3", ad.depthwise_conv1d, padded_depthwise_reference,
         [(n, 4), (3, 4), (4,)], 2, {"lengths": lengths}),
        ("depthwise_k7", ad.depthwise_conv1d, padded_depthwise_reference,
         [(n, 4), (7, 4), (4,)], 2, {"lengths": lengths}),
        ("attention_causal", functools.partial(ad.attention_core, n_heads=3, causal=True),
         functools.partial(tril_mask_attention_reference, n_heads=3, causal=True),
         [(n, 12), (n, 12), (n, 12)], 0, seqs),
        ("attention_cross", functools.partial(ad.attention_core, n_heads=3),
         functools.partial(tril_mask_attention_reference, n_heads=3),
         [(n, 12), (lk, 12), (lk, 12)], 0, cross),
        ("attention_shared_keys", functools.partial(ad.attention_core, n_heads=2),
         functools.partial(tril_mask_attention_reference, n_heads=2),
         [(n, 8), (4, 8), (4, 8)], 0, {"q_lengths": lengths, "k_lengths": (4,)}),
        ("conv2d_s2", ad.conv2d_s2, windowed_conv2d_reference,
         [(2 * n + 1, 9, 3), (4, 3, 3, 3), (4,)], 2, {}),
    ]


def run_case(op, arrays, act_dtype, param_dtype, n_params, kwargs, seed):
    """The op's outputs and every input gradient under a random upstream gradient."""
    split = len(arrays) - n_params
    dtypes = [act_dtype] * split + [param_dtype] * n_params
    inputs = [tensor(a, dtype=dt) for a, dt in zip(arrays, dtypes)]
    with ad.tape() as tp:
        out = op(*inputs, **kwargs)
        g = np.random.default_rng(seed).normal(size=out.data.shape).astype(out.data.dtype)
        tp.backward(sum_all(ad.mul(out, g)))
    return [out.data] + [t.grad for t in inputs]


class TestWrapperFreeOpsAgainstWrapperForms:
    @pytest.mark.parametrize("batch", [False, True], ids=["single", "packed"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", range(8), ids=[c[0] for c in wrapper_free_cases(False)])
    def test_outputs_and_gradients_are_bit_identical(self, case, dtype, batch):
        name, op, reference, shapes, n_params, kwargs = wrapper_free_cases(batch)[case]
        rng = np.random.default_rng(70 + case)
        arrays = [rng.normal(size=s) * 3.0 for s in shapes]
        have = run_case(op, arrays, dtype, dtype, n_params, kwargs, 71)
        want = run_case(reference, arrays, dtype, dtype, n_params, kwargs, 71)
        assert len(have) == len(want)
        for h, w in zip(have, want):
            assert h.dtype == w.dtype == dtype
            assert h.shape == w.shape and np.array_equal(h, w), name

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "packed"])
    @pytest.mark.parametrize("case", range(8), ids=[c[0] for c in wrapper_free_cases(False)])
    def test_float32_activations_meet_float64_parameters(self, case, batch):
        # An in-place tail must promote exactly where the allocating form does.
        name, op, reference, shapes, n_params, kwargs = wrapper_free_cases(batch)[case]
        rng = np.random.default_rng(80 + case)
        arrays = [rng.normal(size=s) * 3.0 for s in shapes]
        have = run_case(op, arrays, np.float32, np.float64, n_params, kwargs, 81)
        want = run_case(reference, arrays, np.float32, np.float64, n_params, kwargs, 81)
        for h, w in zip(have, want):
            assert h.dtype == w.dtype, name
            assert np.array_equal(h, w), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bias_add_takes_the_promoted_dtype(self, dtype):
        # float32 activations and weights with a float64 bias: the product is
        # float32, the sum float64, and the in-place add must not round it.
        rng = np.random.default_rng(82)
        x, w = (tensor(rng.normal(size=s), dtype=np.float32) for s in [(5, 4), (4, 3)])
        b = tensor(rng.normal(size=3) * 1e-3, dtype=dtype)
        have, want = ad.affine(x, w, b), bias_sum_affine_reference(x, w, b)
        assert have.data.dtype == want.data.dtype == dtype
        assert np.array_equal(have.data, want.data)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [False, True], ids=["single", "packed"])
    def test_cross_entropy_matches_the_mean_form(self, dtype, batch):
        rng = np.random.default_rng(83)
        n = sum(PACKED) if batch else 9
        logits = rng.normal(size=(n, 6)) * 4.0
        targets = rng.integers(0, 6, size=n)
        lengths = PACKED if batch else (n,)
        results = []
        for fn in (ad.cross_entropy_mean, mean_cross_entropy_reference):
            x = tensor(logits, dtype=dtype)
            with ad.tape() as tp:
                out = fn(x, targets, lengths)
                tp.backward(out)
            results.append((out.data, x.grad))
        for h, w in zip(*results):
            assert h.dtype == w.dtype == dtype and np.array_equal(h, w)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_finite_check_matches_np_all(self, dtype):
        cases = [np.zeros((0, 3)), np.array(1.5), np.array(np.nan), np.ones((4, 5)),
                 np.array([1.0, np.inf]), np.array([[-np.inf, 0.0]]), np.arange(3)]
        for data in cases:
            data = data.astype(dtype) if data.dtype.kind == "f" else data
            accepted = True
            try:
                ad._make(data, "probe")
            except NumericError:
                accepted = False
            assert accepted == all_finite_reference(data)
