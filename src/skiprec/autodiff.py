"""Reverse-mode automatic differentiation over a recorded op tape.

Every op computes eagerly on numpy arrays. While a tape is active, each op
appends a closure that routes the output gradient back to its inputs;
``Tape.backward`` replays those closures in reverse execution order, which
is a valid topological order by construction.

The op set is what the model needs: add, scale and constant add/multiply,
reshape and permute, gather/concat by row index, affine, strided 2-D
convolution, depthwise 1-D convolution, attention, log-softmax, layer norm,
swish, GLU, cross-entropy, and the CTC lattice's negative log-likelihood
as one op. ``tensor``, ``mul``, ``sum_all`` and ``grad_check`` serve the
tests; the model calls every other op. Nothing more general is provided on
purpose.

Ops keep the dtype of their operands: scalar constants are Python floats,
so float32 inputs stay float32. Attention runs as head-batched matmuls and
the logistic function as ``0.5 * (1 + tanh(x / 2))``, both branch-free.

Log-space code uses the finite stand-in ``NEG_FILL`` instead of ``-inf`` so
that the "all values finite" invariant can be checked after every op. The
check is always on, in float32 as in float64: a non-finite op output raises
``NumericError`` naming the op. The active tape is the module's only mutable
state; everything else an op does depends on its arguments alone.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError, ParameterError

# Effectively -inf for log-space math while staying finite in float32/float64.
NEG_FILL = -1.0e30


class Tensor:
    """A numpy array plus an accumulated gradient of the same shape."""

    __slots__ = ("data", "grad")

    def __init__(self, data) -> None:
        self.data = np.asarray(data, dtype=np.float64) if not isinstance(data, np.ndarray) else data
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


def tensor(data, dtype=None) -> Tensor:
    arr = np.asarray(data, dtype=dtype if dtype is not None else np.float64)
    return Tensor(arr)


class Tape:
    """Execution-ordered record of backward closures."""

    def __init__(self) -> None:
        self._entries: list[Callable[[], None]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def backward(self, root: Tensor) -> None:
        # Gradients seed at 1 for the scalar root and flow in reverse order.
        if root.data.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {root.data.shape}")
        root.grad = np.ones_like(root.data)
        for entry in reversed(self._entries):
            entry()


_TAPE: Tape | None = None


@contextmanager
def tape():
    """Activate a fresh tape for the duration of the block."""
    global _TAPE
    prev = _TAPE
    _TAPE = Tape()
    try:
        yield _TAPE
    finally:
        _TAPE = prev


def _record(fn: Callable[[], None]) -> None:
    if _TAPE is not None:
        _TAPE._entries.append(fn)


def _make(data: np.ndarray, op: str) -> Tensor:
    if data.dtype.kind == "f" and not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values produced by {op}")
    return Tensor(data)


def _accum(t: Tensor, g: np.ndarray) -> None:
    t.grad = g if t.grad is None else t.grad + g


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)).

    tanh saturates instead of overflowing, so no branch on the sign of x and
    no masked scatter is needed; every step after the halving runs in place.
    """
    out = np.multiply(x, 0.5, out=np.empty_like(x))
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; broadcasting limited to numpy-compatible shapes."""
    try:
        data = a.data + b.data
    except ValueError:
        raise DimensionError(f"add {a.data.shape} + {b.data.shape}")
    out = _make(data, "add")

    def bwd():
        g = out.grad
        if g is None:
            return
        _accum(a, _reduce_to(g, a.data.shape))
        _accum(b, _reduce_to(g, b.data.shape))

    _record(bwd)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul {a.data.shape} * {b.data.shape}")
    out = _make(data, "mul")

    def bwd():
        g = out.grad
        if g is None:
            return
        _accum(a, _reduce_to(g * b.data, a.data.shape))
        _accum(b, _reduce_to(g * a.data, b.data.shape))

    _record(bwd)
    return out


def scale(x: Tensor, c: float) -> Tensor:
    out = _make(x.data * c, "scale")

    def bwd():
        if out.grad is not None:
            _accum(x, out.grad * c)

    _record(bwd)
    return out


def add_const(x: Tensor, c) -> Tensor:
    """Add a constant array or scalar; no gradient flows to the constant."""
    out = _make(x.data + c, "add_const")

    def bwd():
        if out.grad is not None:
            _accum(x, _reduce_to(out.grad, x.data.shape))

    _record(bwd)
    return out


def mul_const(x: Tensor, c) -> Tensor:
    """Multiply by a constant array or scalar (dropout masks, fixed gates)."""
    out = _make(x.data * c, "mul_const")

    def bwd():
        if out.grad is not None:
            _accum(x, _reduce_to(out.grad * c, x.data.shape))

    _record(bwd)
    return out


def sum_all(x: Tensor) -> Tensor:
    out = _make(np.asarray(x.data.sum()), "sum_all")

    def bwd():
        if out.grad is not None:
            _accum(x, np.broadcast_to(out.grad, x.data.shape).copy())

    _record(bwd)
    return out


def reshape(x: Tensor, shape: tuple) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def bwd():
        if out.grad is not None:
            _accum(x, out.grad.reshape(x.data.shape))

    _record(bwd)
    return out


def permute(x: Tensor, axes: tuple) -> Tensor:
    out = Tensor(np.transpose(x.data, axes))
    inv = np.argsort(axes)

    def bwd():
        if out.grad is not None:
            _accum(x, np.transpose(out.grad, inv))

    _record(bwd)
    return out


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows (axis 0) by integer index; repeated ids accumulate gradient.

    Doubles as embedding lookup when ``x`` is an embedding table.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise DimensionError(f"gather index out of range for axis of size {x.data.shape[0]}")
    out = Tensor(x.data[idx])

    def bwd():
        g = out.grad
        if g is None:
            return
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        _accum(x, gx)

    _record(bwd)
    return out


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != b.data.ndim:
        raise DimensionError(f"concat_rows rank mismatch {a.data.shape} vs {b.data.shape}")
    out = Tensor(np.concatenate([a.data, b.data], axis=0))
    na = a.data.shape[0]

    def bwd():
        g = out.grad
        if g is None:
            return
        _accum(a, g[:na])
        _accum(b, g[na:])

    _record(bwd)
    return out


# ---------------------------------------------------------------------------
# dense algebra
# ---------------------------------------------------------------------------

def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with b broadcast over rows: (L, K) @ (K, M) + (M,)."""
    if x.data.ndim != 2 or x.data.shape[1] != w.data.shape[0] or b.data.shape != (w.data.shape[1],):
        raise DimensionError(f"affine {x.data.shape} @ {w.data.shape} + {b.data.shape}")
    out = _make(x.data @ w.data + b.data, "affine")

    def bwd():
        g = out.grad
        if g is None:
            return
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0))

    _record(bwd)
    return out


def swish(x: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    s = _sigmoid(x.data)
    out = _make(x.data * s, "swish")

    def bwd():
        if out.grad is not None:
            _accum(x, out.grad * (s * (1.0 + x.data * (1.0 - s))))

    _record(bwd)
    return out


def glu_halves(x: Tensor) -> Tensor:
    """Gated linear unit over column halves: a * sigmoid(b) for x = [a | b]."""
    if x.data.ndim != 2 or x.data.shape[1] % 2:
        raise DimensionError(f"glu_halves needs an even column count, got {x.data.shape}")
    d = x.data.shape[1] // 2
    a, b = x.data[:, :d], x.data[:, d:]
    s = _sigmoid(b)
    out = _make(a * s, "glu_halves")

    def bwd():
        g = out.grad
        if g is None:
            return
        gx = np.concatenate([g * s, g * a * s * (1.0 - s)], axis=1)
        _accum(x, gx)

    _record(bwd)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean / unit variance, then scale and shift."""
    if eps <= 0:
        raise ParameterError(f"layer_norm eps must be positive, got {eps}")
    if x.data.ndim != 2 or gain.data.shape != (x.data.shape[1],) or bias.data.shape != (x.data.shape[1],):
        raise DimensionError(f"layer_norm {x.data.shape} with gain {gain.data.shape}, bias {bias.data.shape}")
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = _make(xhat * gain.data + bias.data, "layer_norm")

    def bwd():
        g = out.grad
        if g is None:
            return
        _accum(gain, (g * xhat).sum(axis=0))
        _accum(bias, g.sum(axis=0))
        gh = g * gain.data
        gx = inv * (gh - gh.mean(axis=1, keepdims=True) - xhat * (gh * xhat).mean(axis=1, keepdims=True))
        _accum(x, gx)

    _record(bwd)
    return out


def log_softmax_rows(x: Tensor) -> Tensor:
    if x.data.ndim != 2 or x.data.shape[1] == 0:
        raise DimensionError(f"log_softmax_rows needs non-empty rows, got {x.data.shape}")
    m = x.data.max(axis=1, keepdims=True)
    z = x.data - m
    lse = np.log(np.exp(z, out=z).sum(axis=1, keepdims=True)) + m
    out = _make(x.data - lse, "log_softmax_rows")

    def bwd():
        g = out.grad
        if g is None:
            return
        # The softmax is needed only here, so a forward-only call never builds it.
        _accum(x, g - np.exp(out.data) * g.sum(axis=1, keepdims=True))

    _record(bwd)
    return out


def cross_entropy_mean(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax."""
    targets = np.asarray(targets, dtype=np.int64)
    n, v = logits.data.shape
    if targets.shape != (n,):
        raise DimensionError(f"cross_entropy_mean logits {logits.data.shape} vs targets {targets.shape}")
    if n == 0:
        raise DimensionError("cross_entropy_mean needs at least one row")
    if targets.min() < 0 or targets.max() >= v:
        raise DimensionError(f"target id out of range for {v} classes")
    m = logits.data.max(axis=1, keepdims=True)
    lse = (np.log(np.exp(logits.data - m).sum(axis=1, keepdims=True)) + m)[:, 0]
    picked = logits.data[np.arange(n), targets]
    out = _make(np.asarray((lse - picked).mean()), "cross_entropy_mean")

    def bwd():
        g = out.grad
        if g is None:
            return
        sm = np.exp(logits.data - lse[:, None])
        sm[np.arange(n), targets] -= 1.0
        _accum(logits, sm * (g / n))

    _record(bwd)
    return out


# ---------------------------------------------------------------------------
# alignment lattice
# ---------------------------------------------------------------------------

def lattice_nll(log_probs: Tensor, states, allow_skip) -> Tensor:
    """Negative log of the summed probability of every path through a CTC lattice.

    ``log_probs`` is a (T, V) grid. Lattice state s emits class ``states[s]``
    and is entered from s, s - 1 and, where ``allow_skip[s]`` holds, s - 2.
    Paths start in state 0 or 1 and end in one of the last two states. The
    forward recursion runs in log space, unreachable branches held at
    NEG_FILL; the backward replays it in reverse, so the whole loss is one
    tape entry. Each array operation, down to the order in which the emission
    gradient accumulates, is the one the former per-frame tape ops made, so
    the loss and its gradient are the same to the bit.
    """
    lp = log_probs.data
    states = np.asarray(states, dtype=np.int64)
    allow_skip = np.asarray(allow_skip, dtype=bool)
    s = states.size
    if lp.ndim != 2 or lp.shape[0] < 1 or states.shape != (s,) or s < 1 \
            or allow_skip.shape != (s,):
        raise DimensionError(f"lattice_nll grid {lp.shape}, states {states.shape}, "
                             f"skips {allow_skip.shape}")
    if states.min() < 0 or states.max() >= lp.shape[1]:
        raise DimensionError(f"lattice state class out of range for {lp.shape[1]} classes")
    emit = lp[:, states]
    if not np.all(np.isfinite(emit)):
        raise NumericError("non-finite log probability on the lattice_nll path")
    fill = np.full(2, NEG_FILL, dtype=lp.dtype)
    alpha = emit[0].copy()
    alpha[2:] = NEG_FILL
    steps = []  # frames 1..T-1: the stay, step and skip branches and their log-sum-exp
    for t in range(1, lp.shape[0]):
        b1 = np.concatenate([fill[:1], alpha[:-1]])
        b2 = np.concatenate([fill, alpha[:-2]])[:s]
        b2[~allow_skip] = NEG_FILL
        m = np.maximum(np.maximum(alpha, b1), b2)
        lse = m + np.log(np.exp(alpha - m) + np.exp(b1 - m) + np.exp(b2 - m))
        steps.append((alpha, b1, b2, lse))
        alpha = lse + emit[t]
    final = np.arange(max(s - 2, 0), s)
    last = alpha[final]
    m = float(last.max())
    total = np.asarray(m + np.log(np.exp(last - m).sum()))
    out = _make(-total, "lattice_nll")

    def bwd():
        if out.grad is None:
            return
        g = np.zeros_like(alpha)
        np.add.at(g, final, -out.grad * np.exp(last - total))
        grad = np.zeros_like(lp)
        for t in range(len(steps), 0, -1):
            b0, b1, b2, lse = steps[t - 1]
            np.add.at(grad[t], states, g)
            prev = g * np.exp(b0 - lse)
            prev[:-1] += (g * np.exp(b1 - lse))[1:]
            prev[:-2] += (g * np.exp(b2 - lse) * allow_skip)[2:]
            g = prev
        np.add.at(grad[0], states[:2], g[:2])
        _accum(log_probs, grad)

    _record(bwd)
    return out


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

def conv2d_s2(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Valid 2-D convolution with stride 2: (Ci, H, W) -> (Co, H', W')."""
    ci, h, wd = x.data.shape
    co, ci2, kh, kw = w.data.shape
    if ci != ci2 or b.data.shape != (co,):
        raise DimensionError(f"conv2d_s2 input {x.data.shape} vs kernel {w.data.shape}")
    if h < kh or wd < kw:
        raise DimensionError(f"conv2d_s2 input {x.data.shape} smaller than kernel {w.data.shape}")
    win = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(1, 2))[:, ::2, ::2]
    out_data = np.tensordot(w.data, win, axes=([1, 2, 3], [0, 3, 4])) + b.data[:, None, None]
    out = _make(out_data, "conv2d_s2")
    ho, wo = out_data.shape[1:]

    def bwd():
        g = out.grad
        if g is None:
            return
        _accum(w, np.tensordot(g, win, axes=([1, 2], [1, 2])))
        _accum(b, g.sum(axis=(1, 2)))
        gx = np.zeros_like(x.data)
        for ky in range(kh):
            for kx in range(kw):
                gx[:, ky:ky + 2 * ho:2, kx:kx + 2 * wo:2] += np.tensordot(
                    w.data[:, :, ky, kx], g, axes=([0], [0]))
        _accum(x, gx)

    _record(bwd)
    return out


def depthwise_conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-channel 1-D convolution along rows with same-length zero padding.

    x: (L, D), w: (K, D) with K odd, b: (D,).
    """
    if x.data.ndim != 2:
        raise DimensionError(f"depthwise_conv1d needs (L, D), got {x.data.shape}")
    L, d = x.data.shape
    k, d2 = w.data.shape
    if d != d2 or b.data.shape != (d,):
        raise DimensionError(f"depthwise_conv1d {x.data.shape} with kernel {w.data.shape}")
    if k % 2 == 0:
        raise ParameterError(f"depthwise kernel must be odd, got {k}")
    pad = (k - 1) // 2
    xp = np.pad(x.data, ((pad, pad), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=0)  # (L, D, K)
    out = _make(np.einsum("tdk,kd->td", win, w.data) + b.data, "depthwise_conv1d")

    def bwd():
        g = out.grad
        if g is None:
            return
        _accum(w, np.einsum("tdk,td->kd", win, g))
        _accum(b, g.sum(axis=0))
        gxp = np.zeros_like(xp)
        for kk in range(k):
            gxp[kk:kk + L] += g * w.data[kk]
        _accum(x, gxp[pad:pad + L])

    _record(bwd)
    return out


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def attention_core(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                   causal: bool = False, segments=None) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention over column-split heads.

    q: (Lq, D), k/v: (Lk, D); returns the (Lq, D) context and the raw
    attention weights (H, Lq, Lk) for inspection. Hidden keys get exactly
    zero weight. ``causal`` requires Lq == Lk and hides keys right of the
    query position. ``segments`` lists the lengths of consecutive packed
    sequences, summing to Lq == Lk; a query then sees only the keys of its
    own sequence, so the scores are block-diagonal.
    """
    lq, d = q.data.shape
    lk, dk = k.data.shape
    if dk != d or v.data.shape != (lk, d):
        raise DimensionError(f"attention q {q.data.shape}, k {k.data.shape}, v {v.data.shape}")
    if d % n_heads:
        raise DimensionError(f"model width {d} not divisible by {n_heads} heads")
    if causal and lq != lk:
        raise DimensionError(f"causal attention needs square scores, got {lq}x{lk}")
    if segments is not None:
        segments = np.asarray(segments, dtype=np.int64)
        if lq != lk or segments.ndim != 1 or np.any(segments < 0) or segments.sum() != lq:
            raise DimensionError(f"segments {segments.tolist()} must split {lq}x{lk} scores")
    dh = d // n_heads
    # A Python float keeps float32 scores float32; an np.float64 would promote.
    inv = 1.0 / math.sqrt(dh)
    # (H, L, dh) views of the column-split heads; every product below is a
    # head-batched matmul, which reaches BLAS where einsum does not.
    qh = q.data.reshape(lq, n_heads, dh).transpose(1, 0, 2)
    kh = k.data.reshape(lk, n_heads, dh).transpose(1, 0, 2)
    vh = v.data.reshape(lk, n_heads, dh).transpose(1, 0, 2)
    scores = qh @ kh.transpose(0, 2, 1)
    scores *= inv
    if causal:
        hidden = ~np.tril(np.ones((lq, lk), dtype=bool))
        scores[:, hidden] = NEG_FILL
    if segments is not None:
        seq = np.repeat(np.arange(segments.size), segments)
        scores[:, seq[:, None] != seq[None, :]] = NEG_FILL
    scores -= scores.max(axis=2, keepdims=True)
    weights = np.exp(scores, out=scores)
    weights /= weights.sum(axis=2, keepdims=True)
    ctx = (weights @ vh).transpose(1, 0, 2).reshape(lq, d)
    out = _make(ctx, "attention_core")

    def bwd():
        g = out.grad
        if g is None:
            return
        gr = g.reshape(lq, n_heads, dh).transpose(1, 0, 2)
        gv = weights.transpose(0, 2, 1) @ gr
        gs = gr @ vh.transpose(0, 2, 1)
        gs -= (gs * weights).sum(axis=2, keepdims=True)
        gs *= weights
        gq = gs @ kh
        gq *= inv
        gk = gs.transpose(0, 2, 1) @ qh
        gk *= inv
        _accum(q, gq.transpose(1, 0, 2).reshape(lq, d))
        _accum(k, gk.transpose(1, 0, 2).reshape(lk, d))
        _accum(v, gv.transpose(1, 0, 2).reshape(lk, d))

    _record(bwd)
    return out, weights


# ---------------------------------------------------------------------------
# parameters and optimization
# ---------------------------------------------------------------------------

class Parameter:
    """A trainable tensor with Adam state: value, two moments, step count.

    The moments are allocated on the first Adam step and are ``None`` until
    then, so a model that only runs forward holds its weights alone.
    """

    __slots__ = ("value", "moment1", "moment2", "step_count")

    def __init__(self, value: np.ndarray) -> None:
        self.value = Tensor(np.asarray(value, dtype=np.float64))
        self.moment1: np.ndarray | None = None
        self.moment2: np.ndarray | None = None
        self.step_count = 0

    @property
    def grad(self) -> np.ndarray | None:
        return self.value.grad

    def zero_grad(self) -> None:
        self.value.grad = None


def adam_step(p: Parameter, grad: np.ndarray, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> Parameter:
    """One bias-corrected Adam update, in place. Leaves p untouched on bad grads.

    The first step allocates the moments as zeros. Every update runs in place
    in the operation order of ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``
    and ``x = x - lr*m_hat / (sqrt(v_hat) + eps)``, so the result is the same
    to the bit as that textbook form.
    """
    grad = np.asarray(grad)
    shape = p.value.data.shape
    if grad.shape != shape:
        raise DimensionError(f"adam_step grad {grad.shape} vs value {shape}")
    if not np.all(np.isfinite(grad)):
        raise NumericError("adam_step received a non-finite gradient")
    if p.moment1 is None:
        p.moment1, p.moment2 = np.zeros(shape), np.zeros(shape)
    p.step_count += 1
    t = p.step_count
    # Explicit out= buffers keep a 0-d parameter's temporaries arrays, so the
    # in-place ops apply; ``scaled`` has the dtype of ``(1 - beta) * grad``.
    scaled = np.multiply(grad, 1.0 - beta1, out=np.empty(shape, np.result_type(grad, 1.0)))
    p.moment1 *= beta1
    p.moment1 += scaled
    np.multiply(grad, 1.0 - beta2, out=scaled)
    scaled *= grad
    p.moment2 *= beta2
    p.moment2 += scaled
    step = np.divide(p.moment1, 1.0 - beta1 ** t, out=np.empty_like(p.moment1))
    denom = np.divide(p.moment2, 1.0 - beta2 ** t, out=np.empty_like(p.moment2))
    np.sqrt(denom, out=denom)
    denom += eps
    step *= lr
    step /= denom
    p.value.data -= step
    return p


def grad_check(f: Callable[..., Tensor], inputs: Sequence[Tensor], h: float = 1e-5,
               scale_floor: float = 1e-3) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` must map the given tensors to a scalar Tensor and be pure.
    Coordinates where both gradients fall below ``scale_floor`` are compared
    on that absolute scale instead, so finite-difference noise on dead
    coordinates does not dominate the report.
    """
    if not (0.0 < h <= 1e-2):
        raise ParameterError(f"step size h must lie in (0, 1e-2], got {h}")
    for t in inputs:
        t.grad = None
    with tape() as tp:
        out = f(*inputs)
        if out.data.size != 1:
            raise ContractError(f"grad_check target must be scalar, got shape {out.data.shape}")
        tp.backward(out)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

    def eval_loss() -> float:
        return float(f(*inputs).data)

    worst = 0.0
    for t, ana in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        afl = ana.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            fp = eval_loss()
            flat[i] = keep - h
            fm = eval_loss()
            flat[i] = keep
            num = (fp - fm) / (2.0 * h)
            err = abs(afl[i] - num) / max(abs(afl[i]), abs(num), scale_floor)
            if err > worst:
                worst = err
    return worst
