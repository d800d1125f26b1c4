"""Reverse-mode automatic differentiation over a recorded op tape.

Every op computes eagerly on numpy arrays. While a tape is active, each op
records its output with a closure that takes the output's gradient and
routes it back to the op's inputs. ``Tape.backward`` replays the records in
reverse execution order, which is a valid topological order by
construction, and calls a closure only when a gradient reached its output;
an op that got none is skipped but still counted in ``len(tape)``.

The op set is what the model needs: add and constant add/multiply, reshape
and permute, gather/concat by row index, affine, strided 2-D convolution
(channels last, one im2col GEMM), depthwise 1-D convolution, attention,
log-softmax, layer norm (with the fixed variance floor ``LAYER_NORM_EPS``),
swish, GLU, cross-entropy, and the CTC lattice's negative log-likelihood as
one op. ``tensor``, ``mul``, ``sum_all`` and ``grad_check`` serve the tests;
the model calls every other op. Nothing more general is provided on purpose.

Several sequences can run as one: their rows are packed one after another,
and the ops that mix rows (attention, the depthwise conv, the cross-entropy
mean, the CTC lattice) require the sequence lengths; one sequence is the
lengths ``(rows,)``. A single sequence takes no padding copy.

Ops keep the dtype of their operands: scalar constants are Python floats,
so float32 inputs stay float32. Attention runs as head-batched matmuls and
the logistic function as ``0.5 * (1 + tanh(x / 2))``, both branch-free.

Log-space code uses the finite stand-in ``NEG_FILL`` instead of ``-inf`` so
that the "all values finite" invariant can be checked after every op. The
check is always on, in float32 as in float64, and costs one ``isfinite`` and
one ``logical_and`` reduction per op: a non-finite op output raises
``NumericError`` naming the op. The active tape is the module's only mutable
state; everything else an op does depends on its arguments alone.

At desk sizes an op's fixed cost rivals its arithmetic, so the ops call
ufuncs, their reductions and array methods directly rather than numpy's
Python-level wrappers (``np.mean``, ``np.all``, ``np.pad``, window views),
and run elementwise tails in place on their own temporaries wherever the
dtype allows; each result is the wrapper form's to the bit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ContractError, DimensionError, NumericError, ParameterError

# Effectively -inf for log-space math while staying finite in float32/float64.
NEG_FILL = -1.0e30
LAYER_NORM_EPS = 1e-5   # added to each row's variance by every layer norm


class Tensor:
    """A numpy array plus an accumulated gradient of the same shape."""

    __slots__ = ("data", "grad")

    def __init__(self, data) -> None:
        # A ufunc on a 0-d array returns a numpy scalar; keep its dtype, so a
        # float32 scalar loss stays float32. Python numbers become float64.
        if isinstance(data, np.generic):
            data = np.asarray(data)
        elif not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=np.float64)
        self.data = data
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
    """Execution-ordered record of (op output, backward closure) pairs.

    ``len`` counts the ops recorded, those already replayed included.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._replayed = 0

    def __len__(self) -> int:
        return len(self._entries) + self._replayed

    def backward(self, root: Tensor) -> None:
        # Gradients seed at 1 for the scalar root and flow in reverse order.
        # An op runs its closure only if a gradient reached its output. Each
        # entry is dropped once replayed, and with it the arrays that only
        # its op's backward needed.
        if root.data.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {root.data.shape}")
        root.grad = np.ones_like(root.data)
        entries = self._entries
        while entries:
            result, bwd = entries.pop()
            if result.grad is not None:
                bwd(result.grad)
            self._replayed += 1


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


def _record(out: Tensor, bwd: Callable[[np.ndarray], None]) -> None:
    """Record ``bwd``, which takes the gradient of ``out`` and routes it to
    the op's inputs; without an active tape nothing is kept."""
    if _TAPE is not None:
        _TAPE._entries.append((out, bwd))


def _make(data: np.ndarray, op: str) -> Tensor:
    if data.dtype.kind == "f" and not np.logical_and.reduce(np.isfinite(data), axis=None):
        raise NumericError(f"non-finite values produced by {op}")
    return Tensor(data)


def _into(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The buffer for ``a <op> b`` of ``a``'s shape: ``a`` itself where its
    dtype holds the result, else a fresh array of the promoted dtype, so an
    in-place op never rounds what the allocating expression would promote."""
    dt = np.promote_types(a.dtype, b.dtype)
    return a if dt == a.dtype else np.empty_like(a, dtype=dt)


def _accum(t: Tensor, g: np.ndarray) -> None:
    t.grad = g if t.grad is None else t.grad + g


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = np.add.reduce(g, axis=ax, keepdims=True)
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
# packed sequences
# ---------------------------------------------------------------------------

def _packed_lengths(lengths, total: int, what: str) -> np.ndarray:
    """Validated int64 lengths of the sequences packed in ``total`` rows."""
    out = np.asarray(lengths, dtype=np.int64)
    if out.ndim != 1 or out.size == 0 or np.minimum.reduce(out) < 0 \
            or np.add.reduce(out) != total:
        raise DimensionError(f"{what}: lengths {np.asarray(lengths).tolist()} "
                             f"must split {total} rows")
    return out


def _padded_rows(lengths: np.ndarray) -> np.ndarray | None:
    """Row of each packed row in a (sequences x longest) padded layout.

    None for one sequence, whose packed rows are already its padded rows.
    """
    if lengths.size == 1:
        return None
    seq = np.arange(lengths.size).repeat(lengths)
    starts = np.add.accumulate(lengths) - lengths
    return np.arange(np.add.reduce(lengths)) - starts[seq] + seq * np.maximum.reduce(lengths)


def _to_padded(a: np.ndarray, lengths: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """(sum of lengths, D) packed rows as (sequences, longest, D), zero-padded.

    One sequence is reshaped, not copied.
    """
    if rows is None:
        return a.reshape(1, *a.shape)
    out = np.zeros((lengths.size * int(np.maximum.reduce(lengths)), a.shape[1]), dtype=a.dtype)
    out[rows] = a
    return out.reshape(lengths.size, -1, a.shape[1])


def _from_padded(a: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """The packed rows of a (sequences, longest, D) array."""
    flat = a.reshape(-1, a.shape[-1])
    return flat if rows is None else flat[rows]


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

    def bwd(g):
        _accum(a, _reduce_to(g, a.data.shape))
        _accum(b, _reduce_to(g, b.data.shape))

    _record(out, bwd)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul {a.data.shape} * {b.data.shape}")
    out = _make(data, "mul")

    def bwd(g):
        _accum(a, _reduce_to(g * b.data, a.data.shape))
        _accum(b, _reduce_to(g * a.data, b.data.shape))

    _record(out, bwd)
    return out


def add_const(x: Tensor, c) -> Tensor:
    """Add a constant array or scalar; no gradient flows to the constant."""
    out = _make(x.data + c, "add_const")

    def bwd(g):
        _accum(x, _reduce_to(g, x.data.shape))

    _record(out, bwd)
    return out


def mul_const(x: Tensor, c) -> Tensor:
    """Multiply by a constant array or scalar (dropout masks, fixed gates)."""
    out = _make(x.data * c, "mul_const")

    def bwd(g):
        _accum(x, _reduce_to(g * c, x.data.shape))

    _record(out, bwd)
    return out


def sum_all(x: Tensor) -> Tensor:
    out = _make(np.asarray(np.add.reduce(x.data, axis=None)), "sum_all")

    def bwd(g):
        _accum(x, np.broadcast_to(g, x.data.shape).copy())

    _record(out, bwd)
    return out


def reshape(x: Tensor, shape: tuple) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        _accum(x, g.reshape(x.data.shape))

    _record(out, bwd)
    return out


def permute(x: Tensor, axes: tuple) -> Tensor:
    out = Tensor(np.transpose(x.data, axes))
    inv = np.argsort(axes)

    def bwd(g):
        _accum(x, np.transpose(g, inv))

    _record(out, bwd)
    return out


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows (axis 0) by integer index; repeated ids accumulate gradient.

    Doubles as embedding lookup when ``x`` is an embedding table.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (np.minimum.reduce(idx) < 0
                     or np.maximum.reduce(idx) >= x.data.shape[0]):
        raise DimensionError(f"gather index out of range for axis of size {x.data.shape[0]}")
    out = Tensor(x.data[idx])

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        _accum(x, gx)

    _record(out, bwd)
    return out


def concat_rows(*parts: Tensor) -> Tensor:
    """Stack tensors along axis 0; a single part is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    if not parts or len({p.data.ndim for p in parts}) != 1:
        raise DimensionError(f"concat_rows needs parts of one rank, got "
                             f"{[p.data.shape for p in parts]}")
    # The result is C-ordered whatever the parts' layout: np.concatenate
    # would follow a transposed layout, and a reshape after it would copy.
    data = [p.data for p in parts]
    rows = [a.shape[0] for a in data]
    out = Tensor(np.concatenate(data, axis=0, out=np.empty(
        (sum(rows), *data[0].shape[1:]), np.result_type(*data))))
    ends = np.add.accumulate(rows)[:-1]

    def bwd(g):
        for p, gp in zip(parts, np.split(g, ends)):
            _accum(p, gp)

    _record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# dense algebra
# ---------------------------------------------------------------------------

def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with b broadcast over rows: (L, K) @ (K, M) + (M,)."""
    if x.data.ndim != 2 or x.data.shape[1] != w.data.shape[0] or b.data.shape != (w.data.shape[1],):
        raise DimensionError(f"affine {x.data.shape} @ {w.data.shape} + {b.data.shape}")
    y = x.data @ w.data
    out = _make(np.add(y, b.data, out=_into(y, b.data)), "affine")

    def bwd(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        _accum(b, np.add.reduce(g, axis=0))

    _record(out, bwd)
    return out


def swish(x: Tensor) -> Tensor:
    """x * sigmoid(x).

    The backward recomputes the sigmoid from the input, so the tape holds no
    array of its own for this op.
    """
    # Multiplying into the sigmoid's buffer saves a third full-size array;
    # products commute, so this is x * sigmoid(x) to the bit.
    s = _sigmoid(x.data)
    s *= x.data
    out = _make(s, "swish")

    def bwd(g):
        s = _sigmoid(x.data)
        _accum(x, g * (s * (1.0 + x.data * (1.0 - s))))

    _record(out, bwd)
    return out


def glu_halves(x: Tensor) -> Tensor:
    """Gated linear unit over column halves: a * sigmoid(b) for x = [a | b].

    Like ``swish``, the backward recomputes the sigmoid from the input.
    """
    if x.data.ndim != 2 or x.data.shape[1] % 2:
        raise DimensionError(f"glu_halves needs an even column count, got {x.data.shape}")
    d = x.data.shape[1] // 2
    a, b = x.data[:, :d], x.data[:, d:]
    s = _sigmoid(b)
    s *= a
    out = _make(s, "glu_halves")

    def bwd(g):
        s = _sigmoid(b)
        gx = np.concatenate([g * s, g * a * s * (1.0 - s)], axis=1)
        _accum(x, gx)

    _record(out, bwd)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance, then scale and shift.

    The backward recomputes the normalized rows from the input and the
    per-row mean and scale, so the tape keeps no (L, D) array of its own.
    """
    if x.data.ndim != 2 or gain.data.shape != (x.data.shape[1],) or bias.data.shape != (x.data.shape[1],):
        raise DimensionError(f"layer_norm {x.data.shape} with gain {gain.data.shape}, bias {bias.data.shape}")
    # A row mean is the row sum divided by the width in place, as np.mean
    # computes it; the tails below run in place on fresh temporaries.
    d = x.data.shape[1]
    mu = np.add.reduce(x.data, axis=1, keepdims=True)
    mu /= d
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=1, keepdims=True)
    var /= d
    var += LAYER_NORM_EPS
    inv = np.sqrt(var, out=var)
    np.divide(1.0, inv, out=inv)
    xc *= inv
    y = np.multiply(xc, gain.data, out=_into(xc, gain.data))
    out = _make(np.add(y, bias.data, out=_into(y, bias.data)), "layer_norm")

    def bwd(g):
        xhat = x.data - mu
        xhat *= inv
        _accum(gain, np.add.reduce(g * xhat, axis=0))
        _accum(bias, np.add.reduce(g, axis=0))
        gh = g * gain.data
        m1 = np.add.reduce(gh, axis=1, keepdims=True)
        m1 /= d
        m2 = np.add.reduce(gh * xhat, axis=1, keepdims=True)
        m2 /= d
        gh -= m1
        gx = np.multiply(xhat, m2, out=_into(xhat, m2))
        gx = np.subtract(gh, gx, out=_into(gx, gh))
        _accum(x, np.multiply(gx, inv, out=_into(gx, inv)))

    _record(out, bwd)
    return out


def log_softmax_rows(x: Tensor) -> Tensor:
    if x.data.ndim != 2 or x.data.shape[1] == 0:
        raise DimensionError(f"log_softmax_rows needs non-empty rows, got {x.data.shape}")
    m = np.maximum.reduce(x.data, axis=1, keepdims=True)
    z = x.data - m
    lse = np.log(np.add.reduce(np.exp(z, out=z), axis=1, keepdims=True))
    lse += m
    out = _make(np.subtract(x.data, lse, out=z), "log_softmax_rows")

    def bwd(g):
        # The softmax is needed only here, so a forward-only call never builds it.
        sm = np.exp(out.data)
        gs = np.add.reduce(g, axis=1, keepdims=True)
        sm = np.multiply(sm, gs, out=_into(sm, gs))
        _accum(x, np.subtract(g, sm, out=_into(sm, g)))

    _record(out, bwd)
    return out


def cross_entropy_mean(logits: Tensor, targets, lengths) -> Tensor:
    """Summed per-sequence mean negative log-likelihood of integer targets.

    The rows pack consecutive sequences of ``lengths`` rows; each sequence's
    mean is taken under the row softmax, and the result is their sum.
    """
    targets = np.asarray(targets, dtype=np.int64)
    n, v = logits.data.shape
    if targets.shape != (n,):
        raise DimensionError(f"cross_entropy_mean logits {logits.data.shape} vs targets {targets.shape}")
    if n == 0:
        raise DimensionError("cross_entropy_mean needs at least one row")
    if np.minimum.reduce(targets) < 0 or np.maximum.reduce(targets) >= v:
        raise DimensionError(f"target id out of range for {v} classes")
    lengths = _packed_lengths(lengths, n, "cross_entropy_mean")
    if np.minimum.reduce(lengths) == 0:
        raise DimensionError("cross_entropy_mean needs at least one row per sequence")
    m = np.maximum.reduce(logits.data, axis=1, keepdims=True)
    lse = (np.log(np.add.reduce(np.exp(logits.data - m), axis=1, keepdims=True)) + m)[:, 0]
    picked = logits.data[np.arange(n), targets]
    nll = lse - picked
    # Each sequence's mean is its sum divided by its row count, as np.mean
    # computes it.
    out = _make(np.asarray(np.add.reduce([np.add.reduce(part) / part.size for part in
                                          np.split(nll, np.add.accumulate(lengths)[:-1])])),
                "cross_entropy_mean")

    def bwd(g):
        sm = np.exp(logits.data - lse[:, None])
        sm[np.arange(n), targets] -= 1.0
        _accum(logits, sm * (g / lengths.astype(sm.dtype)).repeat(lengths)[:, None])

    _record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# alignment lattice
# ---------------------------------------------------------------------------

def lattice_nll(log_probs: Tensor, states, allow_skip, lengths) -> Tensor:
    """Negative log of the summed probability of every path through CTC lattices.

    ``log_probs`` is a (T, V) grid that packs consecutive sequences of
    ``lengths`` frames; ``states`` and ``allow_skip`` hold one lattice per
    sequence. Lattice state s emits class ``states[s]`` and is entered from
    s, s - 1 and, where ``allow_skip[s]`` holds, s - 2. Paths start in state
    0 or 1 and end in one of the last two states. The result is the sum of
    the sequences' losses, added in sequence order.

    All lattices run as one (sequences, most states) recursion per frame in
    log space, unreachable branches held at NEG_FILL. A lattice's padded
    states emit NEG_FILL, and a sequence past its last frame re-reads that
    frame; its loss and gradient are taken at its own last frame, so the
    frames after it change nothing. The backward replays the recursion in
    reverse, so the whole loss is one tape entry. Element by element, each
    array operation, down to the order in which the emission gradient
    accumulates, is the one the former per-frame, per-sequence tape ops
    made, so the loss and its gradient are the same to the bit.
    """
    lp = log_probs.data
    if lp.ndim != 2:
        raise DimensionError(f"lattice_nll needs a (T, V) grid, got {lp.shape}")
    lengths = _packed_lengths(lengths, lp.shape[0], "lattice_nll")
    if len(states) != lengths.size or len(allow_skip) != lengths.size:
        raise DimensionError(f"lattice_nll: {len(states)} lattices and {len(allow_skip)} "
                             f"skip masks for {lengths.size} sequences")
    lattices = []
    for i, (st, sk) in enumerate(zip(states, allow_skip)):
        st, sk = np.asarray(st, dtype=np.int64), np.asarray(sk, dtype=bool)
        if lengths[i] < 1 or st.ndim != 1 or st.size < 1 or sk.shape != st.shape:
            raise DimensionError(f"lattice_nll grid {(int(lengths[i]), lp.shape[1])} of "
                                 f"sequence {i}, states {st.shape}, skips {sk.shape}")
        if st.min() < 0 or st.max() >= lp.shape[1]:
            raise DimensionError(f"lattice state class of sequence {i} out of range for "
                                 f"{lp.shape[1]} classes")
        lattices.append((st, sk))
    n, t_max = lengths.size, int(lengths.max())
    sizes = np.array([st.size for st, _ in lattices])
    s_max = int(sizes.max())
    real = np.arange(s_max) < sizes[:, None]                      # (n, S)
    state = np.zeros((n, s_max), dtype=np.int64)
    skip = np.zeros((n, s_max), dtype=bool)
    for i, (st, sk) in enumerate(lattices):
        # Padded states re-read the lattice's first class, so every cell
        # read lies on its own sequence's path.
        state[i] = st[0]
        state[i, :st.size] = st
        skip[i, :st.size] = sk
    frame = np.minimum(np.arange(t_max)[:, None], lengths - 1)      # (T, n)
    rows = (np.cumsum(lengths) - lengths) + frame
    emit = lp[rows[:, :, None], state[None]]                        # (T, n, S)
    finite = np.isfinite(emit).all(axis=(0, 2))
    if not finite.all():
        raise NumericError(f"non-finite log probability on the lattice_nll path of "
                           f"sequence {int(np.flatnonzero(~finite)[0])}")
    emit[:, ~real] = NEG_FILL

    alpha = np.empty_like(emit)          # alpha[t]: log mass of each state after frame t
    lse = np.empty_like(emit)            # lse[t]: its log-sum-exp over the entering branches
    b2 = np.full_like(emit, NEG_FILL)    # b2[t]: the skip branch, NEG_FILL where barred
    b1 = np.full((n, s_max), NEG_FILL, dtype=lp.dtype)
    alpha[0] = emit[0]
    alpha[0, :, 2:] = NEG_FILL
    for t in range(1, t_max):
        a = alpha[t - 1]
        b1[:, 1:] = a[:, :-1]
        np.copyto(b2[t, :, 2:], a[:, :-2], where=skip[:, 2:])
        m = np.maximum(np.maximum(a, b1), b2[t])
        np.add(m, np.log(np.exp(a - m) + np.exp(b1 - m) + np.exp(b2[t] - m)), out=lse[t])
        np.add(lse[t], emit[t], out=alpha[t])
    finals, lasts, totals = [], [], []
    for i, s in enumerate(sizes):
        final = np.arange(max(s - 2, 0), s)
        last = alpha[lengths[i] - 1, i, final]
        m = float(last.max())
        finals.append(final)
        lasts.append(last)
        totals.append(np.asarray(m + np.log(np.exp(last - m).sum())))
    nll = -totals[0]
    for total in totals[1:]:
        nll = nll + -total
    out = _make(nll, "lattice_nll")

    def bwd(g_out):
        # Branch weights of every step at once: stay, step from s - 1 (for
        # states 1..), skip from s - 2 (for states 2..).
        e0 = np.exp(alpha[:-1] - lse[1:])
        e1 = np.exp(alpha[:-1, :, :-1] - lse[1:, :, 1:])
        e2 = np.exp(b2[1:, :, 2:] - lse[1:, :, 2:])
        ends = lengths - 1
        g = np.zeros((n, s_max), dtype=alpha.dtype)
        ge = np.empty_like(alpha)        # gradient reaching each emission
        for t in range(t_max - 1, -1, -1):
            for i in np.flatnonzero(ends == t):
                g[i, finals[i]] += -g_out * np.exp(lasts[i] - totals[i])
            ge[t] = g
            if t == 0:
                break
            prev = g * e0[t - 1]
            prev[:, :-1] += g[:, 1:] * e1[t - 1]
            prev[:, :-2] += g[:, 2:] * e2[t - 1] * skip[:, 2:]
            g = prev
        # Frame 0 enters states 0 and 1 only; no frame past a sequence's end emits.
        use = real & (np.arange(t_max)[:, None, None] < lengths[:, None])
        use[0, :, 2:] = False
        grad = np.zeros_like(lp)
        np.add.at(grad, (np.broadcast_to(rows[:, :, None], use.shape)[use],
                         np.broadcast_to(state, use.shape)[use]), ge[use])
        _accum(log_probs, grad)

    _record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

def conv2d_s2(x: Tensor | np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """Valid 2-D convolution with stride 2, channels last: (H, W, Ci) -> (H', W', Co).

    The kernel is (Co, Ci, kh, kw). The forward is one GEMM over im2col
    columns, ``(Co, Ci*kh*kw) @ (Ci*kh*kw, H'*W')``, and the output is an
    (H', W', Co) view of its (Co, H'*W') result. The backward rebuilds the
    columns rather than keeping them on the tape, takes the weight and the
    input gradient with one GEMM each, and adds the input gradient back with
    one strided slice-add per kernel position over whole channel rows.

    ``x`` may be a plain array, a constant like ``add_const``'s ``c``: it
    gets no gradient, and the backward skips the input-gradient GEMM.
    """
    xd = x.data if isinstance(x, Tensor) else np.asarray(x)
    h, wd, ci = xd.shape
    co, ci2, kh, kw = w.data.shape
    if ci != ci2 or b.data.shape != (co,):
        raise DimensionError(f"conv2d_s2 input {xd.shape} vs kernel {w.data.shape}")
    if h < kh or wd < kw:
        raise DimensionError(f"conv2d_s2 input {xd.shape} smaller than kernel {w.data.shape}")
    ho, wo = (h - kh) // 2 + 1, (wd - kw) // 2 + 1

    def columns() -> np.ndarray:
        # Rows run over (ci, ky, kx), the kernel's own order: each input
        # channel is read in one pass, and one utterance's output is the
        # (Ci, H, W) convolution's to the bit. The windows are a read-only
        # (Ci, H', W', kh, kw) view of the input at stride 2.
        sh, sw, sc = xd.strides
        win = as_strided(xd, shape=(ci, ho, wo, kh, kw),
                         strides=(sc, 2 * sh, 2 * sw, sh, sw), writeable=False)
        return win.transpose(0, 3, 4, 1, 2).reshape(ci * kh * kw, ho * wo)

    # The bias makes a new array rather than adding in place: freeing the
    # product here lets malloc raise its mmap threshold, where an in-place
    # add left each desk forward faulting in fresh pages (86 per call).
    out2d = w.data.reshape(co, ci * kh * kw) @ columns() + b.data[:, None]
    out = _make(out2d.T.reshape(ho, wo, co), "conv2d_s2")

    def bwd(g):
        g2 = g.reshape(ho * wo, co)
        _accum(w, (g2.T @ columns().T).reshape(w.data.shape))
        _accum(b, np.add.reduce(g2, axis=0))
        if not isinstance(x, Tensor):
            return
        # Input-gradient columns over (ky, kx, ci): each kernel position's
        # share of an output frame is one contiguous channel row.
        wm = w.data.transpose(0, 2, 3, 1).reshape(co, kh * kw * ci)
        gcols = (g2 @ wm).reshape(ho, wo, kh, kw, ci)
        gx = np.zeros((h, wd, ci), dtype=xd.dtype)
        for ky in range(kh):
            for kx in range(kw):
                gx[ky:ky + 2 * ho - 1:2, kx:kx + 2 * wo - 1:2] += gcols[:, :, ky, kx]
        _accum(x, gx)

    _record(out, bwd)
    return out


def depthwise_conv1d(x: Tensor, w: Tensor, b: Tensor, lengths) -> Tensor:
    """Per-channel 1-D convolution along rows with same-length zero padding.

    x: (L, D), w: (K, D) with K odd, b: (D,). ``lengths`` lists the lengths
    of consecutive packed sequences; each is zero-padded at its own ends, so
    no window reaches into a neighbour.
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
    lengths = _packed_lengths(lengths, L, "depthwise_conv1d")
    # One shared run of ``pad`` zeros between neighbours pads both; the
    # window of packed row r of sequence s starts at padded row r + pad*s.
    sel = None if lengths.size == 1 else \
        np.arange(L) + pad * np.arange(lengths.size).repeat(lengths)
    n_win = L + pad * (lengths.size - 1)

    def windows() -> np.ndarray:
        """(n_win, D, K) read-only view of the zero-padded rows; the backward rebuilds it."""
        xp = np.zeros((n_win + 2 * pad, d), dtype=x.data.dtype)
        if sel is None:
            xp[pad:pad + L] = x.data
        else:
            xp[sel + pad] = x.data
        s0, s1 = xp.strides
        return as_strided(xp, shape=(n_win, d, k), strides=(s0, s1, s0), writeable=False)

    full = np.einsum("tdk,kd->td", windows(), w.data)
    if sel is not None:
        full = full[sel]
    out = _make(np.add(full, b.data, out=_into(full, b.data)), "depthwise_conv1d")

    def bwd(g):
        if sel is None:
            gw = g
        else:
            gw = np.zeros((n_win, d), dtype=g.dtype)
            gw[sel] = g
        _accum(w, np.einsum("tdk,td->kd", windows(), gw))
        _accum(b, np.add.reduce(g, axis=0))
        gxp = np.zeros((n_win + 2 * pad, d), dtype=x.data.dtype)
        for kk in range(k):
            gxp[kk:kk + n_win] += gw * w.data[kk]
        _accum(x, gxp[pad:pad + L] if sel is None else gxp[sel + pad])

    _record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def attention_core(q: Tensor, k: Tensor, v: Tensor, n_heads: int, causal: bool = False, *,
                   q_lengths, k_lengths) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention over column-split heads and packed sequences.

    q: (Lq, D), k/v: (Lk, D) pack consecutive sequences of ``q_lengths`` and
    ``k_lengths`` rows. There is one key sequence per
    query sequence, or a single one that every query sequence attends to.
    The sequences run as one padded (B, H, Lq_max, Lk_max) batched matmul;
    padded keys and, with ``causal`` (square sequences only), keys right of
    the query position get exactly zero weight. Returns the packed (Lq, D)
    context and the raw weights for inspection, padded (B, H, Lq_max, Lk_max)
    for every B. One sequence on each side is reshaped, never copied into a
    padded layout.
    """
    lq, d = q.data.shape
    lk, dk = k.data.shape
    if dk != d or v.data.shape != (lk, d):
        raise DimensionError(f"attention q {q.data.shape}, k {k.data.shape}, v {v.data.shape}")
    if d % n_heads:
        raise DimensionError(f"model width {d} not divisible by {n_heads} heads")
    q_len = _packed_lengths(q_lengths, lq, "attention queries")
    k_len = _packed_lengths(k_lengths, lk, "attention keys")
    nq, nk = q_len.size, k_len.size
    if nk not in (1, nq) or np.minimum.reduce(k_len) == 0:
        raise DimensionError(f"attention needs one non-empty key sequence per query sequence "
                             f"or one shared, got key lengths {k_len.tolist()} for "
                             f"{nq} query sequences")
    if causal and (nk != nq or np.logical_or.reduce(q_len != k_len)):
        raise DimensionError(f"causal attention needs square scores, got query lengths "
                             f"{q_len.tolist()} and key lengths {k_len.tolist()}")
    dh = d // n_heads
    # A Python float keeps float32 scores float32; an np.float64 would promote.
    inv = 1.0 / math.sqrt(dh)
    q_rows, k_rows = _padded_rows(q_len), _padded_rows(k_len)

    def heads(a, lengths, rows):   # (B, H, L_max, dh) from packed (L, D)
        return _to_padded(a, lengths, rows).reshape(
            lengths.size, -1, n_heads, dh).transpose(0, 2, 1, 3)

    def packed(a, rows):           # packed (L, D) from (B, H, L_max, dh)
        return _from_padded(a.transpose(0, 2, 1, 3).reshape(a.shape[0], -1, d), rows)

    # Every product below is a batched matmul, which reaches BLAS where
    # einsum does not.
    scores = heads(q.data, q_len, q_rows) @ heads(k.data, k_len, k_rows).transpose(0, 1, 3, 2)
    scores *= inv
    if causal:   # keys right of the query: the strict upper triangle
        lq_max, lk_max = scores.shape[2:]
        np.copyto(scores, NEG_FILL, where=np.arange(lk_max) > np.arange(lq_max)[:, None])
    if k_rows is not None:
        padding = np.arange(scores.shape[3]) >= k_len[:, None]
        np.copyto(scores, NEG_FILL, where=padding[:, None, None, :])
    scores -= np.maximum.reduce(scores, axis=3, keepdims=True)
    weights = np.exp(scores, out=scores)
    weights /= np.add.reduce(weights, axis=3, keepdims=True)
    out = _make(packed(weights @ heads(v.data, k_len, k_rows), q_rows), "attention_core")

    def bwd(g):
        # Padded heads are rebuilt rather than kept; one sequence's are views.
        qh = heads(q.data, q_len, q_rows)
        kh = heads(k.data, k_len, k_rows)
        vh = heads(v.data, k_len, k_rows)
        gr = heads(g, q_len, q_rows)
        gv = weights.transpose(0, 1, 3, 2) @ gr
        gs = gr @ vh.transpose(0, 1, 3, 2)
        gs -= np.add.reduce(gs * weights, axis=3, keepdims=True)
        gs *= weights
        gq = gs @ kh
        gq *= inv
        gk = gs.transpose(0, 1, 3, 2) @ qh
        gk *= inv
        if nk < nq:   # the shared keys gather every query sequence's gradient
            gk = np.add.reduce(gk, axis=0, keepdims=True)
            gv = np.add.reduce(gv, axis=0, keepdims=True)
        _accum(q, packed(gq, q_rows))
        _accum(k, packed(gk, k_rows))
        _accum(v, packed(gv, k_rows))

    _record(out, bwd)
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
    if not np.logical_and.reduce(np.isfinite(grad), axis=None):
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
