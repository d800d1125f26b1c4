"""Tools the tests share and the package never calls.

``tensor`` wraps an array as a tape input, ``sum_all`` reduces an op's
output to the scalar a test differentiates (one tape op, like the package's
ops), ``grad_check`` compares tape gradients with central differences, and
``zero_residual_branches`` makes a Conformer block the identity.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from skiprec import autodiff as ad
from skiprec.autodiff import Tensor
from skiprec.encoder import ConformerBlockParams
from skiprec.errors import ContractError, ParameterError


def tensor(data, dtype=None) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype if dtype is not None else np.float64))


def sum_all(x: Tensor) -> Tensor:
    out = ad._make(np.asarray(np.add.reduce(x.data, axis=None)), "sum_all")

    def bwd(g):
        ad._accum(x, np.broadcast_to(g, x.data.shape).copy())

    ad._record(out, bwd)
    return out


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
    with ad.tape() as tp:
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


def zero_residual_branches(block: ConformerBlockParams) -> ConformerBlockParams:
    """Zero every branch's output stage so the block computes the identity."""
    for p in (block.ffn1.w2, block.ffn1.b2, block.attn.wo, block.attn.bo,
              block.conv.w_out, block.conv.b_out, block.ffn2.w2, block.ffn2.b2,
              block.out_norm.gain, block.out_norm.bias):
        p.value.data[...] = 0.0
    return block
