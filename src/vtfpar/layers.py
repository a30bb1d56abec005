"""Transformer building blocks shared by the vision, text and fusion stacks.

All blocks are pre-norm residual: x + Attn(LN(x)), then + MLP(LN(.)).
Inputs are batched: (batch, n, dim).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError
from .params import ParameterSet
from .tensor import (Tensor, add, gelu, layer_norm, linear, matmul, reshape, scale,
                     softmax, transpose)


def check_stack_geometry(section: str, dim: int, heads: int, blocks: int,
                         mlp_ratio: int) -> None:
    """Reject a ``TransformerStack`` geometry that cannot be built: ``dim``
    must be a positive multiple of a positive ``heads``, the block count at
    least 0 and ``mlp_ratio`` at least 1. Each config section checks its
    stack here."""
    if not 0 < heads <= dim or dim % heads:
        raise UsageError(f"{section} dim {dim} must be a positive multiple of heads {heads}")
    if blocks < 0 or mlp_ratio < 1:
        raise UsageError(f"{section} needs blocks >= 0 and mlp_ratio >= 1, "
                         f"got {blocks} and {mlp_ratio}")


class Linear:
    def __init__(self, params: ParameterSet, name: str, fan_in: int, fan_out: int,
                 rng: np.random.Generator, bias: bool = True):
        self.w = params.normal(f"{name}.weight", (fan_in, fan_out), fan_in ** -0.5, rng)
        self.b = (params.add(f"{name}.bias", np.zeros(fan_out)) if bias
                  else Tensor(np.zeros(fan_out), dtype=params.dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)


def _norm_params(params: ParameterSet, name: str, dim: int):
    return (params.add(f"{name}.gain", np.ones(dim)),
            params.add(f"{name}.bias", np.zeros(dim)))


class MultiHeadAttention:
    """Pre-norm multi-head self-attention.

    Scores are Q K^T / sqrt(c) with c the per-head dim; each score row is
    softmax-normalized. K has no bias: softmax cancels the q.b it would add
    to a whole score row. ``rows``, if given, maps (batch, n, dim) to the
    (batch, n', dim) rows whose output is read: queries are taken from
    those rows only, while keys and values span all n, and the output is
    (batch, n', dim). ``mask``, if given, is an additive (n, n) constant
    (0 where a query may attend, -inf where it may not) added to the
    scaled scores before the softmax; with ``rows``, only the mask rows
    of the kept queries are added, ``rows`` applied to the mask as a
    (1, n, n) tensor. When ``collect`` is a list, the per-head attention
    probabilities (numpy, shape (batch, heads, n', n); n' = n without
    ``rows``, so every block but a stack's last records (batch, heads,
    n, n)) are appended to it.
    """

    def __init__(self, params: ParameterSet, prefix: str, dim: int, heads: int,
                 rng: np.random.Generator):
        self.heads = heads
        self.head_dim = dim // heads
        self.ln_gain, self.ln_bias = _norm_params(params, f"{prefix}.ln", dim)
        self.q = Linear(params, f"{prefix}.q", dim, dim, rng)
        self.k = Linear(params, f"{prefix}.k", dim, dim, rng, bias=False)
        self.v = Linear(params, f"{prefix}.v", dim, dim, rng)
        self.out = Linear(params, f"{prefix}.out", dim, dim, rng)

    def __call__(self, x: Tensor, collect: list | None = None,
                 rows=None, mask: Tensor | None = None) -> Tensor:
        if x.ndim != 3:
            raise UsageError(f"attention expects (batch, n, dim), got {x.shape}")
        b, n, d = x.shape
        h, hd = self.heads, self.head_dim

        xn = layer_norm(x, self.ln_gain, self.ln_bias)
        xq = xn if rows is None else rows(xn)
        nq = xq.shape[1]

        def split_heads(t: Tensor, length: int) -> Tensor:
            return transpose(reshape(t, (b, length, h, hd)), (0, 2, 1, 3))

        q = split_heads(self.q(xq), nq)
        kt = transpose(reshape(self.k(xn), (b, n, h, hd)), (0, 2, 3, 1))  # K^T per head
        v = split_heads(self.v(xn), n)

        scores = scale(matmul(q, kt), 1.0 / math.sqrt(hd))
        if mask is not None:
            if rows is not None:
                mask = reshape(rows(reshape(mask, (1, n, n))), (nq, n))
            scores = add(scores, mask)
        probs = softmax(scores)
        if collect is not None:
            collect.append(probs.data)
        ctx = reshape(transpose(matmul(probs, v), (0, 2, 1, 3)), (b, nq, d))
        return self.out(ctx)


class FeedForward:
    """Pre-norm MLP arm: LN -> linear(dim -> ratio*dim) -> GELU -> linear.

    The GELU is the tanh form (``tensor.gelu``): it costs a fraction of
    the exact erf form, which dominated a frozen-encoder epoch, and CLIP's
    encoders use an approximate GELU as well.
    """

    def __init__(self, params, prefix, dim, ratio, rng):
        hidden = dim * ratio
        self.ln_gain, self.ln_bias = _norm_params(params, f"{prefix}.ln", dim)
        self.fc1 = Linear(params, f"{prefix}.fc1", dim, hidden, rng)
        self.fc2 = Linear(params, f"{prefix}.fc2", hidden, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(
            layer_norm(x, self.ln_gain, self.ln_bias))))


class TransformerStack:
    """``blocks`` pre-norm transformer blocks, each an attention arm
    ``{prefix}.block{i}.attn`` and an MLP arm ``{prefix}.block{i}.mlp`` with
    their residuals, applied in order; the vision, text and fusion stacks
    are all this class.

    ``rows``, if given, maps a (b, n, d) tensor to the (b, n', d) rows the
    caller reads, and trims the last block to them: it still takes LN1,
    keys and values over all n rows, but computes queries, the attention
    output, the residual and the MLP for the n' rows alone, and returns
    those. Every earlier block feeds the last one's keys and values, so it
    runs on all rows. A stack of no blocks returns its input. ``mask``, if
    given, is the additive (n, n) attention mask of every block (see
    ``MultiHeadAttention``).
    """

    def __init__(self, params: ParameterSet, prefix: str, dim: int, heads: int,
                 blocks: int, mlp_ratio: int, rng: np.random.Generator):
        self.blocks = [(MultiHeadAttention(params, f"{prefix}.block{i}.attn", dim, heads, rng),
                        FeedForward(params, f"{prefix}.block{i}.mlp", dim, mlp_ratio, rng))
                       for i in range(blocks)]

    def __call__(self, x: Tensor, collect: list | None = None,
                 rows=None, mask: Tensor | None = None) -> Tensor:
        for i, (attn, mlp) in enumerate(self.blocks):
            trim = rows if i == len(self.blocks) - 1 else None
            a = attn(x, collect, trim, mask)
            x = add(x if trim is None else trim(x), a)
            x = add(x, mlp(x))
        return x
