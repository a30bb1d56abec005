"""Transformer building blocks shared by the vision, text and fusion stacks.

All blocks are pre-norm residual: x + Attn(LN(x)), then + MLP(LN(.)).
Inputs are batched: (batch, n, dim).
"""

from __future__ import annotations

import math

import numpy as np

from .params import ParameterSet
from .tensor import (DimensionError, Tensor, add, gelu, layer_norm, linear,
                     matmul, reshape, scale, softmax, transpose)


def _linear_params(params: ParameterSet, name: str, fan_in: int, fan_out: int,
                   rng: np.random.Generator, dtype):
    w = params.add(
        f"{name}.weight",
        (fan_in ** -0.5) * rng.standard_normal((fan_in, fan_out)).astype(dtype))
    b = params.add(f"{name}.bias", np.zeros(fan_out, dtype=dtype))
    return w, b


class Linear:
    def __init__(self, params, name, fan_in, fan_out, rng, dtype):
        self.w, self.b = _linear_params(params, name, fan_in, fan_out, rng, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w.tensor, self.b.tensor)


def _norm_params(params: ParameterSet, name: str, dim: int, dtype):
    gain = params.add(f"{name}.gain", np.ones(dim, dtype=dtype))
    bias = params.add(f"{name}.bias", np.zeros(dim, dtype=dtype))
    return gain, bias


class MultiHeadAttention:
    """Pre-norm multi-head self-attention.

    Scores are Q K^T / sqrt(c) with c the per-head dim; each score row is
    softmax-normalized. When ``collect`` is a list, the per-head
    attention probabilities (numpy, shape (batch, heads, n, n)) are
    appended to it.
    """

    def __init__(self, params: ParameterSet, prefix: str, dim: int, heads: int,
                 rng: np.random.Generator, dtype):
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.ln_gain, self.ln_bias = _norm_params(params, f"{prefix}.ln", dim, dtype)
        self.q = Linear(params, f"{prefix}.q", dim, dim, rng, dtype)
        self.k = Linear(params, f"{prefix}.k", dim, dim, rng, dtype)
        self.v = Linear(params, f"{prefix}.v", dim, dim, rng, dtype)
        self.out = Linear(params, f"{prefix}.out", dim, dim, rng, dtype)

    def __call__(self, x: Tensor, collect: list | None = None) -> Tensor:
        if x.ndim != 3:
            raise DimensionError(f"attention expects (batch, n, dim), got {x.shape}")
        b, n, d = x.shape
        h, hd = self.heads, self.head_dim

        xn = layer_norm(x, self.ln_gain.tensor, self.ln_bias.tensor)

        def split_heads(t: Tensor) -> Tensor:
            return transpose(reshape(t, (b, n, h, hd)), (0, 2, 1, 3))

        q = split_heads(self.q(xn))
        k = split_heads(self.k(xn))
        v = split_heads(self.v(xn))

        scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(hd))
        probs = softmax(scores, axis=-1)
        if collect is not None:
            collect.append(probs.data)
        ctx = reshape(transpose(matmul(probs, v), (0, 2, 1, 3)), (b, n, d))
        return self.out(ctx)


class FeedForward:
    """Pre-norm MLP arm: LN -> linear(dim -> ratio*dim) -> GELU -> linear."""

    def __init__(self, params, prefix, dim, ratio, rng, dtype):
        hidden = dim * ratio
        self.ln_gain, self.ln_bias = _norm_params(params, f"{prefix}.ln", dim, dtype)
        self.fc1 = Linear(params, f"{prefix}.fc1", dim, hidden, rng, dtype)
        self.fc2 = Linear(params, f"{prefix}.fc2", hidden, dim, rng, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(
            layer_norm(x, self.ln_gain.tensor, self.ln_bias.tensor))))


class TransformerBlock:
    def __init__(self, params: ParameterSet, prefix: str, dim: int, heads: int,
                 mlp_ratio: int, rng: np.random.Generator, dtype):
        self.attn = MultiHeadAttention(params, f"{prefix}.attn", dim, heads, rng, dtype)
        self.mlp = FeedForward(params, f"{prefix}.mlp", dim, mlp_ratio, rng, dtype)

    def __call__(self, x: Tensor, collect: list | None = None) -> Tensor:
        y = add(x, self.attn(x, collect))
        return add(y, self.mlp(y))

    def zero_residual_projections(self) -> None:
        """Zero the attention and MLP output projections; the block then
        reduces to the identity map."""
        for p in (self.attn.out.w, self.attn.out.b, self.mlp.fc2.w, self.mlp.fc2.b):
            p.set_value(np.zeros_like(p.data))


class TransformerStack:
    """``blocks`` transformer blocks named ``{prefix}.block{i}``, applied in
    order; the vision, text and fusion stacks are all this class."""

    def __init__(self, params: ParameterSet, prefix: str, dim: int, heads: int,
                 blocks: int, mlp_ratio: int, rng: np.random.Generator, dtype):
        self.blocks = [
            TransformerBlock(params, f"{prefix}.block{i}", dim, heads,
                             mlp_ratio, rng, dtype)
            for i in range(blocks)
        ]

    def __call__(self, x: Tensor, collect: list | None = None) -> Tensor:
        for blk in self.blocks:
            x = blk(x, collect)
        return x

    def zero_residual_projections(self) -> None:
        for blk in self.blocks:
            blk.zero_residual_projections()
