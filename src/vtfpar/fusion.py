"""Fusion of visual and text tokens, and per-attribute classification heads.

The fused sequence is (batch, n_visual + n_text, dim), visual tokens
first; after the fusion blocks, head m reads the enhanced text token m
and produces one logit.
The no-fusion ablation replaces the transformer stack with one shared
linear layer applied to every token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .layers import Linear
from .params import ParameterSet
from .tensor import ContractError, Tensor, add, mul, tensor_sum


@dataclass(frozen=True)
class FusionConfig:
    dim: int = 96
    heads: int = 4
    blocks: int = 2
    mlp_ratio: int = 4

    def __post_init__(self):
        if self.dim % self.heads:
            raise ContractError(f"fusion dim {self.dim} not divisible by heads {self.heads}")
        if self.blocks < 0 or self.mlp_ratio < 1:
            raise ContractError(f"bad fusion config {self}")


class TokenProjector:
    """No-fusion variant: one shared linear layer applied per token."""

    def __init__(self, params: ParameterSet, dim: int,
                 rng: np.random.Generator, dtype=np.float32, prefix: str = "nofusion"):
        self.linear = Linear(params, f"{prefix}.proj", dim, dim, rng, dtype)

    def __call__(self, x: Tensor, collect: list | None = None) -> Tensor:
        return self.linear(x)


class ClassificationHeads:
    """One linear head per attribute class; head m reads text token m."""

    def __init__(self, params: ParameterSet, n_classes: int, dim: int,
                 rng: np.random.Generator, dtype=np.float32, prefix: str = "heads"):
        self.n_classes = n_classes
        self.weight = params.add(
            f"{prefix}.weight",
            (dim ** -0.5) * rng.standard_normal((n_classes, dim)).astype(dtype))
        self.bias = params.add(f"{prefix}.bias", np.zeros(n_classes, dtype=dtype))

    def __call__(self, text_tokens: Tensor) -> Tensor:
        """(..., n_classes, dim) -> logits (..., n_classes)."""
        if text_tokens.shape[-2] != self.n_classes:
            raise DataError(
                f"{text_tokens.shape[-2]} text tokens but {self.n_classes} heads; "
                "schema and model disagree")
        per_class = tensor_sum(mul(text_tokens, self.weight.tensor), axis=-1)
        return add(per_class, self.bias.tensor)
