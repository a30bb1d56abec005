"""Fusion of visual and text tokens, and per-attribute classification heads.

The fused sequence is (batch, n_visual + n_text, dim), visual tokens
first; after the fusion blocks, head m reads the enhanced text token m
and produces one logit. Only the text tokens are read, so the last
fusion block computes only those rows; the visual tokens still serve it
as keys and values.
The no-fusion ablation is a stack of zero blocks: head m then reads text
token m plus the clip's mean visual token, a linear probe on the pooled
features (``VideoAttributeModel.fuse_classify``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import check_stack_geometry
from .params import ParameterSet
from .tensor import Tensor, add, mul, tensor_sum


@dataclass(frozen=True)
class FusionConfig:
    dim: int = 96
    heads: int = 4
    blocks: int = 2
    mlp_ratio: int = 4

    def __post_init__(self):
        check_stack_geometry("fusion", self.dim, self.heads, self.blocks, self.mlp_ratio)


class ClassificationHeads:
    """One linear head per attribute class; head m reads text token m."""

    def __init__(self, params: ParameterSet, n_classes: int, dim: int,
                 rng: np.random.Generator):
        self.weight = params.normal("heads.weight", (n_classes, dim), dim ** -0.5, rng)
        self.bias = params.add("heads.bias", np.zeros(n_classes))

    def __call__(self, text_tokens: Tensor) -> Tensor:
        """(..., n_classes, dim) -> logits (..., n_classes)."""
        per_class = tensor_sum(mul(text_tokens, self.weight), axis=-1)
        return add(per_class, self.bias)
