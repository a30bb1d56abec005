"""Vision side: square padding, patch embedding and a ViT-style encoder
over a batch of frames. The model averages the per-frame tokens over time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Linear, TransformerStack
from .params import ParameterSet
from .tensor import ContractError, DimensionError, Tensor, add, concat, expand_leading


@dataclass(frozen=True)
class VitConfig:
    """Vision encoder geometry. Token count is (size/patch)^2 + 1 (class token)."""

    image_size: int = 32
    patch_size: int = 8
    dim: int = 96
    depth: int = 2
    heads: int = 4
    mlp_ratio: int = 4

    def __post_init__(self):
        if self.image_size % self.patch_size:
            raise ContractError(
                f"image size {self.image_size} not divisible by patch {self.patch_size}")
        if self.dim % self.heads:
            raise ContractError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.depth < 0 or self.mlp_ratio < 1:
            raise ContractError(f"bad vision config {self}")

    @property
    def n_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def n_tokens(self) -> int:
        return self.n_patches + 1


def bilinear_resize(img: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resample of (..., h, w, c) images.

    Identity when the size is unchanged.
    """
    h, w = img.shape[-3:-1]
    if (new_h, new_w) == (h, w):
        return img.copy()

    def axis_coords(n_new, n_old):
        src = (np.arange(n_new) + 0.5) * (n_old / n_new) - 0.5
        src = np.clip(src, 0.0, n_old - 1.0)
        lo = np.floor(src).astype(np.int64)
        hi = np.minimum(lo + 1, n_old - 1)
        t = (src - lo).astype(img.dtype)
        return lo, hi, t

    y0, y1, ty = axis_coords(new_h, h)
    x0, x1, tx = axis_coords(new_w, w)
    ty = ty[:, None, None]
    tx = tx[None, :, None]
    rows0, rows1 = img[..., y0, :, :], img[..., y1, :, :]
    top = rows0[..., x0, :] * (1 - tx) + rows0[..., x1, :] * tx
    bot = rows1[..., x0, :] * (1 - tx) + rows1[..., x1, :] * tx
    return top * (1 - ty) + bot * ty


def pad_to_square(frames: np.ndarray, size: int) -> np.ndarray:
    """Resize so the longer side equals ``size``, then zero-pad to square.

    Takes (..., h, w, 3) frames, all of one size, and returns
    (..., size, size, 3). Aspect ratio is preserved; padding is centered,
    with the odd extra pixel going to the right/bottom.
    """
    if frames.ndim < 3 or frames.shape[-1] != 3:
        raise DimensionError(f"frames must be (..., h, w, 3), got {frames.shape}")
    h, w = frames.shape[-3:-1]
    if h == 0 or w == 0:
        raise ContractError("pad_to_square: zero-area frame")
    if h >= w:
        new_h, new_w = size, max(1, round(w * size / h))
    else:
        new_h, new_w = max(1, round(h * size / w)), size
    resized = bilinear_resize(frames, new_h, new_w)
    out = np.zeros(frames.shape[:-3] + (size, size, 3), dtype=frames.dtype)
    top = (size - new_h) // 2
    left = (size - new_w) // 2
    out[..., top:top + new_h, left:left + new_w, :] = resized
    return out


def patchify(frames: np.ndarray, patch: int) -> np.ndarray:
    """(b, s, s, 3) -> (b, n_patches, patch*patch*3), row-major patch order."""
    b, s, s2, c = frames.shape
    if s != s2:
        raise DimensionError(f"patchify expects square frames, got {frames.shape}")
    g = s // patch
    x = frames.reshape(b, g, patch, g, patch, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(x.reshape(b, g * g, patch * patch * c))


class VisionEncoder:
    """Patch projection + class token + positional vectors + blocks."""

    def __init__(self, params: ParameterSet, cfg: VitConfig,
                 rng: np.random.Generator, dtype=np.float32, prefix: str = "vision"):
        self.cfg = cfg
        self.dtype = dtype
        d = cfg.dim
        self.patch = Linear(params, f"{prefix}.patch", cfg.patch_size * cfg.patch_size * 3,
                            d, rng, dtype)
        self.cls = params.add(
            f"{prefix}.cls", 0.02 * rng.standard_normal((1, d)).astype(dtype))
        # unit-scale positional code: the frozen random blocks then act as a
        # position-sensitive feature map, so pooled tokens keep region info
        self.pos = params.add(
            f"{prefix}.pos",
            rng.standard_normal((cfg.n_tokens, d)).astype(dtype))
        self.blocks = TransformerStack(params, prefix, d, cfg.heads, cfg.depth,
                                       cfg.mlp_ratio, rng, dtype)

    def encode(self, frames: np.ndarray) -> Tensor:
        """Padded frames (b, s, s, 3) -> tokens (b, n_tokens, dim)."""
        s = self.cfg.image_size
        if frames.ndim != 4 or frames.shape[1:] != (s, s, 3):
            raise DimensionError(
                f"encode expects (b, {s}, {s}, 3), got {frames.shape}")
        b = frames.shape[0]
        x = self.patch(Tensor(patchify(frames.astype(self.dtype, copy=False),
                                       self.cfg.patch_size)))
        x = concat([expand_leading(self.cls.tensor, b), x], axis=1)
        return self.blocks(add(x, self.pos.tensor))
