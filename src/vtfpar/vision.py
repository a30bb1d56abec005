"""Vision side: square padding, patch embedding and a ViT-style encoder
over a batch of frames. The model averages the per-frame tokens over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UsageError
from .layers import Linear, TransformerStack, check_stack_geometry
from .params import ParameterSet
from .tensor import Tensor, add, concat, expand_leading


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
        check_stack_geometry("vision", self.dim, self.heads, self.depth, self.mlp_ratio)
        if not 0 < self.patch_size <= self.image_size or self.image_size % self.patch_size:
            raise UsageError(f"image size {self.image_size} must be a positive "
                             f"multiple of patch {self.patch_size}")

    @property
    def n_tokens(self) -> int:
        return (self.image_size // self.patch_size) ** 2 + 1


@lru_cache(maxsize=64)
def _axis_weights(n_new: int, n_old: int, dtype: np.dtype, channels: int):
    """Source rows ``lo``, ``hi`` and weights ``1 - t``, ``t`` (each weight
    ``(n_new, channels)``) of one resampled axis; read-only, as they are
    shared between calls."""
    src = (np.arange(n_new) + 0.5) * (n_old / n_new) - 0.5
    src = np.clip(src, 0.0, n_old - 1.0)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n_old - 1)
    t = np.repeat((src - lo).astype(dtype)[:, None], channels, axis=1)
    out = lo, hi, 1 - t, t
    for a in out:
        a.setflags(write=False)
    return out


def bilinear_resize(img: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resample of (..., h, w, c) images.

    An unchanged size takes the same path: every weight is then 0, so
    finite pixels come back exactly.
    """
    h, w, c = img.shape[-3:]
    y0, y1, sy, ty = _axis_weights(new_h, h, img.dtype, 1)
    x0, x1, sx, tx = _axis_weights(new_w, w, img.dtype, c)
    # columns across every source row, then rows, on contiguous arrays (tx is
    # (new_w, c)): per output pixel the same products and sums as rows first
    cols = np.take(img, x0, axis=-2) * sx + np.take(img, x1, axis=-2) * tx
    return np.take(cols, y0, axis=-3) * sy[:, None] + np.take(cols, y1, axis=-3) * ty[:, None]


def pad_to_square(frames: np.ndarray, size: int) -> np.ndarray:
    """Resize so the longer side equals ``size``, then zero-pad to square.

    Takes (..., h, w, 3) frames, all of one size, and returns
    (..., size, size, 3). Aspect ratio is preserved; padding is centered,
    with the odd extra pixel going to the right/bottom.
    """
    if frames.ndim < 3 or frames.shape[-1] != 3:
        raise UsageError(f"frames must be (..., h, w, 3), got {frames.shape}")
    h, w = frames.shape[-3:-1]
    if h == 0 or w == 0:
        raise UsageError("pad_to_square: zero-area frame")
    if h >= w:
        new_h, new_w = size, max(1, round(w * size / h))
    else:
        new_h, new_w = max(1, round(h * size / w)), size
    resized = bilinear_resize(frames, new_h, new_w)
    if new_h == new_w == size:
        return resized
    out = np.zeros(frames.shape[:-3] + (size, size, 3), dtype=frames.dtype)
    top = (size - new_h) // 2
    left = (size - new_w) // 2
    out[..., top:top + new_h, left:left + new_w, :] = resized
    return out


def patchify(frames: np.ndarray, patch: int) -> np.ndarray:
    """(b, s, s, 3) -> (b, n_patches, patch*patch*3), row-major patch order."""
    b, s, _, c = frames.shape
    g = s // patch
    x = frames.reshape(b, g, patch, g, patch, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(x.reshape(b, g * g, patch * patch * c))


class VisionEncoder:
    """Patch projection + class token + positional vectors + blocks."""

    def __init__(self, params: ParameterSet, cfg: VitConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.dim
        self.patch = Linear(params, "vision.patch", cfg.patch_size ** 2 * 3, d, rng)
        self.cls = params.normal("vision.cls", (1, d), 0.02, rng)
        # unit-scale positional code: the frozen random blocks then act as a
        # position-sensitive feature map, so pooled tokens keep region info
        self.pos = params.normal("vision.pos", (cfg.n_tokens, d), 1.0, rng)
        self.blocks = TransformerStack(params, "vision", d, cfg.heads, cfg.depth,
                                       cfg.mlp_ratio, rng)

    def encode(self, frames: np.ndarray) -> Tensor:
        """Frames (b, h, w, 3) of any size and float dtype -> tokens
        (b, n_tokens, dim); cast to the parameter dtype and padded first."""
        if frames.ndim != 4:
            raise UsageError(f"encode expects frames (b, h, w, 3), got {frames.shape}")
        frames = pad_to_square(frames.astype(self.cls.dtype, copy=False), self.cfg.image_size)
        b = frames.shape[0]
        x = self.patch(Tensor(patchify(frames, self.cfg.patch_size)))
        x = concat([expand_leading(self.cls, b), x], axis=1)
        return self.blocks(add(x, self.pos))
