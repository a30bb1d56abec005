"""End-to-end model: frozen-capable dual encoders, fusion stack, heads.

The forward pipeline takes a batch of clips (batch, t, h, w, 3) in one
tape pass:

    pad -> per-frame encode -> temporal average -> [F_v, F_t] ->
    fusion blocks -> per-attribute heads -> logits (batch, n_classes)

A single tracklet is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DataError
from .fusion import ClassificationHeads, FusionConfig, TokenProjector
from .kvfile import keyed, read_sections
from .layers import TransformerStack
from .params import ParameterSet, load_checkpoint, read_checkpoint_arrays, save_checkpoint
from .schema import AttributeSchema
from .tensor import (DimensionError, Tensor, concat, expand_leading, reshape,
                     slice_axis, tensor_mean)
from .text import TextConfig, TextEncoder, build_vocab, attribute_sentences, token_matrix
from .vision import VisionEncoder, VitConfig, pad_to_square

ENCODER_PREFIXES = ("vision.", "text.")


@dataclass(frozen=True)
class ModelConfig:
    vit: VitConfig = field(default_factory=VitConfig)
    text: TextConfig = field(default_factory=TextConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    use_fusion: bool = True

    def __post_init__(self):
        if not (self.vit.dim == self.text.dim == self.fusion.dim):
            raise DataError(
                f"token dims disagree: vision {self.vit.dim}, text {self.text.dim}, "
                f"fusion {self.fusion.dim}")


def paper_scale_config() -> ModelConfig:
    """The full-scale geometry (224px, 16px patches, 512-dim tokens).

    Depth is kept shallow: this configuration exists for shape smoke
    tests, not training.
    """
    return ModelConfig(
        vit=VitConfig(image_size=224, patch_size=16, dim=512, depth=1, heads=8),
        text=TextConfig(dim=512, blocks=1, heads=8, max_len=16),
        fusion=FusionConfig(dim=512, heads=8, blocks=1),
    )


class VideoAttributeModel:
    """Bundles parameters, tokenized prompts and the three sub-networks."""

    def __init__(self, config: ModelConfig, schema: AttributeSchema,
                 seed: int = 0, dtype=np.float32):
        self.config = config
        self.schema = schema
        self.dtype = dtype
        self.params = ParameterSet()
        self.vocab = build_vocab(attribute_sentences(schema), config.text.max_len)
        self.token_ids = token_matrix(schema, self.vocab)

        def rng(k):
            return np.random.default_rng([seed, k])

        self.vision = VisionEncoder(self.params, config.vit, rng(1), dtype)
        self.text = TextEncoder(self.params, config.text, self.vocab.size, rng(2), dtype)
        if config.use_fusion:
            cfg = config.fusion
            self.fusion = TransformerStack(self.params, "fusion", cfg.dim, cfg.heads,
                                           cfg.blocks, cfg.mlp_ratio, rng(3), dtype)
        else:
            self.fusion = TokenProjector(self.params, config.fusion.dim, rng(3), dtype)
        self.heads = ClassificationHeads(self.params, schema.n_classes,
                                         config.fusion.dim, rng(4), dtype)

    # -- geometry ---------------------------------------------------------

    @property
    def n_visual_tokens(self) -> int:
        return self.config.vit.n_tokens

    @property
    def n_classes(self) -> int:
        return self.schema.n_classes

    # -- forward paths ------------------------------------------------------

    def visual_features_batch(self, clips: np.ndarray) -> Tensor:
        """Raw clips (b, t, h, w, 3) -> time-averaged tokens (b, n_v, d)."""
        b, t = clips.shape[:2]
        s = self.config.vit.image_size
        frames = np.asarray(clips, dtype=self.dtype).reshape((b * t,) + clips.shape[2:])
        tokens = self.vision.encode(pad_to_square(frames, s))
        tokens = reshape(tokens, (b, t) + tokens.shape[1:])
        return tensor_mean(tokens, axis=1)

    def text_features(self) -> Tensor:
        """Text tokens (n_classes, d); depends only on schema and parameters."""
        return self.text.encode(self.token_ids)

    def fuse_classify(self, visual: Tensor, text: Tensor,
                      collect_attn: list | None = None) -> Tensor:
        """visual (b, n_v, d) + text (m, d) -> logits (b, m)."""
        if visual.ndim != 3:
            raise DimensionError(
                f"fuse_classify expects visual tokens (b, n_v, d), got {visual.shape}")
        b, n_v = visual.shape[:2]
        m = text.shape[0]
        tokens = self.fusion(concat([visual, expand_leading(text, b)], axis=1),
                             collect_attn)
        return self.heads(slice_axis(tokens, 1, n_v, n_v + m))

    def logits_batch(self, clips: np.ndarray) -> Tensor:
        """Clips (b, t, h, w, 3) -> logits (b, n_classes)."""
        return self.fuse_classify(self.visual_features_batch(clips), self.text_features())

    # -- parameter policy ---------------------------------------------------

    def set_freeze(self, freeze_encoders: bool) -> None:
        """Freeze (or unfreeze) both encoder parameter sets."""
        for prefix in ENCODER_PREFIXES:
            self.params.set_trainable_prefix(prefix, not freeze_encoders)

    def encoder_parameters(self):
        return [p for p in self.params if p.name.startswith(ENCODER_PREFIXES)]

    def zero_fusion_residuals(self) -> None:
        """Zero the fusion blocks' output projections (identity-map configuration)."""
        self.fusion.zero_residual_projections()

    def save(self, path) -> None:
        save_checkpoint(self.params, path)

    def load(self, path) -> None:
        load_checkpoint(self.params, path)


def checkpoint_uses_fusion(path) -> bool:
    """Detect the variant from parameter names stored in a checkpoint."""
    names = read_checkpoint_arrays(path).keys()
    return not any(n.startswith("nofusion.") for n in names)


# -- model config file ----------------------------------------------------


# [section] -> config class; every field is an int key.
_CONFIG_SECTIONS = {"vision": VitConfig, "text": TextConfig, "fusion": FusionConfig}


def load_model_config(path, use_fusion: bool = True) -> ModelConfig:
    """Read architecture settings from ``[vision]``/``[text]``/``[fusion]``
    sections of integer ``key = value`` entries (``vtfpar.kvfile``).

    Missing sections or keys take the config dataclasses' defaults; the
    text and fusion ``dim`` follow the vision ``dim`` when absent.
    Unknown sections and keys are rejected.
    """
    preamble, *sections = read_sections(path, "model config")
    if preamble.entries:
        raise DataError(f"{path}:{preamble.entries[0][0]}: 'key = value' before any [section]")
    given: dict[str, dict[str, int]] = {}
    for section in sections:
        name = " ".join(section.header)
        if name not in _CONFIG_SECTIONS:
            raise DataError(f"{path}:{section.lineno}: unknown section [{name}]")
        if name in given:
            raise DataError(f"{path}:{section.lineno}: duplicate section [{name}]")
        values = given[name] = {}
        for key, (lineno, value) in keyed(section, path).items():
            where = f"{path}:{lineno}"
            if key not in {f.name for f in fields(_CONFIG_SECTIONS[name])}:
                raise DataError(f"{where}: unknown key {key!r} in [{name}]")
            try:
                values[key] = int(value)
            except ValueError:
                raise DataError(f"{where}: bad value for {name}.{key}") from None
    vit = VitConfig(**given.get("vision", {}))
    text = TextConfig(**{"dim": vit.dim, **given.get("text", {})})
    fusion = FusionConfig(**{"dim": vit.dim, **given.get("fusion", {})})
    return ModelConfig(vit=vit, text=text, fusion=fusion, use_fusion=use_fusion)
