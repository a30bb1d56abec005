"""End-to-end model: frozen-capable dual encoders, fusion stack, heads.

The forward pipeline takes a batch of clips (batch, t, h, w, 3) in one
tape pass:

    per-frame encode (cast, pad) -> temporal average -> [F_v, F_t] ->
    fusion blocks -> per-attribute heads -> logits (batch, n_classes)

With zero fusion blocks (the no-fusion ablation) head m reads text
token m plus the mean visual token.

A single tracklet is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DataError, UsageError
from .fusion import ClassificationHeads, FusionConfig
from .kvfile import keyed, read_sections
from .layers import TransformerStack
from .params import ParameterSet
from .schema import AttributeSchema
from .tensor import (DEFAULT_DTYPE, Tensor, add, concat, expand_leading, reshape,
                     slice_axis, tensor_mean, transpose)
from .text import TextConfig, TextEncoder, attribute_sentences
from .vision import VisionEncoder, VitConfig

ENCODER_PREFIXES = ("vision.", "text.")


@dataclass(frozen=True)
class ModelConfig:
    vit: VitConfig = field(default_factory=VitConfig)
    text: TextConfig = field(default_factory=TextConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)

    def __post_init__(self):
        if not (self.vit.dim == self.text.dim == self.fusion.dim):
            raise UsageError(
                f"token dims disagree: vision {self.vit.dim}, text {self.text.dim}, "
                f"fusion {self.fusion.dim}")


class VideoAttributeModel:
    """Bundles parameters and the three sub-networks; ``text`` holds the tokenized prompts.

    ``dtype`` is the parameter dtype, held by ``params``; gradient
    verification builds a float64 model.
    """

    def __init__(self, config: ModelConfig, schema: AttributeSchema,
                 seed: int = 0, dtype=DEFAULT_DTYPE):
        self.config = config
        self.schema = schema
        self.params = ParameterSet(dtype)

        def rng(k):
            return np.random.default_rng([seed, k])

        self.vision = VisionEncoder(self.params, config.vit, rng(1))
        self.text = TextEncoder(self.params, config.text, attribute_sentences(schema), rng(2))
        cfg = config.fusion
        self.fusion = TransformerStack(self.params, "fusion", cfg.dim, cfg.heads,
                                       cfg.blocks, cfg.mlp_ratio, rng(3))
        self.heads = ClassificationHeads(self.params, schema.n_classes, cfg.dim, rng(4))

    # -- geometry ---------------------------------------------------------

    @property
    def n_classes(self) -> int:
        return self.schema.n_classes

    # -- forward paths ------------------------------------------------------

    def visual_features_batch(self, clips: np.ndarray) -> Tensor:
        """Raw clips (b, t, h, w, 3) -> time-averaged tokens (b, n_v, d)."""
        b, t = clips.shape[:2]
        tokens = self.vision.encode(clips.reshape((b * t,) + clips.shape[2:]))
        tokens = reshape(tokens, (b, t) + tokens.shape[1:])
        return tensor_mean(tokens, axis=1)

    def fuse_classify(self, visual: Tensor, text: Tensor,
                      collect_attn: list | None = None) -> Tensor:
        """visual (b, n_v, d) + text (m, d) -> logits (b, m)."""
        if visual.ndim != 3:
            raise UsageError(
                f"fuse_classify expects visual tokens (b, n_v, d), got {visual.shape}")
        b, n_v = visual.shape[:2]
        m = text.shape[0]
        if self.fusion.blocks:
            tokens = self.fusion(concat([visual, expand_leading(text, b)], axis=1),
                                 collect_attn, rows=lambda t: slice_axis(t, 1, n_v, n_v + m))
        else:  # no fusion: head m reads text token m + the mean visual token
            tokens = add(transpose(expand_leading(tensor_mean(visual, 1), m), (1, 0, 2)), text)
        return self.heads(tokens)

    def logits_batch(self, clips: np.ndarray) -> Tensor:
        """Clips (b, t, h, w, 3) -> logits (b, n_classes)."""
        return self.fuse_classify(self.visual_features_batch(clips), self.text.encode())

    # -- parameter policy ---------------------------------------------------

    def set_freeze(self, freeze_encoders: bool) -> None:
        """Freeze (or unfreeze) both encoder parameter sets."""
        for p in self.encoder_parameters():
            p.requires_grad = not freeze_encoders

    def encoder_parameters(self):
        return [p for p in self.params if p.name.startswith(ENCODER_PREFIXES)]


# -- model config file ----------------------------------------------------


# [section] -> config class; every field is an int key.
_CONFIG_SECTIONS = {"vision": VitConfig, "text": TextConfig, "fusion": FusionConfig}


def load_model_config(path) -> ModelConfig:
    """Read architecture settings from ``[vision]``/``[text]``/``[fusion]``
    sections of integer ``key = value`` entries (``vtfpar.kvfile``).

    Missing sections or keys take the config dataclasses' defaults. The
    token width is declared once, as ``[vision] dim``; text and fusion take
    it. Unknown sections and keys are rejected.
    """
    preamble, *sections = read_sections(path, "model config")
    if preamble.entries:
        raise DataError(f"{path}:{preamble.entries[0][0]}: 'key = value' before any [section]")
    given: dict[str, dict[str, int]] = {}
    for section in sections:
        name = " ".join(section.header)
        if name not in _CONFIG_SECTIONS:
            raise DataError(f"{path}:{section.lineno}: unknown section [{name}]")
        values = given[name] = {}
        for key, (lineno, value) in keyed(section, path).items():
            where = f"{path}:{lineno}"
            if key not in {f.name for f in fields(_CONFIG_SECTIONS[name])}:
                raise DataError(f"{where}: unknown key {key!r} in [{name}]")
            if key == "dim" and name != "vision":
                raise UsageError(f"{where}: the token width is set by [vision] dim")
            try:
                values[key] = int(value)
            except ValueError:
                raise UsageError(f"{where}: bad value for {name}.{key}") from None
    vit = VitConfig(**given.get("vision", {}))
    text = TextConfig(dim=vit.dim, **given.get("text", {}))
    fusion = FusionConfig(dim=vit.dim, **given.get("fusion", {}))
    return ModelConfig(vit=vit, text=text, fusion=fusion)
