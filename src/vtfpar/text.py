"""Attribute text pipeline: split/expand, prompt sentences, and the small
text encoder that tokenizes them and produces one token per sentence.

The whole string pipeline is pure: the same raw attribute always yields
the same sentence and the same token ids, across runs and platforms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .layers import TransformerStack, check_stack_geometry
from .params import ParameterSet
from .schema import AttributeSchema
from .tensor import ContractError, Tensor, add, reshape, take_rows

# Symbol rules are applied in order, before case handling.
_SYMBOL_RULES = (
    ("≤", " less than "),
    ("≥", " greater than "),
    ("<", " less than "),
    (">", " greater than "),
    ("=", " is "),
)
_CAMEL_RE = re.compile(r"([a-z0-9])([A-Z])")
_WS_RE = re.compile(r"\s+")


def split_expand(raw: str) -> str:
    """Normalize a raw attribute string into a lowercase natural phrase.

    Comparison symbols become words, underscores and camelCase
    boundaries become spaces, whitespace is collapsed. Idempotent.
    """
    if not raw or not raw.strip():
        raise ContractError("split_expand: empty attribute string")
    s = raw
    for sym, rep in _SYMBOL_RULES:
        s = s.replace(sym, rep)
    s = s.replace("_", " ")
    s = _CAMEL_RE.sub(r"\1 \2", s)
    s = s.lower()
    return _WS_RE.sub(" ", s).strip()


def attribute_sentences(schema: AttributeSchema) -> list[str]:
    """One prompt sentence per attribute class, in schema order: the
    schema's template (one ``{}``, checked by ``AttributeSchema``) filled
    with the split/expanded phrase."""
    return [schema.template.replace("{}", split_expand(raw), 1)
            for raw in schema.raw_strings]


PAD_ID = 0
UNK_ID = 1  # reserved, never produced: it keeps the embedding table's shape
START_ID = 2
END_ID = 3


@dataclass(frozen=True)
class TextConfig:
    dim: int = 96
    blocks: int = 2
    heads: int = 4
    max_len: int = 16
    mlp_ratio: int = 4

    def __post_init__(self):
        check_stack_geometry("text", self.dim, self.heads, self.blocks, self.mlp_ratio)
        if self.blocks < 1 or self.max_len < 3:
            raise ContractError(f"bad text config {self}")


class TextEncoder:
    """Tokenizer + embedding lookup + positional vectors + transformer blocks
    over a fixed list of sentences.

    The vocabulary is the sorted word set of ``sentences``, with word ids
    from 4 up after the reserved pad/unk/start/end ids, so ids are dense and
    stable for the same sentence set in any order. Each sentence becomes
    ``token_ids`` row ``[start, word ids..., end, pad...]`` of length
    ``max_len``; truncation keeps the start and end markers.

    The representation of each sentence is the end-token row after the
    last block, mirroring the usual text-feature convention. The last
    block computes only those rows (``TransformerStack``'s ``rows``).
    """

    def __init__(self, params: ParameterSet, cfg: TextConfig, sentences: list[str],
                 rng: np.random.Generator):
        self.cfg = cfg
        d, length = cfg.dim, cfg.max_len
        words = sorted({w for s in sentences for w in s.split()})
        word_ids = {w: 4 + i for i, w in enumerate(words)}
        self.table = params.normal("text.embed", (4 + len(words), d), 0.02, rng)
        self.pos = params.normal("text.pos", (length, d), 0.02, rng)
        self.blocks = TransformerStack(params, "text", d, cfg.heads, cfg.blocks,
                                       cfg.mlp_ratio, rng)
        # built after text.pos, whose draw bounds max_len
        rows = [[START_ID, *[word_ids[w] for w in s.split()][:length - 2], END_ID]
                for s in sentences]
        self.token_ids = np.array([r + [PAD_ID] * (length - len(r)) for r in rows],
                                  dtype=np.int64)
        self._ends = (np.arange(len(rows)) * length + [len(r) - 1 for r in rows])[:, None]

    def encode(self) -> Tensor:
        """Text tokens (m, d), one per sentence."""
        m, length = self.token_ids.shape
        d = self.cfg.dim

        def end_rows(t: Tensor) -> Tensor:  # (m, L, d) -> (m, 1, d)
            return take_rows(reshape(t, (m * length, d)), self._ends)

        x = self.blocks(add(take_rows(self.table, self.token_ids), self.pos),
                        rows=end_rows)
        return reshape(x, (m, d))
