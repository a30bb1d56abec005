"""Attribute text pipeline: split/expand, prompt templates, tokenizer,
and the small text encoder producing one token per attribute sentence.

The whole string pipeline is pure: the same raw attribute always yields
the same sentence and the same token ids, across runs and platforms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .layers import TransformerStack
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


@dataclass(frozen=True)
class PromptTemplate:
    """A sentence template with exactly one ``{}`` slot."""

    text: str

    def __post_init__(self):
        if self.text.count("{}") != 1:
            raise ValueError(
                f"template must contain exactly one {{}} placeholder: {self.text!r}")

    def apply(self, phrase: str) -> str:
        if not phrase:
            raise ContractError("prompt template: empty phrase")
        return self.text.replace("{}", phrase, 1)


def attribute_sentences(schema: AttributeSchema) -> list[str]:
    """One prompt sentence per attribute class, in schema order."""
    tpl = PromptTemplate(schema.template)
    return [tpl.apply(split_expand(raw)) for raw in schema.raw_strings]


PAD_ID = 0
UNK_ID = 1
START_ID = 2
END_ID = 3


@dataclass(frozen=True)
class TokenizerVocab:
    """Word-level vocabulary with reserved pad/unk/start/end ids.

    Built from the schema's own sentences; sorting the word list keeps
    ids dense and stable across runs for the same schema.
    """

    word_ids: dict[str, int]
    max_len: int

    def __post_init__(self):
        if self.max_len < 3:
            raise ContractError("tokenizer max_len must be >= 3")

    @property
    def size(self) -> int:
        return 4 + len(self.word_ids)


def build_vocab(sentences, max_len: int = 16) -> TokenizerVocab:
    words = sorted({w for s in sentences for w in s.split()})
    return TokenizerVocab({w: 4 + i for i, w in enumerate(words)}, max_len)


def tokenize(sentence: str, vocab: TokenizerVocab) -> np.ndarray:
    """[start, word ids..., end, pad...] of length ``max_len``.

    Truncation keeps the start and end markers; unknown words map to the
    unk id.
    """
    ids = [vocab.word_ids.get(w, UNK_ID) for w in sentence.split()]
    ids = [START_ID] + ids[: vocab.max_len - 2] + [END_ID]
    ids += [PAD_ID] * (vocab.max_len - len(ids))
    return np.array(ids, dtype=np.int64)


def token_matrix(schema: AttributeSchema, vocab: TokenizerVocab) -> np.ndarray:
    """Token ids for every attribute sentence, shape (n_classes, max_len)."""
    return np.stack([tokenize(s, vocab) for s in attribute_sentences(schema)])


@dataclass(frozen=True)
class TextConfig:
    dim: int = 96
    blocks: int = 2
    heads: int = 4
    max_len: int = 16
    mlp_ratio: int = 4

    def __post_init__(self):
        if self.dim % self.heads:
            raise ContractError("text dim must be divisible by heads")
        if self.blocks < 1 or self.max_len < 3 or self.mlp_ratio < 1:
            raise ContractError(f"bad text config {self}")


class TextEncoder:
    """Embedding lookup + positional vectors + transformer blocks.

    The representation of each sentence is the end-token row after the
    last block, mirroring the usual text-feature convention.
    """

    def __init__(self, params: ParameterSet, cfg: TextConfig, vocab_size: int,
                 rng: np.random.Generator, dtype=np.float32, prefix: str = "text"):
        self.cfg = cfg
        d = cfg.dim
        self.table = params.add(
            f"{prefix}.embed",
            0.02 * rng.standard_normal((vocab_size, d)).astype(dtype))
        self.pos = params.add(
            f"{prefix}.pos",
            0.02 * rng.standard_normal((cfg.max_len, d)).astype(dtype))
        self.blocks = TransformerStack(params, prefix, d, cfg.heads, cfg.blocks,
                                       cfg.mlp_ratio, rng, dtype)

    def encode(self, ids: np.ndarray) -> Tensor:
        """ids (M, L) -> text tokens (M, D)."""
        m, length = ids.shape
        if length != self.cfg.max_len:
            raise ContractError(
                f"token matrix length {length} != configured max_len {self.cfg.max_len}")
        x = self.blocks(add(take_rows(self.table.tensor, ids), self.pos.tensor))
        ends = np.argmax(ids == END_ID, axis=1)
        flat = reshape(x, (m * length, self.cfg.dim))
        return take_rows(flat, np.arange(m) * length + ends)
