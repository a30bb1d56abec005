"""Attribute text pipeline: split/expand, prompt sentences, and the small
text encoder that tokenizes them and produces one token per sentence.

The whole string pipeline is pure: the same raw attribute always yields
the same sentence and the same token ids, across runs and platforms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .layers import TransformerStack, check_stack_geometry
from .params import ParameterSet
from .schema import AttributeSchema
from .tensor import Tensor, add, reshape, take_rows

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
        raise UsageError("split_expand: empty attribute string")
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


# pad and unk are reserved, never produced: they keep the embedding table's shape
PAD_ID = 0
UNK_ID = 1
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
            raise UsageError(f"bad text config {self}")


class TextEncoder:
    """Tokenizer + embedding lookup + positional vectors + causal
    transformer blocks over a fixed list of sentences.

    The vocabulary is the sorted word set of ``sentences``, with word ids
    from 4 up after the reserved pad/unk/start/end ids, so ids are dense and
    stable for the same sentence set in any order. Each sentence becomes
    the token sequence ``[start, word ids..., end]`` of at most ``max_len``
    tokens; truncation keeps the start and end markers. The pad id is
    never produced; like the unknown-word id it only keeps the embedding
    table's shape.

    Attention is causal, as in CLIP's text transformer, and the
    representation of each sentence is its end token's row after the last
    block. Under a causal mask a token's activations depend only on its
    own prefix, so the sentences are encoded together as one prefix tree:
    one node per distinct prefix, in order of first appearance (sentence
    order, then token order), each with its token id (``node_ids``), its
    position, which is its depth (``node_pos``), and a row of the additive
    (n, n) ``mask`` that is 0 on its ancestors and itself and -inf
    elsewhere. ``encode()`` runs the stack once over the (1, n, d) node
    sequence, which computes exactly what encoding each sentence alone
    with an (L, L) causal mask computes; the last block computes only the
    ``end_nodes`` rows (``TransformerStack``'s ``rows``). Equal sentences
    share their end node.
    """

    def __init__(self, params: ParameterSet, cfg: TextConfig, sentences: list[str],
                 rng: np.random.Generator):
        d, length = cfg.dim, cfg.max_len
        words = sorted({w for s in sentences for w in s.split()})
        word_ids = {w: 4 + i for i, w in enumerate(words)}
        self.table = params.normal("text.embed", (4 + len(words), d), 0.02, rng)
        self.pos = params.normal("text.pos", (length, d), 0.02, rng)
        self.blocks = TransformerStack(params, "text", d, cfg.heads, cfg.blocks,
                                       cfg.mlp_ratio, rng)
        nodes: dict[tuple[int, ...], int] = {}  # prefix -> node index
        ends = []
        for s in sentences:
            tokens = (START_ID, *[word_ids[w] for w in s.split()][:length - 2], END_ID)
            for k in range(1, len(tokens) + 1):
                nodes.setdefault(tokens[:k], len(nodes))
            ends.append(nodes[tokens])
        mask = np.full((len(nodes), len(nodes)), -np.inf)
        for prefix, i in nodes.items():
            mask[i, [nodes[prefix[:k]] for k in range(1, len(prefix) + 1)]] = 0.0
        self.node_ids = np.array([p[-1] for p in nodes], dtype=np.int64)
        self.node_pos = np.array([len(p) - 1 for p in nodes], dtype=np.int64)
        self.end_nodes = np.array(ends, dtype=np.int64)
        self.mask = Tensor(mask, dtype=params.dtype)

    def encode(self) -> Tensor:
        """Text tokens (m, d), one per sentence."""
        ends = self.end_nodes[None]

        def end_rows(t: Tensor) -> Tensor:  # (1, n, k) -> (1, m, k)
            return take_rows(reshape(t, t.shape[1:]), ends)

        x = add(take_rows(self.table, self.node_ids[None]),
                take_rows(self.pos, self.node_pos[None]))
        x = self.blocks(x, rows=end_rows, mask=self.mask)
        return reshape(x, x.shape[1:])
