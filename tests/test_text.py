"""String pipeline and text encoder contracts."""

import numpy as np
import numpy.testing as npt
import pytest

from vtfpar.params import ParameterSet
from vtfpar.schema import AttributeGroup, AttributeSchema, SchemaError, default_schema
from vtfpar.tensor import ContractError, Tensor, reshape, take_rows
from vtfpar.text import (END_ID, PAD_ID, START_ID, UNK_ID, TextConfig, TextEncoder, attribute_sentences,
                         build_vocab, split_expand, token_matrix, tokenize)
from tests.test_fusion import assert_trimmed_matches_full


class TestSplitExpand:
    def test_age_comparison(self):
        assert split_expand("Age ≤ 40") == "age less than 40"

    def test_already_natural(self):
        assert split_expand("hat") == "hat"

    def test_camel_and_underscore(self):
        assert split_expand("topLength_short") == "top length short"

    @pytest.mark.parametrize("raw,expected", [
        ("Age ≥ 60", "age greater than 60"),
        ("x<y", "x less than y"),
        ("x>y", "x greater than y"),
        ("size=big", "size is big"),
        ("  spaced   out  ", "spaced out"),
    ])
    def test_rule_table(self, raw, expected):
        assert split_expand(raw) == expected

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            split_expand("")
        with pytest.raises(ContractError):
            split_expand("   ")

    def test_idempotent_on_schema_raws(self):
        for raw in default_schema().raw_strings:
            once = split_expand(raw)
            assert split_expand(once) == once

    def test_idempotent_random_strings(self):
        rng = np.random.default_rng(0)
        alphabet = list("abcXYZ_≤<>= 019")
        for _ in range(200):
            raw = "".join(rng.choice(alphabet, size=12))
            if not raw.strip():
                continue
            once = split_expand(raw)
            assert split_expand(once) == once


def _one_class_schema(raw, **template):
    return AttributeSchema((AttributeGroup("g", "binary", ("c",), (raw,)),), **template)


class TestPromptTemplate:
    """The schema's template, filled by ``attribute_sentences``."""

    def test_paper_sentence_shape(self):
        assert (attribute_sentences(_one_class_schema("Age ≤ 40"))
                == ["the pedestrian has an attribute age less than 40"])

    def test_simple_application(self):
        assert (attribute_sentences(_one_class_schema("hat"))
                == ["the pedestrian has an attribute hat"])
        schema = _one_class_schema("handBag", template="a {} here")
        assert attribute_sentences(schema) == ["a hand bag here"]

    def test_bad_templates_fail_at_construction(self):
        for template in ("no placeholder", "two {} slots {}"):
            with pytest.raises(SchemaError, match="exactly one"):
                _one_class_schema("hat", template=template)


class TestTokenizer:
    def test_empty_sentence(self):
        vocab = build_vocab(["hello world"], max_len=5)
        npt.assert_array_equal(tokenize("", vocab),
                               [START_ID, END_ID, PAD_ID, PAD_ID, PAD_ID])

    def test_two_known_words(self):
        vocab = build_vocab(["alpha beta"], max_len=5)
        ids = tokenize("alpha beta", vocab)
        assert ids[0] == START_ID and ids[3] == END_ID and ids[4] == PAD_ID
        assert ids[1] != UNK_ID and ids[2] != UNK_ID

    def test_unknown_maps_to_unk(self):
        vocab = build_vocab(["alpha"], max_len=5)
        assert tokenize("zzz", vocab)[1] == UNK_ID

    def test_truncation_keeps_end(self):
        vocab = build_vocab(["a b c d e f"], max_len=4)
        ids = tokenize("a b c d e f", vocab)
        assert len(ids) == 4
        assert ids[0] == START_ID and ids[-1] == END_ID

    def test_ids_stable_given_schema(self):
        sentences = attribute_sentences(default_schema())
        v1, v2 = build_vocab(sentences, max_len=16), build_vocab(sentences, max_len=16)
        assert v1.word_ids == v2.word_ids

    def test_min_length_enforced(self):
        with pytest.raises(ContractError):
            build_vocab(["x"], max_len=2)


def _small_schema(order=("a", "b")):
    groups = {
        "a": AttributeGroup("ga", "binary", ("a",), ("alpha one",)),
        "b": AttributeGroup("gb", "binary", ("b",), ("beta two",)),
    }
    return AttributeSchema(tuple(groups[k] for k in order))


class TestTextEncoder:
    def _encoder(self, schema, seed=0, blocks=1, dtype=np.float32, max_len=8):
        cfg = TextConfig(dim=16, blocks=blocks, heads=2, max_len=max_len, mlp_ratio=2)
        vocab = build_vocab(attribute_sentences(schema), cfg.max_len)
        params = ParameterSet(dtype)
        enc = TextEncoder(params, cfg, vocab.size, np.random.default_rng(seed))
        return enc, vocab, params

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_end_rows_match_full_stack(self, blocks):
        # encode() runs the last block on the END rows only; the full stack
        # followed by the END gather gives the same features and gradients
        schema = default_schema()
        enc, vocab, _ = self._encoder(schema, blocks=blocks, dtype=np.float64, max_len=16)
        ids = token_matrix(schema, vocab)
        m, length = ids.shape
        ends = np.arange(m) * length + np.argmax(ids == END_ID, axis=1)
        assert len(set(ends % length)) > 1

        def end_rows(t):
            return take_rows(reshape(t, (m * length, 16)), ends[:, None])

        x = enc.table.data[ids] + enc.pos.data
        full = end_rows(enc.blocks(Tensor(x))).data[:, 0]
        npt.assert_allclose(enc.encode(ids).data, full, rtol=0, atol=1e-12)

        def build():
            fresh, _, params = self._encoder(schema, blocks=blocks, dtype=np.float64,
                                             max_len=16)
            return fresh.blocks, params

        assert_trimmed_matches_full(build, end_rows, x)

    def test_single_attribute_shape(self):
        schema = AttributeSchema(
            (AttributeGroup("g", "binary", ("only",), ("only thing",)),))
        enc, vocab, _ = self._encoder(schema)
        out = enc.encode(token_matrix(schema, vocab))
        assert out.shape == (1, 16)

    def test_identical_raws_identical_rows(self):
        schema = AttributeSchema((
            AttributeGroup("g1", "binary", ("x",), ("same raw",)),
            AttributeGroup("g2", "binary", ("y",), ("same raw",)),
        ))
        enc, vocab, _ = self._encoder(schema)
        out = enc.encode(token_matrix(schema, vocab)).data
        npt.assert_array_equal(out[0], out[1])

    def test_schema_permutation_permutes_rows(self):
        s_ab, s_ba = _small_schema(("a", "b")), _small_schema(("b", "a"))
        sentences = attribute_sentences(s_ab)
        assert sorted(sentences) == sorted(attribute_sentences(s_ba))
        # same vocab (built from the same sentence set), same encoder weights
        enc, vocab, _ = self._encoder(s_ab)
        out_ab = enc.encode(token_matrix(s_ab, vocab)).data
        out_ba = enc.encode(token_matrix(s_ba, vocab)).data
        npt.assert_array_equal(out_ab, out_ba[::-1])

    def test_deterministic_across_calls(self):
        schema = default_schema()
        enc, vocab, _ = self._encoder(schema)
        ids = token_matrix(schema, vocab)
        npt.assert_array_equal(enc.encode(ids).data, enc.encode(ids).data)


def test_sentences_pipeline_deterministic():
    a = attribute_sentences(default_schema())
    b = attribute_sentences(default_schema())
    assert a == b
    assert len(a) == 43
    assert "the pedestrian has an attribute age less than 40" in a
