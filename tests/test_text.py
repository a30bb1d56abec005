"""String pipeline and text encoder contracts."""

import numpy as np
import numpy.testing as npt
import pytest

import vtfpar.gradcheck as gradcheck_mod
from vtfpar.params import ParameterSet
from vtfpar.schema import AttributeGroup, AttributeSchema, SchemaError, default_schema
from vtfpar.tensor import ContractError, Tensor, reshape, take_rows
from vtfpar.text import (END_ID, PAD_ID, START_ID, TextConfig, TextEncoder, attribute_sentences,
                         split_expand)
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


def _text_encoder(sentences, seed=0, blocks=1, dtype=np.float32, max_len=8):
    cfg = TextConfig(dim=16, blocks=blocks, heads=2, max_len=max_len, mlp_ratio=2)
    params = ParameterSet(dtype)
    return TextEncoder(params, cfg, sentences, np.random.default_rng(seed)), params


class TestTokenizer:
    """``TextEncoder.token_ids``: one row per sentence, built from the
    sentences' own sorted word set."""

    def test_start_words_end_pad_layout(self):
        enc, _ = _text_encoder(["beta alpha", ""], max_len=5)
        npt.assert_array_equal(enc.token_ids,
                               [[START_ID, 5, 4, END_ID, PAD_ID],
                                [START_ID, END_ID, PAD_ID, PAD_ID, PAD_ID]])
        assert enc.table.shape == (4 + 2, 16)

    def test_truncation_keeps_end(self):
        enc, _ = _text_encoder(["a b c d e f"], max_len=4)
        npt.assert_array_equal(enc.token_ids, [[START_ID, 4, 5, END_ID]])

    def test_gradcheck_model_truncates_and_keeps_end(self):
        text = gradcheck_mod._tiny_model().text
        lengths = [len(s.split()) + 2 for s in attribute_sentences(gradcheck_mod._tiny_schema())]
        assert max(lengths) > text.cfg.max_len == text.token_ids.shape[1]
        npt.assert_array_equal((text.token_ids == END_ID).sum(axis=1), 1)
        npt.assert_array_equal(np.argmax(text.token_ids == END_ID, axis=1),
                               np.minimum(lengths, text.cfg.max_len) - 1)

    def test_ids_stable_given_schema_in_any_order(self):
        sentences = attribute_sentences(default_schema())
        a, _ = _text_encoder(sentences, max_len=16)
        b, _ = _text_encoder(sentences[::-1], max_len=16)
        assert a.token_ids.shape == (43, 16)
        npt.assert_array_equal(a.token_ids, b.token_ids[::-1])

    def test_min_length_enforced(self):
        with pytest.raises(ContractError):
            TextConfig(max_len=2)


def _small_schema(order=("a", "b")):
    groups = {
        "a": AttributeGroup("ga", "binary", ("a",), ("alpha one",)),
        "b": AttributeGroup("gb", "binary", ("b",), ("beta two",)),
    }
    return AttributeSchema(tuple(groups[k] for k in order))


class TestTextEncoder:
    def _encoder(self, schema, **kwargs):
        return _text_encoder(attribute_sentences(schema), **kwargs)

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_end_rows_match_full_stack(self, blocks):
        # encode() runs the last block on the END rows only; the full stack
        # followed by the END gather gives the same features and gradients
        schema = default_schema()
        enc, _ = self._encoder(schema, blocks=blocks, dtype=np.float64, max_len=16)
        ids = enc.token_ids
        m, length = ids.shape
        ends = np.arange(m) * length + np.argmax(ids == END_ID, axis=1)
        assert len(set(ends % length)) > 1

        def end_rows(t):
            return take_rows(reshape(t, (m * length, 16)), ends[:, None])

        x = enc.table.data[ids] + enc.pos.data
        full = end_rows(enc.blocks(Tensor(x))).data[:, 0]
        npt.assert_allclose(enc.encode().data, full, rtol=0, atol=1e-12)

        def build():
            fresh, params = self._encoder(schema, blocks=blocks, dtype=np.float64,
                                          max_len=16)
            return fresh.blocks, params

        assert_trimmed_matches_full(build, end_rows, x)

    def test_single_attribute_shape(self):
        schema = AttributeSchema(
            (AttributeGroup("g", "binary", ("only",), ("only thing",)),))
        enc, _ = self._encoder(schema)
        assert enc.encode().shape == (1, 16)

    def test_identical_raws_identical_rows(self):
        schema = AttributeSchema((
            AttributeGroup("g1", "binary", ("x",), ("same raw",)),
            AttributeGroup("g2", "binary", ("y",), ("same raw",)),
        ))
        enc, _ = self._encoder(schema)
        out = enc.encode().data
        npt.assert_array_equal(out[0], out[1])

    def test_schema_permutation_permutes_rows(self):
        s_ab, s_ba = _small_schema(("a", "b")), _small_schema(("b", "a"))
        assert sorted(attribute_sentences(s_ab)) == sorted(attribute_sentences(s_ba))
        # same word set, same seed: same vocabulary and same encoder weights
        enc_ab, params_ab = self._encoder(s_ab)
        enc_ba, params_ba = self._encoder(s_ba)
        for name in params_ab.names():
            npt.assert_array_equal(params_ab[name].data, params_ba[name].data)
        npt.assert_array_equal(enc_ab.token_ids, enc_ba.token_ids[::-1])
        npt.assert_array_equal(enc_ab.encode().data, enc_ba.encode().data[::-1])

    def test_deterministic_across_calls(self):
        enc, _ = self._encoder(default_schema())
        npt.assert_array_equal(enc.encode().data, enc.encode().data)


def test_sentences_pipeline_deterministic():
    a = attribute_sentences(default_schema())
    b = attribute_sentences(default_schema())
    assert a == b
    assert len(a) == 43
    assert "the pedestrian has an attribute age less than 40" in a
