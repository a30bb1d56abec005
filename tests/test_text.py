"""String pipeline and text encoder contracts."""

import numpy as np
import numpy.testing as npt
import pytest

import vtfpar.gradcheck as gradcheck_mod
from vtfpar.errors import DataError, UsageError
from vtfpar.params import ParameterSet
from vtfpar.schema import AttributeGroup, AttributeSchema, default_schema
from vtfpar.tensor import (Tape, Tensor, add, backward, concat, mul, reshape, slice_axis,
                           take_rows, tensor_sum)
from vtfpar.text import (END_ID, PAD_ID, START_ID, TextConfig, TextEncoder, attribute_sentences,
                         split_expand)
from tests.blas import assert_equal_on_skylakex


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
        with pytest.raises(UsageError, match="split_expand: empty attribute string"):
            split_expand("")
        with pytest.raises(UsageError, match="split_expand: empty attribute string"):
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
            with pytest.raises(DataError, match="exactly one"):
                _one_class_schema("hat", template=template)


def _text_encoder(sentences, seed=0, blocks=1, dtype=np.float32, max_len=8):
    cfg = TextConfig(dim=16, blocks=blocks, heads=2, max_len=max_len, mlp_ratio=2)
    params = ParameterSet(dtype)
    return TextEncoder(params, cfg, sentences, np.random.default_rng(seed)), params


def _paths(enc):
    """Each sentence's token ids, read off its end node's mask row: the
    tree order puts every ancestor before its descendants."""
    return [tuple(enc.node_ids[enc.mask.data[e] == 0]) for e in enc.end_nodes]


class TestTokenizer:
    """``TextEncoder``'s prefix tree: one node per distinct token prefix of
    the sentences, built from their own sorted word set."""

    def test_prefix_tree_nodes_and_mask(self):
        enc, _ = _text_encoder(["beta alpha", "", "beta"], max_len=5)
        npt.assert_array_equal(enc.node_ids, [START_ID, 5, 4, END_ID, END_ID, END_ID])
        npt.assert_array_equal(enc.node_pos, [0, 1, 2, 3, 1, 2])
        npt.assert_array_equal(enc.end_nodes, [3, 4, 5])
        ancestors = [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3], [0, 4], [0, 1, 5]]
        expected = np.full((6, 6), -np.inf, dtype=np.float32)
        for i, row in enumerate(ancestors):
            expected[i, row] = 0.0
        npt.assert_array_equal(enc.mask.data, expected)
        assert enc.mask.dtype == np.float32 and not enc.mask.requires_grad
        assert enc.table.shape == (4 + 2, 16)

    def test_truncation_keeps_end(self):
        enc, _ = _text_encoder(["a b c d e f"], max_len=4)
        assert _paths(enc) == [(START_ID, 4, 5, END_ID)]

    def test_gradcheck_model_truncates_and_keeps_end(self):
        model = gradcheck_mod._tiny_model()
        text, max_len = model.text, model.config.text.max_len
        lengths = [len(s.split()) + 2 for s in attribute_sentences(gradcheck_mod._tiny_schema())]
        assert max(lengths) > max_len > text.node_pos.max()
        paths = _paths(text)
        assert [len(p) for p in paths] == np.minimum(lengths, max_len).tolist()
        assert all(p[0] == START_ID and p[-1] == END_ID and END_ID not in p[1:-1]
                   for p in paths)

    def test_ids_stable_given_schema_in_any_order(self):
        sentences = attribute_sentences(default_schema())
        a, _ = _text_encoder(sentences, max_len=16)
        b, _ = _text_encoder(sentences[::-1], max_len=16)
        assert len(a.node_ids) == len(b.node_ids) == 111
        assert _paths(a) == _paths(b)[::-1]
        assert PAD_ID not in a.node_ids

    def test_min_length_enforced(self):
        with pytest.raises(UsageError, match=r"bad text config TextConfig\(.*max_len=2"):
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

    @staticmethod
    def _alone(enc, sentences):
        """The reference: each sentence encoded alone over its own tokens
        [start, words..., end] with an (n, n) causal mask, through the
        whole stack, and its last row read; (m, d)."""
        words = sorted({w for s in sentences for w in s.split()})
        length, dim = enc.pos.shape
        rows = []
        for s in sentences:
            ids = [START_ID, *[4 + words.index(w) for w in s.split()][:length - 2], END_ID]
            n = len(ids)
            x = add(take_rows(enc.table, np.array([ids])),
                    take_rows(enc.pos, np.arange(n)[None]))
            causal = Tensor(np.triu(np.full((n, n), -np.inf), 1))
            rows.append(reshape(slice_axis(enc.blocks(x, mask=causal), 1, n - 1, n),
                                (1, dim)))
        return concat(rows, axis=0)

    @pytest.mark.parametrize("schema, blocks, max_len, nodes, ends", [
        (default_schema(), 1, 16, 111, 43),
        (default_schema(), 2, 16, 111, 43),
        # the phrase first: prompts share START and leading phrase words only
        (AttributeSchema(default_schema().groups, template="{} is seen"), 2, 16, 192, 43),
        # three prompts truncate to one sentence, two to another: 3 END nodes
        (gradcheck_mod._tiny_schema(), 2, 8, 12, 3),
    ], ids=["default-1block", "default-2blocks", "template-first", "equal-truncated"])
    def test_end_rows_match_each_sentence_encoded_alone(self, schema, blocks, max_len,
                                                        nodes, ends):
        # one causal pass over the prefix tree, last block on the END nodes
        # only, against each sentence through its own causal stack: features
        # and every parameter gradient of sum(features * g). PAD enters
        # neither, so the features cannot depend on it.
        sentences = attribute_sentences(schema)
        g = np.random.default_rng(1).normal(size=(len(sentences), 16))
        results = []
        for encode in (lambda enc: enc.encode(),
                       lambda enc: self._alone(enc, sentences)):
            enc, params = _text_encoder(sentences, blocks=blocks, dtype=np.float64,
                                        max_len=max_len)
            assert (len(enc.node_ids), len(set(enc.end_nodes))) == (nodes, ends)
            with Tape():
                out = encode(enc)
                backward(tensor_sum(mul(out, Tensor(g))))
            results.append((out.data, {p.name: p.grad for p in params}))
        (tree, tree_grads), (alone, alone_grads) = results
        npt.assert_allclose(tree, alone, rtol=0, atol=1e-12)
        assert tree_grads.keys() == alone_grads.keys()
        for name, grad in alone_grads.items():
            assert grad is not None, name
            npt.assert_allclose(tree_grads[name], grad, rtol=0, atol=1e-12, err_msg=name)

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
        assert _paths(enc_ab) == _paths(enc_ba)[::-1]
        # on Haswell the rows differed by at most 1.8e-7
        assert_equal_on_skylakex(enc_ab.encode().data, enc_ba.encode().data[::-1], atol=1e-5)

    def test_deterministic_across_calls(self):
        enc, _ = self._encoder(default_schema())
        npt.assert_array_equal(enc.encode().data, enc.encode().data)


def test_sentences_pipeline_deterministic():
    a = attribute_sentences(default_schema())
    b = attribute_sentences(default_schema())
    assert a == b
    assert len(a) == 43
    assert "the pedestrian has an attribute age less than 40" in a
