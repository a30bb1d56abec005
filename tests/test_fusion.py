"""Attention, fusion blocks, classification heads, end-to-end forward."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from vtfpar.errors import DataError, UsageError
from vtfpar.fusion import ClassificationHeads, FusionConfig
from vtfpar.layers import MultiHeadAttention, TransformerBlock
from vtfpar.metrics import decide
from vtfpar.model import ModelConfig, VideoAttributeModel
from vtfpar.params import ParameterSet
from vtfpar.schema import default_schema
from vtfpar.tensor import DimensionError, Tape, Tensor, backward, tensor_sum
from vtfpar.text import TextConfig
from vtfpar.vision import VitConfig


def _mha(dim=4, heads=1, seed=0):
    params = ParameterSet()
    attn = MultiHeadAttention(params, "attn", dim, heads, np.random.default_rng(seed), np.float64)
    return attn, params


class TestSelfAttention:
    def test_single_token_weight_is_one(self):
        attn, _ = _mha(dim=4, heads=2)
        collect = []
        attn(Tensor(np.random.default_rng(0).normal(size=(1, 1, 4))), collect)
        npt.assert_array_equal(collect[0], np.ones((1, 2, 1, 1)))

    def test_identical_keys_give_uniform_rows(self):
        attn, _ = _mha(dim=4, heads=1, seed=1)
        x = np.tile(np.random.default_rng(1).normal(size=(1, 1, 4)), (1, 2, 1))
        collect = []
        attn(Tensor(x), collect)
        npt.assert_allclose(collect[0], np.full((1, 1, 2, 2), 0.5), atol=1e-12)

    def test_matches_straight_line_scalar_oracle(self):
        # 3 tokens, 1 head, dim 2, random parameters; reimplemented with
        # plain python loops
        attn, params = _mha(dim=2, heads=1, seed=2)
        rng = np.random.default_rng(3)
        for p in params:
            p.set_value(rng.normal(size=p.data.shape))
        x = rng.normal(size=(3, 2))
        out = attn(Tensor(x[None])).data[0]

        gain, bias = params["attn.ln.gain"].data, params["attn.ln.bias"].data
        wq, bq = params["attn.q.weight"].data, params["attn.q.bias"].data
        wk, bk = params["attn.k.weight"].data, params["attn.k.bias"].data
        wv, bv = params["attn.v.weight"].data, params["attn.v.bias"].data
        wo, bo = params["attn.out.weight"].data, params["attn.out.bias"].data

        n, d = 3, 2
        xn = [[0.0] * d for _ in range(n)]
        for i in range(n):
            mu = sum(x[i]) / d
            var = sum((v - mu) ** 2 for v in x[i]) / d
            s = math.sqrt(var + 1e-5)
            for j in range(d):
                xn[i][j] = (x[i][j] - mu) / s * gain[j] + bias[j]

        def lin(row, w, b):
            return [sum(row[k] * w[k][j] for k in range(d)) + b[j] for j in range(d)]

        q = [lin(r, wq, bq) for r in xn]
        k = [lin(r, wk, bk) for r in xn]
        v = [lin(r, wv, bv) for r in xn]
        expected = []
        for i in range(n):
            scores = [sum(q[i][c] * k[j][c] for c in range(d)) / math.sqrt(d)
                      for j in range(n)]
            mx = max(scores)
            exps = [math.exp(s - mx) for s in scores]
            z = sum(exps)
            probs = [e / z for e in exps]
            ctx = [sum(probs[j] * v[j][c] for j in range(n)) for c in range(d)]
            expected.append(lin(ctx, wo, bo))
        npt.assert_allclose(out, expected, atol=1e-6)

    def test_rows_sum_to_one_all_heads(self):
        attn, _ = _mha(dim=8, heads=4, seed=4)
        rng = np.random.default_rng(5)
        collect = []
        attn(Tensor(rng.normal(size=(2, 6, 8)).astype(np.float32)), collect)
        sums = collect[0].sum(axis=-1)
        npt.assert_allclose(sums, 1.0, atol=1e-6)


class TestFusionBlock:
    def _block(self, dim=6, heads=2, seed=0, dtype=np.float64):
        params = ParameterSet()
        blk = TransformerBlock(params, "blk", dim, heads, 2,
                               np.random.default_rng(seed), dtype)
        return blk, params

    def test_zeroed_projections_give_exact_identity(self):
        blk, _ = self._block()
        blk.zero_residual_projections()
        x = np.random.default_rng(6).normal(size=(1, 5, 6))
        out = blk(Tensor(x)).data
        npt.assert_array_equal(out, x)

    def test_shape_preserved(self):
        blk, _ = self._block()
        for n in (1, 3, 9):
            x = Tensor(np.random.default_rng(n).normal(size=(2, n, 6)))
            assert blk(x).shape == (2, n, 6)

    def test_parameter_gradients_match_finite_differences(self):
        blk, params = self._block(dim=4, heads=2, seed=7)
        x = np.random.default_rng(8).normal(size=(1, 3, 4))
        with Tape():
            backward(tensor_sum(blk(Tensor(x))))
        for p in params:
            grad = p.tensor.grad
            original = p.data.copy()

            def f_at(values):
                p.set_value(values)
                out = tensor_sum(blk(Tensor(x))).item()
                return out

            flat = original.reshape(-1)
            rng = np.random.default_rng(9)
            picks = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            delta = 1e-5
            for i in picks:
                bump = np.zeros_like(flat)
                bump[i] = delta
                numeric = (f_at((flat + bump).reshape(original.shape))
                           - f_at((flat - bump).reshape(original.shape))) / (2 * delta)
                p.set_value(original)
                analytic = grad.reshape(-1)[i]
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
                assert rel < 1e-4, f"{p.name}[{i}] rel={rel}"


class TestClassify:
    def _heads(self, n_classes, dim, seed=0):
        return ClassificationHeads(ParameterSet(), n_classes, dim,
                                   np.random.default_rng(seed), np.float64)

    def test_default_class_count(self):
        heads = self._heads(43, 8)
        assert heads(Tensor(np.zeros((2, 43, 8)))).shape == (2, 43)

    def test_zero_tokens_give_biases(self):
        heads = self._heads(4, 8, seed=1)
        bias = np.arange(4, dtype=np.float64)
        heads.bias.set_value(bias)
        npt.assert_array_equal(heads(Tensor(np.zeros((1, 4, 8)))).data, bias[None])

    def test_permuting_tokens_and_heads_permutes_logits(self):
        rng = np.random.default_rng(2)
        heads = self._heads(5, 6, seed=3)
        tokens = rng.normal(size=(1, 5, 6))
        base = heads(Tensor(tokens)).data
        perm = rng.permutation(5)
        heads_p = self._heads(5, 6, seed=4)
        heads_p.weight.set_value(heads.weight.data[perm])
        heads_p.bias.set_value(heads.bias.data[perm])
        permuted = heads_p(Tensor(tokens[:, perm])).data
        npt.assert_allclose(permuted, base[:, perm], rtol=1e-12)

    def test_schema_model_mismatch_error(self):
        heads = self._heads(4, 8)
        with pytest.raises(DataError):
            heads(Tensor(np.zeros((1, 5, 8))))


def _desk_model(seed=0, use_fusion=True, fusion_blocks=2):
    config = ModelConfig(
        vit=VitConfig(image_size=16, patch_size=8, dim=16, depth=1, heads=2, mlp_ratio=2),
        text=TextConfig(dim=16, blocks=1, heads=2, max_len=16, mlp_ratio=2),
        fusion=FusionConfig(dim=16, heads=2, blocks=fusion_blocks, mlp_ratio=2),
        use_fusion=use_fusion,
    )
    return VideoAttributeModel(config, default_schema(), seed=seed)


class TestForward:
    def test_logits_finite_smoke(self):
        model = _desk_model()
        rng = np.random.default_rng(0)
        logits = model.logits_batch(rng.random((1, 3, 12, 9, 3)).astype(np.float32))
        assert logits.shape == (1, 43)
        assert np.isfinite(logits.data).all()

    def test_frame_permutation_changes_little(self):
        model = _desk_model()
        rng = np.random.default_rng(1)
        frames = rng.random((6, 12, 9, 3)).astype(np.float32)
        base = model.logits_batch(frames[None]).data
        for _ in range(5):
            shuffled = model.logits_batch(frames[rng.permutation(6)][None]).data
            assert np.abs(shuffled - base).max() < 1e-5

    def test_repeated_frame_equals_single_frame(self):
        model = _desk_model()
        rng = np.random.default_rng(2)
        frame = rng.random((1, 12, 9, 3)).astype(np.float32)
        one = model.logits_batch(frame[None]).data
        six = model.logits_batch(np.repeat(frame, 6, axis=0)[None]).data
        assert np.abs(six - one).max() < 1e-6

    def test_zero_blocks_ignores_video(self):
        model = _desk_model(fusion_blocks=0)
        rng = np.random.default_rng(3)
        a = model.logits_batch(rng.random((1, 2, 12, 9, 3)).astype(np.float32)).data
        b = model.logits_batch(rng.random((1, 2, 12, 9, 3)).astype(np.float32)).data
        npt.assert_array_equal(a, b)

    def test_forward_deterministic_bitwise(self):
        rng = np.random.default_rng(4)
        frames = rng.random((2, 12, 9, 3)).astype(np.float32)
        a = _desk_model(seed=7).logits_batch(frames[None]).data
        b = _desk_model(seed=7).logits_batch(frames[None]).data
        npt.assert_array_equal(a, b)

    def test_batched_matches_single(self):
        # each row of a batch equals the same clip run as a batch of one
        model = _desk_model()
        rng = np.random.default_rng(5)
        clips = rng.random((3, 2, 12, 9, 3)).astype(np.float32)
        batched = model.logits_batch(clips).data
        singles = np.concatenate([model.logits_batch(clips[i:i + 1]).data
                                  for i in range(len(clips))])
        npt.assert_allclose(batched, singles, atol=1e-5)

    def test_inputs_without_batch_axis_rejected(self):
        model = _desk_model()
        d = model.config.fusion.dim
        with pytest.raises(DimensionError):
            model.fusion.blocks[0].attn(Tensor(np.zeros((4, d), dtype=np.float32)))
        visual = Tensor(np.zeros((model.n_visual_tokens, d), dtype=np.float32))
        with pytest.raises(DimensionError):
            model.fuse_classify(visual, model.text_features())
        with pytest.raises(UsageError):
            decide(np.zeros(model.n_classes), model.schema)

    def test_no_fusion_variant_has_no_block_params(self):
        model = _desk_model(use_fusion=False)
        names = model.params.names()
        assert not any(n.startswith("fusion.block") for n in names)
        assert any(n.startswith("nofusion.") for n in names)
