"""Attention, fusion blocks, classification heads, end-to-end forward."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from vtfpar.errors import UsageError
from vtfpar.fusion import ClassificationHeads, FusionConfig
from vtfpar.layers import MultiHeadAttention, TransformerStack
from vtfpar.metrics import decide
from vtfpar.model import ModelConfig, VideoAttributeModel
from vtfpar.params import ParameterSet
from vtfpar.schema import default_schema
from vtfpar.tensor import (FD_STEP, Tape, Tensor, backward, layer_norm, linear, matmul, mul,
                           reshape, scale, slice_axis, softmax, tensor_sum, transpose)
from vtfpar.text import TextConfig
from vtfpar.vision import VitConfig


def _mha(dim=4, heads=1, seed=0):
    params = ParameterSet(np.float64)
    attn = MultiHeadAttention(params, "attn", dim, heads, np.random.default_rng(seed))
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
        wk = params["attn.k.weight"].data  # K has no bias
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
        k = [lin(r, wk, [0.0] * d) for r in xn]
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


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("trim", [False, True])
    def test_bitwise_equal_to_two_transpose_form(self, dtype, trim):
        # reference: K split into heads, then transposed a second time
        params = ParameterSet(dtype)
        attn = MultiHeadAttention(params, "attn", 8, 2, np.random.default_rng(6))
        rows = (lambda t: slice_axis(t, 1, 1, 4)) if trim else None
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(2, 5, 8)).astype(dtype)
        w = Tensor(rng.normal(size=(2, 3 if trim else 5, 8)).astype(dtype))

        def lin(z, name, bias=True):
            b = params[f"attn.{name}.bias"] if bias else Tensor(np.zeros(8, dtype))
            return linear(z, params[f"attn.{name}.weight"], b)

        def split_heads(z):
            return transpose(reshape(z, (2, z.shape[1], 2, 4)), (0, 2, 1, 3))

        def reference(x):
            xn = layer_norm(x, params["attn.ln.gain"], params["attn.ln.bias"])
            xq = xn if rows is None else rows(xn)
            q = split_heads(lin(xq, "q"))
            k = split_heads(lin(xn, "k", bias=False))
            v = split_heads(lin(xn, "v"))
            scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(4))
            ctx = transpose(matmul(softmax(scores), v), (0, 2, 1, 3))
            return lin(reshape(ctx, (2, xq.shape[1], 8)), "out")

        results = []
        for forward in (lambda x: attn(x, rows=rows), reference):
            for p in params:
                p.grad = None
            x = Tensor(x0, requires_grad=True)
            with Tape():
                out = forward(x)
                backward(tensor_sum(mul(out, w)))
            results.append([out.data, x.grad] + [p.grad for p in params])
        assert results[0][0].dtype == dtype
        for got, want in zip(*results):
            npt.assert_array_equal(got, want)

    @pytest.mark.parametrize("trim", [False, True])
    def test_a_key_bias_would_be_inert(self, trim):
        # a constant vector added to every key row shifts each score row by
        # a constant, which softmax cancels; the same vector on the queries
        # shifts each row by a different amount per key, so it is not inert
        attn, _ = _mha(dim=8, heads=2, seed=8)
        rows = (lambda t: slice_axis(t, 1, 1, 4)) if trim else None
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=(2, 5, 8))
        w = Tensor(rng.normal(size=(2, 3 if trim else 5, 8)))
        shift = Tensor(rng.normal(size=8))

        def run():
            x = Tensor(x0, requires_grad=True)
            with Tape():
                out = attn(x, rows=rows)
                backward(tensor_sum(mul(out, w)))
            return out.data, x.grad

        def moved(got, ref):
            return max(np.abs(g - r).max() / np.abs(r).max() for g, r in zip(got, ref))

        base = run()  # output and input gradient
        attn.k.b = shift
        assert moved(run(), base) <= 1e-12
        attn.q.b = Tensor(attn.q.b.data + shift.data)
        assert moved(run(), base) > 1e-3


class TestFusionBlock:
    # a one-block stack: one attention and one MLP arm with their residuals
    def _block(self, dim=6, heads=2, seed=0):
        return _stack(1, dim=dim, heads=heads, seed=seed)

    def test_zeroed_projections_give_exact_identity(self):
        blk, params = self._block()
        for p in params:
            if p.name.startswith(("fusion.block0.attn.out.", "fusion.block0.mlp.fc2.")):
                p.set_value(np.zeros_like(p.data))
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
            grad = p.grad
            original = p.data.copy()

            def f_at(values):
                p.set_value(values)
                out = tensor_sum(blk(Tensor(x))).item()
                return out

            flat = original.reshape(-1)
            rng = np.random.default_rng(9)
            picks = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            delta = FD_STEP
            for i in picks:
                bump = np.zeros_like(flat)
                bump[i] = delta
                numeric = (f_at((flat + bump).reshape(original.shape))
                           - f_at((flat - bump).reshape(original.shape))) / (2 * delta)
                p.set_value(original)
                analytic = grad.reshape(-1)[i]
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
                assert rel < 1e-4, f"{p.name}[{i}] rel={rel}"


def value_and_grads(fn, params, x, g):
    """fn(x), and the gradients of sum(fn(x) * g) for x and each parameter
    that fn uses."""
    xt = Tensor(x, requires_grad=True)
    with Tape():
        out = fn(xt)
        backward(tensor_sum(mul(out, Tensor(g))))
    return out.data, xt.grad, {p.name: p.grad for p in params
                               if p.grad is not None}


def assert_trimmed_matches_full(build, rows, x):
    """``stack(x, rows=rows)`` against ``rows(stack(x))``, each on a fresh
    copy of the same float64 parameters: values within 1e-12, gradients
    within 1e-10."""
    full_stack, full_params = build()
    trim_stack, trim_params = build()
    g = np.random.default_rng(1).normal(size=rows(Tensor(x)).shape)
    full = value_and_grads(lambda t: rows(full_stack(t)), full_params, x, g)
    trim = value_and_grads(lambda t: trim_stack(t, rows=rows), trim_params, x, g)
    npt.assert_allclose(trim[0], full[0], rtol=0, atol=1e-12)
    npt.assert_allclose(trim[1], full[1], rtol=0, atol=1e-10)
    assert trim[2].keys() == full[2].keys() and len(full[2]) > 0
    for name, grad in full[2].items():
        npt.assert_allclose(trim[2][name], grad, rtol=0, atol=1e-10, err_msg=name)


def _stack(blocks, dim=8, heads=2, seed=0):
    params = ParameterSet(np.float64)
    stack = TransformerStack(params, "fusion", dim, heads, blocks, 2,
                             np.random.default_rng(seed))
    return stack, params


def _text_slice(n_v, m):
    return lambda t: slice_axis(t, 1, n_v, n_v + m)


class TestTrimmedLastBlock:
    """The last block computes only the rows its caller reads."""

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_fusion_text_slice_matches_full_stack(self, blocks):
        x = np.random.default_rng(2).normal(size=(3, 7, 8))
        assert_trimmed_matches_full(lambda: _stack(blocks), _text_slice(4, 3), x)

    def test_last_block_records_kept_rows_against_all_keys(self):
        stack, _ = _stack(2, heads=2)
        x = Tensor(np.random.default_rng(4).normal(size=(3, 7, 8)))
        collect = []
        out = stack(x, collect, rows=_text_slice(4, 3))
        assert out.shape == (3, 3, 8)
        assert [c.shape for c in collect] == [(3, 2, 7, 7), (3, 2, 3, 7)]
        npt.assert_allclose(collect[-1].sum(axis=-1), 1.0, atol=1e-12)


class TestClassify:
    def _heads(self, n_classes, dim, seed=0):
        return ClassificationHeads(ParameterSet(np.float64), n_classes, dim,
                                   np.random.default_rng(seed))

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
        with pytest.raises(UsageError, match="mul: shape"):
            heads(Tensor(np.zeros((1, 5, 8))))


def _desk_model(seed=0, fusion_blocks=2, dtype=np.float32):
    config = ModelConfig(
        vit=VitConfig(image_size=16, patch_size=8, dim=16, depth=1, heads=2, mlp_ratio=2),
        text=TextConfig(dim=16, blocks=1, heads=2, max_len=16, mlp_ratio=2),
        fusion=FusionConfig(dim=16, heads=2, blocks=fusion_blocks, mlp_ratio=2),
    )
    return VideoAttributeModel(config, default_schema(), seed=seed, dtype=dtype)


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

    def test_zero_blocks_sees_the_clip(self):
        # the no-fusion arm is not a constant predictor: each logit moves with the clip
        model = _desk_model(fusion_blocks=0)
        rng = np.random.default_rng(3)
        a = model.logits_batch(rng.random((1, 2, 12, 9, 3)).astype(np.float32)).data
        b = model.logits_batch(rng.random((1, 2, 12, 9, 3)).astype(np.float32)).data
        assert (a != b).all()

    def test_zero_blocks_head_reads_text_plus_mean_visual_token(self):
        # head m of the no-fusion arm, in numpy: w_m . (text_m + mean_v visual) + b_m
        model = _desk_model(fusion_blocks=0, dtype=np.float64)
        n_v, m, d = model.config.vit.n_tokens, model.n_classes, model.config.fusion.dim
        rng = np.random.default_rng(6)
        visual, text = rng.normal(size=(3, n_v, d)), rng.normal(size=(m, d))
        logits = model.fuse_classify(Tensor(visual), Tensor(text)).data
        tokens = text[None] + visual.mean(axis=1)[:, None]
        expected = (tokens * model.heads.weight.data).sum(axis=-1) + model.heads.bias.data
        npt.assert_allclose(logits, expected, rtol=0, atol=1e-12)

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
        attn, _ = model.fusion.blocks[0]
        with pytest.raises(UsageError,
                           match=rf"attention expects \(batch, n, dim\), got \(4, {d}\)"):
            attn(Tensor(np.zeros((4, d), dtype=np.float32)))
        visual = Tensor(np.zeros((model.config.vit.n_tokens, d), dtype=np.float32))
        with pytest.raises(UsageError, match=r"fuse_classify expects visual tokens \(b, n_v, d\)"):
            model.fuse_classify(visual, model.text.encode())
        with pytest.raises(UsageError):
            decide(np.zeros(model.n_classes), model.schema)

    def test_zero_blocks_have_no_fusion_params(self):
        names = _desk_model(fusion_blocks=0).params.names()
        assert not any(n.startswith(("fusion.", "nofusion.")) for n in names)
        assert [n for n in names if not n.startswith(("vision.", "text."))] == [
            "heads.weight", "heads.bias"]
