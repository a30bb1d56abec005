"""Forward-op contracts: hand values, closed forms, shape errors."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import erf

from vtfpar.tensor import (DimensionError, Tape, Tensor, add, backward, concat,
                           expand_leading, gelu, layer_norm, linear, matmul,
                           mul, sigmoid, slice_axis, softmax, softplus, stack,
                           take_rows, tensor_mean, tensor_sum, transpose)


class TestMatmul:
    def test_identity(self):
        eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
        m = Tensor([[3.0, 4.0], [5.0, 6.0]])
        npt.assert_array_equal(matmul(eye, m).data, m.data)

    def test_hand_inner_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        npt.assert_array_equal(out.data, [[11.0]])

    def test_batched_leading_dims(self):
        a = Tensor(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
        b = Tensor(np.arange(8, dtype=np.float64).reshape(4, 2))
        out = matmul(a, b)
        assert out.shape == (2, 3, 2)
        npt.assert_allclose(out.data, a.data @ b.data)

    def test_inner_dim_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_rejects_vectors(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


class TestLinear:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_matmul_plus_bias(self, dtype):
        # values and all three gradients, against the two-op form
        rng = np.random.default_rng(7)
        shapes = ((6, 17, 96), (96, 48), (48,))
        arrays = [rng.standard_normal(s).astype(dtype) for s in shapes]
        weight = Tensor(rng.standard_normal((6, 17, 48)).astype(dtype))
        results = []
        for op in (linear, lambda x, w, b: add(matmul(x, w), b)):
            inputs = [Tensor(a, requires_grad=True) for a in arrays]
            with Tape():
                out = op(*inputs)
                backward(tensor_sum(mul(out, weight)))
            results.append([out.data] + [t.grad for t in inputs])
        for fused, pair in zip(*results):
            assert fused.dtype == pair.dtype
            npt.assert_array_equal(fused, pair)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 4\)"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))), Tensor(np.ones(4)))
        with pytest.raises(DimensionError):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)))


class TestSoftmax:
    def test_symmetry(self):
        npt.assert_allclose(softmax(Tensor([0.0, 0.0, 0.0])).data,
                            [1 / 3, 1 / 3, 1 / 3], rtol=1e-6)

    def test_large_inputs_no_overflow(self):
        out = softmax(Tensor([1000.0, 1000.0])).data
        assert np.isfinite(out).all()
        npt.assert_allclose(out, [0.5, 0.5], rtol=1e-6)

    def test_closed_form_exponentials(self):
        # exp(ln k) = k, so [ln 1, ln 2, ln 3] -> [1/6, 2/6, 3/6]
        x = Tensor([math.log(1), math.log(2), math.log(3)], dtype=np.float64)
        npt.assert_allclose(softmax(x).data, [1 / 6, 2 / 6, 3 / 6], rtol=1e-12)

    def test_rows_sum_to_one_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = Tensor(rng.normal(0, 10, (5, 7)).astype(np.float32))
            sums = softmax(x, axis=-1).data.sum(axis=-1)
            npt.assert_allclose(sums, 1.0, atol=1e-6)


class TestLayerNorm:
    def _ln(self, values, eps=1e-5, gain=None, bias=None):
        x = Tensor(np.asarray(values, dtype=np.float64))
        d = x.shape[-1]
        g = Tensor(np.ones(d)) if gain is None else Tensor(np.asarray(gain, dtype=np.float64))
        b = Tensor(np.zeros(d)) if bias is None else Tensor(np.asarray(bias, dtype=np.float64))
        return layer_norm(x, g, b, eps=eps).data

    def test_constant_row_absorbed_by_eps(self):
        npt.assert_array_equal(self._ln([[5.0, 5.0, 5.0]]), np.zeros((1, 3)))

    def test_two_point_row_closed_form(self):
        # mean 2, population std 1 -> normalized [-1, 1] as eps -> 0
        npt.assert_allclose(self._ln([[1.0, 3.0]], eps=1e-12), [[-1.0, 1.0]], atol=1e-6)

    def test_zero_gain_returns_bias(self):
        out = self._ln([[2.0, -7.0, 0.3]], gain=[0.0] * 3, bias=[4.0] * 3)
        npt.assert_array_equal(out, np.full((1, 3), 4.0))

    def test_normalization_invariant(self):
        rng = np.random.default_rng(1)
        eps = 1e-5
        x = Tensor(rng.normal(1.0, 2.0, (20, 16)).astype(np.float32))
        out = layer_norm(x, Tensor(np.ones(16, dtype=np.float32)),
                         Tensor(np.zeros(16, dtype=np.float32)), eps=eps).data
        row_var = x.data.var(axis=-1)
        keep = row_var >= 1e-3
        assert keep.all()
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0)[keep].max() < 10 * eps

    def test_rejects_single_element_rows(self):
        with pytest.raises(DimensionError):
            layer_norm(Tensor(np.ones((3, 1))), Tensor(np.ones(1)), Tensor(np.zeros(1)))


class TestElementwiseAndShapeFamily:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_mean_over_axis(self):
        npt.assert_array_equal(tensor_mean(Tensor([[0.0], [2.0]]), axis=0).data, [1.0])

    def test_concat_preserves_row_order(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        b = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        out = concat([a, b], axis=0)
        assert out.shape == (6, 3)
        npt.assert_array_equal(out.data[:2], a.data)
        npt.assert_array_equal(out.data[2:], b.data)

    def test_concat_shape_mismatch(self):
        with pytest.raises(DimensionError):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)

    def test_add_suffix_broadcast_only(self):
        a = Tensor(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            add(a, Tensor(np.ones((2, 1))))  # inner size-1 broadcast is rejected
        out = add(a, Tensor(np.ones(3)))
        npt.assert_array_equal(out.data, np.full((2, 3), 2.0))

    def test_mul_suffix_broadcast(self):
        a = Tensor(np.full((4, 2, 3), 2.0))
        b = Tensor(np.full((2, 3), 3.0))
        npt.assert_array_equal(mul(a, b).data, np.full((4, 2, 3), 6.0))

    def test_softplus_saturation(self):
        assert softplus(Tensor([1000.0], dtype=np.float64)).data[0] == pytest.approx(1000.0)
        assert softplus(Tensor([0.0])).data[0] == pytest.approx(math.log(2.0))

    def test_gelu_values(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0
        # GELU(x) ~= x for large positive x
        assert gelu(Tensor([10.0])).data[0] == pytest.approx(10.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_matches_erf_formula_bitwise(self, dtype):
        # the backward reuses the forward's CDF instead of a second erf
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 3.0, (64, 96)).astype(dtype)
        g = rng.standard_normal((64, 96)).astype(dtype)
        a = Tensor(x, requires_grad=True)
        with Tape():
            out = gelu(a)
            backward(tensor_sum(mul(out, Tensor(g))))
        inv_sqrt2, inv_sqrt2pi = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0 * math.pi)
        phi = np.exp(-0.5 * x * x) * inv_sqrt2pi
        npt.assert_array_equal(out.data, 0.5 * x * (1.0 + erf(x * inv_sqrt2)))
        npt.assert_array_equal(a.grad, g * (0.5 * (1.0 + erf(x * inv_sqrt2)) + x * phi))

    def test_transpose_permutes(self):
        x = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        out = transpose(x, (2, 0, 1))
        npt.assert_array_equal(out.data, np.transpose(x.data, (2, 0, 1)))

    def test_stack_and_slice(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 2)))
        s = stack([a, b])
        assert s.shape == (2, 2, 2)
        sl = slice_axis(s, 0, 1, 2)
        npt.assert_array_equal(sl.data, np.zeros((1, 2, 2)))

    def test_take_rows_gathers(self):
        x = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        out = take_rows(x, np.array([2, 0, 2]))
        npt.assert_array_equal(out.data, x.data[[2, 0, 2]])

    def test_take_rows_range_check(self):
        with pytest.raises(DimensionError):
            take_rows(Tensor(np.ones((3, 2))), np.array([3]))

    def test_expand_leading(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(2, 2))
        out = expand_leading(x, 3)
        assert out.shape == (3, 2, 2)
        npt.assert_array_equal(out.data[1], x.data)

    def test_sum_all(self):
        assert tensor_sum(Tensor(np.ones((3, 4)))).item() == pytest.approx(12.0)

    def test_outputs_finite_on_finite_inputs(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(0, 50, (4, 6)).astype(np.float32))
        for out in (softmax(x), sigmoid(x), gelu(x), softplus(x)):
            assert np.isfinite(out.data).all()
