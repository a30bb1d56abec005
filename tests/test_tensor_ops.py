"""Forward-op contracts: hand values, closed forms, shape errors."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import erf, expit

from vtfpar.errors import UsageError
from vtfpar.gradcheck import _CASES
from vtfpar.tensor import (LAYER_NORM_EPS, OP_KINDS, Tape, Tensor, add, backward, concat,
                           expand_leading, gelu, layer_norm, linear, matmul, mul, no_grad,
                           reshape, sigmoid, slice_axis, softmax, softplus, stack,
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
        with pytest.raises(UsageError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_rejects_vectors(self):
        with pytest.raises(UsageError, match=r"matmul needs matrices, got \(3,\) @ \(3, 2\)"):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_equal_batch_dims(self):
        # attention's scores and mixing: (b, heads) batch dims on both sides
        q, k = Tensor(np.ones((2, 4, 5, 8))), Tensor(np.ones((2, 4, 8, 5)))
        assert matmul(q, k).shape == (2, 4, 5, 5)

    def test_size_one_batch_dim_does_not_stretch(self):
        with pytest.raises(UsageError, match=r"matmul batch dims.*\(1,\).*\(2,\)"):
            matmul(Tensor(np.ones((1, 3, 4))), Tensor(np.ones((2, 4, 5))))


class TestLinear:
    # x (6, 17, 96): 102 rows of 96 grouped as 6 batch items
    ROWS, K, N = (6, 17), 96, 48

    def _inputs(self, dtype):
        rng = np.random.default_rng(7)
        shapes = (self.ROWS + (self.K,), (self.K, self.N), (self.N,))
        arrays = [rng.standard_normal(s).astype(dtype) for s in shapes]
        weight = rng.standard_normal(self.ROWS + (self.N,)).astype(dtype)
        return arrays, weight

    @staticmethod
    def _run(op, arrays, weight):
        # output and the gradients of sum(op(x, w, b) * weight); the
        # gradient reaching the op is ``weight`` itself
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape():
            out = op(*inputs)
            backward(tensor_sum(mul(out, Tensor(weight))))
        return [out.data] + [t.grad for t in inputs]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_is_the_flat_formula(self, dtype):
        # one GEMM over all rows, then the bias
        x, w, b = self._inputs(dtype)[0]
        out = linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert out.shape == self.ROWS + (self.N,) and out.dtype == dtype
        npt.assert_array_equal(out, (x.reshape(-1, self.K) @ w + b).reshape(out.shape))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_are_the_flat_formulas(self, dtype):
        # one GEMM over all rows for each of gx and gw, a column sum for gb
        (x, w, b), g = self._inputs(dtype)
        _, gx, gw, gb = self._run(linear, (x, w, b), g)
        x2, g2 = x.reshape(-1, self.K), g.reshape(-1, self.N)
        npt.assert_array_equal(gx, (g2 @ w.T).reshape(x.shape))
        npt.assert_array_equal(gw, x2.T @ g2)
        npt.assert_array_equal(gb, g2.sum(axis=0))
        assert gx.dtype == gw.dtype == gb.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_depend_only_on_rows(self, dtype):
        # the same 102 rows as (6, 17, 96) and as (102, 96)
        (x, w, b), g = self._inputs(dtype)
        grouped = self._run(linear, (x, w, b), g)
        flat = self._run(linear, (x.reshape(-1, self.K), w, b), g.reshape(-1, self.N))
        npt.assert_array_equal(grouped[0].reshape(-1, self.N), flat[0])
        npt.assert_array_equal(grouped[1].reshape(-1, self.K), flat[1])
        npt.assert_array_equal(grouped[2], flat[2])
        npt.assert_array_equal(grouped[3], flat[3])

    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_output_and_gradients_close_to_matmul_plus_bias(self, dtype, rtol):
        # the two-op form runs batched GEMMs and sums the weight gradient
        # per batch item, so it rounds differently; a sum of 102 products
        # can cancel to near 0, so the tolerance is relative to each
        # array's largest entry
        arrays, g = self._inputs(dtype)
        fused = self._run(linear, arrays, g)
        pair = self._run(lambda x, w, b: add(matmul(x, w), b), arrays, g)
        for a, c in zip(fused, pair):
            assert a.dtype == c.dtype
            npt.assert_allclose(a, c, rtol=rtol, atol=rtol * np.abs(c).max())

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(UsageError, match=r"\(2, 3\).*\(2, 4\)"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))), Tensor(np.ones(4)))
        with pytest.raises(UsageError, match=r"linear shapes disagree: .* b \(3,\)"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)))


def _exact_logistic(x):
    # 1 / (1 + exp(-x)) at 40 digits, rounded to x's dtype
    with localcontext() as ctx:
        ctx.prec = 40
        exact = [1 / (1 + (-Decimal(float(v))).exp()) for v in x]
    return np.array([float(v) for v in exact]).astype(x.dtype)


class TestLogistic:
    # sigmoid and the softplus gradient share one logistic

    @staticmethod
    def _softplus_grad(x):
        a = Tensor(x, requires_grad=True)
        with Tape():
            backward(tensor_sum(softplus(a)))
        return a.grad

    # grids out to where the logistic leaves the normal range
    @pytest.mark.parametrize("dtype,limit", [(np.float32, 87.0), (np.float64, 708.0)])
    def test_within_2_ulp_of_exact(self, dtype, limit):
        x = np.linspace(-limit, limit, 20001).astype(dtype)
        exact = _exact_logistic(x)
        for got in (sigmoid(Tensor(x)).data, self._softplus_grad(x)):
            assert got.dtype == dtype
            npt.assert_array_max_ulp(got, exact, maxulp=2)

    # expit is itself up to 2 ulp from the exact value, so in float64 the
    # two can sit 3 ulp apart; float32 inputs are evaluated in float64
    @pytest.mark.parametrize("dtype,limit,maxulp",
                             [(np.float32, 87.0, 2), (np.float64, 708.0, 3)])
    def test_close_to_expit(self, dtype, limit, maxulp):
        x = np.linspace(-limit, limit, 200001).astype(dtype)
        for got in (sigmoid(Tensor(x)).data, self._softplus_grad(x)):
            npt.assert_array_max_ulp(got, expit(x), maxulp=maxulp)

    @pytest.mark.parametrize("dtype,big,tiny",
                             [(np.float32, 1e30, -100.0), (np.float64, 1e300, -740.0)])
    def test_finite_and_silent_at_huge_inputs(self, dtype, big, tiny):
        # exp(-|x|) underflows to 0 at +-big and to a subnormal at tiny
        x = np.array([big, -big, tiny], dtype=dtype)
        with np.errstate(all="raise"):
            s = sigmoid(Tensor(x)).data
            out = softplus(Tensor(x)).data
            grad = self._softplus_grad(x)
        for got in (s, grad):
            npt.assert_array_equal(got[:2], [1.0, 0.0])
            assert 0.0 < got[2] < np.finfo(dtype).tiny
        npt.assert_array_equal(out[:2], [x[0], 0.0])
        assert 0.0 < out[2] < np.finfo(dtype).tiny


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
            sums = softmax(x).data.sum(axis=-1)
            npt.assert_allclose(sums, 1.0, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_written_out_formula_bitwise(self, dtype):
        rng = np.random.default_rng(1)
        x = rng.normal(0.0, 4.0, (12, 60)).astype(dtype)
        g = rng.standard_normal((12, 60)).astype(dtype)
        a = Tensor(x, requires_grad=True)
        with Tape():
            out = softmax(a)
            backward(tensor_sum(mul(out, Tensor(g))))
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        s = e / e.sum(axis=-1, keepdims=True)
        npt.assert_array_equal(out.data, s)
        npt.assert_array_equal(a.grad, s * (g - (g * s).sum(axis=-1, keepdims=True)))


class TestLayerNorm:
    def _ln(self, values, gain=None, bias=None):
        x = Tensor(np.asarray(values, dtype=np.float64))
        d = x.shape[-1]
        g = Tensor(np.ones(d)) if gain is None else Tensor(np.asarray(gain, dtype=np.float64))
        b = Tensor(np.zeros(d)) if bias is None else Tensor(np.asarray(bias, dtype=np.float64))
        return layer_norm(x, g, b).data

    def test_constant_row_absorbed_by_eps(self):
        npt.assert_array_equal(self._ln([[5.0, 5.0, 5.0]]), np.zeros((1, 3)))

    def test_two_point_row_closed_form(self):
        # mean 2, population variance 1 -> normalized [-1, 1] / sqrt(1 + eps)
        npt.assert_allclose(self._ln([[1.0, 3.0]]),
                            [[-1.0, 1.0]] / np.sqrt(1.0 + LAYER_NORM_EPS), rtol=1e-12)

    def test_zero_gain_returns_bias(self):
        out = self._ln([[2.0, -7.0, 0.3]], gain=[0.0] * 3, bias=[4.0] * 3)
        npt.assert_array_equal(out, np.full((1, 3), 4.0))

    def test_normalization_invariant(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(1.0, 2.0, (20, 16)).astype(np.float32))
        out = layer_norm(x, Tensor(np.ones(16, dtype=np.float32)),
                         Tensor(np.zeros(16, dtype=np.float32))).data
        row_var = x.data.var(axis=-1)
        keep = row_var >= 1e-3
        assert keep.all()
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0)[keep].max() < 10 * LAYER_NORM_EPS

    def test_rejects_single_element_rows(self):
        with pytest.raises(UsageError, match=r"layer_norm needs last dim >= 2, got shape \(3, 1\)"):
            layer_norm(Tensor(np.ones((3, 1))), Tensor(np.ones(1)), Tensor(np.zeros(1)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 17, 96), (8, 60, 96), (96, 17, 96)])
    def test_matches_written_out_formula_bitwise(self, dtype, shape):
        # the np.mean forms; the gradients read the forward's normalized
        # rows and inverse std, so they pin those bitwise too
        rng = np.random.default_rng(2)
        x = rng.normal(1.0, 2.0, shape).astype(dtype)
        gain = rng.normal(1.0, 0.5, 96).astype(dtype)
        bias = rng.normal(0.0, 0.5, 96).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        xt, gt, bt = (Tensor(v, requires_grad=True) for v in (x, gain, bias))
        with Tape():
            out = layer_norm(xt, gt, bt)
            backward(tensor_sum(mul(out, Tensor(g))))
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + 1e-5)
        xn = (x - mu) * inv
        gxn = g * gain
        npt.assert_array_equal(out.data, xn * gain + bias)
        npt.assert_array_equal(xt.grad, inv * (gxn - gxn.mean(axis=-1, keepdims=True)
                                                - xn * (gxn * xn).mean(axis=-1, keepdims=True)))
        npt.assert_array_equal(gt.grad, (g * xn).sum(axis=0).sum(axis=0))
        npt.assert_array_equal(bt.grad, g.sum(axis=0).sum(axis=0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(8, 60, 96), (96, 17, 96)])
@pytest.mark.parametrize("axis", [None, 0, 1, -1])
def test_mean_matches_np_mean_bitwise(dtype, shape, axis):
    x = np.random.default_rng(5).normal(1.0, 2.0, shape).astype(dtype)
    out = tensor_mean(Tensor(x), axis=axis).data
    expected = np.asarray(x.mean(axis=axis))
    assert out.dtype == expected.dtype == dtype
    npt.assert_array_equal(out, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", OP_KINDS + ("full mean", "full sum"))
def test_no_grad_output_is_an_ndarray_of_the_input_dtype(dtype, kind):
    full = {"full mean": tensor_mean, "full sum": tensor_sum}
    case_seed, shapes, make_op = _CASES.get(kind, (0, ((3, 4),), lambda rng: full[kind]))
    rng = np.random.default_rng(case_seed)
    inputs = [Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
              for shape in shapes]
    with no_grad():
        out = make_op(rng)(*inputs)
    assert type(out.data) is np.ndarray and out.dtype == dtype
    assert out.tape is None and out.node_id is None


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
        with pytest.raises(UsageError,
                           match=r"concat shapes \[\(2, 3\), \(2, 4\)\] disagree off axis 0"):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)

    def test_add_suffix_broadcast_only(self):
        a = Tensor(np.ones((2, 3)))
        with pytest.raises(UsageError,
                           match=r"add: shape \(2, 3\) does not suffix-align with \(2, 1\)"):
            add(a, Tensor(np.ones((2, 1))))  # inner size-1 broadcast is rejected
        out = add(a, Tensor(np.ones(3)))
        npt.assert_array_equal(out.data, np.full((2, 3), 2.0))

    def test_mul_suffix_broadcast(self):
        a = Tensor(np.full((4, 2, 3), 2.0))
        b = Tensor(np.full((2, 3), 3.0))
        npt.assert_array_equal(mul(a, b).data, np.full((4, 2, 3), 6.0))

    # (a, b, aligned): only missing leading dims broadcast
    SUFFIX_CASES = [
        ((2, 3), (2, 3), True),
        ((), (3,), True),
        ((3, 4), (2, 3, 4), True),
        ((3, 1), (3, 4), False),  # a size-1 dim does not stretch
        ((2, 3, 4), (2, 5, 4), False),  # a middle dim differs
        ((5, 4), (2, 3, 4), False),  # the same, under a missing leading dim
    ]

    @pytest.mark.parametrize("op", ["add", "mul", "matmul"])
    @pytest.mark.parametrize("a_shape, b_shape, aligned", SUFFIX_CASES)
    def test_suffix_alignment_both_orders(self, op, a_shape, b_shape, aligned):
        # matmul aligns its leading batch dims: append (2, 2) matrices
        fn, label, tail = {"add": (add, "add", ()), "mul": (mul, "mul", ()),
                           "matmul": (matmul, "matmul batch dims", (2, 2))}[op]
        for x, y in ((a_shape, b_shape), (b_shape, a_shape)):
            a, b = Tensor(np.ones(x + tail)), Tensor(np.ones(y + tail))
            if aligned:
                assert fn(a, b).shape == max(x, y, key=len) + tail
                continue
            message = f"{label}: shape {x} does not suffix-align with {y}"
            with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
                fn(a, b)

    def test_softplus_saturation(self):
        assert softplus(Tensor([1000.0], dtype=np.float64)).data[0] == pytest.approx(1000.0)
        assert softplus(Tensor([0.0])).data[0] == pytest.approx(math.log(2.0))

    def test_gelu_values(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0
        # GELU(x) ~= x for large positive x
        assert gelu(Tensor([10.0])).data[0] == pytest.approx(10.0)

    @staticmethod
    def _gelu_with_grad(x, g):
        a = Tensor(x, requires_grad=True)
        with Tape():
            out = gelu(a)
            backward(tensor_sum(mul(out, Tensor(g))))
        return out.data, a.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_matches_tanh_formula_bitwise(self, dtype):
        # 0.5 x (1 + tanh(c (x + a x^3))) and its derivative, in the op's
        # evaluation order; the backward reuses the forward's tanh
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 3.0, (64, 96)).astype(dtype)
        g = rng.standard_normal((64, 96)).astype(dtype)
        out, grad = self._gelu_with_grad(x, g)
        c, a = math.sqrt(2.0 / math.pi), 0.044715
        cdf = np.tanh((x * x * (c * a) + c) * x) * 0.5 + 0.5
        dudx = (x * x * (6.0 * c * a) + 2.0 * c) * x
        npt.assert_array_equal(out, x * cdf)
        npt.assert_array_equal(grad, (dudx * (1.0 - cdf) + 1.0) * cdf * g)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_close_to_exact_erf_form(self, dtype):
        x = np.linspace(-8.0, 8.0, 16001).astype(dtype)
        exact = 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))
        assert np.abs(gelu(Tensor(x)).data - exact).max() <= 5e-4

    @pytest.mark.parametrize("dtype,big", [(np.float32, 1e20), (np.float64, 1e200)])
    def test_gelu_value_and_gradient_finite_at_huge_inputs(self, dtype, big):
        # a naive x*x overflows here and the backward reads inf * 0 = nan
        x = np.array([big, -big], dtype=dtype)
        with np.errstate(all="raise"):
            out, grad = self._gelu_with_grad(x, np.ones(2, dtype=dtype))
        npt.assert_array_equal(out, [x[0], 0.0])
        npt.assert_array_equal(grad, [1.0, 0.0])

    def test_transpose_permutes(self):
        x = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        out = transpose(x, (2, 0, 1))
        npt.assert_array_equal(out.data, np.transpose(x.data, (2, 0, 1)))

    # numpy accepts (2, -3, 1); here every axis must lie in [0, ndim)
    @pytest.mark.parametrize("axes", [(2, -3, 1), (0, -1, 1), (1, 1, 0), (0, 1),
                                      (0, 1, 2, 3), (0, 1, 3), (0, 1.5, 2)])
    def test_transpose_rejects_non_permutations(self, axes):
        x = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(UsageError, match=r"transpose axes .* shape \(2, 3, 4\)"):
            transpose(x, axes)

    @pytest.mark.parametrize("shape", [(2.7, 6), (2.5, 4.9), (2, 6.0), (5, 3),
                                       (-7, 3), (-2, 6)])
    def test_reshape_rejects_bad_sizes_naming_the_request(self, shape):
        # a non-integer size is an error, not truncated to an integer, and
        # a size below -1 is not read as -1
        x = Tensor(np.arange(12.0).reshape(3, 4))
        message = f"cannot reshape (3, 4) to {shape}"
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            reshape(x, shape)

    def test_reshape_infers_one_size(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        assert reshape(x, (2, -1)).shape == (2, 6)
        assert reshape(x, (np.int64(4), 3)).shape == (4, 3)

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
        with pytest.raises(UsageError, match="take_rows indices out of range for leading dim 3"):
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
