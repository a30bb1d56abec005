"""Tape/backward contracts and the finite-difference oracle."""

import weakref

import numpy as np
import numpy.testing as npt
import pytest

from vtfpar.errors import UsageError
from vtfpar.tensor import (FD_STEP, Tape, Tensor, add, backward,
                           finite_diff_grad, gelu, linear, matmul, mul,
                           no_grad, reshape, softmax, tensor_sum, transpose)


def test_backward_sum_gives_ones():
    w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape():
        loss = tensor_sum(w)
        backward(loss)
    npt.assert_array_equal(w.grad, [1.0, 1.0, 1.0])


def test_backward_square_gives_two_w():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        loss = tensor_sum(mul(w, w))
        backward(loss)
    npt.assert_allclose(w.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        y = mul(w, w)
        with pytest.raises(UsageError, match=r"backward needs a scalar loss, got shape \(2,\)"):
            backward(y)


def test_backward_requires_tape():
    w = Tensor([1.0], requires_grad=True)
    loss = tensor_sum(w)  # no tape active
    with pytest.raises(UsageError, match="loss is not recorded on a tape"):
        backward(loss)


def test_frozen_tensor_gets_no_grad():
    w = Tensor([1.0, 2.0], requires_grad=True)
    frozen = Tensor([3.0, 4.0], requires_grad=False)
    with Tape():
        loss = tensor_sum(mul(w, frozen))
        backward(loss)
    npt.assert_allclose(w.grad, frozen.data)
    assert frozen.grad is None


def test_grad_accumulates_over_reuse():
    w = Tensor([2.0], requires_grad=True)
    with Tape():
        loss = tensor_sum(mul(w, w))  # w used twice in one op
        backward(loss)
    npt.assert_allclose(w.grad, [4.0])

    # a second tape adds onto the gradient w already holds: its own
    # contributions are summed in reverse node order, then added to it
    rng = np.random.default_rng(7)
    w = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    c1, c2, c3 = (Tensor(rng.normal(size=(3, 4)).astype(np.float32))
                  for _ in range(3))
    old = rng.normal(size=(3, 4)).astype(np.float32)
    w.grad = old
    with Tape():
        loss = tensor_sum(add(add(mul(w, c1), mul(w, c2)), mul(w, c3)))
        backward(loss)
    assert w.grad.dtype == np.float32
    npt.assert_array_equal(w.grad, old + ((c3.data + c2.data) + c1.data))


def test_second_backward_on_swept_tape_rejected():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = tensor_sum(mul(w, w))
        n_nodes = len(tape)
        backward(loss)
        assert len(tape) == n_nodes
        with pytest.raises(UsageError, match="swept"):
            backward(loss)
    npt.assert_allclose(w.grad, [2.0, 4.0])


def test_backward_frees_saved_activations_without_gc():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = Tensor(np.zeros(5), requires_grad=True)
    with Tape():
        h = linear(x, w, b)
        saved = weakref.ref(h.data)  # gelu keeps its input for the backward
        loss = tensor_sum(gelu(h))
        del h
        assert saved() is not None
        backward(loss)
        assert saved() is None


def test_tape_topological_order():
    a = Tensor([1.0, 2.0], requires_grad=True)
    k = Tensor([3.0, 4.0])
    with Tape() as tape:
        b = mul(a, a)
        c = tensor_sum(mul(add(b, k), a))
    assert len(tape) == 4
    for node_id, node in enumerate(tape.nodes):
        for ref in node.inputs:
            if isinstance(ref, int):
                assert ref < node_id
            elif ref is not None:  # a leaf: never an op output of this tape
                assert ref.requires_grad and ref.tape is not tape
    assert a.tape is None and a.node_id is None


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 5)).astype(np.float32)
    grads = []
    for _ in range(2):
        w = Tensor(x.copy(), requires_grad=True)
        with Tape():
            loss = tensor_sum(softmax(matmul(w, transpose(w, (1, 0)))))
            backward(loss)
        grads.append(w.grad.copy())
    npt.assert_array_equal(grads[0], grads[1])


class TestFiniteDiff:
    def test_sum_gradient_is_ones(self):
        fd = finite_diff_grad(lambda t: tensor_sum(t).item(),
                              Tensor(np.array([4.0, -1.0, 0.5])))
        npt.assert_allclose(fd.data, np.ones(3), atol=1e-9)

    def test_square_closed_form(self):
        fd = finite_diff_grad(lambda t: tensor_sum(mul(t, t)).item(),
                              Tensor(np.array([3.0])))
        assert abs(fd.data[0] - 6.0) < 1e-6

    @pytest.mark.parametrize("f", [tensor_sum, lambda t: tensor_sum(t).data,
                                   lambda t: np.float32(tensor_sum(t).item())])
    def test_rejects_f_that_returns_no_float(self, f):
        with pytest.raises(UsageError, match="return a float"):
            finite_diff_grad(f, Tensor(np.array([1.0, 2.0])))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("view", [None, "reshape", "transpose"])
    def test_equals_zero_array_bump_formula_bitwise(self, dtype, transposed, view):
        # f may read its argument through a view of the bumped buffer
        read = {None: lambda t: t,
                "reshape": lambda t: reshape(t, (12,)),
                "transpose": lambda t: transpose(t, (1, 0))}[view]
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 3)).astype(dtype)
        x = x.T if transposed else x
        before = x.copy()
        w = Tensor(rng.normal(size=read(Tensor(x)).shape).astype(dtype))

        def f(t):
            return tensor_sum(mul(gelu(read(t)), w))

        delta = FD_STEP
        # C order, so that reshape(-1) is a view and coordinate i is the
        # C-order index i of x
        expected = np.zeros(x.shape, dtype=dtype)
        with no_grad():
            for i in range(x.size):
                bump = np.zeros(x.size, dtype=dtype)
                bump[i] = delta
                bump = bump.reshape(x.shape)
                fp = f(Tensor(x + bump)).item()
                fm = f(Tensor(x - bump)).item()
                expected.reshape(-1)[i] = (fp - fm) / (2.0 * delta)
        assert np.count_nonzero(expected) == x.size
        xt = Tensor(x)
        got = finite_diff_grad(lambda t: f(t).item(), xt).data
        assert got.dtype == dtype
        npt.assert_array_equal(got, expected)
        assert xt.data is x
        npt.assert_array_equal(x, before)

    def test_matmul_gradients_match_oracle(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        with Tape():
            backward(tensor_sum(matmul(a, b)))
        fd_a = finite_diff_grad(lambda t: tensor_sum(matmul(t, b)).item(), Tensor(a.data))
        fd_b = finite_diff_grad(lambda t: tensor_sum(matmul(a, t)).item(), Tensor(b.data))
        npt.assert_allclose(a.grad, fd_a.data, rtol=1e-4)
        npt.assert_allclose(b.grad, fd_b.data, rtol=1e-4)

    def test_softmax_matmul_composite(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3)))

        def f(t):
            probs = softmax(matmul(t, w))
            return tensor_sum(mul(probs, probs))

        with Tape():
            backward(f(x))
        fd = finite_diff_grad(lambda t: f(t).item(), Tensor(x.data))
        rel = np.abs(x.grad - fd.data) / np.maximum(np.abs(fd.data), 1e-6)
        assert rel.max() < 1e-4


def test_no_grad_suppresses_recording():
    w = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        with no_grad():
            y = mul(w, w)
        assert y.node_id is None
        assert len(tape) == 0
