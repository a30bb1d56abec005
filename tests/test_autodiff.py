"""Tape/backward contracts and the finite-difference oracle."""

import weakref

import numpy as np
import numpy.testing as npt
import pytest

from vtfpar.tensor import (ContractError, Tape, Tensor, backward,
                           finite_diff_grad, gelu, linear, matmul, mul,
                           no_grad, softmax, tensor_sum, transpose)


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
        with pytest.raises(ContractError):
            backward(y)


def test_backward_requires_tape():
    w = Tensor([1.0], requires_grad=True)
    loss = tensor_sum(w)  # no tape active
    with pytest.raises(ContractError):
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


def test_second_backward_on_swept_tape_rejected():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = tensor_sum(mul(w, w))
        n_nodes = len(tape)
        backward(loss)
        assert len(tape) == n_nodes
        with pytest.raises(ContractError, match="swept"):
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
    with Tape() as tape:
        b = mul(a, a)
        c = tensor_sum(mul(b, a))
    for node_id, node in enumerate(tape.nodes):
        for input_id in node.input_ids:
            assert input_id is None or input_id < node_id


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 5)).astype(np.float32)
    grads = []
    for _ in range(2):
        w = Tensor(x.copy(), requires_grad=True)
        with Tape():
            loss = tensor_sum(softmax(matmul(w, transpose(w)), axis=-1))
            backward(loss)
        grads.append(w.grad.copy())
    npt.assert_array_equal(grads[0], grads[1])


class TestFiniteDiff:
    def test_sum_gradient_is_ones(self):
        fd = finite_diff_grad(tensor_sum, Tensor(np.array([4.0, -1.0, 0.5])))
        npt.assert_allclose(fd.data, np.ones(3), atol=1e-9)

    def test_square_closed_form(self):
        fd = finite_diff_grad(lambda t: tensor_sum(mul(t, t)),
                              Tensor(np.array([3.0])), delta=1e-5)
        assert abs(fd.data[0] - 6.0) < 1e-6

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ContractError):
            finite_diff_grad(tensor_sum, Tensor([1.0]), delta=0.0)

    def test_matmul_gradients_match_oracle(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        with Tape():
            backward(tensor_sum(matmul(a, b)))
        fd_a = finite_diff_grad(lambda t: tensor_sum(matmul(t, b)), Tensor(a.data))
        fd_b = finite_diff_grad(lambda t: tensor_sum(matmul(a, t)), Tensor(b.data))
        npt.assert_allclose(a.grad, fd_a.data, rtol=1e-4)
        npt.assert_allclose(b.grad, fd_b.data, rtol=1e-4)

    def test_softmax_matmul_composite(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3)))

        def f(t):
            probs = softmax(matmul(t, w), axis=-1)
            return tensor_sum(mul(probs, probs))

        with Tape():
            backward(f(x))
        fd = finite_diff_grad(f, Tensor(x.data))
        rel = np.abs(x.grad - fd.data) / np.maximum(np.abs(fd.data), 1e-6)
        assert rel.max() < 1e-4


def test_no_grad_suppresses_recording():
    w = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        with no_grad():
            y = mul(w, w)
        assert y.node_id is None
        assert len(tape) == 0
