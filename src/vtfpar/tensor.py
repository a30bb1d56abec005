"""Dense tensor arithmetic with reverse-mode automatic differentiation.

Ops run eagerly on numpy arrays. While a ``Tape`` is active (``with
Tape():``), every op touching a tracked tensor appends a node holding the
op kind, the input node ids and a backward closure; creation order is a
valid topological order because an op can only consume tensors that
already exist. ``backward`` sweeps the nodes once in reverse and delivers
gradients to the watched leaves. A tape is swept once: ``backward``
drops each node's backward closure, and with it the arrays the forward
saved for it, as the sweep passes the node, so a step's activations are
freed during the sweep rather than by the cyclic garbage collector. A
second ``backward`` over a swept tape is a ``ContractError``.

Broadcasting is deliberately narrow: elementwise ops align shapes by
suffix (leading batch dims only) and matmul broadcasts leading batch
dims. Anything else needs an explicit reshape, which keeps every backward
rule auditable.

Default dtype is float32; gradient verification constructs float64
tensors for headroom.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf, expit

from .errors import VtfError

DEFAULT_DTYPE = np.float32

# Every op kind that can appear on a tape. The gradient-check harness is
# required (by test) to cover each one.
OP_KINDS = (
    "matmul",
    "add",
    "mul",
    "scale",
    "transpose",
    "reshape",
    "softmax",
    "layer_norm",
    "gelu",
    "sigmoid",
    "softplus",
    "mean",
    "sum",
    "concat",
    "stack",
    "take_rows",
    "slice_axis",
    "expand_leading",
    "linear",
)


class DimensionError(VtfError, ValueError):
    """Operand shapes violate an op's contract."""


class ContractError(VtfError, RuntimeError):
    """An op was used outside its stated preconditions."""


class Tensor:
    """Dense row-major array, optionally tracked on the active tape.

    Tensors are value-semantic: ops never mutate their inputs, and a
    tensor's data must not be written after creation. ``grad`` is filled
    by ``backward`` for watched leaves only.
    """

    __slots__ = ("data", "grad", "requires_grad", "tape", "node_id")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.tape: Tape | None = None
        self.node_id: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


class _Node:
    __slots__ = ("op", "input_ids", "backward_fn", "needs", "leaf")

    def __init__(self, op, input_ids, backward_fn, needs, leaf):
        self.op = op
        self.input_ids = input_ids
        self.backward_fn = backward_fn
        self.needs = needs
        self.leaf = leaf  # leaf tensor reference, None for op nodes


class _TapeStack(threading.local):
    """Per-thread stack of active tapes; tapes never cross threads."""

    def __init__(self):
        self.entries: list["Tape | None"] = []


_TAPE_STACK = _TapeStack()


def _active_tape() -> "Tape | None":
    entries = _TAPE_STACK.entries
    return entries[-1] if entries else None


class Tape:
    """Ordered record of op nodes for one forward computation.

    A tape is single threaded: one forward/backward pair runs on one
    thread. Node ids are list indices, so inputs always precede their
    consumers.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.swept = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.entries.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.entries.pop()

    def __len__(self) -> int:
        return len(self.nodes)

    def watch(self, t: Tensor) -> int:
        """Register ``t`` as a leaf; returns its node id (idempotent)."""
        if t.tape is self and t.node_id is not None:
            return t.node_id
        node_id = len(self.nodes)
        self.nodes.append(_Node("leaf", (), None, (), t))
        t.tape = self
        t.node_id = node_id
        return node_id

    def _input_id(self, t: Tensor) -> int | None:
        if t.tape is self and t.node_id is not None:
            return t.node_id
        if t.requires_grad:
            return self.watch(t)
        return None

    def _record(self, op, input_ids, backward_fn, needs) -> int:
        self.nodes.append(_Node(op, input_ids, backward_fn, needs, None))
        return len(self.nodes) - 1


class no_grad:
    """Context that suppresses tape recording (used by oracles and eval)."""

    def __enter__(self):
        _TAPE_STACK.entries.append(None)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.entries.pop()


def _apply(op: str, out_data: np.ndarray, inputs: Sequence[Tensor],
           backward_fn: Callable) -> Tensor:
    assert op in OP_KINDS, f"unregistered op kind {op!r}"
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is None:
        return out
    ids = tuple(tape._input_id(t) for t in inputs)
    needs = tuple(i is not None for i in ids)
    if not any(needs):
        return out
    out.node_id = tape._record(op, ids, backward_fn, needs)
    out.tape = tape
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every trainable leaf reachable from ``loss``.

    ``loss`` must be scalar and tape-recorded, on a tape not yet swept.
    Each tape node is visited exactly once, in reverse creation order, and
    its backward closure is released there; untracked (frozen/constant)
    inputs receive no gradient.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.tape is None or loss.node_id is None:
        raise ContractError("loss is not recorded on a tape")
    tape = loss.tape
    if tape.swept:
        raise ContractError("backward over a tape that was already swept")
    tape.swept = True
    grads: dict[int, np.ndarray] = {
        loss.node_id: np.ones_like(loss.data)
    }
    for node_id in range(loss.node_id, -1, -1):
        node = tape.nodes[node_id]
        backward_fn, node.backward_fn = node.backward_fn, None
        g = grads.pop(node_id, None)
        if g is None:
            continue
        if node.leaf is not None:
            leaf = node.leaf
            leaf.grad = g if leaf.grad is None else leaf.grad + g
            continue
        for input_id, gi in zip(node.input_ids, backward_fn(g, node.needs)):
            if input_id is None or gi is None:
                continue
            if input_id in grads:
                grads[input_id] = grads[input_id] + gi
            else:
                grads[input_id] = gi


# -- shape helpers -------------------------------------------------------


def _check_suffix(a_shape, b_shape, op: str) -> None:
    small, big = sorted((tuple(a_shape), tuple(b_shape)), key=len)
    if small != big[len(big) - len(small):]:
        raise DimensionError(
            f"{op}: shape {a_shape} does not suffix-align with {b_shape}")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (undo leading-dim broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    extra = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if extra:
        g = g.sum(axis=extra, keepdims=True)
    return g


# -- ops -----------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with broadcastable leading batch dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs matrices, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise DimensionError(
            f"matmul batch dims not broadcastable: {a.shape} @ {b.shape}") from None
    out = np.matmul(a.data, b.data)
    a_data, b_data = a.data, b.data
    a_shape, b_shape = a.shape, b.shape

    def bw(g, needs):
        ga = gb = None
        if needs[0]:
            ga = _reduce_to(np.matmul(g, np.swapaxes(b_data, -1, -2)), a_shape)
        if needs[1]:
            gb = _reduce_to(np.matmul(np.swapaxes(a_data, -1, -2), g), b_shape)
        return ga, gb

    return _apply("matmul", out, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` of the last axis: (..., k) -> (..., n).

    The forward is one GEMM over the rows of ``x`` flattened to (rows, k),
    with the bias added in place. The backward rules are those of
    ``add(matmul(x, w), b)`` in the same reduction order: a single
    flattened ``x^T g`` weight GEMM rounds differently, which moves the
    training trajectory and the acceptance F1.
    """
    if x.ndim < 2 or w.ndim != 2:
        raise DimensionError(
            f"linear needs x (..., k) and w (k, n), got {x.shape}, {w.shape}")
    k, n = w.shape
    if x.shape[-1] != k or b.shape != (n,):
        raise DimensionError(
            f"linear shapes disagree: x {x.shape}, w {w.shape}, b {b.shape}")
    x_data, w_data = x.data, w.data
    out = np.matmul(x_data.reshape(-1, k), w_data)
    out += b.data

    def bw(g, needs):
        gx = gw = gb = None
        if needs[0]:
            gx = np.matmul(g, w_data.T)
        if needs[1]:
            gw = _reduce_to(np.matmul(np.swapaxes(x_data, -1, -2), g), (k, n))
        if needs[2]:
            gb = _reduce_to(g, (n,))
        return gx, gw, gb

    return _apply("linear", out.reshape(x.shape[:-1] + (n,)), (x, w, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix(a.shape, b.shape, "add")
    a_shape, b_shape = a.shape, b.shape

    def bw(g, needs):
        return (_reduce_to(g, a_shape) if needs[0] else None,
                _reduce_to(g, b_shape) if needs[1] else None)

    return _apply("add", a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product (suffix-aligned broadcast only)."""
    _check_suffix(a.shape, b.shape, "mul")
    a_data, b_data = a.data, b.data

    def bw(g, needs):
        ga = _reduce_to(g * b_data, a_data.shape) if needs[0] else None
        gb = _reduce_to(g * a_data, b_data.shape) if needs[1] else None
        return ga, gb

    return _apply("mul", a_data * b_data, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g, needs):
        return (g * c,)

    return _apply("scale", a.data * c, (a,), bw)


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes; default swaps the last two."""
    if axes is None:
        if a.ndim < 2:
            raise DimensionError(f"transpose needs ndim >= 2, got shape {a.shape}")
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError(f"transpose axes {axes} invalid for shape {a.shape}")
    inverse = tuple(np.argsort(axes))

    def bw(g, needs):
        return (np.transpose(g, inverse),)

    return _apply("transpose", np.transpose(a.data, axes), (a,), bw)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    old_shape = a.shape

    def bw(g, needs):
        return (g.reshape(old_shape),)

    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"cannot reshape {old_shape} to {shape}") from None
    return _apply("reshape", out, (a,), bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax (max-subtraction); slices along ``axis`` sum to 1."""
    axis = _norm_axis(axis, a.ndim)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def bw(g, needs):
        inner = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - inner),)

    return _apply("softmax", s, (a,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then scale and shift.

    Uses population variance with ``eps`` inside the square root. The
    last axis must have length >= 2.
    """
    d = x.shape[-1]
    if d < 2:
        raise DimensionError(f"layer_norm needs last dim >= 2, got shape {x.shape}")
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape}/{bias.shape}")
    if eps <= 0:
        raise ContractError("layer_norm eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xn = (x.data - mu) * inv
    out = xn * gain.data + bias.data
    gain_data = gain.data

    def bw(g, needs):
        gx = ggain = gbias = None
        if needs[0]:
            gxn = g * gain_data
            m1 = gxn.mean(axis=-1, keepdims=True)
            m2 = (gxn * xn).mean(axis=-1, keepdims=True)
            gx = inv * (gxn - m1 - xn * m2)
        if needs[1]:
            ggain = _reduce_to(g * xn, gain_data.shape)
        if needs[2]:
            gbias = _reduce_to(g, gain_data.shape)
        return gx, ggain, gbias

    return _apply("layer_norm", out, (x, gain, bias), bw)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d/dx of x * cdf(x), given the forward's normal CDF values."""
    phi = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return cdf + x * phi


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU; the backward reuses the forward's CDF."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = x * cdf

    def bw(g, needs):
        return (g * _gelu_grad(x, cdf),)

    return _apply("gelu", out, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    s = expit(a.data)

    def bw(g, needs):
        return (g * s * (1.0 - s),)

    return _apply("sigmoid", s, (a,), bw)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably; derivative is sigmoid(x)."""
    x = a.data
    out = np.logaddexp(np.zeros((), dtype=x.dtype), x)

    def bw(g, needs):
        return (g * expit(x),)

    return _apply("softplus", out, (a,), bw)


def _norm_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise DimensionError(f"axis {axis} out of range for ndim {ndim}")
    return axis % ndim


def tensor_mean(a: Tensor, axis: int | None = None) -> Tensor:
    ax = None if axis is None else _norm_axis(axis, a.ndim)
    n = a.data.size if ax is None else a.shape[ax]
    shape = a.shape

    def bw(g, needs):
        g = g / n
        return (np.broadcast_to(g if ax is None else np.expand_dims(g, ax), shape),)

    return _apply("mean", a.data.mean(axis=ax), (a,), bw)


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    ax = None if axis is None else _norm_axis(axis, a.ndim)
    shape = a.shape

    def bw(g, needs):
        return (np.broadcast_to(g if ax is None else np.expand_dims(g, ax), shape),)

    return _apply("sum", a.data.sum(axis=ax), (a,), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise DimensionError("concat of zero tensors")
    ax = _norm_axis(axis, tensors[0].ndim)
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != len(base) or other[:ax] + other[ax + 1:] != base[:ax] + base[ax + 1:]:
            raise DimensionError(
                f"concat shapes {tensors[0].shape} vs {t.shape} on axis {axis}")
    sizes = [t.shape[ax] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bw(g, needs):
        return tuple(np.split(g, offsets, axis=ax))

    out = np.concatenate([t.data for t in tensors], axis=ax)
    return _apply("concat", out, tuple(tensors), bw)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    if not tensors:
        raise DimensionError("stack of zero tensors")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise DimensionError(f"stack shapes differ: {shape} vs {t.shape}")

    def bw(g, needs):
        return tuple(g[i] for i in range(len(tensors)))

    out = np.stack([t.data for t in tensors], axis=0)
    return _apply("stack", out, tuple(tensors), bw)


def expand_leading(a: Tensor, n: int) -> Tensor:
    """Repeat a tensor ``n`` times along a new leading axis."""
    if n < 1:
        raise DimensionError(f"expand_leading needs n >= 1, got {n}")
    out = np.ascontiguousarray(np.broadcast_to(a.data, (n,) + a.shape))

    def bw(g, needs):
        return (g.sum(axis=0),)

    return _apply("expand_leading", out, (a,), bw)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along ``axis``."""
    ax = _norm_axis(axis, a.ndim)
    size = a.shape[ax]
    if not (0 <= start < stop <= size):
        raise DimensionError(
            f"slice [{start}:{stop}) out of range for axis {axis} of shape {a.shape}")
    index = (slice(None),) * ax + (slice(start, stop),)
    shape = a.shape

    def bw(g, needs):
        full = np.zeros(shape, dtype=g.dtype)
        full[index] = g
        return (full,)

    return _apply("slice_axis", a.data[index].copy(), (a,), bw)


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows along axis 0; ``indices`` may be any integer array.

    Output shape is ``indices.shape + a.shape[1:]``. The backward rule
    scatter-adds, so repeated indices accumulate.
    """
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise DimensionError("take_rows indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise DimensionError(
            f"take_rows indices out of range for leading dim {a.shape[0]}")
    shape = a.shape

    def bw(g, needs):
        full = np.zeros(shape, dtype=g.dtype)
        np.add.at(full, idx, g)
        return (full,)

    return _apply("take_rows", a.data[idx], (a,), bw)


# -- finite differences ---------------------------------------------------


def _scalar_value(v) -> float:
    if isinstance(v, Tensor):
        return v.item()
    return float(v)


def finite_diff_grad(f: Callable[[Tensor], "Tensor | float"], x: Tensor,
                     delta: float = 1e-5) -> Tensor:
    """Central-difference gradient of scalar ``f`` at ``x``.

    Independent oracle for the analytic backward rules: evaluates
    ``(f(x + d e_i) - f(x - d e_i)) / 2d`` per coordinate, outside any
    tape.
    """
    if delta <= 0:
        raise ContractError("finite_diff_grad delta must be positive")
    base = x.data
    out = np.zeros_like(base)
    flat = out.reshape(-1)
    with no_grad():
        for i in range(base.size):
            bump = np.zeros_like(base).reshape(-1)
            bump[i] = delta
            bump = bump.reshape(base.shape)
            fp = _scalar_value(f(Tensor(base + bump)))
            fm = _scalar_value(f(Tensor(base - bump)))
            flat[i] = (fp - fm) / (2.0 * delta)
    return Tensor(out)
