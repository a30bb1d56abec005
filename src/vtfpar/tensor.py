"""Dense tensor arithmetic with reverse-mode automatic differentiation.

Ops run eagerly on numpy arrays. While a ``Tape`` is active (``with
Tape():``), every op touching a tracked tensor appends a node holding its
inputs' refs and a backward closure. A ref is an earlier node's id, a
``requires_grad`` leaf tensor or None: leaves are referenced, not
recorded, so a tape holds op nodes only, in a valid topological order.
``backward`` sweeps the nodes once in reverse, dropping each node's
backward closure, and with it the arrays the forward saved for it, as it
passes, so a step's activations are freed during the sweep rather than
by the cyclic garbage collector; it then adds each reached leaf's summed
gradient to its ``grad``. A second ``backward`` over a swept tape is a
``UsageError``. A tensor's array is never written in place; a
parameter (``params.Parameter``, a named leaf tensor) gets a new array
between tapes, and the old one is freed then. The one exception is
``finite_diff_grad``'s private buffer, rewritten between calls of ``f``.
An op wraps the float array it builds as it is, with no conversion
calls, and under ``no_grad`` records nothing.

Broadcasting is deliberately narrow: every op aligns shapes by suffix
(elementwise ops whole shapes, matmul its leading batch dims), so only
missing leading dims broadcast and a size-1 dim never stretches. Anything
else needs an explicit reshape, which keeps every backward rule
auditable. ``linear`` (every ``Linear`` layer) sees its input as
one flat list of rows: its forward and its input and weight gradients are
each one GEMM over all rows, so its results do not depend on how the rows
are grouped into batch items.

Everything here is numpy. Default dtype is float32; gradient
verification constructs float64 tensors for headroom.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import UsageError

DEFAULT_DTYPE = np.float32
LAYER_NORM_EPS = 1e-5

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
_OP_KIND_SET = frozenset(OP_KINDS)
# np.dtype instances: comparing against scalar types converts them per call;
# a set hashes, where a tuple compares float64 against float32 first
_FLOAT_DTYPES = frozenset((np.dtype(np.float32), np.dtype(np.float64)))


class Tensor:
    """Dense row-major array, optionally tracked on the active tape.

    Tensors are value-semantic: ops never mutate their inputs, and no
    array but ``finite_diff_grad``'s private buffer is written in place;
    only a parameter's ``data`` is replaced, between tapes. ``grad`` is
    filled by ``backward`` for watched leaves only.
    """

    __slots__ = ("data", "grad", "requires_grad", "tape", "node_id")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        # an op's float ndarray is kept as it is, with no conversion calls
        if dtype is None and type(data) is np.ndarray and data.dtype in _FLOAT_DTYPES:
            arr = data
        else:
            arr = np.asarray(data)
            if dtype is not None:
                arr = arr.astype(dtype, copy=False)
            elif arr.dtype not in _FLOAT_DTYPES:
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
            raise UsageError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


class _Node:
    __slots__ = ("inputs", "backward_fn", "needs")

    def __init__(self, inputs, backward_fn, needs):
        self.inputs = inputs  # per input: node id, leaf tensor or None
        self.backward_fn = backward_fn
        self.needs = needs


class _TapeStack(threading.local):
    """Per-thread stack of active tapes; tapes never cross threads."""

    def __init__(self):
        self.entries: list["Tape | None"] = []


_TAPE_STACK = _TapeStack()


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


class no_grad:
    """Context that suppresses tape recording (used by oracles and eval)."""

    def __enter__(self):
        _TAPE_STACK.entries.append(None)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.entries.pop()


def _apply(op: str, out_data: np.ndarray, inputs: Sequence[Tensor],
           backward_fn: Callable) -> Tensor:
    assert op in _OP_KIND_SET, f"unregistered op kind {op!r}"
    out = Tensor(out_data)
    entries = _TAPE_STACK.entries
    tape = entries[-1] if entries else None
    if tape is None:
        return out
    refs = tuple(t.node_id if t.tape is tape else t if t.requires_grad else None
                 for t in inputs)
    needs = tuple(r is not None for r in refs)
    if not any(needs):
        return out
    out.tape, out.node_id = tape, len(tape.nodes)
    tape.nodes.append(_Node(refs, backward_fn, needs))
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every trainable leaf reachable from ``loss``.

    ``loss`` must be scalar and tape-recorded, on a tape not yet swept.
    Each tape node is visited exactly once, in reverse creation order, and
    its backward closure is released there; untracked (frozen/constant)
    inputs receive no gradient.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.tape is None or loss.node_id is None:
        raise UsageError("loss is not recorded on a tape")
    tape = loss.tape
    if tape.swept:
        raise UsageError("backward over a tape that was already swept")
    tape.swept = True
    # keyed by node id, or by the leaf tensor itself (hashed by identity)
    grads: dict = {loss.node_id: np.ones_like(loss.data)}
    for node_id in range(loss.node_id, -1, -1):
        node = tape.nodes[node_id]
        backward_fn, node.backward_fn = node.backward_fn, None
        g = grads.pop(node_id, None)
        if g is None:
            continue
        for ref, gi in zip(node.inputs, backward_fn(g, node.needs)):
            if ref is None or gi is None:
                continue
            if ref in grads:
                grads[ref] = grads[ref] + gi
            else:
                grads[ref] = gi
    for leaf, g in grads.items():
        leaf.grad = g if leaf.grad is None else leaf.grad + g


# -- shape helpers -------------------------------------------------------


def _check_suffix(a_shape, b_shape, op: str) -> None:
    if a_shape == b_shape:
        return
    n = min(len(a_shape), len(b_shape))
    if a_shape[len(a_shape) - n:] != b_shape[len(b_shape) - n:]:
        raise UsageError(
            f"{op}: shape {a_shape} does not suffix-align with {b_shape}")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (undo leading-dim broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g


# -- ops -----------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; the leading batch dims align by suffix."""
    a_data, b_data = a.data, b.data
    a_shape, b_shape = a_data.shape, b_data.shape
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise UsageError(f"matmul needs matrices, got {a_shape} @ {b_shape}")
    if a_shape[-1] != b_shape[-2]:
        raise UsageError(f"matmul inner dims disagree: {a_shape} @ {b_shape}")
    _check_suffix(a_shape[:-2], b_shape[:-2], "matmul batch dims")
    out = np.matmul(a_data, b_data)

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

    ``x`` is flattened to (rows, k) once, and the forward is one GEMM over
    those rows with the bias added in place. The backward reuses that
    flattened view: ``gx = g @ w^T`` and ``gw = x^T @ g`` are each one GEMM
    over all rows, and ``gb`` is the column sum of ``g``. So a ``linear``'s
    gradients depend only on its rows, not on how the rows are grouped
    into batch items: (6, 17, k) and the same rows as (102, k) give
    bitwise-equal results. They agree with ``add(matmul(x, w), b)`` to
    rounding, not bitwise, because that form sums the weight gradient per
    batch item.
    """
    x_shape, w_data = x.data.shape, w.data
    if len(x_shape) < 2 or w_data.ndim != 2:
        raise UsageError(
            f"linear needs x (..., k) and w (k, n), got {x_shape}, {w_data.shape}")
    k, n = w_data.shape
    if x_shape[-1] != k or b.data.shape != (n,):
        raise UsageError(
            f"linear shapes disagree: x {x_shape}, w {w_data.shape}, b {b.data.shape}")
    x2 = x.data.reshape(-1, k)
    out = np.matmul(x2, w_data)
    out += b.data

    def bw(g, needs):
        g2 = g.reshape(-1, n)
        gx = gw = gb = None
        if needs[0]:
            gx = np.matmul(g2, w_data.T).reshape(x_shape)
        if needs[1]:
            gw = np.matmul(x2.T, g2)
        if needs[2]:
            gb = g2.sum(axis=0)
        return gx, gw, gb

    return _apply("linear", out.reshape(x_shape[:-1] + (n,)), (x, w, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.data.shape, b.data.shape
    _check_suffix(a_shape, b_shape, "add")

    def bw(g, needs):
        return (_reduce_to(g, a_shape) if needs[0] else None,
                _reduce_to(g, b_shape) if needs[1] else None)

    return _apply("add", a.data + b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product (suffix-aligned broadcast only)."""
    a_data, b_data = a.data, b.data
    _check_suffix(a_data.shape, b_data.shape, "mul")

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


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Permute axes: output axis i is input axis ``axes[i]``.

    ``axes`` is a permutation of 0 .. ndim - 1; numpy checks the length,
    range and repeats, and a negative axis, which numpy would accept, is
    rejected here.
    """
    axes = tuple(axes)
    try:
        out = a.data.transpose(axes)
    except (ValueError, TypeError):
        out = None
    if out is None or (axes and min(axes) < 0):
        raise UsageError(f"transpose axes {axes} invalid for shape {a.data.shape}")

    def bw(g, needs):
        return (g.transpose(np.argsort(axes)),)

    return _apply("transpose", out, (a,), bw)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    """Same elements in a new shape, given as integer sizes; one may be -1."""
    old_shape = a.data.shape
    try:
        out = a.data.reshape(shape)
        if min(shape, default=0) < -1:  # numpy reads any negative size as -1
            raise ValueError
    except (ValueError, TypeError):
        raise UsageError(f"cannot reshape {old_shape} to {shape}") from None

    def bw(g, needs):
        return (g.reshape(old_shape),)

    return _apply("reshape", out, (a,), bw)


def softmax(a: Tensor) -> Tensor:
    """Stable softmax (max-subtraction) over the last axis: each row sums to 1."""
    s = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def bw(g, needs):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - inner),)

    return _apply("softmax", s, (a,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then scale and shift.

    Uses population variance with ``LAYER_NORM_EPS`` inside the square
    root. The last axis must have length >= 2.
    """
    d = x.data.shape[-1]
    if d < 2:
        raise UsageError(f"layer_norm needs last dim >= 2, got shape {x.data.shape}")
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise UsageError(f"layer_norm gain/bias must have shape ({d},), "
                         f"got {gain.data.shape}/{bias.data.shape}")
    # np.add.reduce(...) / d is the sum and division np.mean makes, without
    # its Python wrapper
    xn = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(np.square(xn), axis=-1, keepdims=True) / d
                        + LAYER_NORM_EPS)
    xn *= inv
    out = xn * gain.data + bias.data
    gain_data = gain.data

    def bw(g, needs):
        gx = ggain = gbias = None
        if needs[0]:
            gxn = g * gain_data
            m1 = np.add.reduce(gxn, axis=-1, keepdims=True) / d
            m2 = np.add.reduce(gxn * xn, axis=-1, keepdims=True) / d
            gx = inv * (gxn - m1 - xn * m2)
        if needs[1]:
            ggain = _reduce_to(g * xn, gain_data.shape)
        if needs[2]:
            gbias = _reduce_to(g, gain_data.shape)
        return gx, ggain, gbias

    return _apply("layer_norm", out, (x, gain, bias), bw)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
# Beyond |x| = 10, tanh(_GELU_C * x * (1 + _GELU_A * x * x)) is exactly
# +-1 in float32 and float64, so clipping x there changes no value and
# keeps the cubic from overflowing.
_GELU_CLIP = 10.0


def _gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d/dx of x * cdf(x), given the forward's CDF.

    With cdf = (1 + tanh u) / 2, this is cdf * (1 + 2 (1 - cdf) x du/dx),
    and x du/dx = c x (1 + 3 a x^2) is taken at x clipped to
    ``_GELU_CLIP``. On the tails beyond it ``cdf`` or ``1 - cdf`` is
    exactly 0 and the clipped cubic is bounded, so the result is finite for
    every finite input.
    """
    xc = np.clip(x, -_GELU_CLIP, _GELU_CLIP)
    d = xc * xc
    d *= 6.0 * _GELU_C * _GELU_A
    d += 2.0 * _GELU_C
    d *= xc
    np.subtract(1.0, cdf, out=xc)
    d *= xc
    d += 1.0
    d *= cdf
    return d


def gelu(a: Tensor) -> Tensor:
    """GELU in its tanh form, x (1 + tanh(c (x + a x^3))) / 2 with
    c = sqrt(2/pi), a = 0.044715 (Hendrycks & Gimpel, arXiv 1606.08415).

    It is within 5e-4 of the exact erf form and much cheaper: on a 2-vCPU
    Xeon, a library ``erf`` took about 20 ns per element in float32 and
    float64, ``np.tanh`` 0.3 ns (float32) and 1.6 ns (float64). CLIP's
    own encoders use an approximate GELU too (QuickGELU, Radford et al.,
    arXiv 2103.00020). The backward reuses the forward's tanh through
    ``cdf = (1 + tanh u) / 2``.
    """
    x = a.data
    out = np.clip(x, -_GELU_CLIP, _GELU_CLIP)
    cdf = out * out
    cdf *= _GELU_C * _GELU_A
    cdf += _GELU_C
    cdf *= out
    np.tanh(cdf, out=cdf)
    cdf *= 0.5
    cdf += 0.5
    np.multiply(x, cdf, out=out)

    def bw(g, needs):
        d = _gelu_grad(x, cdf)
        d *= g
        return (d,)

    return _apply("gelu", out, (a,), bw)


def _logistic(x: np.ndarray) -> np.ndarray:
    """The logistic ``1 / (1 + exp(-x))`` in the dtype of ``x``.

    Only -|x| is exponentiated, so nothing overflows: with e = exp(-|x|),
    it is ``1 / (1 + e)`` for x >= 0 and ``e / (1 + e)`` below. For large
    |x|, e underflowing to a subnormal or to 0 gives the right limit, so
    that underflow is not reported even under ``np.errstate(all='raise')``.
    float32 inputs are evaluated in float64 and rounded once.
    """
    x64 = x.astype(np.float64, copy=False)
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(x64))
        s = np.where(x64 >= 0, 1.0, e) / (1.0 + e)
        return s.astype(x.dtype, copy=False)


def sigmoid(a: Tensor) -> Tensor:
    s = _logistic(a.data)

    def bw(g, needs):
        return (g * s * (1.0 - s),)

    return _apply("sigmoid", s, (a,), bw)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably; derivative is sigmoid(x).

    Far below 0 the value underflows to a subnormal or to 0, its limit,
    and that is not reported as a floating-point error.
    """
    x = a.data
    with np.errstate(under="ignore"):
        out = np.logaddexp(np.zeros((), dtype=x.dtype), x)

    def bw(g, needs):
        return (g * _logistic(x),)

    return _apply("softplus", out, (a,), bw)


def _norm_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise UsageError(f"axis {axis} out of range for ndim {ndim}")
    return axis % ndim


def tensor_mean(a: Tensor, axis: int | None = None) -> Tensor:
    shape = a.data.shape
    ax = None if axis is None else _norm_axis(axis, len(shape))
    n = a.data.size if ax is None else shape[ax]

    def bw(g, needs):
        g = g / n
        return (np.broadcast_to(g if ax is None else np.expand_dims(g, ax), shape),)

    return _apply("mean", np.add.reduce(a.data, axis=ax) / n, (a,), bw)


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    shape = a.data.shape
    ax = None if axis is None else _norm_axis(axis, len(shape))

    def bw(g, needs):
        return (np.broadcast_to(g if ax is None else np.expand_dims(g, ax), shape),)

    return _apply("sum", np.add.reduce(a.data, axis=ax), (a,), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise UsageError("concat of zero tensors")
    ax = _norm_axis(axis, tensors[0].data.ndim)
    # numpy checks that the ranks and every size off ``ax`` agree
    try:
        out = np.concatenate([t.data for t in tensors], axis=ax)
    except ValueError:
        raise UsageError(f"concat shapes {[t.data.shape for t in tensors]} "
                         f"disagree off axis {axis}") from None
    sizes = [t.data.shape[ax] for t in tensors]

    def bw(g, needs):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=ax))

    return _apply("concat", out, tuple(tensors), bw)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    if not tensors:
        raise UsageError("stack of zero tensors")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise UsageError(f"stack shapes differ: {shape} vs {t.shape}")

    def bw(g, needs):
        return tuple(g[i] for i in range(len(tensors)))

    out = np.stack([t.data for t in tensors], axis=0)
    return _apply("stack", out, tuple(tensors), bw)


def expand_leading(a: Tensor, n: int) -> Tensor:
    """Repeat a tensor ``n`` times along a new leading axis."""
    if n < 1:
        raise UsageError(f"expand_leading needs n >= 1, got {n}")
    out = np.empty((n,) + a.data.shape, dtype=a.data.dtype)
    out[...] = a.data

    def bw(g, needs):
        return (g.sum(axis=0),)

    return _apply("expand_leading", out, (a,), bw)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along ``axis``."""
    ax = _norm_axis(axis, a.ndim)
    size = a.shape[ax]
    if not (0 <= start < stop <= size):
        raise UsageError(
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
    if idx.dtype.kind not in "iu":  # numpy's signed and unsigned integers
        raise UsageError("take_rows indices must be integers")
    shape = a.data.shape
    if idx.size and (idx.min() < 0 or idx.max() >= shape[0]):
        raise UsageError(
            f"take_rows indices out of range for leading dim {shape[0]}")

    def bw(g, needs):
        full = np.zeros(shape, dtype=g.dtype)
        np.add.at(full, idx, g)
        return (full,)

    return _apply("take_rows", a.data[idx], (a,), bw)


# -- finite differences ---------------------------------------------------


# the central-difference step d, the acceptance spec's delta
FD_STEP = 1e-5


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor) -> Tensor:
    """Central-difference gradient of the float-valued ``f`` at ``x``.

    Independent oracle for the analytic backward rules: evaluates
    ``(f(x + d e_i) - f(x - d e_i)) / 2d`` per coordinate, ``d = FD_STEP``,
    outside any tape. ``f`` returns a Python float (``np.float64`` is one), for
    example ``tensor_sum(...).item()``; anything else is a
    ``UsageError``. It is called on one tensor over a private copy of
    ``x``, bumped in place and restored around each coordinate's two
    calls, so ``f`` must not keep its argument (or a view of it) between
    calls. ``x`` itself is not written.
    """
    buf = x.data.copy()  # C order, so its and ``out``'s flat reshapes are views
    flat = buf.reshape(-1)
    out = np.zeros_like(buf)
    out_flat = out.reshape(-1)
    bumped = Tensor(buf)
    two_delta = 2.0 * FD_STEP
    with no_grad():
        for i in range(flat.size):
            value = flat[i]
            flat[i] = value + FD_STEP
            up = f(bumped)
            flat[i] = value - FD_STEP
            down = f(bumped)
            flat[i] = value
            if not isinstance(up, float):
                raise UsageError(
                    f"finite_diff_grad needs f to return a float, got {type(up).__name__}")
            out_flat[i] = (up - down) / two_delta
    return Tensor(out)
