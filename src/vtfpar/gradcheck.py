"""Finite-difference verification of every backward rule.

Each registered op kind has a case that builds random float64 inputs and
a scalar forward function; the analytic gradient from ``backward`` is
compared against central differences. A full end-to-end model check
perturbs sampled parameter coordinates through the entire pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import SyntheticSpec, render_tracklet
from .errors import VerificationError
from .fusion import FusionConfig
from .model import ModelConfig, VideoAttributeModel
from .schema import AttributeGroup, AttributeSchema
from .tensor import (OP_KINDS, Tape, Tensor, backward, concat, expand_leading,
                     finite_diff_grad, gelu, layer_norm, linear, matmul, add, mul,
                     no_grad, scale, sigmoid, slice_axis, softmax, softplus,
                     stack, take_rows, tensor_mean, tensor_sum, transpose, reshape)
from .text import TextConfig
from .train import bce_loss
from .vision import VitConfig

DELTA = 1e-5
RTOL = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float
    checked: int
    passed: bool


def _rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)


# op kind -> (input shapes, rng -> op); the rng draws the op's own
# constants, after the inputs
_CASES = {
    "matmul": (((2, 3, 4), (4, 2)), lambda rng: matmul),
    "add": (((3, 4), (4,)), lambda rng: add),
    "mul": (((2, 3, 4), (3, 4)), lambda rng: mul),
    "scale": (((3, 3),), lambda rng: partial(scale, c=float(rng.standard_normal()))),
    "transpose": (((2, 3, 4),), lambda rng: partial(transpose, axes=(1, 2, 0))),
    "reshape": (((3, 4),), lambda rng: partial(reshape, shape=(2, 6))),
    "softmax": (((3, 5),), lambda rng: partial(softmax, axis=-1)),
    "layer_norm": (((3, 6), (6,), (6,)), lambda rng: layer_norm),
    "gelu": (((4, 4),), lambda rng: gelu),
    "sigmoid": (((4, 4),), lambda rng: sigmoid),
    "softplus": (((4, 4),), lambda rng: softplus),
    "mean": (((3, 4),), lambda rng: partial(tensor_mean, axis=0)),
    "sum": (((3, 4),), lambda rng: partial(tensor_sum, axis=1)),
    "concat": (((2, 3), (4, 3)), lambda rng: lambda a, b: concat([a, b], axis=0)),
    "stack": (((3, 2), (3, 2)), lambda rng: lambda a, b: stack([a, b])),
    "take_rows": (((5, 3),),
                  lambda rng: partial(take_rows, indices=rng.integers(0, 5, size=(4,)))),
    "slice_axis": (((4, 5),), lambda rng: partial(slice_axis, axis=1, start=1, stop=3)),
    "expand_leading": (((2, 3),), lambda rng: partial(expand_leading, n=4)),
    "linear": (((2, 3, 4), (4, 2), (2,)), lambda rng: linear),
}


def _case(rng, name):
    """Random inputs plus a scalar-valued forward for one op kind."""
    if name not in _CASES:
        raise VerificationError(f"no gradcheck case for op kind {name!r}")
    shapes, make_op = _CASES[name]
    inputs = [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes]
    op = make_op(rng)
    with no_grad():
        out_shape = op(*inputs).shape
    # fixed random weighting makes the scalarization sensitive everywhere
    w = Tensor(rng.standard_normal(out_shape))
    return inputs, lambda *xs: tensor_sum(mul(op(*xs), w))


def check_op(name: str, trials: int = 100, seed: int = 0,
             delta: float = DELTA, rtol: float = RTOL) -> CheckResult:
    """Compare analytic and central-difference gradients over random trials."""
    # the op's position, not hash(name): string hashes change per process
    rng = np.random.default_rng([seed, OP_KINDS.index(name)])
    worst = 0.0
    checked = 0
    for _ in range(trials):
        inputs, forward = _case(rng, name)
        with Tape():
            loss = forward(*inputs)
            backward(loss)
        for pos, inp in enumerate(inputs):
            def at(x, pos=pos):
                return forward(*inputs[:pos], x, *inputs[pos + 1:])

            numeric = finite_diff_grad(at, inp, delta).data.reshape(-1)
            for a, n in zip(inp.grad.reshape(-1), numeric):
                worst = max(worst, _rel_err(float(a), float(n)))
            checked += numeric.size
    return CheckResult(name, worst, checked, worst < rtol)


def _tiny_schema() -> AttributeSchema:
    return AttributeSchema((
        AttributeGroup("shape", "exclusive", ("round", "square", "thin"),
                       ("shape_round", "shape_square", "shape_thin")),
        AttributeGroup("shade", "exclusive", ("dark", "light"),
                       ("shade_dark", "shade_light")),
        AttributeGroup("marked", "binary", ("marked",), ("marked",)),
    ))


def _tiny_model() -> VideoAttributeModel:
    config = ModelConfig(
        vit=VitConfig(image_size=16, patch_size=8, dim=16, depth=1, heads=2, mlp_ratio=2),
        text=TextConfig(dim=16, blocks=1, heads=2, max_len=8, mlp_ratio=2),
        fusion=FusionConfig(dim=16, heads=2, blocks=1, mlp_ratio=2),
    )
    return VideoAttributeModel(config, _tiny_schema(), seed=3, dtype=np.float64)


def check_model(n_coords: int = 520, seed: int = 0, delta: float = DELTA,
                rtol: float = RTOL) -> CheckResult:
    """End-to-end check: sampled parameter coordinates vs central differences.

    Runs the full pipeline (encoders unfrozen) in float64 on a small
    synthetic batch.
    """
    model = _tiny_model()
    model.set_freeze(False)
    schema = model.schema
    spec = SyntheticSpec(n_tracklets=2, frames_per_tracklet=2, height=12,
                         width=9, noise_sigma=0.05, occlusion_p=0.0, seed=seed)
    rendered = [render_tracklet(spec, schema, i) for i in range(2)]
    clips = np.stack([frames for frames, _, _ in rendered]).astype(np.float64)
    targets = np.stack([labels for _, labels, _ in rendered]).astype(np.float64)

    def loss_value() -> Tensor:
        logits = model.logits_batch(clips)
        return bce_loss(logits, targets)

    with Tape():
        loss = loss_value()
        backward(loss)
    grads = {p.name: p.tensor.grad.copy() for p in model.params.trainable()}

    coords = []
    for p in model.params.trainable():
        for i in range(p.tensor.size):
            coords.append((p.name, i))
    rng = np.random.default_rng(seed)
    if len(coords) > n_coords:
        picked = rng.choice(len(coords), size=n_coords, replace=False)
        coords = [coords[i] for i in picked]

    worst = 0.0
    for name, i in coords:
        p = model.params[name]
        original = p.data.copy()

        def loss_with(value: float) -> float:
            bumped = original.copy()
            bumped.reshape(-1)[i] = value
            p.set_value(bumped)
            with no_grad():
                out = loss_value().item()
            return out

        x0 = float(original.reshape(-1)[i])
        numeric = (loss_with(x0 + delta) - loss_with(x0 - delta)) / (2 * delta)
        p.set_value(original)
        worst = max(worst, _rel_err(float(grads[name].reshape(-1)[i]), numeric))
    return CheckResult("full_model", worst, len(coords), worst < rtol)


@dataclass(frozen=True)
class GradCheckReport:
    results: tuple[CheckResult, ...]
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def run_all(op_trials: int = 100, model_coords: int = 520,
            seed: int = 0) -> GradCheckReport:
    start = time.monotonic()
    results = [check_op(name, trials=op_trials, seed=seed) for name in OP_KINDS]
    results.append(check_model(n_coords=model_coords, seed=seed))
    return GradCheckReport(tuple(results), time.monotonic() - start)
