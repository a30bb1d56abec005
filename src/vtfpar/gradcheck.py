"""Finite-difference verification of every backward rule.

Each registered op kind has a case that builds random float64 inputs and
a fixed weighting of the op's output; the analytic gradient of the weighted
sum is compared against central differences. ``check_model`` does the same
end to end for sampled parameter coordinates. Every check compares whole
arrays by their largest relative error, and a NaN or inf gradient fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import SyntheticSpec, render_tracklet
from .errors import UsageError, VerificationError
from .fusion import FusionConfig
from .model import ENCODER_PREFIXES, ModelConfig, VideoAttributeModel
from .schema import AttributeGroup, AttributeSchema
from .tensor import (FD_STEP, OP_KINDS, Tape, Tensor, backward, concat, expand_leading,
                     finite_diff_grad, gelu, layer_norm, linear, matmul, add, mul,
                     no_grad, scale, sigmoid, slice_axis, softmax, softplus,
                     stack, take_rows, tensor_mean, tensor_sum, transpose, reshape)
from .text import TextConfig
from .train import bce_loss
from .vision import VitConfig

RTOL = 1e-4
# run_all's and the ``vtfpar gradcheck`` flags' defaults
OP_TRIALS = 100
MODEL_COORDS = 520
SEED = 0


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float
    checked: int
    passed: bool


def _max_rel_err(analytic, numeric) -> float:
    """Max of 0 and each ``|a - n| / max(|a|, |n|, 1e-6)``; NaN after a NaN or inf."""
    a, n = np.asarray(analytic), np.asarray(numeric)
    with np.errstate(all="ignore"):  # inf - inf and inf / inf give NaN, which np.max keeps
        err = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        return float(np.max(err, initial=0.0))


# op kind -> (case seed, input shapes, rng -> op); each row owns its seed,
# so adding or deleting a kind moves no other kind's draws; the rng draws
# the op's own constants, after the inputs
_CASES = {
    "matmul": (0, ((2, 3, 4), (4, 2)), lambda rng: matmul),
    "add": (1, ((3, 4), (4,)), lambda rng: add),
    "mul": (2, ((2, 3, 4), (3, 4)), lambda rng: mul),
    "scale": (3, ((3, 3),), lambda rng: partial(scale, c=float(rng.standard_normal()))),
    "transpose": (4, ((2, 3, 4),), lambda rng: partial(transpose, axes=(1, 2, 0))),
    "reshape": (5, ((3, 4),), lambda rng: partial(reshape, shape=(2, 6))),
    "softmax": (6, ((3, 5),), lambda rng: softmax),
    "layer_norm": (7, ((3, 6), (6,), (6,)), lambda rng: layer_norm),
    "gelu": (8, ((4, 4),), lambda rng: gelu),
    "sigmoid": (9, ((4, 4),), lambda rng: sigmoid),
    "softplus": (10, ((4, 4),), lambda rng: softplus),
    "mean": (11, ((3, 4),), lambda rng: partial(tensor_mean, axis=0)),
    "sum": (12, ((3, 4),), lambda rng: partial(tensor_sum, axis=1)),
    "concat": (13, ((2, 3), (4, 3)), lambda rng: lambda a, b: concat([a, b], axis=0)),
    "stack": (14, ((3, 2), (3, 2)), lambda rng: lambda a, b: stack([a, b])),
    "take_rows": (15, ((5, 3),),
                  lambda rng: partial(take_rows, indices=rng.integers(0, 5, size=(4,)))),
    "slice_axis": (16, ((4, 5),), lambda rng: partial(slice_axis, axis=1, start=1, stop=3)),
    "expand_leading": (17, ((2, 3),), lambda rng: partial(expand_leading, n=4)),
    "linear": (18, ((2, 3, 4), (4, 2), (2,)), lambda rng: linear),
}


def check_op(name: str, trials: int, seed: int = SEED) -> CheckResult:
    """Compare analytic and central-difference gradients over random trials."""
    if name not in _CASES:
        raise VerificationError(f"no gradcheck case for op kind {name!r}")
    case_seed, shapes, make_op = _CASES[name]
    rng = np.random.default_rng([seed, case_seed])
    analytic, numeric = [], []  # flat per input and trial; compared once, at the end
    for _ in range(trials):
        inputs = [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes]
        op = make_op(rng)  # the rng then draws the weighting
        with Tape():
            out = op(*inputs)
            # fixed random weighting makes the scalarization sensitive everywhere
            w = Tensor(rng.standard_normal(out.shape))
            backward(tensor_sum(mul(out, w)))
        w_data = w.data
        for pos, inp in enumerate(inputs):
            # ``mul``'s and ``tensor_sum``'s own numpy calls: bitwise, one dispatch
            def at(x, before=inputs[:pos], after=inputs[pos + 1:]):
                return float(np.add.reduce(op(*before, x, *after).data * w_data, axis=None))

            analytic.append(inp.grad.reshape(-1))
            numeric.append(finite_diff_grad(at, inp).data.reshape(-1))
    worst = _max_rel_err(np.concatenate(analytic), np.concatenate(numeric))
    return CheckResult(name, worst, sum(n.size for n in numeric), worst < RTOL)


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


def check_model(n_coords: int, seed: int = SEED) -> CheckResult:
    """End-to-end check: sampled parameter coordinates vs central differences.

    The analytic side runs the full pipeline (encoders unfrozen) on one
    tape, in float64 on a small synthetic batch. The numeric side bumps
    one coordinate at a time and recomputes only the stage that owns it:
    a ``vision.*`` coordinate re-runs ``visual_features_batch``, a
    ``text.*`` one ``text.encode``, and every other coordinate only
    ``fuse_classify`` and ``bce_loss``, over encoder features computed
    once, off-tape. The skipped stages would get the same inputs and
    parameters, so the numeric gradients are bitwise those of re-running
    the whole pipeline. A parameter read outside its stage would leave a
    bump's effect there out of the numeric side only, so it can cause a
    false failure but never a false pass.
    """
    model = _tiny_model()
    model.set_freeze(False)
    spec = SyntheticSpec(n_tracklets=2, frames_per_tracklet=2, height=12,
                         width=9, noise_sigma=0.05, occlusion_p=0.0, seed=seed)
    rendered = [render_tracklet(spec, model.schema, i) for i in range(2)]
    clips = np.stack([frames for frames, _ in rendered])
    targets = np.stack([labels for _, labels in rendered])
    # one encoder per ENCODER_PREFIXES entry, in its order
    encoders = (partial(model.visual_features_batch, clips), model.text.encode)

    def loss_of(visual: Tensor, text: Tensor) -> Tensor:
        return bce_loss(model.fuse_classify(visual, text), targets)

    coords = [(p.name, i) for p in model.params.trainable() for i in range(p.size)]
    if len(coords) > n_coords:
        picked = np.random.default_rng(seed).choice(len(coords), size=n_coords, replace=False)
        coords = [coords[i] for i in picked]

    with Tape():
        backward(loss_of(*(encode() for encode in encoders)))
    analytic = [model.params[name].grad.reshape(-1)[i] for name, i in coords]
    with no_grad():
        features = [encode() for encode in encoders]

    numeric = []
    for name, i in coords:
        p = model.params[name]
        original = p.data.copy()
        rerun = [name.startswith(prefix) for prefix in ENCODER_PREFIXES]

        def loss_with(value: float) -> float:
            bumped = original.copy()
            bumped.reshape(-1)[i] = value
            p.set_value(bumped)
            with no_grad():
                inputs = [encode() if again else cached
                          for encode, cached, again in zip(encoders, features, rerun)]
                return loss_of(*inputs).item()

        x0 = float(original.reshape(-1)[i])
        numeric.append((loss_with(x0 + FD_STEP) - loss_with(x0 - FD_STEP)) / (2 * FD_STEP))
        p.set_value(original)
    worst = _max_rel_err(analytic, numeric)
    return CheckResult("full_model", worst, len(coords), worst < RTOL)


@dataclass(frozen=True)
class GradCheckReport:
    results: tuple[CheckResult, ...]
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def run_all(op_trials: int = OP_TRIALS, model_coords: int = MODEL_COORDS,
            seed: int = SEED) -> GradCheckReport:
    if op_trials < 1 or model_coords < 1:
        raise UsageError(f"gradcheck counts must be >= 1, got {op_trials}, {model_coords}")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    start = time.monotonic()
    results = [check_op(name, trials=op_trials, seed=seed) for name in OP_KINDS]
    results.append(check_model(n_coords=model_coords, seed=seed))
    return GradCheckReport(tuple(results), time.monotonic() - start)
