"""Gradient-check harness: coverage, thresholds, self-test via a
deliberately corrupted backward rule."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vtfpar.gradcheck as gradcheck_mod
import vtfpar.tensor as tensor_mod
from vtfpar.data import SyntheticSpec, render_tracklet
from vtfpar.gradcheck import (_CASES, DELTA, RTOL, CheckResult, check_model, check_op,
                              run_all)
from vtfpar.model import ENCODER_PREFIXES, VideoAttributeModel
from vtfpar.tensor import (OP_KINDS, Tape, Tensor, backward, finite_diff_grad, mul,
                           no_grad, tensor_sum)
from vtfpar.train import bce_loss


def test_every_op_kind_has_a_case():
    # one table row per op kind, no stale rows; each case must build and run
    assert set(_CASES) == set(OP_KINDS)
    for name in OP_KINDS:
        result = check_op(name, trials=1, seed=1)
        assert result.checked > 0


@pytest.mark.parametrize("name", OP_KINDS)
def test_op_gradients_verify(name):
    result = check_op(name, trials=3, seed=0)
    assert result.passed, f"{name}: max rel err {result.max_rel_err:.3e}"
    assert result.max_rel_err < 1e-4


def test_model_gradients_verify():
    result = check_model(n_coords=80, seed=0)
    assert result.passed, f"max rel err {result.max_rel_err:.3e}"


def _rel_err(analytic, numeric):
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)


def _sampled_coords(model, n_coords, seed):
    coords = [(p.name, i) for p in model.params.trainable() for i in range(p.size)]
    if len(coords) > n_coords:
        picked = np.random.default_rng(seed).choice(len(coords), size=n_coords,
                                                    replace=False)
        coords = [coords[i] for i in picked]
    return coords


def _full_pipeline_check_model(n_coords, seed):
    """Oracle: every bump re-runs the whole pipeline through ``logits_batch``."""
    model = gradcheck_mod._tiny_model()
    model.set_freeze(False)
    spec = SyntheticSpec(n_tracklets=2, frames_per_tracklet=2, height=12,
                         width=9, noise_sigma=0.05, occlusion_p=0.0, seed=seed)
    rendered = [render_tracklet(spec, model.schema, i) for i in range(2)]
    clips = np.stack([frames for frames, _, _ in rendered])
    targets = np.stack([labels for _, labels, _ in rendered])

    def loss_value():
        return bce_loss(model.logits_batch(clips), targets)

    with Tape():
        backward(loss_value())
    grads = {p.name: p.grad for p in model.params.trainable()}
    coords = _sampled_coords(model, n_coords, seed)
    worst = 0.0
    for name, i in coords:
        p = model.params[name]
        original = p.data.copy()

        def loss_with(value):
            bumped = original.copy()
            bumped.reshape(-1)[i] = value
            p.set_value(bumped)
            with no_grad():
                return loss_value().item()

        x0 = float(original.reshape(-1)[i])
        numeric = (loss_with(x0 + DELTA) - loss_with(x0 - DELTA)) / (2 * DELTA)
        p.set_value(original)
        worst = max(worst, _rel_err(float(grads[name].reshape(-1)[i]), numeric))
    return CheckResult("full_model", worst, len(coords), worst < RTOL)


@pytest.mark.parametrize("n_coords, seed", [(80, 0), (20, 2)])
def test_model_check_equals_full_pipeline_oracle(n_coords, seed):
    result = check_model(n_coords=n_coords, seed=seed)
    expected = _full_pipeline_check_model(n_coords, seed)
    assert result == expected
    assert result.max_rel_err.hex() == expected.max_rel_err.hex()


def _three_dispatch_check_op(name, trials, seed):
    """Oracle: each finite difference runs ``tensor_sum(mul(op(*xs), w))``
    through vtfpar, three op dispatches, as the tape side does."""
    case_seed, shapes, make_op = _CASES[name]
    rng = np.random.default_rng([seed, case_seed])
    worst, checked = 0.0, 0
    for _ in range(trials):
        inputs, op = gradcheck_mod._case(rng, shapes, make_op)
        with Tape():
            out = op(*inputs)
            w = Tensor(rng.standard_normal(out.shape))
            backward(tensor_sum(mul(out, w)))

        def forward(*xs):
            return tensor_sum(mul(op(*xs), w))

        for pos, inp in enumerate(inputs):
            def at(x, pos=pos):
                return forward(*inputs[:pos], x, *inputs[pos + 1:])

            numeric = finite_diff_grad(at, inp, DELTA).data.reshape(-1)
            for a, n in zip(inp.grad.reshape(-1), numeric):
                worst = max(worst, _rel_err(float(a), float(n)))
            checked += numeric.size
    return CheckResult(name, worst, checked, worst < RTOL)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", OP_KINDS)
def test_check_op_equals_three_dispatch_oracle(name, seed):
    result = check_op(name, trials=2, seed=seed)
    expected = _three_dispatch_check_op(name, 2, seed)
    assert result == expected
    assert result.max_rel_err.hex() == expected.max_rel_err.hex()


def test_bump_reruns_only_the_encoder_that_owns_it(monkeypatch):
    start = {}  # parameter values at the first encoder call, before any bump
    moved = {prefix: [] for prefix in ENCODER_PREFIXES}  # per call: bumped names

    def counting(prefix, method):
        def wrapper(self, *args):
            if not start:
                start.update((p.name, p.data.copy()) for p in self.params)
            moved[prefix].append([p.name for p in self.params
                                  if not np.array_equal(p.data, start[p.name])])
            return method(self, *args)
        return wrapper

    for prefix, attr in zip(ENCODER_PREFIXES, ("visual_features_batch", "text_features")):
        monkeypatch.setattr(VideoAttributeModel, attr,
                            counting(prefix, getattr(VideoAttributeModel, attr)))
    n_coords, seed = 80, 0
    check_model(n_coords=n_coords, seed=seed)
    model = gradcheck_mod._tiny_model()
    model.set_freeze(False)
    coords = _sampled_coords(model, n_coords, seed)
    for prefix, calls in moved.items():
        owned = sum(name.startswith(prefix) for name, _ in coords)
        assert owned > 0
        # one tape pass and one off-tape pass, then two calls per owned bump
        assert [names for names in calls if not names] == [[], []]
        bumped = [names for names in calls if names]
        assert len(bumped) == 2 * owned
        assert all(len(names) == 1 and names[0].startswith(prefix) for names in bumped)


def test_corrupted_backward_rule_is_caught(monkeypatch):
    # harness self-test: break the gelu derivative and expect a failure
    monkeypatch.setattr(tensor_mod, "_gelu_grad", lambda x, cdf: np.ones_like(x))
    result = check_op("gelu", trials=2, seed=0)
    assert not result.passed


# a poisoned weighting ``mul`` or ``sum`` sums inf and -inf on the tape
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", OP_KINDS)
def test_non_finite_backward_rule_is_caught(name, bad, monkeypatch):
    # every gradient the op's backward returns becomes NaN or inf
    real_apply = tensor_mod._apply

    def poisoned_apply(op, out_data, inputs, backward_fn):
        if op == name:
            def bad_backward(g, needs):
                return [None if gi is None else np.full_like(gi, bad)
                        for gi in backward_fn(g, needs)]
            return real_apply(op, out_data, inputs, bad_backward)
        return real_apply(op, out_data, inputs, backward_fn)

    monkeypatch.setattr(tensor_mod, "_apply", poisoned_apply)
    result = check_op(name, trials=1, seed=0)
    assert not result.passed
    assert math.isnan(result.max_rel_err)


def test_nan_model_gradient_is_caught(monkeypatch):
    monkeypatch.setattr(tensor_mod, "_gelu_grad", lambda x, cdf: np.full_like(x, np.nan))
    result = check_model(n_coords=20, seed=0)
    assert not result.passed
    assert math.isnan(result.max_rel_err)


def test_run_all_reports_every_kind_plus_model():
    report = run_all(op_trials=1, model_coords=20, seed=2)
    names = [r.name for r in report.results]
    assert names == list(OP_KINDS) + ["full_model"]
    assert report.passed
    assert report.elapsed_s > 0


def test_check_op_same_in_every_process():
    # string hashing changes with PYTHONHASHSEED; the op seeds must not
    code = "from vtfpar.gradcheck import check_op; print(check_op('mul', trials=2))"
    path = [str(Path(tensor_mod.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")]
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert "CheckResult(name='mul'" in outs[0]


# SHA-256 prefix of each kind's first-trial inputs at seed 0. They are pure
# RNG draws, so the same on every machine; each kind owns its case seed, so
# adding or deleting a kind leaves every other row here unchanged.
FIRST_INPUTS_SHA256 = {
    "matmul": "d4382c3f4ea2cba2",
    "add": "81c79c559726f65e",
    "mul": "1b3eeb6f1a09c806",
    "scale": "ce3aa13807925130",
    "transpose": "f475cf1a6c259907",
    "reshape": "82b7f8312601dc71",
    "softmax": "5346ff962a3a2934",
    "layer_norm": "6bb02906f4a4e64f",
    "gelu": "3e31c91bdbe7f3bf",
    "sigmoid": "727d6000a6fa7387",
    "softplus": "e7bd7e67880c2cdd",
    "mean": "705b5b20345464fd",
    "sum": "6306a81c58b81d80",
    "concat": "2a30e1a188dd239a",
    "stack": "748b46de49154a7b",
    "take_rows": "aeb343671fd7833d",
    "slice_axis": "aa9975f0e874964a",
    "expand_leading": "4b6f7bd104af1e55",
    "linear": "28b20b23ec5c7944",
}


def test_case_seeds_pinned(monkeypatch):
    digests = []
    real_case = gradcheck_mod._case

    def recording_case(*args):
        inputs, op = real_case(*args)
        data = b"".join(t.data.tobytes() for t in inputs)
        digests.append(hashlib.sha256(data).hexdigest()[:16])
        return inputs, op

    monkeypatch.setattr(gradcheck_mod, "_case", recording_case)
    for name in FIRST_INPUTS_SHA256:
        check_op(name, trials=1, seed=0)
    assert dict(zip(FIRST_INPUTS_SHA256, digests)) == FIRST_INPUTS_SHA256
