"""Loss, optimizer, freeze policy, and the training loop."""

import gc
import importlib
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from vtfpar.data import SyntheticSpec, Tracklet, render_tracklet
from vtfpar.errors import UsageError, VerificationError
from vtfpar.fusion import FusionConfig
from vtfpar.model import ModelConfig, VideoAttributeModel
from vtfpar.params import ParameterSet, read_checkpoint_arrays
from vtfpar.schema import AttributeGroup, AttributeSchema, default_schema
from vtfpar.tensor import (Tape, Tensor, add, backward, mul, scale, sigmoid, softplus,
                           tensor_mean)
from vtfpar.text import TextConfig
from vtfpar.train import (Adam, TrainConfig, bce_loss, evaluate,
                          sample_frame_indices, train)
from vtfpar.vision import VisionEncoder, VitConfig
from tests.blas import assert_equal_on_skylakex

# the modules, not the package's ``train`` function of the same name
train_mod = importlib.import_module("vtfpar.train")
tensor_mod = importlib.import_module("vtfpar.tensor")

LN2 = math.log(2.0)


class TestBceLoss:
    def test_zero_logit_gives_ln2(self):
        for y in (0.0, 1.0):
            loss = bce_loss(Tensor([[0.0]]), np.array([[y]]))
            assert loss.item() == pytest.approx(LN2, rel=1e-6)

    def test_saturated_positive(self):
        loss = bce_loss(Tensor([[20.0]], dtype=np.float64), np.array([[1.0]]))
        assert loss.item() < 1e-8

    def test_hand_mean_of_two_terms(self):
        loss = bce_loss(Tensor([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert loss.item() == pytest.approx(LN2, rel=1e-6)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = Tensor(rng.normal(0, 5, (3, 4)))
            y = (rng.random((3, 4)) < 0.5).astype(np.float64)
            assert bce_loss(z, y).item() >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(UsageError,
                           match=r"bce_loss shapes differ: logits \(2, 3\), targets \(3, 2\)"):
            bce_loss(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_negated_product_form(self, dtype):
        # z * (-y) is -(z * y) exactly, signed zeros included, so the loss
        # and its logit gradient equal those of softplus(z) + scale(z * y, -1)
        rng = np.random.default_rng(3)
        z0 = rng.normal(0, 4, (4, 6)).astype(dtype)
        z0[0, :4] = (0.0, -0.0, 0.0, -0.0)
        y = (rng.random((4, 6)) < 0.5).astype(dtype)
        y[0, :4] = (0.0, 0.0, 1.0, 1.0)
        y[1] = 0.0

        def run(loss_fn):
            z = Tensor(z0, requires_grad=True)
            with Tape():
                loss = loss_fn(z)
                backward(loss)
            return loss.data, z.grad

        ours = run(lambda z: bce_loss(z, y))
        scaled = run(lambda z: tensor_mean(add(softplus(z), scale(mul(z, Tensor(y)), -1.0))))
        for a, b in zip(ours, scaled):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()

    def test_targets_must_be_binary(self):
        with pytest.raises(UsageError, match="bce_loss targets must be 0/1"):
            bce_loss(Tensor(np.zeros((1, 2))), np.array([[0.5, 0.0]]))

    def test_gradient_is_sigmoid_minus_target(self):
        rng = np.random.default_rng(1)
        z = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        y = (rng.random((4, 5)) < 0.5).astype(np.float64)
        with Tape():
            backward(bce_loss(z, y))
        expected = (sigmoid(Tensor(z.data)).data - y) / y.size
        npt.assert_allclose(z.grad, expected, atol=1e-6)


class TestAdam:
    def _pset(self, values):
        params = ParameterSet(np.float64)
        p = params.add("w", np.asarray(values, dtype=np.float64))
        return params, p

    def test_zero_grad_zero_decay_leaves_parameter(self):
        params, p = self._pset([1.0, -2.0])
        p.grad = np.zeros(2)
        before = p.data.copy()
        Adam(params, lr=0.01, weight_decay=0.0).step()
        npt.assert_array_equal(p.data, before)

    def test_first_step_magnitude_is_lr(self):
        # bias correction cancels: update = lr * g / (|g| + eps)
        params, p = self._pset([0.0, 0.0, 0.0])
        g = np.array([0.5, -3.0, 1e-3])
        p.grad = g.copy()
        Adam(params, lr=0.001, weight_decay=0.0).step()
        npt.assert_allclose(p.data, -0.001 * np.sign(g), rtol=1e-4)

    def test_decoupled_weight_decay_applied_before_update(self):
        params, p = self._pset([2.0])
        p.grad = np.zeros(1)
        Adam(params, lr=0.1, weight_decay=0.5).step()
        assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))

    def test_three_steps_with_decay_match_formula_bitwise(self):
        # float32, in the formula's operation order; the moments are
        # updated in place. Values start near 0, of the updates' size, so
        # that an update rounded differently shows in the value.
        # with a weight decay of 0 the formula has no decay factor
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        for wd in (0.1, 0.0):
            rng = np.random.default_rng(5)
            params = ParameterSet()
            p = params.add("w", 0.01 * rng.standard_normal((8, 16)))
            opt = Adam(params, lr=lr, weight_decay=wd)
            value = p.data.copy()
            m = np.zeros_like(value)
            v = np.zeros_like(value)
            for t in (1, 2, 3):
                g = rng.standard_normal((8, 16)).astype(np.float32)
                p.grad = g
                opt.step()
                if t == 1:
                    m_state, v_state = opt.state["w"]
                if wd:
                    value = value * (1.0 - lr * wd)
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g * g
                m_hat = m / (1.0 - b1 ** t)
                v_hat = v / (1.0 - b2 ** t)
                value = value - lr * m_hat / (np.sqrt(v_hat) + eps)
                assert p.data.dtype == value.dtype == np.float32
                npt.assert_array_equal(p.data, value)
                npt.assert_array_equal(m_state, m)
                npt.assert_array_equal(v_state, v)
                assert opt.state["w"][0] is m_state and opt.state["w"][1] is v_state

    def test_missing_gradient_raises(self):
        params, _ = self._pset([1.0])
        with pytest.raises(UsageError, match="w"):
            Adam(params, lr=0.001, weight_decay=0.0).step()

    def test_frozen_parameters_never_in_state(self):
        params = ParameterSet()
        params.add("frozen", np.ones(2)).requires_grad = False
        live = params.add("live", np.ones(2))
        live.grad = np.ones(2)
        opt = Adam(params, lr=0.001, weight_decay=0.0)
        opt.step()
        assert set(opt.state) == {"live"}

    def test_step_clears_every_trainable_gradient(self):
        # the next step's gradients never accumulate onto this step's
        schema = _tiny_schema()
        model = _tiny_model(schema)
        model.set_freeze(False)
        clips = np.stack([t.frames for t in _tiny_tracklets(schema, n=2)])
        targets = np.array([[1, 0, 1], [0, 1, 0]])
        with Tape():
            backward(bce_loss(model.logits_batch(clips), targets))
        trainable = model.params.trainable()
        assert len(trainable) == len(model.params)
        assert all(p.grad is not None for p in trainable)
        Adam(model.params, lr=0.001, weight_decay=1e-4).step()
        assert [p.name for p in trainable if p.grad is not None] == []

    def test_step_replaces_arrays_and_frees_the_old_ones_at_once(self):
        # a step keeps each Parameter object and its dtype, never writes
        # the old array, and drops the last reference to the old array and
        # to the gradient, so nothing waits for the cyclic collector
        schema = _tiny_schema()
        model = _tiny_model(schema)
        model.set_freeze(False)
        clips = np.stack([t.frames for t in _tiny_tracklets(schema, n=2)])
        targets = np.array([[1, 0, 1], [0, 1, 0]])
        opt = Adam(model.params, lr=0.001, weight_decay=1e-4)
        trainable = model.params.trainable()

        def backward_step():
            with Tape():
                backward(bce_loss(model.logits_batch(clips), targets))

        backward_step()
        before = [(p.data, p.data.copy()) for p in trainable]
        opt.step()
        for p, (old, copy) in zip(trainable, before):
            assert model.params[p.name] is p
            assert p.grad is None and p.dtype == np.float32, p.name
            assert p.data is not old, p.name
            npt.assert_array_equal(old, copy, err_msg=p.name)

        gc.disable()
        try:
            backward_step()
            refs = [(p.name, weakref.ref(p.data), weakref.ref(p.grad)) for p in trainable]
            opt.step()
            alive = [name for name, data, grad in refs
                     if data() is not None or grad() is not None]
            assert alive == []
        finally:
            gc.enable()

def _tiny_schema():
    return AttributeSchema((
        AttributeGroup("shape", "exclusive", ("round", "square"),
                       ("shape_round", "shape_square")),
        AttributeGroup("marked", "binary", ("marked",), ("marked",)),
    ))


def _tiny_model(schema, seed=0):
    config = ModelConfig(
        vit=VitConfig(image_size=16, patch_size=8, dim=16, depth=1, heads=2, mlp_ratio=2),
        text=TextConfig(dim=16, blocks=1, heads=2, max_len=16, mlp_ratio=2),
        fusion=FusionConfig(dim=16, heads=2, blocks=1, mlp_ratio=2),
    )
    return VideoAttributeModel(config, schema, seed=seed)


def _tiny_tracklets(schema, n=8, frames=2, seed=0):
    spec = SyntheticSpec(n_tracklets=max(n, 2), frames_per_tracklet=frames,
                         height=12, width=9, noise_sigma=0.05, occlusion_p=0.0,
                         seed=seed)
    out = []
    for i in range(n):
        out.append(Tracklet(*render_tracklet(spec, schema, i)))
    return out


class TestFrameSampling:
    def test_all_frames_when_equal(self):
        npt.assert_array_equal(sample_frame_indices(6, 6), np.arange(6))

    def test_phase_zero(self):
        assert sample_frame_indices(6, 1)[0] == 0
        npt.assert_array_equal(sample_frame_indices(6, 2), [0, 3])

    def test_oversampling_repeats(self):
        idx = sample_frame_indices(2, 4)
        assert len(idx) == 4
        assert set(idx) <= {0, 1}

    def test_invalid(self):
        with pytest.raises(UsageError):
            sample_frame_indices(0, 1)

    @pytest.mark.parametrize("k", [12 * 10 ** 17, 10 ** 19])
    def test_index_array_past_the_address_space_is_a_memory_error(self, k):
        # numpy itself raises ValueError for these, which the CLI does not map
        with pytest.raises(MemoryError, match="exceed the address space"):
            sample_frame_indices(3, k)


class TestTrainLoop:
    def test_lr_zero_leaves_parameters_bitwise(self):
        schema = _tiny_schema()
        model = _tiny_model(schema)
        data = _tiny_tracklets(schema, n=6)
        before = {p.name: p.data.copy() for p in model.params}
        train(model, data, [], TrainConfig(lr=0.0, weight_decay=0.0, epochs=2,
                                           batch_size=4, frames=2))
        for p in model.params:
            npt.assert_array_equal(p.data, before[p.name], err_msg=p.name)

    def test_loss_decreases_on_separable_data(self):
        # planted signal with no occlusion is cleanly learnable: the mean
        # loss must fall strictly over the first five epochs
        schema = _tiny_schema()
        model = VideoAttributeModel(ModelConfig(
            vit=VitConfig(), text=TextConfig(), fusion=FusionConfig()), schema, seed=0)
        data = _tiny_tracklets(schema, n=120, frames=2)
        logs = train(model, data, [], TrainConfig(epochs=5, batch_size=8, frames=2))
        losses = [l.mean_loss for l in logs]
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_same_seed_identical_logs(self):
        schema = _tiny_schema()
        data = _tiny_tracklets(schema, n=6)
        rows = []
        for _ in range(2):
            model = _tiny_model(schema, seed=5)
            logs = train(model, data, data, TrainConfig(epochs=2, batch_size=4,
                                                        frames=2, seed=11))
            rows.append([(l.epoch, l.mean_loss, l.heldout_f1) for l in logs])
        assert rows[0] == rows[1]

    def test_empty_dataset_rejected(self):
        schema = _tiny_schema()
        with pytest.raises(UsageError):
            train(_tiny_model(schema), [], [], TrainConfig(epochs=1))

    def test_freeze_policy_bitwise(self):
        schema = _tiny_schema()
        data = _tiny_tracklets(schema, n=8)
        model = _tiny_model(schema)
        encoder_before = {p.name: p.data.copy() for p in model.encoder_parameters()}
        cfg = TrainConfig(epochs=13, batch_size=1, frames=2)  # 104 steps
        train(model, data, [], cfg)
        for p in model.encoder_parameters():
            npt.assert_array_equal(p.data, encoder_before[p.name], err_msg=p.name)

    def test_unfrozen_encoders_change(self):
        schema = _tiny_schema()
        data = _tiny_tracklets(schema, n=4)
        model = _tiny_model(schema)
        encoder_before = {p.name: p.data.copy() for p in model.encoder_parameters()}
        cfg = TrainConfig(epochs=2, batch_size=2, frames=2, freeze_encoders=False)
        train(model, data, [], cfg)
        changed = any(not np.array_equal(p.data, encoder_before[p.name])
                      for p in model.encoder_parameters())
        assert changed

    def test_non_finite_step_loss_stops_before_the_update(self, monkeypatch):
        schema = _tiny_schema()
        data = _tiny_tracklets(schema, n=4)
        cfg = TrainConfig(epochs=3, batch_size=2, frames=2)  # 2 steps an epoch
        calls = []

        def nan_on_fifth_step(logits, targets):
            calls.append(None)
            loss = bce_loss(logits, targets)
            return scale(loss, math.nan) if len(calls) == 5 else loss

        monkeypatch.setattr(train_mod, "bce_loss", nan_on_fifth_step)
        model = _tiny_model(schema)
        with pytest.raises(VerificationError, match=r"epoch 3, step 1$"):
            train(model, data, [], cfg)
        # the parameters are those after the first four steps
        reference = _tiny_model(schema)
        monkeypatch.undo()
        train(reference, data, [], TrainConfig(epochs=2, batch_size=2, frames=2))
        for p in model.params:
            npt.assert_array_equal(p.data, reference.params[p.name].data, err_msg=p.name)

    def test_non_finite_gradient_stops_before_the_update(self, monkeypatch):
        # the loss stays finite; only the backward breaks
        schema = _tiny_schema()
        data = _tiny_tracklets(schema, n=4)
        model = _tiny_model(schema)
        before = {p.name: p.data.copy() for p in model.params}
        monkeypatch.setattr(tensor_mod, "_gelu_grad",
                            lambda x, cdf: np.full_like(x, np.inf))
        with pytest.raises(VerificationError, match=r"^non-finite gradient of "
                           r"fusion\.block0\.attn\.ln\.gain at epoch 1, step 1$"), \
                np.errstate(invalid="ignore"):
            train(model, data, [], TrainConfig(epochs=2, batch_size=2, frames=2))
        for p in model.params:
            npt.assert_array_equal(p.data, before[p.name], err_msg=p.name)

    @pytest.mark.parametrize("name, stage", [("vision.pos", "visual"), ("text.pos", "text")])
    def test_overflow_in_the_frozen_feature_cache_stops_training(self, name, stage):
        # finite, so only numpy's raised overflow can tell: block 0's
        # layer norm squares it
        schema = _tiny_schema()
        model = _tiny_model(schema)
        model.params[name].data[0, 0] = 1e38
        with pytest.raises(VerificationError, match=f"^{stage} features: overflow "), \
                warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            train(model, _tiny_tracklets(schema, n=4), [],
                  TrainConfig(epochs=1, batch_size=2, frames=2))

    def test_frozen_heldout_encoded_once_per_train_call(self, monkeypatch):
        schema = _tiny_schema()
        train_set = _tiny_tracklets(schema, n=6)
        heldout = _tiny_tracklets(schema, n=5, seed=1)
        encoded = []
        real_encode = VisionEncoder.encode

        def counted_encode(self, frames):
            encoded.append(frames.shape[0])
            return real_encode(self, frames)

        pairs = []  # (report logged by train(), fresh evaluate()) per epoch
        real_evaluate = train_mod.evaluate

        def checked_evaluate(model, tracklets, frames, *args, **kwargs):
            report = real_evaluate(model, tracklets, frames, *args, **kwargs)
            monkeypatch.setattr(VisionEncoder, "encode", real_encode)
            pairs.append((report, real_evaluate(model, tracklets, frames)))
            monkeypatch.setattr(VisionEncoder, "encode", counted_encode)
            return report

        monkeypatch.setattr(VisionEncoder, "encode", counted_encode)
        monkeypatch.setattr(train_mod, "evaluate", checked_evaluate)
        logs = train(_tiny_model(schema), train_set, heldout,
                     TrainConfig(epochs=3, batch_size=4, frames=2))
        assert sum(encoded) == (len(train_set) + len(heldout)) * 2
        assert len(pairs) == 3
        for log, (logged, fresh) in zip(logs, pairs):
            assert logged == fresh
            assert log.heldout_f1 == fresh.macro_f1

    def test_logits_bitwise_equal_at_any_batch_size(self):
        # 70 clips: several off-tape chunks, and a partial last batch at 64
        schema = _tiny_schema()
        model = _tiny_model(schema)
        data = _tiny_tracklets(schema, n=70)
        # on Haswell they differed by at most 3.6e-7, logits up to 0.99
        reference = train_mod.predict_logits(model, data, 2, 1)
        for batch_size in (3, 16, 64):
            assert_equal_on_skylakex(
                train_mod.predict_logits(model, data, 2, batch_size), reference, atol=1e-5)

    def test_frozen_heldout_f1_equals_evaluate_at_64(self):
        # perfbench checks train()'s logged F1 against evaluate(..., 64)
        schema = _tiny_schema()
        model = _tiny_model(schema)
        heldout = _tiny_tracklets(schema, n=20, seed=1)
        logs = train(model, _tiny_tracklets(schema, n=6), heldout,
                     TrainConfig(epochs=2, batch_size=4, frames=2))
        assert logs[-1].heldout_f1 == evaluate(model, heldout, 2, 64).macro_f1

    def test_evaluate_reports_all_groups(self):
        schema = _tiny_schema()
        model = _tiny_model(schema)
        data = _tiny_tracklets(schema, n=6)
        report = evaluate(model, data, frames=2)
        assert [g.name for g in report.groups] == ["shape", "marked"]
        assert report.n_tracklets == 6


def _default_clips(schema):
    """8 default-size synthetic clips: one batch, so one ``train`` step."""
    spec = SyntheticSpec(n_tracklets=8)
    return [Tracklet(*render_tracklet(spec, schema, i)) for i in range(8)]


def _first_step_gradients(model, freeze, monkeypatch):
    """Each trainable parameter's gradient at ``train``'s first step: one
    batch of 8 default-size synthetic clips, with Adam's update skipped."""
    grads = {}
    monkeypatch.setattr(train_mod.Adam, "step", lambda opt: grads.update(
        (p.name, p.grad) for p in opt.params.trainable()))
    train(model, _default_clips(model.schema), [],
          TrainConfig(epochs=1, freeze_encoders=freeze))
    assert len(grads) == len(model.params.trainable())
    return grads


@pytest.mark.parametrize("freeze, nodes", [(True, 55), (False, 165)])
def test_a_step_records_op_nodes_only(freeze, nodes, monkeypatch):
    # parameters are referenced by the nodes that read them, never
    # recorded, so none holds the swept tape after the step
    lengths = []
    real_backward = train_mod.backward

    def counted_backward(loss):
        lengths.append(len(loss.tape))
        real_backward(loss)

    monkeypatch.setattr(train_mod, "backward", counted_backward)
    model = VideoAttributeModel(ModelConfig(), default_schema(), seed=0)
    train(model, _default_clips(model.schema), [],
          TrainConfig(epochs=1, freeze_encoders=freeze))
    assert lengths == [nodes]
    holding = [p.name for p in model.params
               if p.tape is not None or p.node_id is not None]
    assert holding == []


@pytest.mark.parametrize("freeze", [True, False])
def test_float32_gradients_match_the_float64_tape(freeze, monkeypatch):
    # the float64 copy holds the float32 model's values, so the two tapes
    # differ only by rounding; gradcheck verifies the float64 one
    model32 = VideoAttributeModel(ModelConfig(), default_schema(), seed=0)
    model64 = VideoAttributeModel(ModelConfig(), default_schema(), seed=0,
                                  dtype=np.float64)
    for p in model32.params:
        model64.params[p.name].set_value(p.data)
    g32 = _first_step_gradients(model32, freeze, monkeypatch)
    g64 = _first_step_gradients(model64, freeze, monkeypatch)
    assert g32.keys() == g64.keys()
    errs = {name: np.abs(g32[name] - g64[name]).max() / np.abs(g64[name]).max()
            for name in g64}
    worst = max(errs, key=errs.get)
    assert errs[worst] <= 1e-4, f"{worst}: {errs[worst]:.2e}"


def test_every_parameter_has_a_gradient(monkeypatch):
    # an identically zero gradient marks an inert parameter, such as a key
    # bias, which softmax cancels
    model = VideoAttributeModel(ModelConfig(), default_schema(), seed=0,
                                dtype=np.float64)
    grads = _first_step_gradients(model, False, monkeypatch)
    assert len(grads) == len(model.params)
    peaks = {name: np.abs(g).max() for name, g in grads.items()}
    weakest = min(peaks, key=peaks.get)
    assert peaks[weakest] > 1e-8, f"{weakest}: {peaks[weakest]:.2e}"


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc ")
    except (AttributeError, ValueError, OSError):
        return False


_CACHE_FAULTS = """
import resource
from vtfpar.data import SyntheticSpec, Tracklet, render_tracklet
from vtfpar.model import ModelConfig, VideoAttributeModel
from vtfpar.schema import default_schema
from vtfpar.train import _visual_features
spec, schema = SyntheticSpec(), default_schema()
clips = [Tracklet(*render_tracklet(spec, schema, i)) for i in range(32)]
model = VideoAttributeModel(ModelConfig(), schema, seed=0)
_visual_features(model, clips, 6)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
_visual_features(model, clips, 6)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _on_glibc(), reason="the malloc thresholds are pinned on glibc only")
def test_second_feature_cache_pass_takes_no_page_fault_storm():
    # Without the pinned thresholds glibc trims the heap after every chunk,
    # and each pass over these 32 clips takes about 10,000 minor faults.
    env = {k: v for k, v in os.environ.items() if k not in
           ("GLIBC_TUNABLES", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")}
    src = str(Path(train_mod.__file__).resolve().parents[1])
    env.update(VTFPAR_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _CACHE_FAULTS], env=env,
                          capture_output=True, text=True, check=True)
    assert int(done.stdout) < 1000


class TestChanceLevel:
    def test_untrained_model_scores_at_chance_on_balanced_binary(self):
        # recomputed chance band for this artifact's init distribution:
        # untrained macro F1 over seeds 1..5 measured in [0.248, 0.417],
        # far below any trained result
        groups = tuple(AttributeGroup(f"attr{i}", "binary", (f"a{i}",), (f"attr {i}",))
                       for i in range(8))
        schema = AttributeSchema(groups)
        spec = SyntheticSpec(n_tracklets=200, frames_per_tracklet=2, height=12,
                             width=9, noise_sigma=0.1, occlusion_p=0.0, seed=2)
        data = [Tracklet(*render_tracklet(spec, schema, i)) for i in range(200)]
        scores = []
        for seed in range(1, 6):
            model = VideoAttributeModel(ModelConfig(), schema, seed=seed)
            scores.append(evaluate(model, data, frames=2).macro_f1)
        assert all(0.15 < s < 0.6 for s in scores), scores
        assert 0.25 < float(np.mean(scores)) < 0.45, scores


@pytest.mark.parametrize("epochs", [1, 3])
def test_one_train_call_saves_once_at_the_end(epochs, tmp_path, monkeypatch):
    schema = _tiny_schema()
    model = _tiny_model(schema)
    data = _tiny_tracklets(schema, n=4)
    saves = []
    real_save = train_mod.save_checkpoint
    monkeypatch.setattr(train_mod, "save_checkpoint", lambda params, path: (
        saves.append(str(path)), real_save(params, path)))
    ckpt = tmp_path / "m.ckpt"
    logs = train(model, data, [], TrainConfig(epochs=epochs, batch_size=2, frames=2),
                 checkpoint_path=ckpt)
    assert len(logs) == epochs
    assert saves == [str(ckpt)]
    # the trained values: the save follows the last update
    saved = read_checkpoint_arrays(ckpt)
    assert sorted(saved) == sorted(model.params.names())
    for p in model.params:
        npt.assert_array_equal(saved[p.name], p.data)
