"""Loss, optimizer, freeze policy, and the training loop."""

import importlib
import math

import numpy as np
import numpy.testing as npt
import pytest

from vtfpar.data import SyntheticSpec, Tracklet, render_tracklet
from vtfpar.errors import UsageError, VerificationError
from vtfpar.fusion import FusionConfig
from vtfpar.model import ModelConfig, VideoAttributeModel
from vtfpar.params import ParameterSet
from vtfpar.schema import AttributeGroup, AttributeSchema
from vtfpar.tensor import (ContractError, DimensionError, Tape, Tensor,
                           backward, scale, sigmoid)
from vtfpar.text import TextConfig
from vtfpar.train import (Adam, TrainConfig, bce_loss, evaluate,
                          sample_frame_indices, train)
from vtfpar.vision import VitConfig

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
        with pytest.raises(DimensionError):
            bce_loss(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_targets_must_be_binary(self):
        with pytest.raises(ContractError):
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
    def _pset(self, values, trainable=True):
        params = ParameterSet()
        p = params.add("w", np.asarray(values, dtype=np.float64), trainable=trainable)
        return params, p

    def test_zero_grad_zero_decay_leaves_parameter(self):
        params, p = self._pset([1.0, -2.0])
        p.tensor.grad = np.zeros(2)
        before = p.data.copy()
        Adam(params, lr=0.01).step()
        npt.assert_array_equal(p.data, before)

    def test_first_step_magnitude_is_lr(self):
        # bias correction cancels: update = lr * g / (|g| + eps)
        params, p = self._pset([0.0, 0.0, 0.0])
        g = np.array([0.5, -3.0, 1e-3])
        p.tensor.grad = g.copy()
        Adam(params, lr=0.001).step()
        npt.assert_allclose(p.data, -0.001 * np.sign(g), rtol=1e-4)

    def test_decoupled_weight_decay_applied_before_update(self):
        params, p = self._pset([2.0])
        p.tensor.grad = np.zeros(1)
        Adam(params, lr=0.1, weight_decay=0.5).step()
        assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))

    def test_missing_gradient_raises(self):
        params, _ = self._pset([1.0])
        with pytest.raises(ContractError, match="w"):
            Adam(params).step()

    def test_frozen_parameters_never_in_state(self):
        params = ParameterSet()
        params.add("frozen", np.ones(2), trainable=False)
        live = params.add("live", np.ones(2))
        live.tensor.grad = np.ones(2)
        opt = Adam(params)
        opt.step()
        assert set(opt.state) == {"live"}


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
        fr, labels, _ = render_tracklet(spec, schema, i)
        out.append(Tracklet(f"t{i:03d}", fr, labels))
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

        # the module, not the package's ``train`` function of the same name
        monkeypatch.setattr(importlib.import_module("vtfpar.train"), "bce_loss",
                            nan_on_fifth_step)
        model = _tiny_model(schema)
        with pytest.raises(VerificationError, match=r"epoch 3, step 1$"):
            train(model, data, [], cfg)
        # the parameters are those after the first four steps
        reference = _tiny_model(schema)
        monkeypatch.undo()
        train(reference, data, [], TrainConfig(epochs=2, batch_size=2, frames=2))
        for p in model.params:
            npt.assert_array_equal(p.data, reference.params[p.name].data, err_msg=p.name)

    def test_evaluate_reports_all_groups(self):
        schema = _tiny_schema()
        model = _tiny_model(schema)
        data = _tiny_tracklets(schema, n=6)
        report = evaluate(model, data, frames=2)
        assert [g.name for g in report.groups] == ["shape", "marked"]
        assert report.n_tracklets == 6


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
        data = [Tracklet(f"t{i}", *render_tracklet(spec, schema, i)[:2])
                for i in range(200)]
        scores = []
        for seed in range(1, 6):
            model = VideoAttributeModel(ModelConfig(), schema, seed=seed)
            scores.append(evaluate(model, data, frames=2).macro_f1)
        assert all(0.15 < s < 0.6 for s in scores), scores
        assert 0.25 < float(np.mean(scores)) < 0.45, scores


def test_checkpoints_written_every_k_epochs_and_at_end(tmp_path, monkeypatch):
    schema = _tiny_schema()
    model = _tiny_model(schema)
    data = _tiny_tracklets(schema, n=4)
    saves = []
    real_save = model.save
    monkeypatch.setattr(model, "save", lambda path: (saves.append(str(path)), real_save(path)))
    ckpt = tmp_path / "m.ckpt"
    train(model, data, [], TrainConfig(epochs=3, batch_size=2, frames=2, save_every=2),
          checkpoint_path=ckpt)
    assert len(saves) == 2  # after epoch 2, plus the final save
    assert ckpt.exists()
