"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. The learning/ablation criteria share one synthetic
dataset and one set of trained models via module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from vtfpar.cli import main as cli_main
from vtfpar.data import SyntheticSpec, Tracklet, generate, load_dataset, render_tracklet
from vtfpar.fusion import FusionConfig
from vtfpar.metrics import group_metrics
from vtfpar.model import ModelConfig, VideoAttributeModel, paper_scale_config
from vtfpar.schema import AttributeGroup, AttributeSchema, default_schema
from vtfpar.tensor import Tensor, no_grad
from vtfpar.text import TextConfig, split_expand
from vtfpar.train import TrainConfig, evaluate, train
from vtfpar.vision import VitConfig

from tests.test_metrics import brute_force_group


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {name}: {status}{suffix}")
    assert passed, f"criterion {number} {name}: {detail}"


# -- shared heavyweight fixtures ---------------------------------------------


@pytest.fixture(scope="module")
def acc_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_data")
    manifest = generate(SyntheticSpec(), default_schema(), root)
    ds = load_dataset(manifest)
    assert len(ds.split("train")) == 500
    assert len(ds.split("test")) == 200
    return ds


@pytest.fixture(scope="module")
def ablation(acc_dataset):
    """Trained model + held-out report per frame count, shared seed."""
    out = {}
    for k in (1, 2, 4, 6):
        model = VideoAttributeModel(ModelConfig(), acc_dataset.schema, seed=0)
        start = time.monotonic()
        train(model, acc_dataset.split("train"), [],
              TrainConfig(epochs=20, seed=0, frames=k))
        elapsed = time.monotonic() - start
        rep = evaluate(model, acc_dataset.split("test"), k)
        out[k] = (model, rep, elapsed)
    return out


@pytest.fixture(scope="module")
def chance_band(acc_dataset):
    scores = []
    for seed in range(1, 6):
        model = VideoAttributeModel(ModelConfig(), acc_dataset.schema, seed=seed)
        scores.append(evaluate(model, acc_dataset.split("test"), 6).macro_f1)
    return min(scores), max(scores)


# -- criteria -----------------------------------------------------------------


def test_criterion_01_gradient_correctness(capsys):
    start = time.monotonic()
    rc = cli_main(["gradcheck"])  # 100 trials per op kind, 520 model coords
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        report(1, "gradient correctness", rc == 0 and elapsed < 300,
               f"exit={rc}, {elapsed:.0f}s; " + out.strip().split("\n")[-2].replace("\t", " "))


def test_criterion_02_attention_rows_normalized(capsys):
    model = VideoAttributeModel(ModelConfig(), default_schema(), seed=0)
    rng = np.random.default_rng(0)
    n_v, m, d = model.n_visual_tokens, model.n_classes, model.config.fusion.dim
    worst = 0.0
    checked_rows = 0
    with no_grad():
        for batch_start in range(0, 1000, 100):
            visual = Tensor(rng.normal(size=(100, n_v, d)).astype(np.float32))
            text = Tensor(rng.normal(size=(m, d)).astype(np.float32))
            collect = []
            model.fuse_classify(visual, text, collect_attn=collect)
            for probs in collect:  # one entry per block: (b, heads, n, n)
                sums = probs.sum(axis=-1)
                worst = max(worst, float(np.abs(sums - 1.0).max()))
                checked_rows += sums.size
    with capsys.disabled():
        report(2, "attention normalization", worst < 1e-6,
               f"{checked_rows} rows over 1000 sequences, worst |sum-1|={worst:.2e}")


def test_criterion_03_residual_identity(capsys):
    model = VideoAttributeModel(ModelConfig(), default_schema(), seed=1)
    model.zero_fusion_residuals()
    rng = np.random.default_rng(1)
    n = model.n_visual_tokens + model.n_classes
    x = rng.normal(size=(4, n, model.config.fusion.dim)).astype(np.float32)
    with no_grad():
        out = model.fusion(Tensor(x)).data
    identical = np.array_equal(out, x)
    with capsys.disabled():
        report(3, "residual identity", identical,
               f"{model.config.fusion.blocks} zero-projection blocks, bitwise equal={identical}")


def _freeze_fixture_model_and_data():
    schema = AttributeSchema((
        AttributeGroup("shape", "exclusive", ("round", "square"),
                       ("shape_round", "shape_square")),
        AttributeGroup("marked", "binary", ("marked",), ("marked",)),
    ))
    config = ModelConfig(
        vit=VitConfig(image_size=16, patch_size=8, dim=16, depth=1, heads=2, mlp_ratio=2),
        text=TextConfig(dim=16, blocks=1, heads=2, max_len=16, mlp_ratio=2),
        fusion=FusionConfig(dim=16, heads=2, blocks=1, mlp_ratio=2),
    )
    spec = SyntheticSpec(n_tracklets=10, frames_per_tracklet=2, height=12,
                         width=9, noise_sigma=0.05, occlusion_p=0.0, seed=4)
    data = [Tracklet(f"t{i}", *render_tracklet(spec, schema, i)[:2]) for i in range(10)]
    return schema, config, data


def test_criterion_04_freeze_policy(capsys):
    schema, config, data = _freeze_fixture_model_and_data()
    # 100 steps with frozen encoders: bitwise unchanged
    frozen_model = VideoAttributeModel(config, schema, seed=0)
    before = {p.name: p.data.copy() for p in frozen_model.encoder_parameters()}
    cfg = TrainConfig(epochs=10, batch_size=1, frames=2, freeze_encoders=True)
    train(frozen_model, data, [], cfg)  # 10 epochs x 10 tracklets = 100 steps
    unchanged = all(np.array_equal(p.data, before[p.name])
                    for p in frozen_model.encoder_parameters())
    # same steps with freeze disabled: at least one encoder parameter moves
    live_model = VideoAttributeModel(config, schema, seed=0)
    before_live = {p.name: p.data.copy() for p in live_model.encoder_parameters()}
    cfg_live = TrainConfig(epochs=10, batch_size=1, frames=2, freeze_encoders=False)
    train(live_model, data, [], cfg_live)
    changed = any(not np.array_equal(p.data, before_live[p.name])
                  for p in live_model.encoder_parameters())
    with capsys.disabled():
        report(4, "freeze policy", unchanged and changed,
               f"frozen bitwise-equal={unchanged}, unfrozen changed={changed}")


def test_criterion_05_temporal_invariance(capsys):
    model = VideoAttributeModel(ModelConfig(), default_schema(), seed=0)
    rng = np.random.default_rng(5)
    worst = 0.0
    with no_grad():
        for _ in range(100):
            frames = rng.random((6, 12, 9, 3)).astype(np.float32)
            base = model.logits_batch(frames[None]).data
            shuffled = model.logits_batch(frames[rng.permutation(6)][None]).data
            worst = max(worst, float(np.abs(shuffled - base).max()))
    with capsys.disabled():
        report(5, "temporal invariance", worst < 1e-5,
               f"100 tracklets, worst elementwise delta={worst:.2e}")


def test_criterion_06_learning_on_planted_data(ablation, chance_band, capsys):
    _, rep, elapsed = ablation[6]
    band_lo, band_hi = chance_band
    f1 = rep.macro_f1
    ok = f1 >= 0.95 and f1 >= band_hi + 0.25 and elapsed < 900
    with capsys.disabled():
        report(6, "learning on planted data", ok,
               f"held-out macro F1={f1:.4f}, chance band=[{band_lo:.3f}, {band_hi:.3f}], "
               f"train {elapsed:.0f}s")


def test_criterion_07_frame_count_trend(ablation, capsys):
    f1 = {k: ablation[k][1].macro_f1 for k in (1, 2, 4, 6)}
    gap_ok = f1[6] >= f1[1] + 0.02
    mono_ok = all(f1[b] >= f1[a] - 0.01 for a, b in ((1, 2), (2, 4), (4, 6)))
    with capsys.disabled():
        report(7, "frame-count trend", gap_ok and mono_ok,
               "F1 " + " -> ".join(f"{f1[k]:.4f}" for k in (1, 2, 4, 6)))


def test_criterion_08_fusion_ablation(ablation, acc_dataset, capsys):
    full_f1 = ablation[6][1].macro_f1
    model = VideoAttributeModel(ModelConfig(use_fusion=False), acc_dataset.schema, seed=0)
    train(model, acc_dataset.split("train"), [], TrainConfig(epochs=20, seed=0, frames=6))
    nofusion_f1 = evaluate(model, acc_dataset.split("test"), 6).macro_f1
    ok = full_f1 >= nofusion_f1 + 0.01
    with capsys.disabled():
        report(8, "fusion ablation", ok,
               f"full={full_f1:.4f} vs no-fusion={nofusion_f1:.4f}")


def test_criterion_09_metric_oracle(capsys):
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        n, k = int(rng.integers(1, 25)), int(rng.integers(1, 6))
        preds = (rng.random((n, k)) < 0.4).astype(int)
        truths = (rng.random((n, k)) < 0.4).astype(int)
        fast = np.array(group_metrics(preds, truths))
        slow = np.array(brute_force_group(preds.tolist(), truths.tolist()))
        worst = max(worst, float(np.abs(fast - slow).max()))
    # hand-computed confusion case: group F1 = 13/24
    preds = np.zeros((9, 2), dtype=int)
    truths = np.zeros((9, 2), dtype=int)
    preds[0:3, 0] = truths[0:3, 0] = 1
    preds[3, 0] = 1
    truths[4, 0] = 1
    preds[5, 1] = truths[5, 1] = 1
    preds[6, 1] = 1
    truths[7:9, 1] = 1
    truths[4, 1] = 1
    hand_f1 = group_metrics(preds, truths)[2]
    ok = worst < 1e-12 and abs(hand_f1 - 13 / 24) < 1e-12
    with capsys.disabled():
        report(9, "metric oracle", ok,
               f"1000 instances, worst |delta|={worst:.1e}, hand case F1={hand_f1:.6f}")


def test_criterion_10_prompt_pipeline(capsys):
    rc1 = cli_main(["dump-prompts"])
    first = capsys.readouterr().out
    rc2 = cli_main(["dump-prompts"])
    second = capsys.readouterr().out
    worked = ("Age ≤ 40\tage less than 40\t"
              "the pedestrian has an attribute age less than 40") in first
    stable = first == second and rc1 == rc2 == 0
    idempotent = all(split_expand(split_expand(raw)) == split_expand(raw)
                     for raw in default_schema().raw_strings)
    with capsys.disabled():
        report(10, "prompt pipeline", worked and stable and idempotent,
               f"worked example={worked}, byte-stable={stable}, idempotent={idempotent}")


def test_criterion_11_paper_scale_shapes(capsys):
    start = time.monotonic()
    config = paper_scale_config()
    schema = default_schema()
    model = VideoAttributeModel(config, schema, seed=0)
    rng = np.random.default_rng(11)
    with no_grad():
        tokens = model.visual_features_batch(
            rng.random((1, 1, 112, 56, 3)).astype(np.float32))
        logits = model.logits_batch(rng.random((1, 1, 112, 56, 3)).astype(np.float32))
    elapsed = time.monotonic() - start
    ok = (config.vit.n_tokens == 197 and tokens.shape == (1, 197, 512)
          and logits.shape == (1, 43) and np.isfinite(logits.data).all())
    with capsys.disabled():
        report(11, "full-scale shape contract", ok,
               f"tokens {tokens.shape}, logits {logits.shape}, {elapsed:.1f}s")
