"""Tests of the benchmark itself: the tracer's bookkeeping, and exact
repeatability of the traced counts and of the held-out F1.

    python3 -m pytest perfbench/tests            # all, ~6 min
    python3 -m pytest perfbench/tests -m "not slow"
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import vtfpar.layers  # noqa: E402
import vtfpar.tensor  # noqa: E402
from tracer import Tracer, snapshot  # noqa: E402
from vtfpar.fusion import FusionConfig  # noqa: E402
from vtfpar.model import ModelConfig, VideoAttributeModel  # noqa: E402
from vtfpar.schema import AttributeGroup, AttributeSchema  # noqa: E402
from vtfpar.tensor import Tensor, no_grad  # noqa: E402
from vtfpar.text import TextConfig  # noqa: E402
from vtfpar.vision import VitConfig  # noqa: E402
from workload import (REFERENCE_CALIBRATION_S, SpeedClock,  # noqa: E402
                      ThreadSampler, macro_auc)

# Counts that must repeat exactly between two traced runs with one seed.
EXACT = ("tensor.tape_nodes_per_step", "vision.frames_encoded",
         "text.encode_calls", "tensor.matmul.gflop", "gradcheck.checks",
         "train.steps", "data.frames_read", "train.loss_final")


def test_self_time_subtracts_direct_children():
    tracer = Tracer("unit")
    tracer.spans = [(0, "a", 0.0, 10.0, None), (1, "b", 1.0, 4.0, 0),
                    (2, "c", 5.0, 6.0, 0), (3, "d", 2.0, 3.0, 1)]
    assert tracer.self_times() == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert tracer.layer_self_times() == {"a": 6.0, "b": 2.0, "c": 1.0, "d": 1.0}


def _tiny_model() -> VideoAttributeModel:
    config = ModelConfig(
        vit=VitConfig(image_size=16, patch_size=8, dim=16, depth=1, heads=2,
                      mlp_ratio=2),
        text=TextConfig(dim=16, blocks=1, heads=2, max_len=8, mlp_ratio=2),
        fusion=FusionConfig(dim=16, heads=2, blocks=1, mlp_ratio=2))
    schema = AttributeSchema((
        AttributeGroup("shade", "exclusive", ("dark", "light"),
                       ("shade_dark", "shade_light")),
        AttributeGroup("marked", "binary", ("marked",), ("marked",)),
    ))
    return VideoAttributeModel(config, schema, seed=0)


def test_install_wraps_where_looked_up_and_restore_undoes_it():
    before = snapshot()
    original = vtfpar.tensor.matmul
    tracer = Tracer("unit")
    tracer.install()
    try:
        assert not tracer.unresolved
        assert vtfpar.layers.matmul is not original
        assert vtfpar.layers.matmul is vtfpar.tensor.matmul
        model = _tiny_model()
        clips = np.random.default_rng(0).random((2, 3, 12, 9, 3))
        with no_grad():
            logits = model.logits_batch(clips)
    finally:
        tracer.restore()
    assert snapshot() == before
    assert vtfpar.tensor.matmul is original
    assert logits.shape == (2, model.n_classes)
    totals = tracer.totals()
    for stack in ("vision", "text", "fusion"):
        assert totals[f"{stack}.attn"] > 0 and totals[f"{stack}.mlp"] > 0
    assert tracer.counts["vision.frames_encoded"] == 6
    assert tracer.counts["text.encode"] == 1
    assert tracer.counts["tensor.matmul.gflop"] > 0
    own = tracer.self_times()
    assert all(v >= -1e-9 for v in own.values())


def test_wrapped_op_gives_the_same_result():
    a = Tensor(np.arange(6.0).reshape(2, 3))
    b = Tensor(np.ones((3, 2)))
    expected = vtfpar.tensor.matmul(a, b).data
    tracer = Tracer("unit")
    tracer.install()
    try:
        got = vtfpar.tensor.matmul(a, b).data
    finally:
        tracer.restore()
    np.testing.assert_array_equal(got, expected)
    assert tracer.counts["tensor.op.matmul"] == 1
    assert tracer.counts["tensor.matmul.gflop"] == pytest.approx(2 * 2 * 3 * 2 / 1e9)


def test_macro_auc_reads_half_for_a_bias_only_model():
    labels = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
    assert macro_auc(np.tile([0.3, -1.2], (4, 1)), labels) == 0.5
    assert macro_auc(labels + 0.1 * np.arange(4)[:, None], labels) == 1.0


def test_thread_sampler_sees_a_thread_that_has_ended():
    with ThreadSampler(interval=0.01) as threads:
        worker = threading.Thread(target=time.sleep, args=(0.3,))
        worker.start()
        worker.join()
    assert threads.peak >= 2
    assert threads.samples > 5


def test_speed_clock_scales_each_stretch_and_leaves_out_its_ticks():
    ref = REFERENCE_CALIBRATION_S
    clock = SpeedClock()
    # (start, end, calibration seconds) of three ticks
    clock.ticks = [(0.0, 1.0, ref), (2.0, 3.0, 2 * ref), (4.0, 5.0, 2 * ref)]
    assert clock.reference_seconds(0.0, 1.0) == 0.0
    # [1, 2] at a mean of 1.5 ref, [3, 4] and [5, 6] at 2 ref
    assert clock.reference_seconds(0.0, 6.0) == pytest.approx(1 / 1.5 + 0.5 + 0.5)
    assert clock.reference_seconds(3.5, 4.5) == pytest.approx(0.25)
    assert clock.relative_speed() == pytest.approx(0.5)


def test_speed_clock_ticks_while_a_job_runs():
    with SpeedClock(interval=0.01) as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
    assert len(clock.ticks) > 5
    assert 0 < clock.reference_seconds(start, end)


def _run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    """One ``--seconds 1`` run: (metric values, standard output)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}, proc.stdout


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["train-frozen", "train-unfrozen", "verify"])
def test_traced_counts_repeat_exactly(workload):
    (first, _), (second, _) = _run(workload, 7, 1), _run(workload, 7, 1)
    names = [n for n in first if n in EXACT or n.endswith(".calls")]
    assert len(names) >= 20
    for name in names:
        assert first[name] == second[name], name


def _heldout_f1(stdout: str) -> float:
    """The report prints ``heldout_macro_f1 <repr of the value> F1``."""
    (line,) = [l for l in stdout.splitlines() if l.startswith("heldout_macro_f1 ")]
    return float(line.split()[1])


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["train-frozen", "train-unfrozen"])
def test_heldout_f1_repeats_bitwise(workload):
    first = _heldout_f1(_run(workload, 7, 0)[1])
    assert first == _heldout_f1(_run(workload, 7, 0)[1])


def test_fails_without_program_sources():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
