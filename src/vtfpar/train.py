"""Supervised training: stable BCE loss, Adam with decoupled weight
decay, frozen-encoder policy, and the evaluation harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Tracklet
from .errors import UsageError, VerificationError
from .metrics import MetricReport, decide, macro_report
from .model import VideoAttributeModel
from .params import ParameterSet
from .parallel import map_indexed
from .tensor import (ContractError, DimensionError, Tape, Tensor, backward,
                     mul, no_grad, softplus, sub, tensor_mean)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    weight_decay: float = 1e-4
    epochs: int = 20
    batch_size: int = 8
    seed: int = 0
    frames: int = 6
    freeze_encoders: bool = True
    save_every: int = 0  # 0 = final checkpoint only

    def __post_init__(self):
        if self.lr < 0:
            raise UsageError(f"lr must be >= 0, got {self.lr}")
        if self.epochs < 1 or self.batch_size < 1 or self.frames < 1:
            raise UsageError(f"bad training config {self}")
        if self.weight_decay < 0 or self.save_every < 0:
            raise UsageError(f"bad training config {self}")


def bce_loss(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy over all entries, in stable logit form.

    Elementwise softplus(z) - z*y, averaged; the gradient w.r.t. a logit
    is (sigmoid(z) - y) / count.
    """
    t = targets if isinstance(targets, Tensor) else Tensor(
        np.asarray(targets), dtype=logits.dtype)
    if t.shape != logits.shape:
        raise DimensionError(
            f"bce_loss shapes differ: logits {logits.shape}, targets {t.shape}")
    if not np.isin(t.data, (0.0, 1.0)).all():
        raise ContractError("bce_loss targets must be 0/1")
    return tensor_mean(sub(softplus(logits), mul(logits, t)))


class Adam:
    """Bias-corrected Adam; weight decay is decoupled (applied to the
    value before the moment update, scaled by lr).

    State exists only for trainable parameters; frozen parameters are
    never touched.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: ParameterSet, lr: float = 0.001,
                 weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.state: dict[str, list[np.ndarray]] = {}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p in self.params.trainable():
            g = p.tensor.grad
            if g is None:
                raise ContractError(
                    f"trainable parameter {p.name} has no gradient; "
                    "was it reachable from the loss?")
            if p.name not in self.state:
                self.state[p.name] = [np.zeros_like(p.data), np.zeros_like(p.data)]
            m, v = self.state[p.name]
            value = p.data
            if self.weight_decay:
                value = value * (1.0 - self.lr * self.weight_decay)
            m[:] = b1 * m + (1.0 - b1) * g
            v[:] = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p.set_value(value - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))

    def zero_grad(self) -> None:
        self.params.zero_grad()


def sample_frame_indices(available: int, k: int) -> np.ndarray:
    """Evenly spaced frame picks with fixed phase 0 (deterministic)."""
    if available < 1 or k < 1:
        raise UsageError(f"cannot sample {k} frames from {available}")
    return (np.arange(k) * available) // k


def _clip_batch(tracklets: list[Tracklet], k: int) -> np.ndarray:
    clips = [t.frames[sample_frame_indices(t.n_frames, k)] for t in tracklets]
    return np.stack(clips)


def _label_matrix(tracklets: list[Tracklet]) -> np.ndarray:
    return np.stack([t.labels for t in tracklets]).astype(np.float32)


def _cached_visual(model: VideoAttributeModel, tracklets: list[Tracklet],
                   k: int, batch: int = 32) -> np.ndarray:
    """Visual tokens for every tracklet, computed off-tape (frozen encoders)."""
    def one_chunk(ci: int) -> np.ndarray:
        chunk = tracklets[ci * batch:(ci + 1) * batch]
        with no_grad():
            return model.visual_features_batch(_clip_batch(chunk, k)).data
    n_chunks = (len(tracklets) + batch - 1) // batch
    return np.concatenate(map_indexed(one_chunk, n_chunks))


def predict_logits(model: VideoAttributeModel, tracklets: list[Tracklet],
                   frames: int, batch_size: int = 64) -> np.ndarray:
    """Forward pass over tracklets without recording gradients."""
    outs = []
    with no_grad():
        text = model.text_features()
        for i in range(0, len(tracklets), batch_size):
            chunk = tracklets[i:i + batch_size]
            visual = model.visual_features_batch(_clip_batch(chunk, frames))
            outs.append(model.fuse_classify(visual, text).data)
    return np.concatenate(outs)


def evaluate(model: VideoAttributeModel, tracklets: list[Tracklet],
             frames: int, batch_size: int = 64) -> MetricReport:
    if not tracklets:
        raise UsageError("evaluate: empty tracklet list")
    logits = predict_logits(model, tracklets, frames, batch_size)
    preds = decide(logits, model.schema)
    return macro_report(model.schema, preds, _label_matrix(tracklets).astype(np.int8))


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    mean_loss: float
    heldout_f1: float


def train(model: VideoAttributeModel, train_set: list[Tracklet],
          heldout: list[Tracklet], cfg: TrainConfig,
          checkpoint_path=None) -> list[EpochLog]:
    """Epochs of seeded-shuffle minibatch training; returns the epoch log.

    With frozen encoders the visual and text features are constants, so
    they are computed once up front and only the fusion stack and heads
    run per step. The unfrozen path records the whole pipeline on the
    tape each step. A non-finite step loss stops training with a
    ``VerificationError`` before that step's update.
    """
    if not train_set:
        raise UsageError("train: empty dataset")
    model.set_freeze(cfg.freeze_encoders)
    opt = Adam(model.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    targets = _label_matrix(train_set)

    frozen = cfg.freeze_encoders
    if frozen:
        visual_cache = _cached_visual(model, train_set, cfg.frames)
        with no_grad():
            text_cache = model.text_features().data
    clips = None if frozen else _clip_batch(train_set, cfg.frames)

    logs: list[EpochLog] = []
    n = len(train_set)
    for epoch in range(1, cfg.epochs + 1):
        rng = np.random.default_rng([cfg.seed, 1000 + epoch])
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            with Tape():
                if frozen:
                    visual = Tensor(visual_cache[idx])
                    text = Tensor(text_cache)
                else:
                    visual = model.visual_features_batch(clips[idx])
                    text = model.text_features()
                logits = model.fuse_classify(visual, text)
                loss = bce_loss(logits, targets[idx])
                backward(loss)
            step_loss = loss.item()
            if not math.isfinite(step_loss):
                raise VerificationError(
                    f"non-finite loss {step_loss} at epoch {epoch}, "
                    f"step {start // cfg.batch_size + 1}")
            opt.step()
            loss_sum += step_loss * len(idx)
        heldout_f1 = evaluate(model, heldout, cfg.frames).macro_f1 if heldout else 0.0
        logs.append(EpochLog(epoch, loss_sum / n, heldout_f1))
        if checkpoint_path and cfg.save_every and epoch % cfg.save_every == 0:
            model.save(checkpoint_path)
    if checkpoint_path:
        model.save(checkpoint_path)
    return logs


def log_tsv(logs: list[EpochLog]) -> str:
    lines = ["epoch\tmean_loss\theldout_macro_f1"]
    lines += [f"{l.epoch}\t{l.mean_loss:.6f}\t{l.heldout_f1:.4f}" for l in logs]
    return "\n".join(lines) + "\n"


def write_log(logs: list[EpochLog], path) -> None:
    Path(path).write_text(log_tsv(logs), encoding="utf-8")
