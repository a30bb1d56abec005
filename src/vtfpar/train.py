"""Supervised training: stable BCE loss, Adam with decoupled weight
decay, frozen-encoder policy, and the evaluation harness.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Tracklet
from .errors import UsageError, VerificationError
from .metrics import MetricReport, decide, macro_report
from .model import ModelConfig, VideoAttributeModel
from .params import ParameterSet, save_checkpoint
from .parallel import map_indexed
from .tensor import Tape, Tensor, add, backward, mul, no_grad, softplus, tensor_mean


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    weight_decay: float = 1e-4
    epochs: int = 20
    batch_size: int = 8
    seed: int = 0
    frames: int = 6
    freeze_encoders: bool = True

    def __post_init__(self):
        # ranges, so that NaN and +-inf fail them
        if not 0 <= self.lr < math.inf:
            raise UsageError(f"lr must be finite and >= 0, got {self.lr}")
        if (self.epochs < 1 or self.batch_size < 1 or self.frames < 1
                or not 0 <= self.weight_decay < math.inf):
            raise UsageError(f"bad training config {self}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")


def bce_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over all entries, in stable logit form.

    Elementwise softplus(z) + z*(-y), averaged; the gradient w.r.t. a logit
    is (sigmoid(z) - y) / count.
    """
    t = Tensor(np.asarray(targets), dtype=logits.dtype)
    if t.shape != logits.shape:
        raise UsageError(
            f"bce_loss shapes differ: logits {logits.shape}, targets {t.shape}")
    if not ((t.data == 0.0) | (t.data == 1.0)).all():
        raise UsageError("bce_loss targets must be 0/1")
    return tensor_mean(add(softplus(logits), mul(logits, Tensor(-t.data))))


class Adam:
    """Bias-corrected Adam at ``TrainConfig``'s lr and decoupled weight
    decay (applied to the value before the moment update, scaled by lr).

    State exists only for trainable parameters; frozen parameters are
    never touched. ``step`` gives each trainable parameter a new array
    through ``set_value``, which also clears its gradient, so the old
    values and the gradient are freed as the step ends.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: ParameterSet, lr: float, weight_decay: float):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.state: dict[str, list[np.ndarray]] = {}

    def step(self) -> None:
        self.t += 1
        b1, b2, lr = self.beta1, self.beta2, self.lr
        correction1 = 1.0 - b1 ** self.t
        correction2 = 1.0 - b2 ** self.t
        decay = 1.0 - lr * self.weight_decay
        for p in self.params.trainable():
            g = p.grad
            if g is None:
                raise UsageError(
                    f"trainable parameter {p.name} has no gradient; "
                    "was it reachable from the loss?")
            if p.name not in self.state:
                self.state[p.name] = [np.zeros_like(p.data), np.zeros_like(p.data)]
            m, v = self.state[p.name]
            # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g, in place
            buf = np.multiply(1.0 - b1, g)
            m *= b1
            m += buf
            np.multiply(1.0 - b2, g, out=buf)
            buf *= g
            v *= b2
            v += buf
            # value - lr m_hat / (sqrt(v_hat) + eps), into a fresh array
            np.divide(v, correction2, out=buf)
            np.sqrt(buf, out=buf)
            buf += self.eps
            update = np.divide(m, correction1)
            update *= lr
            update /= buf
            p.set_value(np.subtract(p.data * decay, update, out=update))


def sample_frame_indices(available: int, k: int) -> np.ndarray:
    """Evenly spaced frame picks with fixed phase 0 (deterministic)."""
    if available < 1 or k < 1:
        raise UsageError(f"cannot sample {k} frames from {available}")
    if k * 8 > np.iinfo(np.intp).max:
        # numpy raises a ValueError, not a MemoryError, for an int64 arange this long
        raise MemoryError(f"{k} frame indices exceed the address space")
    return (np.arange(k) * available) // k


def _clip_batch(tracklets: list[Tracklet], k: int) -> np.ndarray:
    clips = [t.frames[sample_frame_indices(len(t.frames), k)] for t in tracklets]
    return np.stack(clips)


# clips per off-tape chunk: 4 and 8 time alike, 32 slower. Features keep their
# bits at any size on OpenBLAS's SkylakeX kernel only (README, Determinism)
CHUNK = 16


@contextmanager
def _raising_overflow(stage: str, invalid: str | None = "raise"):
    """Run numpy work with overflow and invalid results raised, as a
    ``VerificationError`` naming ``stage``; ``invalid=None`` leaves
    invalid results to the caller's error state.

    Layer norm can turn an overflow into a finite row, so a check of the
    outputs alone would not see it. numpy's error state is per thread:
    a worker function must enter this itself.
    """
    try:
        with np.errstate(over="raise", invalid=invalid):
            yield
    except FloatingPointError as e:
        raise VerificationError(f"{stage}: {e}") from None


def _visual_features(model: VideoAttributeModel, tracklets: list[Tracklet],
                     k: int) -> np.ndarray:
    """Visual tokens (n, n_v, d) of ``tracklets``, off-tape."""
    def one_chunk(ci: int) -> np.ndarray:
        chunk = tracklets[ci * CHUNK:(ci + 1) * CHUNK]
        with no_grad(), _raising_overflow("visual features"):
            return model.visual_features_batch(_clip_batch(chunk, k)).data
    return np.concatenate(map_indexed(one_chunk, -(-len(tracklets) // CHUNK)))


def predict_logits(model: VideoAttributeModel, tracklets: list[Tracklet],
                   frames: int, batch_size: int = CHUNK,
                   visual: np.ndarray | None = None) -> np.ndarray:
    """Logits of ``tracklets``, off-tape, fused ``batch_size`` clips at a
    time; ``visual`` is their visual tokens when already known."""
    if visual is None:
        visual = _visual_features(model, tracklets, frames)
    with no_grad(), _raising_overflow("text features and fusion"):
        text = model.text.encode()
        return np.concatenate(
            [model.fuse_classify(Tensor(visual[i:i + batch_size]), text).data
             for i in range(0, len(visual), batch_size)])


def evaluate(model: VideoAttributeModel, tracklets: list[Tracklet],
             frames: int, batch_size: int = CHUNK,
             visual: np.ndarray | None = None) -> MetricReport:
    if not tracklets:
        raise UsageError("evaluate: empty tracklet list")
    logits = predict_logits(model, tracklets, frames, batch_size, visual)
    preds = decide(logits, model.schema)
    return macro_report(model.schema, preds, np.stack([t.labels for t in tracklets]))


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    mean_loss: float
    heldout_f1: float


def train(model: VideoAttributeModel, train_set: list[Tracklet],
          heldout: list[Tracklet], cfg: TrainConfig,
          checkpoint_path=None) -> list[EpochLog]:
    """Epochs of seeded-shuffle minibatch training; returns the epoch log,
    and writes ``checkpoint_path``, if given, once after the last epoch.

    With frozen encoders the visual and text features are constants, so
    they are computed once up front, in one off-tape pass over the train and
    held-out clips, and only the fusion stack and heads run per step and per
    held-out evaluation. The unfrozen path records the whole pipeline on
    the tape each step. A non-finite step loss or trainable gradient stops
    training with a ``VerificationError`` before that step's update.
    """
    if not train_set:
        raise UsageError("train: empty dataset")
    model.set_freeze(cfg.freeze_encoders)
    opt = Adam(model.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    targets = np.stack([t.labels for t in train_set]).astype(np.float32)

    frozen = cfg.freeze_encoders
    n = len(train_set)
    heldout_visual = None
    if frozen:
        visual_cache = _visual_features(model, train_set + heldout, cfg.frames)
        visual_cache, heldout_visual = visual_cache[:n], visual_cache[n:]
        with no_grad(), _raising_overflow("text features"):
            text_cache = model.text.encode().data
    trainable = model.params.trainable()

    logs: list[EpochLog] = []
    for epoch in range(1, cfg.epochs + 1):
        rng = np.random.default_rng([cfg.seed, 1000 + epoch])
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            where = f"at epoch {epoch}, step {start // cfg.batch_size + 1}"
            # a NaN or inf is caught by the checks below, a finite overflow
            # (say, Adam's second moment) only by numpy raising it
            with _raising_overflow(f"training {where}", invalid=None):
                with Tape():
                    if frozen:
                        logits = model.fuse_classify(Tensor(visual_cache[idx]),
                                                     Tensor(text_cache))
                    else:
                        # each step gathers its own clips: no stacked copy of the set
                        logits = model.logits_batch(
                            _clip_batch([train_set[i] for i in idx], cfg.frames))
                    loss = bce_loss(logits, targets[idx])
                    backward(loss)
                step_loss = loss.item()
                if not math.isfinite(step_loss):
                    raise VerificationError(f"non-finite loss {step_loss} {where}")
                for p in trainable:
                    if p.grad is not None and not np.isfinite(p.grad).all():
                        raise VerificationError(
                            f"non-finite gradient of {p.name} {where}")
                opt.step()
            loss_sum += step_loss * len(idx)
        heldout_f1 = evaluate(model, heldout, cfg.frames,
                              visual=heldout_visual).macro_f1 if heldout else 0.0
        logs.append(EpochLog(epoch, loss_sum / n, heldout_f1))
    if checkpoint_path:
        save_checkpoint(model.params, checkpoint_path)
    return logs


def run_arm(config: ModelConfig, dataset: Dataset, cfg: TrainConfig) -> MetricReport:
    """Train a ``config`` model (seed ``cfg.seed``) on the train split, then
    evaluate it on the test split; returns the report."""
    model = VideoAttributeModel(config, dataset.schema, seed=cfg.seed)
    train(model, dataset.split("train"), [], cfg)
    return evaluate(model, dataset.split("test"), cfg.frames)


def log_tsv(logs: list[EpochLog]) -> str:
    lines = ["epoch\tmean_loss\theldout_macro_f1"]
    lines += [f"{l.epoch}\t{l.mean_loss:.6f}\t{l.heldout_f1:.4f}" for l in logs]
    return "\n".join(lines) + "\n"
