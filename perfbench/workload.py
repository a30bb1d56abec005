"""Run one benchmark workload in this process and print its record.

``run.py`` starts this file in a fresh interpreter with the thread
environment pinned. The last line of standard output is one JSON record
with the measurements, the operation counts and the output checks.

Every workload is a closed loop: one training or verification job runs at
a time, and the next starts only when the previous one has returned. The
inputs are generated from ``--seed``; the program receives only them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from tracer import Tracer, snapshot, span_cost_s

from vtfpar.data import SyntheticSpec
from vtfpar.model import ModelConfig, VideoAttributeModel
from vtfpar.params import read_checkpoint_arrays
from vtfpar.parallel import worker_count
from vtfpar.schema import default_schema
from vtfpar.tensor import OP_KINDS
from vtfpar.train import TrainConfig

# Modules are reached through their attributes at call time, so that the
# tracer's wrappers are the ones called. (``import vtfpar.train as m``
# would bind the package's ``train`` function, not the module.)
DATA = importlib.import_module("vtfpar.data")
TRAIN = importlib.import_module("vtfpar.train")
GRADCHECK = importlib.import_module("vtfpar.gradcheck")

WORKLOADS = ("train-frozen", "train-unfrozen", "verify")

# Dataset geometry per training workload: SyntheticSpec() is 28x28 frames;
# the CLI gen-data default is 24x16, so pad_to_square resizes and pads.
SPECS = {"train-frozen": {}, "train-unfrozen": {"height": 24, "width": 16}}
# Job counts depend only on --seconds, so a seed's work and outputs are the
# same on any machine: jobs = max(MIN_JOBS, round(seconds / NOMINAL_JOB_S)).
# NOMINAL_JOB_S is one job's time on the baseline machine (2 CPUs), eval
# included. The machine's speed swings for seconds at a time, so many
# short jobs and their median resist it better than one long job.
NOMINAL_JOB_S = {"train-frozen": 7.5, "train-unfrozen": 16.5, "verify": 4.5}
# Three chained frozen epochs lift held-out F1 clear of the chance band;
# two unfrozen epochs lift held-out AUC clear of 0.5.
MIN_JOBS = {"train-frozen": 3, "train-unfrozen": 2, "verify": 1}

# Highest held-out macro F1 of untrained models (ROADMAP baseline band
# [0.196, 0.353]); a trained frozen-encoder model must exceed it.
CHANCE_BAND_HIGH = 0.353
# Floor for the held-out macro ROC AUC of a trained model. A model that has
# fitted only its bias terms gives every clip the same logit per class, so
# its AUC is exactly 0.5; untrained models read 0.489 and 0.496.
AUC_FLOOR = 0.55
# Share of a traced job's root span not covered by traced child spans.
UNATTRIBUTED_BOUND = 0.05

# The gated throughputs are restated at a fixed machine speed: at every
# SpeedClock tick, CALIBRATION_LOOPS rounds of a fixed loop are timed
# (about 1 ms, 2 % of the run), and REFERENCE_CALIBRATION_S is what they
# take on the baseline machine (2-vCPU Xeon) when it runs fast.
CALIBRATION_LOOPS = 40
REFERENCE_CALIBRATION_S = 0.00085

SETUP_REPEATS = 4
MIN_EVAL_REPEATS = 3
EVAL_BATCH = 64


class Ledger:
    """Attempted and failed operations plus named output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []

    def ops(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})


def job_count(workload: str, seconds: float) -> int:
    return max(MIN_JOBS[workload], round(seconds / NOMINAL_JOB_S[workload]))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "VTFPAR_THREADS": os.environ.get("VTFPAR_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "vtfpar_workers": worker_count(),
    }


def process_threads() -> int:
    return len(os.listdir("/proc/self/task"))


class ThreadSampler:
    """Peak thread count of this process, sampled every ``interval`` s
    from SIGALRM in the main thread, so that threads a phase starts and
    joins again (a ``map_indexed`` pool) are seen while they run."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.peak = process_threads()
        self.samples = 1

    def _sample(self, *_):
        self.peak = max(self.peak, process_threads())
        self.samples += 1

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()


_CAL_RNG = np.random.default_rng(0)
_CAL_A, _CAL_B = _CAL_RNG.standard_normal((4, 6)), _CAL_RNG.standard_normal((6, 4))
_CAL_M = _CAL_RNG.standard_normal((32, 32))


def calibration_s() -> float:
    """Wall time of a fixed loop of the kind of work vtfpar's ops do: small
    numpy calls dispatched from Python, and a small GEMM. It uses nothing
    of vtfpar, so a change to the program leaves it as it was."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(CALIBRATION_LOOPS):
        x = _CAL_A @ _CAL_B
        y = np.exp(x - x.max(axis=-1, keepdims=True))
        total += float((y / y.sum(axis=-1, keepdims=True)).sum())
        _CAL_M @ _CAL_M
    return time.perf_counter() - start


class SpeedClock(ThreadSampler):
    """A ThreadSampler that also times ``calibration_s`` at every tick, so
    that a job's wall time can be restated at a fixed machine speed.

    The machine's speed changes within a second (shared host), so a job
    is cut at the ticks into stretches of ``interval`` seconds, and each
    stretch is scaled by how fast the calibration loop ran at its two
    ends. The ticks' own time is left out of every job's time.
    """

    def __init__(self, interval: float = 0.05):
        super().__init__(interval)
        self.ticks: list[tuple[float, float, float]] = []  # start, end, cal s

    def _sample(self, *_):
        start = time.perf_counter()
        super()._sample()
        cal = calibration_s()
        self.ticks.append((start, time.perf_counter(), cal))

    def __enter__(self):
        calibration_s()  # warm-up
        self._sample()
        return super().__enter__()

    def reference_seconds(self, start: float, end: float) -> float:
        """Time ``[start, end]`` would take at the reference speed, where
        ``calibration_s()`` reads ``REFERENCE_CALIBRATION_S``."""
        total = 0.0
        ticks = self.ticks + [(math.inf, math.inf, self.ticks[-1][2])]
        for (_, prev_end, prev_cal), (next_start, _, next_cal) in zip(
                ticks, ticks[1:]):
            covered = min(next_start, end) - max(prev_end, start)
            if covered > 0:
                total += covered / ((prev_cal + next_cal) / 2)
        return total * REFERENCE_CALIBRATION_S

    def relative_speed(self) -> float:
        """Median machine speed over the ticks, 1.0 at the reference."""
        return REFERENCE_CALIBRATION_S / statistics.median(
            cal for *_, cal in self.ticks)


# -- training workloads ------------------------------------------------------


def build_model(dataset, seed: int) -> VideoAttributeModel:
    return VideoAttributeModel(ModelConfig(), dataset.schema, seed=seed)


def clear_tree(root: Path) -> None:
    """Truncate every file under ``root`` to zero length and commit that to
    disk, so that the previous copy's blocks are freed before the clock
    starts (an fsync commits the whole journal transaction)."""
    files = [path for path in root.rglob("*") if path.is_file()]
    for path in files:
        os.truncate(path, 0)
    if files:
        fd = os.open(files[-1], os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def setup_once(workload: str, seed: int, out_dir: Path):
    """Generate and load the dataset and build the model; returns (s, dataset).

    The dataset is regenerated in place: every set-up of a workload writes
    the same file names. Before the clock starts, the previous copy's files
    are truncated and the truncation committed, so that ``generate()``
    writes into existing empty files and frees no blocks. On the baseline
    machine (ext4 mounted with ``discard``), freeing them inside the timed
    part made ``generate()`` swing between 1.4 s and 4.2 s as journal
    commits landed in it; after truncating first it took 0.6-1.2 s.
    """
    if out_dir.exists():
        clear_tree(out_dir)
    start = time.perf_counter()
    spec = SyntheticSpec(seed=seed, **SPECS[workload])
    dataset = DATA.load_dataset(DATA.generate(spec, default_schema(), out_dir))
    build_model(dataset, seed)
    return time.perf_counter() - start, dataset


def train_job(model, workload: str, seed: int, dataset, checkpoint: Path):
    """One epoch of the ``vtfpar train`` recipe, continuing from the model's
    current weights; returns (epoch logs, start, end)."""
    cfg = TrainConfig(epochs=1, seed=seed,
                      freeze_encoders=workload == "train-frozen")
    start = time.perf_counter()
    logs = TRAIN.train(model, dataset.split("train"), dataset.split("test"),
                       cfg, checkpoint_path=checkpoint)
    return logs, start, time.perf_counter()


def account_training(ledger: Ledger, logs, n_train: int) -> None:
    # A step's loss is not visible from outside train(); an epoch whose
    # mean loss is finite had only finite step losses, and a non-finite
    # epoch counts all of its steps as failed.
    steps = math.ceil(n_train / TrainConfig().batch_size)
    for log in logs:
        ledger.ops(steps, 0 if math.isfinite(log.mean_loss) else steps)


def macro_auc(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean over classes with both labels present of the ROC AUC of the
    logits: the share of (positive, negative) pairs ordered correctly,
    ties counting half."""
    aucs = []
    for c in range(labels.shape[1]):
        pos, neg = logits[labels[:, c] == 1, c], logits[labels[:, c] == 0, c]
        if len(pos) and len(neg):
            diff = pos[:, None] - neg[None, :]
            aucs.append(float(np.mean(diff > 0) + 0.5 * np.mean(diff == 0)))
    return float(np.mean(aucs))


def check_training(ledger: Ledger, workload: str, f1_pairs: list[tuple],
                   losses: list[float], model, checkpoint: Path,
                   auc: float) -> None:
    ledger.check("losses finite", all(map(math.isfinite, losses)),
                 f"{len(losses)} epoch mean losses")
    ledger.check("evaluate() repeats train()'s held-out F1",
                 all(a == b for a, b in f1_pairs),
                 f"{len(f1_pairs)} evaluations")
    f1 = f1_pairs[-1][1]
    if workload == "train-frozen":
        ledger.check("F1 above chance band", f1 > CHANCE_BAND_HIGH,
                     f"{f1:.4f} > {CHANCE_BAND_HIGH} after {len(losses)} epochs")
    ledger.check("held-out AUC above bias-only model", auc > AUC_FLOOR,
                 f"macro AUC {auc:.4f} > {AUC_FLOOR} after {len(losses)} epochs")
    saved = read_checkpoint_arrays(checkpoint)
    same = (sorted(saved) == sorted(model.params.names()) and all(
        np.array_equal(saved[p.name], p.data) for p in model.params))
    ledger.check("checkpoint matches model", same, f"{len(saved)} arrays")


def eval_logits_ok(ledger: Ledger, model, test_set, repeats: int) -> np.ndarray:
    """Check every eval batch's logits are finite; returns the logits.
    Evaluation is deterministic, so one pass stands for each timed repeat."""
    frames = TrainConfig().frames
    logits = TRAIN.predict_logits(model, test_set, frames, EVAL_BATCH)
    batches = range(0, len(logits), EVAL_BATCH)
    bad = sum(not np.isfinite(logits[i:i + EVAL_BATCH]).all() for i in batches)
    ledger.ops(repeats * len(batches), repeats * bad)
    ledger.check("eval logits finite", bad == 0,
                 f"{bad} of {len(batches)} batches non-finite")
    return logits


def run_training(workload: str, seed: int, seconds: float, work: Path,
                 data: Path, ledger: Ledger, clock: SpeedClock) -> dict:
    setup = []

    def timed_setup():
        elapsed, regenerated = setup_once(workload, seed, data)
        setup.append(elapsed)
        return regenerated

    # Set-ups are spread over the run, one before each job and the rest
    # after the last, so that their median is not taken from one swing of
    # the machine's speed. Each regenerates the same dataset; the jobs use
    # the first.
    dataset = timed_setup()
    train_set, test_set = dataset.split("train"), dataset.split("test")
    checkpoint = work / "model.ckpt"

    frames = TrainConfig().frames
    walls, reference_s, eval_s, losses = [], [], [], []
    f1_pairs = []  # (held-out F1 from train(), F1 from evaluate()) per job

    def timed_eval() -> float:
        t0 = time.perf_counter()
        report = TRAIN.evaluate(model, test_set, frames, EVAL_BATCH)
        eval_s.append(time.perf_counter() - t0)
        return report.macro_f1

    # Jobs are chained: each trains the same model one more epoch, so the
    # run's jobs add up to len(walls) epochs of training.
    model = build_model(dataset, seed)
    for job in range(job_count(workload, seconds)):
        if job:
            timed_setup()
        logs, start, end = train_job(model, workload, seed, dataset, checkpoint)
        walls.append(end - start)
        reference_s.append(clock.reference_seconds(start, end))
        losses.extend(log.mean_loss for log in logs)
        account_training(ledger, logs, len(train_set))
        f1_pairs.append((logs[-1].heldout_f1, timed_eval()))
    final_f1 = f1_pairs[-1][1]
    while len(eval_s) < MIN_EVAL_REPEATS:
        f1_pairs.append((final_f1, timed_eval()))
    while len(setup) < SETUP_REPEATS:
        timed_setup()
    logits = eval_logits_ok(ledger, model, test_set, len(eval_s))
    auc = macro_auc(logits, np.stack([t.labels for t in test_set]))
    check_training(ledger, workload, f1_pairs, losses, model, checkpoint, auc)

    return {
        "setup_data_s": setup,
        "train_job_s": walls,
        "train_samples_per_s": statistics.median(len(train_set) / w for w in walls),
        "throughput_per_s": statistics.median(
            len(train_set) / s for s in reference_s),
        "eval_s": eval_s,
        "eval_tracklets_per_s": statistics.median(
            len(test_set) / s for s in eval_s),
        "heldout_macro_f1": final_f1,
        "heldout_macro_auc": auc,
        "loss_final": losses[-1],
    }


# -- verification workload ---------------------------------------------------


def verify_pass(seed: int):
    """One ``vtfpar gradcheck`` at its defaults; returns (report, start, end)."""
    start = time.perf_counter()
    report = GRADCHECK.run_all(seed=seed)
    return report, start, time.perf_counter()


def summarize_checks(report) -> tuple:
    return tuple((r.name, r.max_rel_err, r.checked, r.passed)
                 for r in report.results)


def run_verify(seed: int, seconds: float, ledger: Ledger,
               clock: SpeedClock) -> dict:
    walls, reference_s, outcomes, checked = [], [], [], 0
    for _ in range(job_count("verify", seconds)):
        report, start, end = verify_pass(seed)
        walls.append(end - start)
        reference_s.append(clock.reference_seconds(start, end))
        outcomes.append(summarize_checks(report))
        ledger.ops(len(report.results),
                   sum(not r.passed for r in report.results))
        checked = sum(r.checked for r in report.results)
    ledger.check("gradcheck passes", all(r[3] for r in outcomes[-1]),
                 f"{len(outcomes[-1])} cases")
    ledger.check("gradcheck repeats", len(set(outcomes)) == 1,
                 f"{len(outcomes)} passes")
    return {
        "verify_pass_s": walls,
        "verify_checks_per_pass": checked,
        "verify_checks_per_s": statistics.median(checked / w for w in walls),
        "throughput_per_s": statistics.median(checked / s for s in reference_s),
    }


# -- traced run --------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def unattributed_share(tracer: Tracer, root: str) -> float:
    """Share of the ``root`` spans' time that no traced child span covers."""
    own = tracer.self_times()
    roots = [(sid, end - start) for sid, name, start, end, _ in tracer.spans
             if name == root]
    total = sum(d for _, d in roots)
    return sum(own[sid] for sid, _ in roots) / total if total else 0.0


def layer_metrics(tracer: Tracer, root: str, untraced_s: float,
                  traced_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced job."""
    totals = tracer.totals()
    counts = tracer.counts
    spans = {sid: (name, start, end, parent)
             for sid, name, start, end, parent in tracer.spans}
    trains = {sid for sid, (name, *_) in spans.items() if name == "train.train"}
    first_step = {}
    for when, parent in tracer.step_starts:
        first_step.setdefault(parent, when)
    out = {
        "data.generate_s": totals["data.generate"],
        "data.load_s": totals["data.load"],
        "data.frames_read": counts["data.read_frame"],
        "vision.encode_s": totals["vision.encode"],
        "vision.pad_s": totals["vision.pad"],
        "vision.frames_encoded": counts["vision.frames_encoded"],
        "vision.attn_s": totals["vision.attn"],
        "vision.mlp_s": totals["vision.mlp"],
        "text.encode_s": totals["text.encode"],
        "text.encode_calls": counts["text.encode"],
        "text.attn_s": totals["text.attn"],
        "text.mlp_s": totals["text.mlp"],
        "fusion.fuse_classify_s": totals["fusion.fuse_classify"],
        "fusion.attn_s": totals["fusion.attn"],
        "fusion.mlp_s": totals["fusion.mlp"],
        "fusion.heads_s": totals["fusion.heads"],
        "tensor.backward_s": totals["tensor.backward"],
        "tensor.tape_nodes_per_step": (statistics.median_low(tracer.tape_lengths)
                                       if tracer.tape_lengths else 0),
        "tensor.matmul.gflop": counts["tensor.matmul.gflop"],
        "tensor.matmul.gflop_per_s": (counts["tensor.matmul.gflop"]
                                      / totals["tensor.op.matmul"]
                                      if totals["tensor.op.matmul"] else 0.0),
        "train.steps": len(tracer.step_ms),
        "train.step_ms.p50": quantile(tracer.step_ms, 0.5),
        "train.step_ms.p90": quantile(tracer.step_ms, 0.9),
        "train.adam_s": totals["train.adam"],
        "train.bce_s": totals["train.bce"],
        "train.feature_cache_s": sum(first_step[s] - spans[s][1]
                                     for s in trains if s in first_step),
        "train.heldout_eval_s": sum(
            end - start for name, start, end, parent in spans.values()
            if name == "train.evaluate" and parent in trains),
        "train.loss_final": tracer.loss_final if trains else 0.0,
        "metrics.decide_s": totals["metrics.decide"],
        "metrics.macro_report_s": totals["metrics.macro_report"],
        "params.save_checkpoint_s": totals["params.save_checkpoint"],
        "parallel.map_indexed_s": totals["parallel.map_indexed"],
        "parallel.workers": worker_count(),
        "gradcheck.check_model_s": totals["gradcheck.check_model"],
        "gradcheck.checks": counts["gradcheck.checks"],
        "trace.overhead_share": traced_s / untraced_s - 1.0,
        "trace.overhead_est_share": len(tracer.spans) * span_cost_s() / untraced_s,
        "trace.unattributed_share": unattributed_share(tracer, root),
        "trace.spans": len(tracer.spans),
    }
    for kind in OP_KINDS:
        out[f"tensor.op.{kind}.calls"] = counts[f"tensor.op.{kind}"]
        out[f"tensor.op.{kind}.fwd_s"] = totals[f"tensor.op.{kind}"]
        out[f"gradcheck.check_op_s.{kind}"] = totals[f"gradcheck.check_op.{kind}"]
    return {k: float(v) for k, v in out.items()}


def run_traced(workload: str, seed: int, work: Path, data: Path,
               spans_path: Path, ledger: Ledger) -> dict:
    """An untraced job, then the same job traced; per-layer metrics."""
    verify = workload == "verify"
    # The untraced reference is the second of two jobs: the first carries
    # the process's warm-up cost, which would hide the tracing overhead.
    if verify:
        for _ in range(2):
            reference, start, end = verify_pass(seed)
            untraced_s = end - start
            ledger.ops(len(reference.results),
                       sum(not r.passed for r in reference.results))
    else:
        _, dataset = setup_once(workload, seed, data)
        for _ in range(2):
            ref_logs, start, end = train_job(build_model(dataset, seed),
                                             workload, seed, dataset,
                                             work / "untraced.ckpt")
            untraced_s = end - start
            account_training(ledger, ref_logs, len(dataset.split("train")))

    before = snapshot()
    tracer = Tracer(run_id=f"{workload}-seed{seed}-pid{os.getpid()}")
    tracer.install()
    try:
        if verify:
            report, start, end = verify_pass(seed)
        else:
            _, dataset = setup_once(workload, seed, data)
            logs, start, end = train_job(build_model(dataset, seed), workload,
                                         seed, dataset, work / "traced.ckpt")
    finally:
        tracer.restore()
    traced_s = end - start
    ledger.check("tracer restored every callable", snapshot() == before,
                 "module and class attributes compared by identity")
    ledger.check("every trace target resolved", not tracer.unresolved,
                 ", ".join(tracer.unresolved) or "all found")

    if verify:
        failed = [r.name for r in report.results if not r.passed]
        ledger.ops(len(report.results), len(failed))
        ledger.check("gradcheck passes", not failed, ", ".join(failed) or "all")
        ledger.check("traced result equals untraced",
                     summarize_checks(report) == summarize_checks(reference),
                     "gradcheck cases")
        root = "gradcheck.run_all"
    else:
        account_training(ledger, logs, len(dataset.split("train")))
        ledger.check("traced result equals untraced", logs == ref_logs,
                     f"{len(logs)} epoch logs")
        ledger.check("losses finite",
                     all(math.isfinite(log.mean_loss) for log in logs),
                     f"{len(logs)} epoch mean losses")
        root = "train.train"

    tracer.write_spans(spans_path)
    metrics = layer_metrics(tracer, root, untraced_s, traced_s)
    share = unattributed_share(tracer, root)
    ledger.check("traced spans cover the job", share <= UNATTRIBUTED_BOUND,
                 f"unattributed share {share:.4f} <= {UNATTRIBUTED_BOUND}")
    return {
        "untraced_job_s": untraced_s,
        "traced_job_s": traced_s,
        "layer_self_s": tracer.layer_self_times(),
        "spans_file": str(spans_path),
        "per_layer": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True,
                        help="scratch directory, removed at the end")
    parser.add_argument("--data-dir", required=True,
                        help="dataset directory, regenerated in place")
    parser.add_argument("--spans", help="span file written by a traced run")
    args = parser.parse_args(argv)

    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": environment()}
    # The traced run needs no clock: its calibration ticks would land in
    # the spans as unattributed time.
    with (ThreadSampler() if args.trace else SpeedClock()) as threads:
        try:
            if args.trace:
                record.update(run_traced(args.workload, args.seed, work,
                                         Path(args.data_dir), Path(args.spans),
                                         ledger))
            elif args.workload == "verify":
                record.update(run_verify(args.seed, args.seconds, ledger,
                                         threads))
            else:
                record.update(run_training(args.workload, args.seed,
                                           args.seconds, work,
                                           Path(args.data_dir), ledger,
                                           threads))
        except Exception as e:  # reported as a failed operation, not a crash
            traceback.print_exc()
            ledger.ops(1, 1)
            ledger.check("no exception", False, repr(e))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    ledger.check("busy threads within nproc", threads.peak <= os.cpu_count(),
                 f"peak {threads.peak} threads in process over "
                 f"{threads.samples} samples, nproc {os.cpu_count()}")
    if not args.trace:
        record["machine_speed"] = threads.relative_speed()
    record.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "checks": ledger.checks,
        "correct": all(c["ok"] for c in ledger.checks) and ledger.failed == 0,
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
