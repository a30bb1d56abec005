"""Span tracer that wraps the public callables of the ``vtfpar`` modules.

Nothing in ``src/`` is changed: ``Tracer.install`` replaces each target
callable in every ``vtfpar`` module that holds a reference to it (so
``vtfpar.train.backward`` and ``vtfpar.layers.matmul`` are both wrapped,
not only ``vtfpar.tensor.backward``/``matmul``), and ``restore`` puts
every original back.

A span is (id, name, start, end, parent id, run id). Spans stay in
memory until ``write_spans`` is called at the end of a run. A span's self
time is its duration minus the time covered by its direct children.
"""

from __future__ import annotations

import importlib
import itertools
import math
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# Modules scanned for references to wrapped functions; "" is the package.
MODULES = ("", "tensor", "params", "schema", "text", "vision", "layers",
           "fusion", "model", "train", "metrics", "data", "parallel",
           "gradcheck", "cli")

# Spans that open an encoder or fusion stack. Attention and MLP calls are
# attributed to the nearest enclosing one.
STACK_ROOTS = {"vision.encode": "vision", "text.encode": "text",
               "fusion.fuse_classify": "fusion"}

# op kind -> function name in vtfpar.tensor, where the two differ.
OP_FUNCTIONS = {"mean": "tensor_mean", "sum": "tensor_sum"}


def _module(name: str):
    """The ``vtfpar`` module ``name`` ("" for the package), or None."""
    try:
        return importlib.import_module(f"vtfpar.{name}".rstrip("."))
    except ModuleNotFoundError:
        return None


def snapshot() -> dict[tuple[str, str, str], int]:
    """Identity of every attribute of the vtfpar modules and their classes,
    to confirm that ``Tracer.restore`` left nothing wrapped."""
    # import every submodule first: importing one adds it to the package
    modules = [(name, _module(name)) for name in MODULES]
    out = {}
    for mod_name, mod in modules:
        if mod is None:
            continue
        for key, value in vars(mod).items():
            out[(mod_name, "", key)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("vtfpar"):
                for attr, member in vars(value).items():
                    out[(mod_name, key, attr)] = id(member)
    return out


def _matmul_gflop(a, b) -> float:
    """Forward flops of a (..., m, k) @ (..., k, n) product, from shapes."""
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
    return 2.0 * math.prod(batch) * m * k * n / 1e9


def span_cost_s(calls: int = 20000) -> float:
    """Seconds a span wrapper adds to one call, timed on a no-op (best of 3)."""
    def noop():
        return None

    wrapped = Tracer("calibration").wrap(noop, "noop")

    def loop(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    return max(0.0, min(loop(wrapped) - loop(noop) for _ in range(3)) / calls)


class Tracer:
    """Collects spans and counts from wrapped callables.

    Each thread keeps its own stack of open spans; a span opened in a
    worker thread has no parent.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent)
        self.counts: Counter = Counter()
        self.tape_lengths: list[int] = []
        self.step_ms: list[float] = []
        self.step_starts: list[tuple[float, int | None]] = []  # (time, parent)
        self.loss_final = float("nan")
        self.unresolved: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _stack_context(self) -> str:
        for _, name in reversed(self._stack()):
            if name in STACK_ROOTS:
                return STACK_ROOTS[name]
        return "other"

    def _inside(self, name: str) -> bool:
        return any(n == name for _, n in self._stack())

    def wrap(self, fn, name, after=None):
        """Return ``fn`` wrapped in a span; ``name`` may be a callable
        of the call arguments; ``after(args, result)`` records counts."""
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, span_name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, span_name, start, end, parent))
            tracer.counts[span_name] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, new)

    def _wrap_function(self, module: str, attr: str, name, after=None) -> None:
        """Wrap a module-level function wherever a vtfpar module binds it."""
        original = getattr(_module(module), attr, None)
        if original is None:
            self.unresolved.append(f"{module}.{attr}")
            return
        wrapped = self.wrap(original, name, after)
        for mod in filter(None, map(_module, MODULES)):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapped)

    def _wrap_method(self, module: str, cls: str, attr: str, name,
                     after=None) -> None:
        owner = getattr(_module(module), cls, None)
        if owner is None or not hasattr(owner, attr):
            self.unresolved.append(f"{module}.{cls}.{attr}")
            return
        self._patch(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def install(self) -> None:
        """Wrap every traced callable; ``restore`` undoes it."""
        for kind in _module("tensor").OP_KINDS:
            after = self._after_matmul if kind == "matmul" else None
            self._wrap_function("tensor", OP_FUNCTIONS.get(kind, kind),
                                f"tensor.op.{kind}", after)
        self._wrap_function("tensor", "backward", "tensor.backward",
                            self._after_backward)
        self._wrap_method("tensor", "Tape", "__enter__", "tensor.tape",
                          self._after_tape_enter)

        self._wrap_function("data", "generate", "data.generate")
        self._wrap_function("data", "load_dataset", "data.load")
        self._wrap_function("data", "read_frame", "data.read_frame")

        self._wrap_method("vision", "VisionEncoder", "encode", "vision.encode",
                          self._after_vision_encode)
        self._wrap_function("vision", "pad_to_square", "vision.pad")
        self._wrap_method("text", "TextEncoder", "encode", "text.encode")
        self._wrap_method("layers", "MultiHeadAttention", "__call__",
                          lambda args: f"{self._stack_context()}.attn")
        self._wrap_method("layers", "FeedForward", "__call__",
                          lambda args: f"{self._stack_context()}.mlp")
        self._wrap_method("model", "VideoAttributeModel", "fuse_classify",
                          "fusion.fuse_classify")
        self._wrap_method("fusion", "ClassificationHeads", "__call__",
                          "fusion.heads")

        self._wrap_function("train", "train", "train.train", self._after_train)
        self._wrap_function("train", "evaluate", "train.evaluate")
        self._wrap_function("train", "bce_loss", "train.bce")
        self._wrap_method("train", "Adam", "step", "train.adam",
                          self._after_adam)

        self._wrap_function("metrics", "decide", "metrics.decide")
        self._wrap_function("metrics", "macro_report", "metrics.macro_report")
        self._wrap_function("params", "save_checkpoint", "params.save_checkpoint")
        self._wrap_function("parallel", "map_indexed", "parallel.map_indexed")

        self._wrap_function("gradcheck", "run_all", "gradcheck.run_all")
        self._wrap_function("gradcheck", "check_op",
                            lambda args: f"gradcheck.check_op.{args[0]}",
                            self._after_check)
        self._wrap_function("gradcheck", "check_model", "gradcheck.check_model",
                            self._after_check)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- count hooks ------------------------------------------------------

    def _after_matmul(self, args, result) -> None:
        self.counts["tensor.matmul.gflop"] += _matmul_gflop(args[0], args[1])

    def _after_backward(self, args, result) -> None:
        self.tape_lengths.append(len(args[0].tape))

    def _after_tape_enter(self, args, result) -> None:
        # a training step runs from entering its tape to the end of Adam.step
        if self._inside("train.train"):
            self._local.step_start = time.perf_counter()
            self.step_starts.append((self._local.step_start,
                                     self._stack()[-1][0]))

    def _after_adam(self, args, result) -> None:
        start = getattr(self._local, "step_start", None)
        if start is not None and self._inside("train.train"):
            self.step_ms.append((time.perf_counter() - start) * 1e3)
            self._local.step_start = None

    def _after_vision_encode(self, args, result) -> None:
        self.counts["vision.frames_encoded"] += args[1].shape[0]

    def _after_train(self, args, result) -> None:
        if result:
            self.loss_final = float(result[-1].mean_loss)

    def _after_check(self, args, result) -> None:
        self.counts["gradcheck.checks"] += result.checked

    # -- reports ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        own = {sid: end - start for sid, _, start, end, _ in self.spans}
        for _, _, start, end, parent in self.spans:
            if parent is not None and parent in own:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, float]:
        """Span name -> summed duration (inclusive of children)."""
        out: dict[str, float] = defaultdict(float)
        for _, name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def layer_self_times(self) -> dict[str, float]:
        """Layer (span-name prefix) -> summed self time."""
        own = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for sid, name, _, _, _ in self.spans:
            out[name.split(".", 1)[0]] += own[sid]
        return dict(out)

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tname\tstart_s\tend_s\tparent\trun\n")
            for sid, name, start, end, parent in sorted(self.spans):
                f.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t"
                        f"{'' if parent is None else parent}\t{self.run_id}\n")
