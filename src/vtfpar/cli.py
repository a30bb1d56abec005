"""Command-line interface: gen-data, train, eval, ablate-frames, gradcheck,
dump-prompts. Exit codes: 0 success, 1 usage error or a request too large
to allocate, 2 data error, 3 numeric-verification failure. A dataset command
checks, in order: flags (and the ``--config`` of train and ablate-frames);
in ``_prelude``, the manifest, its splits and the output paths; eval's
checkpoint, then its ``--config``; the model's size. Only then does
``load_frames`` read the frames of the splits the command uses. It prints
one TSV in fixed number formats and writes it to its output flag (``_emit``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import gradcheck as gradcheck_mod
from .data import SyntheticSpec, generate, load_frames, pick_split, read_manifest
from .errors import DataError, UsageError, VerificationError
from .metrics import report_tsv
from .model import ModelConfig, VideoAttributeModel, load_model_config
from .parallel import worker_count
from .params import load_checkpoint, read_checkpoint_arrays
from .schema import default_schema, load_schema
from .text import attribute_sentences, split_expand
from .train import TrainConfig, evaluate, log_tsv, run_arm, train

# Flag defaults come from the dataclasses and modules they feed.
_SPEC = SyntheticSpec()
_TRAIN = TrainConfig()


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vtfpar",
                     description="Video pedestrian attribute recognition, desk scale.")
    sub = parser.add_subparsers(dest="command", required=True,
                              parser_class=_Parser)

    p = sub.add_parser("gen-data",
                       help="generate a synthetic tracklet dataset")
    p.add_argument("--out", default="data", type=_output_path,
                   help="output directory; each frames file and the manifest are "
                        "overwritten whole, and files from an older tree stay")
    p.add_argument("--schema", default=None, help="schema file (default: built-in)")
    p.add_argument("--tracklets", type=int, default=_SPEC.n_tracklets)
    p.add_argument("--frames", type=int, default=_SPEC.frames_per_tracklet)
    p.add_argument("--height", type=int, default=_SPEC.height)
    p.add_argument("--width", type=int, default=_SPEC.width)
    p.add_argument("--noise", type=float, default=_SPEC.noise_sigma)
    p.add_argument("--occlusion", type=float, default=_SPEC.occlusion_p)
    p.add_argument("--split-fraction", type=float, default=_SPEC.split_fraction)
    p.add_argument("--seed", type=int, default=_SPEC.seed)

    p = sub.add_parser("train", help="train a model")
    _add_model_flags(p)
    p.add_argument("--data", required=True, help="dataset manifest or its directory")
    p.add_argument("--epochs", type=int, default=_TRAIN.epochs)
    p.add_argument("--lr", type=float, default=_TRAIN.lr)
    p.add_argument("--weight-decay", type=float, default=_TRAIN.weight_decay)
    p.add_argument("--batch-size", type=int, default=_TRAIN.batch_size)
    p.add_argument("--frames", type=int, default=_TRAIN.frames)
    p.add_argument("--seed", type=int, default=_TRAIN.seed)
    p.add_argument("--no-freeze", action="store_true",
                   help="also train the encoder parameters")
    p.add_argument("--checkpoint", default="model.ckpt", type=_output_path)
    p.add_argument("--log", default="train_log.tsv", type=_output_path)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--config", default=None, help="model architecture file")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--frames", type=int, default=_TRAIN.frames)
    p.add_argument("--out", default=None, type=_output_path,
                   help="TSV report path (optional)")

    p = sub.add_parser("ablate-frames",
                       help="train/evaluate once per frame count")
    _add_model_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--frames", default="1,2,4,6",
                   help="comma-separated frame counts")
    p.add_argument("--epochs", type=int, default=_TRAIN.epochs)
    p.add_argument("--seed", type=int, default=_TRAIN.seed)
    p.add_argument("--out", default=None, type=_output_path,
                   help="summary TSV path (optional)")

    p = sub.add_parser("gradcheck",
                       help="verify every backward rule against finite differences")
    p.add_argument("--trials", type=int, default=gradcheck_mod.OP_TRIALS)
    p.add_argument("--model-coords", type=int, default=gradcheck_mod.MODEL_COORDS)
    p.add_argument("--seed", type=int, default=gradcheck_mod.SEED)

    p = sub.add_parser("dump-prompts",
                       help="print raw -> phrase -> sentence for every class")
    p.add_argument("--schema", default=None)
    return parser


def _output_path(value: str) -> str:
    """An output flag's value; empty, it would read as the flag not given."""
    if not value:
        raise argparse.ArgumentTypeError("empty output path")
    return value


def _add_model_flags(p) -> None:
    p.add_argument("--config", default=None, help="model architecture file")
    p.add_argument("--no-fusion", action="store_true",
                   help="zero fusion blocks: heads read text + mean visual token")


def _load_schema_arg(arg):
    return load_schema(arg) if arg else default_schema()


def _model_config(args, no_fusion: bool) -> ModelConfig:
    config = load_model_config(args.config) if args.config else ModelConfig()
    if no_fusion:
        return replace(config, fusion=replace(config.fusion, blocks=0))
    return config


def _prelude(data, *paths, reads=(), needs=("train", "test")) -> tuple:
    """Read the manifest ``data`` names, once; return its schema and the
    splits in ``needs``. Fail if one is missing, an output's directory is
    missing, an output is a directory, two outputs are one file, or an
    output is a file this command reads: one in ``reads`` or the dataset's."""
    manifest, schema_path, schema, splits = read_manifest(data)
    for name in needs:
        pick_split(splits, name)
    listed = [frames for tracklets in splits.values() for frames, _ in tracklets]
    paths = [Path(p) for p in paths if p]
    inputs = {Path(p).resolve() for p in (*reads, manifest, schema_path, *listed) if p}
    for path in paths:
        if not path.parent.is_dir():
            raise FileNotFoundError(f"output directory does not exist: {path.parent}")
        if path.is_dir():
            raise IsADirectoryError(f"output path is a directory: {path}")
        if path.resolve() in inputs:
            raise UsageError(f"output path {path} names a file this command reads")
    if len({p.resolve() for p in paths}) < len(paths):
        raise UsageError(f"output paths name one file: {' and '.join(map(str, paths))}")
    return schema, {name: splits[name] for name in splits if name in needs}


def _emit(tsv: str, path) -> None:
    """Print a command's TSV, and write the same text to ``path`` if given."""
    print(tsv, end="")
    if path:
        Path(path).write_text(tsv, encoding="utf-8")


def cmd_gen_data(args) -> int:
    spec = SyntheticSpec(
        n_tracklets=args.tracklets, frames_per_tracklet=args.frames,
        height=args.height, width=args.width, noise_sigma=args.noise,
        occlusion_p=args.occlusion, split_fraction=args.split_fraction,
        seed=args.seed)
    schema = _load_schema_arg(args.schema)
    manifest = generate(spec, schema, args.out)
    print(manifest)
    return 0


def cmd_train(args) -> int:
    config = _model_config(args, args.no_fusion)
    cfg = TrainConfig(
        lr=args.lr, weight_decay=args.weight_decay, epochs=args.epochs,
        batch_size=args.batch_size, seed=args.seed, frames=args.frames,
        freeze_encoders=not args.no_freeze)
    schema, splits = _prelude(args.data, args.checkpoint, args.log, reads=(args.config,))
    model = VideoAttributeModel(config, schema, seed=cfg.seed)
    dataset = load_frames(schema, splits)
    logs = train(model, dataset.split("train"), dataset.split("test"), cfg,
                 checkpoint_path=args.checkpoint)
    _emit(log_tsv(logs), args.log)
    return 0


def cmd_eval(args) -> int:
    if args.frames < 1:
        raise UsageError(f"bad --frames {args.frames}: need at least 1")
    schema, splits = _prelude(args.data, args.out, reads=(args.checkpoint, args.config),
                              needs=(args.split,))
    # a checkpoint without fusion.* names is of the no-fusion variant
    arrays = read_checkpoint_arrays(args.checkpoint)
    no_fusion = not any(n.startswith("fusion.") for n in arrays)
    model = VideoAttributeModel(_model_config(args, no_fusion), schema, seed=0)
    load_checkpoint(model.params, arrays, args.checkpoint)
    dataset = load_frames(schema, splits)
    report = evaluate(model, dataset.split(args.split), args.frames)
    _emit(report_tsv(report), args.out)
    return 0


def cmd_ablate_frames(args) -> int:
    try:
        counts = [int(v) for v in args.frames.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad --frames list {args.frames!r}") from None
    if not counts or any(c < 1 for c in counts):
        raise UsageError(f"bad --frames list {args.frames!r}")
    config = _model_config(args, args.no_fusion)
    cfgs = [TrainConfig(epochs=args.epochs, seed=args.seed, frames=k) for k in counts]
    schema, splits = _prelude(args.data, args.out, reads=(args.config,))
    VideoAttributeModel(config, schema, seed=args.seed)  # its size, before the frames
    dataset = load_frames(schema, splits)
    lines = ["frames\tprecision\trecall\tf1"]
    for cfg in cfgs:
        report = run_arm(config, dataset, cfg)
        lines.append(f"{cfg.frames}\t{report.macro_precision:.4f}"
                     f"\t{report.macro_recall:.4f}\t{report.macro_f1:.4f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gradcheck(args) -> int:
    report = gradcheck_mod.run_all(op_trials=args.trials,
                                   model_coords=args.model_coords, seed=args.seed)
    print("op\tmax_rel_err\tchecked\tstatus")
    for r in report.results:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name}\t{r.max_rel_err:.2e}\t{r.checked}\t{status}")
    print(f"elapsed\t{report.elapsed_s:.1f}s")
    if not report.passed:
        failed = [r.name for r in report.results if not r.passed]
        raise VerificationError(f"gradient check failed for: {', '.join(failed)}")
    return 0


def cmd_dump_prompts(args) -> int:
    schema = _load_schema_arg(args.schema)
    for raw, sentence in zip(schema.raw_strings, attribute_sentences(schema)):
        print(f"{raw}\t{split_expand(raw)}\t{sentence}")
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate-frames": cmd_ablate_frames,
    "gradcheck": cmd_gradcheck,
    "dump-prompts": cmd_dump_prompts,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        worker_count()  # a bad VTFPAR_THREADS stops before any output is written
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
