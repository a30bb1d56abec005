"""Command-line interface.

Subcommands: gen-data, train, eval, ablate-frames, gradcheck,
dump-prompts. Exit codes: 0 success, 1 usage error, 2 data error,
3 numeric-verification failure. All numeric table output uses fixed
4-decimal formatting so logs diff cleanly.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from . import gradcheck as gradcheck_mod
from .data import Dataset, SyntheticSpec, generate, load_dataset
from .errors import DataError, UsageError, VerificationError
from .metrics import report_text, report_tsv
from .model import (ModelConfig, VideoAttributeModel, checkpoint_uses_fusion,
                    load_model_config)
from .schema import default_schema, load_schema
from .text import PromptTemplate, split_expand
from .tensor import ContractError, DimensionError
from .train import TrainConfig, evaluate, train, write_log

# Flag defaults come from the dataclasses and functions they feed.
_SPEC = SyntheticSpec()
_TRAIN = TrainConfig()
_GRADCHECK = {name: p.default for name, p in
              inspect.signature(gradcheck_mod.run_all).parameters.items()}


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
    p.add_argument("--out", default="data", help="output directory")
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
    p.add_argument("--save-every", type=int, default=_TRAIN.save_every)
    p.add_argument("--checkpoint", default="model.ckpt")
    p.add_argument("--log", default="train_log.tsv")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_model_flags(p, allow_no_fusion=False)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--frames", type=int, default=_TRAIN.frames)
    p.add_argument("--out", default=None, help="TSV report path (optional)")

    p = sub.add_parser("ablate-frames",
                       help="train/evaluate once per frame count")
    _add_model_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--frames", default="1,2,4,6",
                   help="comma-separated frame counts")
    p.add_argument("--epochs", type=int, default=_TRAIN.epochs)
    p.add_argument("--seed", type=int, default=_TRAIN.seed)
    p.add_argument("--out", default=None, help="summary TSV path (optional)")

    p = sub.add_parser("gradcheck",
                       help="verify every backward rule against finite differences")
    p.add_argument("--trials", type=int, default=_GRADCHECK["op_trials"])
    p.add_argument("--model-coords", type=int, default=_GRADCHECK["model_coords"])
    p.add_argument("--seed", type=int, default=_GRADCHECK["seed"])

    p = sub.add_parser("dump-prompts",
                       help="print raw -> phrase -> sentence for every class")
    p.add_argument("--schema", default=None)
    return parser


def _add_model_flags(p, allow_no_fusion: bool = True) -> None:
    p.add_argument("--config", default=None, help="model architecture file")
    if allow_no_fusion:
        p.add_argument("--no-fusion", action="store_true",
                       help="replace the fusion stack with a shared linear layer")


def _load_schema_arg(arg):
    return load_schema(arg) if arg else default_schema()


def _model_config(args, use_fusion: bool = True) -> ModelConfig:
    if args.config:
        return load_model_config(args.config, use_fusion=use_fusion)
    return ModelConfig(use_fusion=use_fusion)


def _check_output_dirs(*paths) -> None:
    """Fail before any work starts if an output file's directory is missing."""
    for path in filter(None, paths):
        parent = Path(path).parent
        if not parent.is_dir():
            raise FileNotFoundError(f"output directory does not exist: {parent}")


def _load_data(data_arg: str) -> Dataset:
    """``--data`` is a manifest or the directory holding ``manifest.txt``."""
    path = Path(data_arg)
    return load_dataset(path / "manifest.txt" if path.is_dir() else path)


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
    _check_output_dirs(args.checkpoint, args.log)
    config = _model_config(args, use_fusion=not args.no_fusion)
    cfg = TrainConfig(
        lr=args.lr, weight_decay=args.weight_decay, epochs=args.epochs,
        batch_size=args.batch_size, seed=args.seed, frames=args.frames,
        freeze_encoders=not args.no_freeze, save_every=args.save_every)
    dataset = _load_data(args.data)
    model = VideoAttributeModel(config, dataset.schema, seed=cfg.seed)
    logs = train(model, dataset.split("train"), dataset.split("test"), cfg,
                 checkpoint_path=args.checkpoint)
    write_log(logs, args.log)
    for row in logs:
        print(f"epoch {row.epoch}\tloss {row.mean_loss:.4f}\tf1 {row.heldout_f1:.4f}")
    print(f"checkpoint {args.checkpoint}")
    print(f"log {args.log}")
    return 0


def cmd_eval(args) -> int:
    _check_output_dirs(args.out)
    dataset = _load_data(args.data)
    use_fusion = checkpoint_uses_fusion(args.checkpoint)
    config = _model_config(args, use_fusion=use_fusion)
    model = VideoAttributeModel(config, dataset.schema, seed=0)
    model.load(args.checkpoint)
    report = evaluate(model, dataset.split(args.split), args.frames)
    tsv = report_tsv(report)
    print(tsv, end="")
    if args.out:
        Path(args.out).write_text(tsv, encoding="utf-8")
        Path(args.out).with_suffix(".txt").write_text(report_text(report),
                                                      encoding="utf-8")
    return 0


def cmd_ablate_frames(args) -> int:
    try:
        counts = [int(v) for v in args.frames.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad --frames list {args.frames!r}") from None
    if not counts or any(c < 1 for c in counts):
        raise UsageError(f"bad --frames list {args.frames!r}")
    _check_output_dirs(args.out)
    config = _model_config(args, use_fusion=not args.no_fusion)
    dataset = _load_data(args.data)
    lines = ["frames\tprecision\trecall\tf1"]
    for k in counts:
        model = VideoAttributeModel(config, dataset.schema, seed=args.seed)
        train(model, dataset.split("train"), [],
              TrainConfig(epochs=args.epochs, seed=args.seed, frames=k))
        report = evaluate(model, dataset.split("test"), k)
        lines.append(f"{k}\t{report.macro_precision:.4f}"
                     f"\t{report.macro_recall:.4f}\t{report.macro_f1:.4f}")
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.out:
        Path(args.out).write_text(table, encoding="utf-8")
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
    tpl = PromptTemplate(schema.template)
    for raw in schema.raw_strings:
        phrase = split_expand(raw)
        print(f"{raw}\t{phrase}\t{tpl.apply(phrase)}")
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
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3
    except (ContractError, DimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
