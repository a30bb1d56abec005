"""CLI behaviour: exit codes, output formats, end-to-end subcommands."""

import importlib

import numpy as np
import pytest

import vtfpar.cli as cli_mod
import vtfpar.tensor as tensor_mod
from vtfpar.cli import build_parser, main
from vtfpar.data import SyntheticSpec, load_dataset
from vtfpar.model import ModelConfig, VideoAttributeModel
from vtfpar.params import read_checkpoint_arrays
from vtfpar.schema import default_schema, save_schema
from vtfpar.train import TrainConfig, evaluate, train
from tests.test_data import small_schema

# the package's ``train`` attribute is the function, not the module
train_mod = importlib.import_module("vtfpar.train")


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """A small on-disk dataset with the 3-class schema, built via the CLI."""
    root = tmp_path_factory.mktemp("cli_data")
    schema_path = root / "schema.txt"
    save_schema(small_schema(), schema_path)
    out = root / "data"
    rc = main(["gen-data", "--out", str(out), "--schema", str(schema_path),
               "--tracklets", "24", "--frames", "3", "--height", "12",
               "--width", "10", "--split-fraction", "0.5", "--seed", "3"])
    assert rc == 0
    return out


def test_unknown_flag_rejected():
    assert main(["gen-data", "--bogus"]) == 1


def test_unknown_command_rejected():
    assert main(["frobnicate"]) == 1


def test_gen_data_bad_split_fraction(tmp_path, capsys):
    rc = main(["gen-data", "--out", str(tmp_path / "d"), "--split-fraction", "1.5"])
    assert rc == 1
    assert "split_fraction" in capsys.readouterr().err


def test_gen_data_prints_manifest(tiny_dataset, capsys):
    assert (tiny_dataset / "manifest.txt").exists()


def test_gen_data_seed_repeat_identical(tmp_path):
    from tests.test_data import tree_digest
    args = ["--tracklets", "6", "--frames", "2", "--height", "8", "--width", "8",
            "--split-fraction", "0.5", "--seed", "9"]
    assert main(["gen-data", "--out", str(tmp_path / "a")] + args) == 0
    assert main(["gen-data", "--out", str(tmp_path / "b")] + args) == 0
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_train_missing_dataset_exits_2(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "absent")])
    assert rc == 2


@pytest.mark.parametrize("command", [
    ["train", "--data", "d"],
    ["eval", "--data", "d", "--checkpoint", "m.ckpt"],
    ["ablate-frames", "--data", "d"],
])
def test_schema_flag_rejected_where_manifest_names_schema(command, capsys):
    # these commands read the schema from the dataset manifest
    assert main(command + ["--schema", "/no/such/schema.txt"]) == 1
    assert "--schema" in capsys.readouterr().err


def test_gen_data_defaults_follow_synthetic_spec():
    args = build_parser().parse_args(["gen-data"])
    spec = SyntheticSpec()
    assert (args.tracklets, args.height, args.width) == (
        spec.n_tracklets, spec.height, spec.width)


def test_train_bad_config_exits_1(tiny_dataset, tmp_path, capsys):
    config = tmp_path / "model.txt"
    config.write_text("[vision]\nheads = 5\n", encoding="utf-8")
    rc = main(["train", "--data", str(tiny_dataset), "--config", str(config),
               "--checkpoint", str(tmp_path / "m.ckpt"),
               "--log", str(tmp_path / "l.tsv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--checkpoint", "--log"])
def test_train_missing_output_dir_exits_2_before_training(
        flag, tiny_dataset, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "train",
                        lambda *a, **k: pytest.fail("training ran"))
    paths = {"--checkpoint": str(tmp_path / "m.ckpt"),
             "--log": str(tmp_path / "l.tsv")}
    paths[flag] = str(tmp_path / "nodir" / "out")
    rc = main(["train", "--data", str(tiny_dataset), "--epochs", "1",
               "--checkpoint", paths["--checkpoint"], "--log", paths["--log"]])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nodir" in err and err.count("\n") == 1


def test_train_one_epoch_writes_log_and_checkpoint(tiny_dataset, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    log = tmp_path / "log.tsv"
    rc = main(["train", "--data", str(tiny_dataset), "--epochs", "1",
               "--checkpoint", str(ckpt), "--log", str(log), "--seed", "1"])
    assert rc == 0
    rows = log.read_text().strip().split("\n")
    assert rows[0] == "epoch\tmean_loss\theldout_macro_f1"
    assert len(rows) == 2
    assert ckpt.exists()


def test_no_fusion_checkpoint_lacks_fusion_names(tiny_dataset, tmp_path):
    ckpt = tmp_path / "nf.ckpt"
    rc = main(["train", "--data", str(tiny_dataset), "--epochs", "1",
               "--no-fusion", "--checkpoint", str(ckpt),
               "--log", str(tmp_path / "l.tsv")])
    assert rc == 0
    names = list(read_checkpoint_arrays(ckpt))
    assert not any(n.startswith("fusion.") for n in names)
    assert any(n.startswith("nofusion.") for n in names)


def test_eval_prints_table_and_writes_tsv(tiny_dataset, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--data", str(tiny_dataset), "--epochs", "1",
                 "--checkpoint", str(ckpt), "--log", str(tmp_path / "l.tsv")]) == 0
    capsys.readouterr()
    out_tsv = tmp_path / "report.tsv"
    rc = main(["eval", "--data", str(tiny_dataset), "--checkpoint", str(ckpt),
               "--out", str(out_tsv), "--frames", "3"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.startswith("group\t")
    assert "MACRO\t" in printed
    assert out_tsv.exists()
    assert out_tsv.with_suffix(".txt").exists()


def test_eval_auto_detects_no_fusion_variant(tiny_dataset, tmp_path, capsys):
    ckpt = tmp_path / "nf.ckpt"
    assert main(["train", "--data", str(tiny_dataset), "--epochs", "1",
                 "--no-fusion", "--checkpoint", str(ckpt),
                 "--log", str(tmp_path / "l.tsv")]) == 0
    rc = main(["eval", "--data", str(tiny_dataset), "--checkpoint", str(ckpt),
               "--frames", "3"])
    assert rc == 0


def test_eval_schema_mismatch_exits_2(tmp_path, capsys):
    # checkpoint trained on the tiny schema, dataset with the default schema
    root = tmp_path / "d43"
    assert main(["gen-data", "--out", str(root), "--tracklets", "4",
                 "--frames", "2", "--height", "10", "--width", "8",
                 "--split-fraction", "0.5"]) == 0
    schema_path = tmp_path / "small.txt"
    save_schema(small_schema(), schema_path)
    mini = tmp_path / "dmini"
    assert main(["gen-data", "--out", str(mini), "--schema", str(schema_path),
                 "--tracklets", "4", "--frames", "2", "--height", "10",
                 "--width", "8", "--split-fraction", "0.5"]) == 0
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--data", str(mini), "--epochs", "1",
                 "--checkpoint", str(ckpt), "--log", str(tmp_path / "l.tsv")]) == 0
    rc = main(["eval", "--data", str(root), "--checkpoint", str(ckpt)])
    assert rc == 2


def test_ablate_frames_rows(tiny_dataset, tmp_path, capsys):
    out = tmp_path / "ablate.tsv"
    rc = main(["ablate-frames", "--data", str(tiny_dataset), "--frames", "1,2",
               "--epochs", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "frames\tprecision\trecall\tf1"
    assert len(lines) == 3
    assert lines[1].startswith("1\t") and lines[2].startswith("2\t")


def test_ablate_frames_evaluates_once_per_frame_count(tiny_dataset, monkeypatch, capsys):
    # the table that training with per-epoch held-out evaluation gives
    dataset = load_dataset(tiny_dataset / "manifest.txt")
    seed = TrainConfig().seed
    expected = ["frames\tprecision\trecall\tf1"]
    for k in (1, 2):
        model = VideoAttributeModel(ModelConfig(), dataset.schema, seed=seed)
        train(model, dataset.split("train"), dataset.split("test"),
              TrainConfig(epochs=2, seed=seed, frames=k))
        r = evaluate(model, dataset.split("test"), k)
        expected.append(f"{k}\t{r.macro_precision:.4f}\t{r.macro_recall:.4f}\t{r.macro_f1:.4f}")

    passes = []

    def counted(*args, **kwargs):
        passes.append(args[2])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "evaluate", counted)
    monkeypatch.setattr(train_mod, "evaluate", counted)
    capsys.readouterr()
    assert main(["ablate-frames", "--data", str(tiny_dataset), "--frames", "1,2",
                 "--epochs", "2"]) == 0
    assert passes == [1, 2]
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


def test_ablate_frames_bad_list(tiny_dataset):
    assert main(["ablate-frames", "--data", str(tiny_dataset),
                 "--frames", "1,x"]) == 1


def test_gradcheck_passes(capsys):
    rc = main(["gradcheck", "--trials", "2", "--model-coords", "30"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("op\tmax_rel_err")
    assert "full_model" in out


def test_gradcheck_corrupted_rule_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(tensor_mod, "_gelu_grad", lambda x, cdf: np.zeros_like(x))
    rc = main(["gradcheck", "--trials", "1", "--model-coords", "10"])
    assert rc == 3
    assert "gelu" in capsys.readouterr().err


class TestDumpPrompts:
    def test_worked_example_line(self, capsys):
        assert main(["dump-prompts"]) == 0
        out = capsys.readouterr().out
        assert ("Age ≤ 40\tage less than 40\t"
                "the pedestrian has an attribute age less than 40") in out

    def test_line_count_matches_classes(self, capsys):
        assert main(["dump-prompts"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == default_schema().n_classes

    def test_byte_stable_across_runs(self, capsys):
        assert main(["dump-prompts"]) == 0
        first = capsys.readouterr().out
        assert main(["dump-prompts"]) == 0
        assert capsys.readouterr().out == first

    def test_custom_schema(self, tmp_path, capsys):
        schema_path = tmp_path / "s.txt"
        save_schema(small_schema(), schema_path)
        assert main(["dump-prompts", "--schema", str(schema_path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
