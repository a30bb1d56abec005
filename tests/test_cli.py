"""CLI behaviour: exit codes, output formats, end-to-end subcommands."""

import importlib
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vtfpar.cli as cli_mod
import vtfpar.tensor as tensor_mod
from vtfpar.cli import build_parser, main
from vtfpar.data import SyntheticSpec, load_dataset, read_frame, write_frame
from vtfpar.errors import UsageError
from vtfpar.gradcheck import MODEL_COORDS, OP_TRIALS, SEED
from vtfpar.model import ModelConfig, VideoAttributeModel
from vtfpar.params import read_checkpoint_arrays
from vtfpar.schema import default_schema, save_schema
from vtfpar.tensor import ContractError, DimensionError
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


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_bad_thread_count_exits_1_before_writing(value, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VTFPAR_THREADS", value)
    out = tmp_path / "d"
    assert main(["gen-data", "--out", str(out), "--tracklets", "2"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "VTFPAR_THREADS" in err and repr(value) in err
    assert not out.exists()


def test_empty_thread_count_keeps_default(tmp_path, monkeypatch):
    monkeypatch.setenv("VTFPAR_THREADS", "")
    assert main(["gen-data", "--out", str(tmp_path / "d"), "--tracklets", "2",
                 "--frames", "2", "--height", "8", "--width", "8"]) == 0


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


def test_gradcheck_defaults_are_gradcheck_constants():
    args = build_parser().parse_args(["gradcheck"])
    assert (args.trials, args.model_coords, args.seed) == (OP_TRIALS, MODEL_COORDS, SEED)


def test_train_bad_config_exits_1(tiny_dataset, tmp_path, capsys):
    config = tmp_path / "model.txt"
    config.write_text("[vision]\nheads = 5\n", encoding="utf-8")
    rc = main(["train", "--data", str(tiny_dataset), "--config", str(config),
               "--checkpoint", str(tmp_path / "m.ckpt"),
               "--log", str(tmp_path / "l.tsv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("section,key,value", [
    ("vision", "heads", 0), ("text", "heads", 0), ("fusion", "heads", 0),
    ("vision", "patch_size", 0), ("vision", "dim", 0), ("vision", "dim", -8),
    ("vision", "image_size", 0), ("fusion", "blocks", -1), ("text", "mlp_ratio", 0),
    ("vision", "heads", "abc"),
])
def test_train_bad_geometry_exits_1_before_loading_data(section, key, value,
                                                        tmp_path, capsys):
    # --data does not exist: reaching the data would exit 2, not 1
    config = tmp_path / "model.txt"
    config.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
    rc = main(["train", "--data", str(tmp_path / "missing"), "--config", str(config),
               "--checkpoint", str(tmp_path / "m.ckpt"),
               "--log", str(tmp_path / "l.tsv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("section,value", [("text", 32), ("fusion", 96)])
def test_train_config_width_only_under_vision_exits_1(section, value, tmp_path,
                                                      capsys):
    # the token width is [vision] dim alone; reaching the missing --data would exit 2
    config = tmp_path / "model.txt"
    config.write_text(f"[{section}]\ndim = {value}\n", encoding="utf-8")
    rc = main(["train", "--data", str(tmp_path / "missing"), "--config", str(config),
               "--checkpoint", str(tmp_path / "m.ckpt"),
               "--log", str(tmp_path / "l.tsv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{config}:2:" in err


@pytest.mark.parametrize("flag,value", [
    ("--lr", "nan"), ("--lr", "inf"), ("--weight-decay", "nan"), ("--weight-decay", "inf"),
])
def test_train_non_finite_rate_exits_1_before_loading_data(flag, value, tmp_path, capsys):
    # --data does not exist: reaching the data would exit 2, not 1
    checkpoint, log = tmp_path / "m.ckpt", tmp_path / "l.tsv"
    rc = main(["train", "--data", str(tmp_path / "missing"), flag, value,
               "--checkpoint", str(checkpoint), "--log", str(log)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not checkpoint.exists() and not log.exists()


@pytest.mark.parametrize("command", [
    ["gen-data", "--out", "d", "--tracklets", "2", "--seed", "-3"],
    ["train", "--data", "missing", "--seed", "-1"],
    ["ablate-frames", "--data", "missing", "--seed", "-2", "--out", "a.tsv"],
    ["ablate-frames", "--data", "missing", "--epochs", "0", "--out", "a.tsv"],
    ["gradcheck", "--trials", "1", "--model-coords", "1", "--seed", "-1"],
])
def test_negative_seed_exits_1_before_any_work(command, tmp_path, capsys, monkeypatch):
    # --data does not exist: reaching the data would exit 2, not 1
    monkeypatch.chdir(tmp_path)
    assert main(command) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _subprocess_env(**extra) -> dict:
    """This environment, with this package first on the path."""
    path = [str(Path(cli_mod.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **extra)


@pytest.mark.parametrize("module", ["vtfpar", "vtfpar.cli"])
def test_python_m_runs_the_cli(module, tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", module, "train", "--data", str(tmp_path / "missing")],
        cwd=tmp_path, env=_subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("data error: ") and done.stderr.count("\n") == 1


def _stdout_at_blas_threads(threads: int, args: list[str]) -> str:
    done = subprocess.run([sys.executable, "-m", "vtfpar", *args], check=True,
                          env=_subprocess_env(OPENBLAS_NUM_THREADS=str(threads)),
                          capture_output=True, text=True)
    return done.stdout


# at most 2 BLAS threads: more would oversubscribe a small machine. Unfrozen
# training and larger frozen batches differ between 1 and 2 (README, Determinism).
def test_frozen_training_same_bits_at_1_and_2_blas_threads(tmp_path):
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--tracklets", "40"]) == 0
    outputs = []
    for threads in (1, 2):
        ckpt, log = tmp_path / f"m{threads}.ckpt", tmp_path / f"l{threads}.tsv"
        _stdout_at_blas_threads(threads, ["train", "--data", str(data), "--epochs", "2",
                                          "--checkpoint", str(ckpt), "--log", str(log)])
        outputs.append((ckpt.read_bytes(), log.read_bytes()))
    assert outputs[0] == outputs[1]


def test_gradcheck_table_same_at_1_and_2_blas_threads():
    args = ["gradcheck", "--trials", "2", "--model-coords", "60"]
    tables = [[line for line in _stdout_at_blas_threads(threads, args).splitlines()
               if not line.startswith("elapsed\t")] for threads in (1, 2)]
    assert tables[0] == tables[1]
    assert len(tables[0]) == 2 + len(tensor_mod.OP_KINDS)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_data_non_finite_noise_exits_1_before_writing(value, tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["gen-data", "--out", str(out), "--tracklets", "2",
                 "--noise", value]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "noise_sigma" in err
    assert not out.exists()


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


def test_train_checkpoint_and_log_on_one_file_exits_1_before_training(
        tiny_dataset, tmp_path, capsys, monkeypatch):
    # the log would overwrite the checkpoint; a later eval then reads the log
    monkeypatch.setattr(cli_mod, "train",
                        lambda *a, **k: pytest.fail("training ran"))
    (tmp_path / "sub").mkdir()
    same, alias = tmp_path / "out.bin", tmp_path / "sub" / ".." / "out.bin"
    rc = main(["train", "--data", str(tiny_dataset), "--epochs", "1",
               "--checkpoint", str(same), "--log", str(alias)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "out.bin" in err and err.count("\n") == 1
    assert not same.exists()


def test_eval_out_with_txt_suffix_exits_1_before_loading(
        tiny_dataset, tmp_path, capsys, monkeypatch):
    # --out r.txt: the text report (r.txt) would overwrite the TSV report
    monkeypatch.setattr(cli_mod, "_load_data",
                        lambda *a, **k: pytest.fail("data loaded"))
    out = tmp_path / "r.txt"
    rc = main(["eval", "--data", str(tiny_dataset), "--checkpoint",
               str(tmp_path / "m.ckpt"), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "r.txt" in err and err.count("\n") == 1
    assert not out.exists()


def _assert_refused_and_unchanged(argv, read, capsys, monkeypatch):
    """``argv`` names ``read`` as an input and an output: exit 1, file kept."""
    monkeypatch.setattr(cli_mod, "_load_data",
                        lambda *a, **k: pytest.fail("data loaded"))
    before = read.read_bytes()
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"output path {read} names a file this command reads" in err
    assert err.count("\n") == 1
    assert read.read_bytes() == before


def test_train_log_on_the_manifest_exits_1(tiny_dataset, tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    manifest = data / "manifest.txt"
    _assert_refused_and_unchanged(
        ["train", "--data", str(data), "--epochs", "1",
         "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(manifest)],
        manifest, capsys, monkeypatch)


def test_eval_out_on_its_checkpoint_exits_1(tiny_dataset, tmp_path, capsys, monkeypatch):
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--data", str(tiny_dataset), "--epochs", "1",
                 "--checkpoint", str(ckpt), "--log", str(tmp_path / "l.tsv")]) == 0
    _assert_refused_and_unchanged(
        ["eval", "--data", str(tiny_dataset), "--checkpoint", str(ckpt),
         "--out", str(ckpt)], ckpt, capsys, monkeypatch)


def test_ablate_frames_out_on_its_config_exits_1(tiny_dataset, tmp_path, capsys,
                                                monkeypatch):
    config = tmp_path / "model.txt"
    config.write_text("[fusion]\nblocks = 1\n", encoding="utf-8")
    _assert_refused_and_unchanged(
        ["ablate-frames", "--data", str(tiny_dataset), "--frames", "1", "--epochs", "1",
         "--config", str(config), "--out", str(config)], config, capsys, monkeypatch)


def test_checkpoint_with_a_key_bias_record_exits_2(tiny_dataset, tmp_path, capsys):
    # a checkpoint written before keys lost their bias: one extra record,
    # a valid CRC; refused by the names check, with no compatibility path
    model = VideoAttributeModel(ModelConfig(), small_schema(), seed=0)
    model.params.add("fusion.block0.attn.k.bias", np.zeros(model.config.fusion.dim))
    ckpt = tmp_path / "old.ckpt"
    model.save(ckpt)
    rc = main(["eval", "--data", str(tiny_dataset), "--checkpoint", str(ckpt)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "fusion.block0.attn.k.bias" in err and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_checkpoint_with_a_non_finite_value_exits_2(value, tiny_dataset, tmp_path, capsys):
    # save() seals the CRC, so only the value check can refuse the record
    model = VideoAttributeModel(ModelConfig(), small_schema(), seed=0)
    model.params["vision.block0.mlp.fc1.weight"].data[0, 0] = float(value)
    ckpt = tmp_path / "bad.ckpt"
    model.save(ckpt)
    rc = main(["eval", "--data", str(tiny_dataset), "--checkpoint", str(ckpt)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (f"data error: checkpoint {ckpt}: "
                            "vision.block0.mlp.fc1.weight holds a non-finite value\n")


def test_checkpoint_with_a_huge_finite_value_exits_3(tiny_dataset, tmp_path, capsys):
    # finite, so the checkpoint loads; layer norm's square overflows, and
    # the row it normalizes comes out finite
    model = VideoAttributeModel(ModelConfig(), small_schema(), seed=0)
    model.params["vision.block0.mlp.fc1.weight"].data[0, 0] = 1e38
    ckpt = tmp_path / "huge.ckpt"
    model.save(ckpt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        rc = main(["eval", "--data", str(tiny_dataset), "--checkpoint", str(ckpt)])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err == ("verification failure: visual features: "
                            "overflow encountered in square\n")


def test_diverging_training_exits_3_with_one_line(tiny_dataset, tmp_path, capsys):
    # the weights stay finite while Adam's second moment overflows, so only
    # numpy's raised overflow can stop the run
    ckpt = tmp_path / "m.ckpt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        rc = main(["train", "--data", str(tiny_dataset), "--epochs", "3", "--lr", "1e3",
                   "--checkpoint", str(ckpt), "--log", str(tmp_path / "log.tsv")])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert re.fullmatch(r"verification failure: training at epoch \d+, step \d+: "
                        r"overflow encountered in \w+\n", captured.err), captured.err
    assert not ckpt.exists()


@pytest.mark.parametrize("command", ["train", "dump-prompts", "gen-data"])
def test_raw_attribute_of_separators_only_exits_2(command, tiny_dataset, tmp_path, capsys):
    # "_" split-expands to an empty phrase; the schema loader names its line
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    schema_path = data / "schema.txt"
    text = schema_path.read_text(encoding="utf-8")
    schema_path.write_text(text.replace("marked = marked", "marked = _"), encoding="utf-8")
    args = {"train": ["train", "--data", str(data), "--epochs", "1",
                      "--checkpoint", str(tmp_path / "m.ckpt"),
                      "--log", str(tmp_path / "l.tsv")],
            "dump-prompts": ["dump-prompts", "--schema", str(schema_path)],
            "gen-data": ["gen-data", "--out", str(tmp_path / "new"),
                         "--schema", str(schema_path), "--tracklets", "4"]}[command]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"{schema_path}:8:" in err and err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "new").exists()


def test_tracklets_with_different_frame_shapes_exit_2(tiny_dataset, tmp_path, capsys):
    # each tracklet is uniform, but batches stack clips of several tracklets
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    odd = data / "test" / "t00020"
    for path in sorted(odd.glob("*.vtf")):
        write_frame(path, read_frame(path)[:8])
    rc = main(["train", "--data", str(data), "--epochs", "1",
               "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert str(odd) in err and "(8, 10, 3)" in err and "(12, 10, 3)" in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("what", ["schema", "manifest", "labels", "model config"])
def test_file_that_is_not_utf8_exits_2_with_one_line(what, tiny_dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    config = tmp_path / "model.txt"
    config.write_bytes(b"[fusion]\nblocks = 1\xff\n")
    train_args = ["train", "--data", str(data), "--epochs", "1",
                  "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.tsv")]
    bad, args = {
        "schema": (data / "schema.txt",
                   ["gen-data", "--out", str(tmp_path / "new"), "--tracklets", "4",
                    "--schema", str(data / "schema.txt")]),
        "manifest": (data / "manifest.txt",
                     ["eval", "--data", str(data), "--checkpoint", str(tmp_path / "m.ckpt")]),
        "labels": (data / "train" / "t00000" / "labels.txt", train_args),
        "model config": (config, train_args + ["--config", str(config)]),
    }[what]
    if what != "model config":
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read {what} {bad}: ") and err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "new").exists()


@pytest.mark.parametrize("line", ["[fusion]\nblocks", "[text]\nmax_len", "[vision]\nimage_size"])
def test_model_too_large_to_build_exits_1(line, tiny_dataset, tmp_path, capsys):
    # each would allocate without bound, or die in numpy, before the model exists
    config = tmp_path / "model.txt"
    config.write_text(f"{line} = {10 ** 19}\n", encoding="utf-8")
    rc = main(["train", "--data", str(tiny_dataset), "--config", str(config),
               "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.tsv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "the model would exceed 16777216 values" in err and err.count("\n") == 1


# petabytes: the first allocation of each run fails before it touches memory;
# 10**19 frame picks are past what numpy can even size (it raises ValueError)
_PETA = str(10 ** 15)
_HUGE = str(10 ** 19)


@pytest.mark.parametrize("argv", [
    ["train", "--frames", _PETA],
    ["eval", "--frames", _PETA],
    ["ablate-frames", "--epochs", "1", "--frames", _PETA],
    ["gen-data", "--height", _PETA],
    ["gen-data", "--frames", _PETA],
    ["train", "--frames", _HUGE],
    ["eval", "--frames", _HUGE],
    ["ablate-frames", "--epochs", "1", "--frames", _HUGE],
], ids=["train-frames", "eval-frames", "ablate-frames", "gen-data-height",
        "gen-data-frames", "train-frames-1e19", "eval-frames-1e19",
        "ablate-frames-1e19"])
def test_request_too_large_to_allocate_exits_1_with_one_line(argv, tiny_dataset,
                                                             tmp_path, capsys):
    if argv[0] == "gen-data":
        argv = [*argv, "--out", str(tmp_path / "d")]
    else:
        argv = [*argv, "--data", str(tiny_dataset)]
    if argv[0] == "train":
        argv += ["--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.tsv")]
    if argv[0] == "eval":
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(tiny_dataset), "--epochs", "1",
                     "--checkpoint", str(ckpt), "--log", str(tmp_path / "l.tsv")]) == 0
        argv += ["--checkpoint", str(ckpt)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err
    assert not (tmp_path / "d").exists()  # gen-data leaves no partial dataset


def test_label_outside_int8_exits_2(tiny_dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    path = data / "train" / "t00000" / "labels.txt"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("labels = ", "labels = 300 "), encoding="utf-8")
    rc = main(["train", "--data", str(data), "--epochs", "1",
               "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{path}:" in err and "labels must be 0/1" in err and err.count("\n") == 1


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


@pytest.mark.parametrize("flags", [
    ["--trials", "0", "--model-coords", "0"], ["--trials", "-2"], ["--model-coords", "-1"],
])
def test_gradcheck_count_below_1_exits_1(flags, capsys):
    # a check of nothing must not print ok
    assert main(["gradcheck", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_op_errors_are_usage_errors():
    # so main's one UsageError handler gives them exit 1
    assert issubclass(ContractError, UsageError)
    assert issubclass(DimensionError, UsageError)


def test_gradcheck_corrupted_rule_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(tensor_mod, "_gelu_grad", lambda x, cdf: np.zeros_like(x))
    rc = main(["gradcheck", "--trials", "1", "--model-coords", "10"])
    assert rc == 3
    assert "gelu" in capsys.readouterr().err


def test_gradcheck_nan_gradient_exits_3_with_one_line(monkeypatch, capsys):
    monkeypatch.setattr(tensor_mod, "_gelu_grad", lambda x, cdf: np.full_like(x, np.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        rc = main(["gradcheck", "--trials", "1", "--model-coords", "20"])
    captured = capsys.readouterr()
    assert rc == 3
    assert re.search(r"^gelu\tnan\t\d+\tFAIL$", captured.out, re.MULTILINE), captured.out
    assert captured.err == ("verification failure: gradient check failed for: "
                            "gelu, full_model\n")


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
