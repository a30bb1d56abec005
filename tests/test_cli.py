"""CLI behaviour: exit codes, output formats, end-to-end subcommands."""

import importlib
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import vtfpar.cli as cli_mod
import vtfpar.data as data_mod
import vtfpar.tensor as tensor_mod
from vtfpar.cli import build_parser, main
from vtfpar.data import SyntheticSpec, load_dataset, read_manifest, write_frames
from vtfpar.gradcheck import MODEL_COORDS, OP_TRIALS, SEED
from vtfpar.model import ModelConfig, VideoAttributeModel
from vtfpar.params import ParameterSet, read_checkpoint_arrays, save_checkpoint
from vtfpar.schema import default_schema, save_schema
from vtfpar.train import TrainConfig, evaluate, train
from tests.blas import cpu_has_avx2
from tests.test_data import frames_of, record, small_schema

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


@pytest.fixture
def no_frames_read(monkeypatch):
    """Fail the test if a frames file is read: ``_read_frames`` opens each one."""
    monkeypatch.setattr(data_mod, "_read_frames",
                        lambda *a, **k: pytest.fail("frames file read"))


@pytest.fixture
def frames_read(monkeypatch):
    """The frames files read, in order of reading."""
    paths, read = [], data_mod._read_frames

    def counting(path, shape):
        paths.append(path)
        return read(path, shape)

    monkeypatch.setattr(data_mod, "_read_frames", counting)
    return paths


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


@pytest.mark.parametrize("frames", ["0", "-1"])
def test_eval_frames_below_1_exits_1_before_loading_data(frames, tmp_path, capsys,
                                                         no_frames_read):
    rc = main(["eval", "--data", str(tmp_path / "missing"), "--checkpoint",
               str(tmp_path / "m.ckpt"), "--frames", frames])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad --frames ") and err.count("\n") == 1


def test_eval_unknown_split_exits_2_before_loading(tiny_dataset, tmp_path, capsys,
                                                   no_frames_read):
    # the checkpoint does not exist: reading it would fail with another message
    rc = main(["eval", "--data", str(tiny_dataset), "--checkpoint", str(tmp_path / "m.ckpt"),
               "--split", "val", "--out", str(tmp_path / "r.tsv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "data error: dataset has no split 'val' (have ['test', 'train'])\n")
    assert list(tmp_path.iterdir()) == []


# each dataset command, run clean or on one defect that does not need the
# frames: argv (in a directory holding these inputs), exit code, stderr
_ONE_PARSE = {
    "train": ("train --data data --epochs 1 --checkpoint m.ckpt --log l.tsv", 0, ""),
    "eval": ("eval --data data --checkpoint good.ckpt", 0, ""),
    "ablate-frames": ("ablate-frames --data data --frames 1 --epochs 1", 0, ""),
    "train-no-test-split": (
        "train --data val --epochs 1 --checkpoint m.ckpt --log l.tsv", 2,
        "data error: dataset has no split 'test' (have ['train', 'val'])\n"),
    "ablate-frames-no-test-split": (
        "ablate-frames --data val --frames 1 --epochs 1", 2,
        "data error: dataset has no split 'test' (have ['train', 'val'])\n"),
    "eval-missing-checkpoint": (
        "eval --data data --checkpoint absent.ckpt", 2,
        "data error: cannot read checkpoint absent.ckpt: [Errno 2] "
        "No such file or directory: 'absent.ckpt'\n"),
    "eval-truncated-checkpoint": (
        "eval --data data --checkpoint cut.ckpt", 2,
        "data error: checkpoint cut.ckpt: CRC32 mismatch\n"),
    "eval-non-integer-config": (
        "eval --data data --checkpoint good.ckpt --config abc.txt", 1,
        "error: abc.txt:2: bad value for fusion.heads\n"),
    "eval-heads-5": (
        "eval --data data --checkpoint good.ckpt --config heads5.txt", 1,
        "error: fusion dim 96 must be a positive multiple of heads 5\n"),
    "train-model-too-large": (
        "train --data data --config huge.txt --checkpoint m.ckpt --log l.tsv", 1,
        "error: parameter fusion.block145.mlp.fc2.weight: the model would exceed "
        "16777216 values\n"),
    "ablate-frames-model-too-large": (
        "ablate-frames --data data --config huge.txt --frames 1 --epochs 1", 1,
        "error: parameter fusion.block145.mlp.fc2.weight: the model would exceed "
        "16777216 values\n"),
}


@pytest.mark.parametrize("case", _ONE_PARSE)
def test_dataset_command_parses_its_manifest_once_and_checks_before_the_frames(
        case, tiny_dataset, tmp_path, capsys, monkeypatch, request):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(tiny_dataset, "data")
    shutil.copytree(tiny_dataset, "val")
    manifest = Path("val/manifest.txt")
    manifest.write_text(manifest.read_text(encoding="utf-8").replace(
        "[split test]", "[split val]"), encoding="utf-8")
    save_checkpoint(VideoAttributeModel(ModelConfig(), small_schema(), seed=0).params,
                    "good.ckpt")
    Path("cut.ckpt").write_bytes(Path("good.ckpt").read_bytes()[:100])
    Path("abc.txt").write_text("[fusion]\nheads = abc\n", encoding="utf-8")
    Path("heads5.txt").write_text("[fusion]\nheads = 5\n", encoding="utf-8")
    Path("huge.txt").write_text(f"[fusion]\nblocks = {10 ** 19}\n", encoding="utf-8")
    parses = []

    def counting_read_manifest(path):
        parses.append(path)
        return read_manifest(path)

    for module in (cli_mod, data_mod):
        monkeypatch.setattr(module, "read_manifest", counting_read_manifest)
    argv, code, err = _ONE_PARSE[case]
    if code:
        request.getfixturevalue("no_frames_read")
    assert main(argv.split()) == code
    assert capsys.readouterr().err == err
    assert len(parses) == 1


@pytest.mark.parametrize("split", ["train", "test"])
def test_eval_reads_the_frames_of_its_split_alone(split, tiny_dataset, tmp_path,
                                                  frames_read):
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(VideoAttributeModel(ModelConfig(), small_schema(), seed=0).params, ckpt)
    assert main(["eval", "--data", str(tiny_dataset), "--checkpoint", str(ckpt),
                 "--split", split]) == 0
    assert frames_read == [path for path, _ in read_manifest(tiny_dataset)[3][split]]


@pytest.mark.parametrize("argv", [
    "train --data data --epochs 1 --checkpoint m.ckpt --log l.tsv",
    "ablate-frames --data data --frames 1 --epochs 1",
], ids=["train", "ablate-frames"])
def test_train_and_ablate_frames_read_no_frames_of_another_split(
        argv, tiny_dataset, tmp_path, monkeypatch, frames_read):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(tiny_dataset, "data")
    Path("data/val").mkdir()
    shutil.copy("data/train/t00000.vtf", "data/val/v0.vtf")
    manifest = Path("data/manifest.txt")
    text = manifest.read_text(encoding="utf-8")
    line = next(line for line in text.splitlines() if line.startswith("tracklet = train/"))
    manifest.write_text(text + "[split val]\n" + line.replace("train/t00000", "val/v0") + "\n",
                        encoding="utf-8")
    assert main(argv.split()) == 0
    splits = read_manifest("data")[3]
    assert set(splits) == {"train", "test", "val"}
    assert frames_read == [path for name in ("train", "test") for path, _ in splits[name]]


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


# at most 2 BLAS threads: more would oversubscribe a small machine. Importing
# vtfpar runs OpenBLAS on one thread, whatever OPENBLAS_NUM_THREADS says, so
# every recipe gives the same bits on every kernel; unpinned, the default
# recipe differed on Haswell and the other two on SkylakeX.
@pytest.mark.parametrize("epochs, flags", [("2", []), ("2", ["--batch-size", "16"]),
                                           ("1", ["--no-freeze"])],
                         ids=["default", "batch-16", "no-freeze"])
def test_training_same_bits_at_1_and_2_blas_threads(epochs, flags, tmp_path):
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--tracklets", "40"]) == 0
    outputs = []
    for threads in (1, 2):
        ckpt, log = tmp_path / f"m{threads}.ckpt", tmp_path / f"l{threads}.tsv"
        _stdout_at_blas_threads(threads, ["train", "--data", str(data), "--epochs", epochs,
                                          *flags, "--checkpoint", str(ckpt), "--log", str(log)])
        outputs.append((ckpt.read_bytes(), log.read_bytes()))
    assert outputs[0] == outputs[1]


def test_import_runs_openblas_on_one_thread():
    done = subprocess.run(
        [sys.executable, "-c", "from vtfpar.parallel import OPENBLAS\n"
         "get = getattr(OPENBLAS, 'scipy_openblas_get_num_threads64_', None)\n"
         "print(get() if get else '-')"],
        check=True, env=_subprocess_env(OPENBLAS_NUM_THREADS="2"),
        capture_output=True, text=True)
    if done.stdout.strip() == "-":
        pytest.skip("numpy's OpenBLAS has no scipy_openblas_get_num_threads64_")
    assert done.stdout.strip() == "1"


def test_gradcheck_table_same_at_1_and_2_blas_threads():
    args = ["gradcheck", "--trials", "2", "--model-coords", "60"]
    tables = [[line for line in _stdout_at_blas_threads(threads, args).splitlines()
               if not line.startswith("elapsed\t")] for threads in (1, 2)]
    assert tables[0] == tables[1]
    assert len(tables[0]) == 2 + len(tensor_mod.OP_KINDS)


# OpenBLAS picks its Haswell kernel on x86 CPUs with AVX2 but no AVX-512, and
# OPENBLAS_CORETYPE forces it in the one process that sets it. Its GEMMs round
# differently, so the numbers differ there (the golden test pins that table's
# bits): here only the verdicts are asserted.
@pytest.mark.skipif(not cpu_has_avx2(), reason="OpenBLAS's Haswell kernel needs AVX2")
def test_gradcheck_passes_on_the_haswell_blas_kernel():
    done = subprocess.run(
        [sys.executable, "-m", "vtfpar", "gradcheck", "--trials", "2", "--model-coords", "60"],
        env=_subprocess_env(OPENBLAS_CORETYPE="Haswell"),
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    header, *rows, elapsed = [line.split("\t") for line in done.stdout.splitlines()]
    assert header == ["op", "max_rel_err", "checked", "status"] and elapsed[0] == "elapsed"
    assert [row[0] for row in rows] == list(tensor_mod.OP_KINDS) + ["full_model"]
    assert all(row[3] == "ok" for row in rows)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_data_non_finite_noise_exits_1_before_writing(value, tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["gen-data", "--out", str(out), "--tracklets", "2",
                 "--noise", value]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "noise_sigma" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["gen-data", "--tracklets", "2", "--out", ""],
    ["train", "--epochs", "1", "--checkpoint", ""],
    ["train", "--epochs", "1", "--log", ""],
    ["eval", "--checkpoint", "m.ckpt", "--out", ""],
    ["ablate-frames", "--frames", "1", "--epochs", "1", "--out", ""],
], ids=["gen-data-out", "train-checkpoint", "train-log", "eval-out", "ablate-frames-out"])
def test_empty_output_path_exits_1_before_any_work(command, tiny_dataset, tmp_path, capsys,
                                                   monkeypatch, no_frames_read):
    # read as the flag not given, an empty path saved no checkpoint, or wrote the
    # dataset into the working directory
    monkeypatch.chdir(tmp_path)
    data = [] if command[0] == "gen-data" else ["--data", str(tiny_dataset)]
    assert main([*command, *data]) == 1
    assert capsys.readouterr().err == f"error: argument {command[-2]}: empty output path\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("defect", ["missing", "directory"])
def test_manifest_listing_a_tracklet_that_is_not_a_file_exits_2(
        defect, tiny_dataset, tmp_path, capsys, no_frames_read):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    manifest = data / "manifest.txt"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    at = max(i for i, line in enumerate(lines) if line.startswith("tracklet = test/"))
    rel = lines[at].split()[2]
    (data / rel).unlink()
    if defect == "directory":
        (data / rel).mkdir()
    out = tmp_path / "out"
    assert main(["train", "--data", str(data), "--epochs", "1",
                 "--checkpoint", f"{out}.ckpt", "--log", f"{out}.tsv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"data error: {manifest}:{at + 1}: tracklet {rel} "
                            "is missing or not a file\n")
    assert list(tmp_path.glob("out*")) == []


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


@pytest.mark.parametrize("command", [
    ["train", "--epochs", "1", "--checkpoint", "OUT"],
    ["eval", "--checkpoint", "m.ckpt", "--out", "OUT"],
    ["ablate-frames", "--epochs", "1", "--out", "OUT"],
], ids=["train", "eval", "ablate-frames"])
def test_output_path_that_is_a_directory_exits_2_before_any_work(
        command, tiny_dataset, tmp_path, capsys, monkeypatch, no_frames_read):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "OUT").mkdir()
    assert main([*command, "--data", str(tiny_dataset)]) == 2
    err = capsys.readouterr().err
    assert err == "I/O error: output path is a directory: OUT\n"
    assert [p.name for p in tmp_path.iterdir()] == ["OUT"]


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


def _assert_refused_and_unchanged(argv, read, capsys):
    """``argv`` names ``read`` as an input and an output: exit 1, file kept."""
    before = read.read_bytes()
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"output path {read} names a file this command reads" in err
    assert err.count("\n") == 1
    assert read.read_bytes() == before


def test_train_log_on_the_manifest_exits_1(tiny_dataset, tmp_path, capsys, no_frames_read):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    manifest = data / "manifest.txt"
    _assert_refused_and_unchanged(
        ["train", "--data", str(data), "--epochs", "1",
         "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(manifest)],
        manifest, capsys)


def test_eval_out_on_its_checkpoint_exits_1(tiny_dataset, tmp_path, capsys, no_frames_read):
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(VideoAttributeModel(ModelConfig(), small_schema(), seed=0).params, ckpt)
    _assert_refused_and_unchanged(
        ["eval", "--data", str(tiny_dataset), "--checkpoint", str(ckpt),
         "--out", str(ckpt)], ckpt, capsys)


def test_ablate_frames_out_on_its_config_exits_1(tiny_dataset, tmp_path, capsys,
                                                no_frames_read):
    config = tmp_path / "model.txt"
    config.write_text("[fusion]\nblocks = 1\n", encoding="utf-8")
    _assert_refused_and_unchanged(
        ["ablate-frames", "--data", str(tiny_dataset), "--frames", "1", "--epochs", "1",
         "--config", str(config), "--out", str(config)], config, capsys)


@pytest.mark.parametrize("command", ["train", "eval", "ablate-frames"])
def test_output_on_the_manifests_schema_exits_1(command, tiny_dataset, tmp_path, capsys,
                                                 no_frames_read):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    schema = data / "schema.txt"
    argv = {"train": ["train", "--data", str(data), "--epochs", "1",
                      "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(schema)],
            "eval": ["eval", "--data", str(data), "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--out", str(schema)],
            "ablate-frames": ["ablate-frames", "--data", str(data), "--frames", "1",
                              "--epochs", "1", "--out", str(schema)]}[command]
    _assert_refused_and_unchanged(argv, schema, capsys)
    assert [p.name for p in tmp_path.iterdir()] == ["data"]
    assert sorted(p.name for p in data.iterdir()) == sorted(p.name for p in tiny_dataset.iterdir())


_FRAMES = "data/train/t00000.vtf"
_FRAMES_DOTDOT = "data/test/../train/t00000.vtf"


@pytest.mark.parametrize("command", [
    ["train", "--epochs", "1", "--checkpoint", "m.ckpt", "--log", _FRAMES],
    ["train", "--epochs", "1", "--checkpoint", _FRAMES_DOTDOT, "--log", "l.tsv"],
    ["eval", "--checkpoint", "m.ckpt", "--out", _FRAMES],
    ["ablate-frames", "--frames", "1", "--epochs", "1", "--out", _FRAMES_DOTDOT],
], ids=["train-log", "train-checkpoint-dotdot", "eval", "ablate-frames-dotdot"])
def test_output_on_a_listed_frames_file_exits_1(command, tiny_dataset, tmp_path, capsys,
                                                monkeypatch, no_frames_read):
    # a log or a checkpoint over a frames file would break the next load
    monkeypatch.chdir(tmp_path)
    shutil.copytree(tiny_dataset, "data")
    before = {p.name: p.read_bytes() for p in Path("data/train").iterdir()}
    assert main([*command, "--data", "data"]) == 1
    out = next(arg for arg in command if arg.startswith("data/"))
    err = capsys.readouterr().err
    assert err == f"error: output path {out} names a file this command reads\n"
    assert {p.name: p.read_bytes() for p in Path("data/train").iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["data"]


def test_checkpoint_with_a_key_bias_record_exits_2(tiny_dataset, tmp_path, capsys):
    # a checkpoint written before keys lost their bias: one extra record,
    # a valid CRC; refused by the names check, with no compatibility path
    model = VideoAttributeModel(ModelConfig(), small_schema(), seed=0)
    model.params.add("fusion.block0.attn.k.bias", np.zeros(model.config.fusion.dim))
    ckpt = tmp_path / "old.ckpt"
    save_checkpoint(model.params, ckpt)
    rc = main(["eval", "--data", str(tiny_dataset), "--checkpoint", str(ckpt)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "fusion.block0.attn.k.bias" in err and err.count("\n") == 1


def test_eval_reads_its_checkpoint_once(tiny_dataset, tmp_path, capsys, monkeypatch):
    # the variant check and the load share one parse of the file
    model = VideoAttributeModel(ModelConfig(), small_schema(), seed=0)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(model.params, ckpt)
    reads = []
    read_bytes = Path.read_bytes

    def counting_read_bytes(path):
        reads.append(path)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    assert main(["eval", "--data", str(tiny_dataset), "--checkpoint", str(ckpt)]) == 0
    assert capsys.readouterr().out.startswith("group\t")
    assert [p for p in reads if p.resolve() == ckpt.resolve()] == [ckpt]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_checkpoint_with_a_non_finite_value_exits_2(value, tiny_dataset, tmp_path, capsys):
    # save_checkpoint seals the CRC, so only the value check can refuse the record
    model = VideoAttributeModel(ModelConfig(), small_schema(), seed=0)
    model.params["vision.block0.mlp.fc1.weight"].data[0, 0] = float(value)
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(model.params, ckpt)
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
    save_checkpoint(model.params, ckpt)
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
        rc = main(["train", "--data", str(tiny_dataset), "--epochs", "3", "--lr", "1e4",
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
    odd = data / "test" / "t00020.vtf"
    write_frames(odd, [frame[:8] for frame in frames_of(odd)])
    rc = main(["train", "--data", str(data), "--epochs", "1",
               "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: frame 0 of {odd}: ")
    assert err.count("\n") == 1
    assert "(8, 10, 3)" in err and "(12, 10, 3)" in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("rel", ["train/t00000", "test/t00020"])
def test_frames_of_one_tracklet_with_different_shapes_exit_2(rel, tiny_dataset, tmp_path,
                                                             capsys):
    # the first tracklet's own first frame, or an earlier tracklet, sets the shape
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    odd = data / f"{rel}.vtf"
    frames = frames_of(odd)
    frames[1] = frames[1][:8]
    write_frames(odd, frames)
    rc = main(["train", "--data", str(data), "--epochs", "1",
               "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: frame 1 of {odd}: ") and err.count("\n") == 1
    assert "(8, 10, 3)" in err and "(12, 10, 3)" in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("layout", ["frames-file", "file-per-frame"])
def test_tracklet_in_the_old_layout_exits_2(layout, tiny_dataset, tmp_path, capsys):
    # an older gen-data's tree: a directory per tracklet, holding a labels.txt
    # record and either one frames.vtf or one file per frame; the manifest
    # lists the directories, without labels
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    manifest = data / "manifest.txt"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if line.startswith("tracklet = "):
            rel, *labels = line.split()[2:]
            old = data / rel[:-len(".vtf")]
            old.mkdir()
            (old / "labels.txt").write_text(
                f"tracklet = {old.name}\nlabels = {' '.join(labels)}\n", encoding="utf-8")
            if layout == "frames-file":
                (data / rel).rename(old / "frames.vtf")
            else:
                for k, frame in enumerate(frames_of(data / rel)):
                    (old / f"{k:06d}.vtf").write_bytes(record(frame))
                (data / rel).unlink()
            lines[i] = f"tracklet = {rel[:-len('.vtf')]}"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    first = next(i for i, line in enumerate(lines) if line.startswith("tracklet = "))
    rc = main(["train", "--data", str(data), "--epochs", "1",
               "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.tsv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"data error: {manifest}:{first + 1}: tracklet train/t00000 has no labels; "
        "regenerate the dataset with `vtfpar gen-data`\n")
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("what", ["schema", "manifest", "model config"])
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


# a tracklet's labels, as the manifest lists them, for the 3-class schema
# (one exclusive group of two classes, one binary class) -> the error
_BAD_LABELS = {
    "outside-int8": ("300 1 0", "labels must be 0/1"),
    "not-0-or-1": ("1 0 2", "labels must be 0/1"),
    "not-an-integer": ("1 0 x", "labels must be 0/1"),
    "too-few": ("1 0", "2 labels for schema with 3 classes"),
    # the path may hold blanks, so a label too many reads as part of it
    "too-many": ("1 0 1 1", "tracklet {rel} 1 is missing or not a file"),
    "exclusive-none": ("0 0 1", "exclusive group shape must have exactly one positive, got 0"),
    "exclusive-both": ("1 1 0", "exclusive group shape must have exactly one positive, got 2"),
}


@pytest.mark.parametrize("defect", _BAD_LABELS)
def test_bad_labels_on_a_manifest_line_exit_2(defect, tiny_dataset, tmp_path, capsys,
                                              no_frames_read):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    manifest = data / "manifest.txt"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    at = max(i for i, line in enumerate(lines) if line.startswith("tracklet = train/"))
    rel = lines[at].split()[2]
    labels, message = _BAD_LABELS[defect]
    lines[at] = f"tracklet = {rel} {labels}"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["train", "--data", str(data), "--epochs", "1",
               "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.tsv")])
    assert rc == 2
    assert capsys.readouterr().err == (f"data error: {manifest}:{at + 1}: "
                                       f"{message.format(rel=rel)}\n")


def test_train_one_epoch_writes_a_checkpoint_and_prints_the_log_it_writes(
        tiny_dataset, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    log = tmp_path / "log.tsv"
    rc = main(["train", "--data", str(tiny_dataset), "--epochs", "1",
               "--checkpoint", str(ckpt), "--log", str(log), "--seed", "1"])
    assert rc == 0
    rows = log.read_text().strip().split("\n")
    assert rows[0] == "epoch\tmean_loss\theldout_macro_f1"
    assert len(rows) == 2
    assert ckpt.exists()
    assert capsys.readouterr().out.encode("utf-8") == log.read_bytes()


def test_no_fusion_checkpoint_lacks_fusion_names(tiny_dataset, tmp_path):
    ckpt = tmp_path / "nf.ckpt"
    rc = main(["train", "--data", str(tiny_dataset), "--epochs", "1",
               "--no-fusion", "--checkpoint", str(ckpt),
               "--log", str(tmp_path / "l.tsv")])
    assert rc == 0
    names = list(read_checkpoint_arrays(ckpt))
    assert not any(n.startswith(("fusion.", "nofusion.")) for n in names)


def test_eval_prints_table_and_writes_tsv(tiny_dataset, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--data", str(tiny_dataset), "--epochs", "1",
                 "--checkpoint", str(ckpt), "--log", str(tmp_path / "l.tsv")]) == 0
    capsys.readouterr()
    before = set(tmp_path.iterdir())
    out_tsv = tmp_path / "report.tsv"
    rc = main(["eval", "--data", str(tiny_dataset), "--checkpoint", str(ckpt),
               "--out", str(out_tsv), "--frames", "3"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.startswith("group\t")
    assert "MACRO\t" in printed
    assert set(tmp_path.iterdir()) - before == {out_tsv}
    assert out_tsv.read_text(encoding="utf-8") == printed


def test_eval_auto_detects_no_fusion_variant(tiny_dataset, tmp_path, capsys):
    ckpt = tmp_path / "nf.ckpt"
    assert main(["train", "--data", str(tiny_dataset), "--epochs", "1",
                 "--no-fusion", "--checkpoint", str(ckpt),
                 "--log", str(tmp_path / "l.tsv")]) == 0
    rc = main(["eval", "--data", str(tiny_dataset), "--checkpoint", str(ckpt),
               "--frames", "3"])
    assert rc == 0


@pytest.mark.parametrize("blocks", [ModelConfig().fusion.blocks, 0])
def test_eval_builds_the_variant_its_checkpoint_names(tiny_dataset, tmp_path, capsys,
                                                     monkeypatch, blocks):
    # the fusion.* names alone pick the variant; the saved values are loaded
    config = ModelConfig()
    config = replace(config, fusion=replace(config.fusion, blocks=blocks))
    saved = VideoAttributeModel(config, load_dataset(tiny_dataset / "manifest.txt").schema,
                                seed=4)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(saved.params, ckpt)
    built = []

    class Recording(VideoAttributeModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cli_mod, "VideoAttributeModel", Recording)
    rc = main(["eval", "--data", str(tiny_dataset), "--checkpoint", str(ckpt),
               "--frames", "3"])
    assert rc == 0
    (model,) = built
    assert model.config.fusion.blocks == blocks
    assert sorted(model.params.names()) == sorted(saved.params.names())
    for p in saved.params:
        np.testing.assert_array_equal(model.params[p.name].data, p.data)


def test_eval_has_no_no_fusion_flag(tiny_dataset, tmp_path, capsys):
    # the checkpoint, not a flag, says whether fusion blocks are present
    rc = main(["eval", "--data", str(tiny_dataset), "--checkpoint",
               str(tmp_path / "m.ckpt"), "--no-fusion"])
    assert rc == 1
    assert "--no-fusion" in capsys.readouterr().err


def test_train_has_no_checkpoint_cadence_flag(tiny_dataset, tmp_path, capsys):
    # train writes its checkpoint once, after the last epoch
    rc = main(["train", "--data", str(tiny_dataset), "--epochs", "1", "--save-every", "2",
               "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "l.tsv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--save-every" in err and err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("defect", ["empty", "repeated"])
@pytest.mark.parametrize("command", ["train", "eval", "ablate-frames"])
def test_manifest_split_without_tracklets_or_repeated_exits_2(command, defect, tiny_dataset,
                                                              tmp_path, capsys):
    # refused when the manifest loads: before any training, and with no output
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    manifest = data / "manifest.txt"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    if defect == "empty":
        lines = [line for line in lines if not line.startswith("tracklet = test/")]
        at = lines.index("[split test]")
        message = "[split test] lists no tracklet"
    else:
        at = max(i for i, line in enumerate(lines) if line.startswith("tracklet = test/"))
        lines.insert(at, "[split test]")
        message = "duplicate section [split test]"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = {"train": ["train", "--data", str(data), "--epochs", "1",
                      "--checkpoint", str(out) + ".ckpt", "--log", str(out) + ".tsv"],
            "eval": ["eval", "--data", str(data), "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--out", str(out) + ".tsv"],
            "ablate-frames": ["ablate-frames", "--data", str(data), "--frames", "1",
                              "--epochs", "1", "--out", str(out) + ".tsv"]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"data error: {manifest}:{at + 1}: {message}\n"
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize("spelling", ["dotdot", "symlink"])
def test_tracklet_listed_under_a_second_spelling_exits_2(spelling, tiny_dataset, tmp_path,
                                                          capsys):
    # a train tracklet listed again under [split test] would leak test data into training
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    manifest = data / "manifest.txt"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("tracklet = train/"))
    rel, *labels = lines[first].split()[2:]
    if spelling == "dotdot":
        alias = f"train/../{rel}"
    else:
        alias = "alias.vtf"
        os.symlink(data / rel, data / alias)
    assert lines[-1].startswith("tracklet = test/")  # the test split is last
    lines.append(f"tracklet = {alias} {' '.join(labels)}")
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["eval", "--data", str(data), "--checkpoint", str(tmp_path / "m.ckpt")]) == 2
    assert capsys.readouterr().err == (f"data error: {manifest}:{len(lines)}: tracklet {alias} "
                                       f"is already listed on line {first + 1}\n")


def test_readme_names_every_flag():
    # each subcommand's row of the README's flag table names each of its flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {m[1]: m[0] for m in re.findall(r"^(\| `([a-z-]+)` \|.*)$", readme, re.MULTILINE)}
    subcommands = next(a for a in build_parser()._actions if a.choices).choices
    missing = [f"{name} {flag}" for name, sub in subcommands.items()
               for action in sub._actions for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"
               and not re.search(rf"`{re.escape(flag)}[` ]", rows.get(name, ""))]
    assert missing == []


def test_eval_of_projector_checkpoint_exits_2_naming_extras(tiny_dataset, tmp_path, capsys):
    # a no-fusion checkpoint of the old shared-projector arm: nofusion.proj.*
    # besides the encoders and heads, and no fusion.* names
    ckpt = tmp_path / "nf.ckpt"
    assert main(["train", "--data", str(tiny_dataset), "--epochs", "1",
                 "--no-fusion", "--checkpoint", str(ckpt),
                 "--log", str(tmp_path / "l.tsv")]) == 0
    params = ParameterSet(np.float32)
    for name, arr in read_checkpoint_arrays(ckpt).items():
        params.add(name, arr)
    d = ModelConfig().fusion.dim
    params.add("nofusion.proj.weight", np.eye(d))
    params.add("nofusion.proj.bias", np.zeros(d))
    save_checkpoint(params, ckpt)
    capsys.readouterr()
    rc = main(["eval", "--data", str(tiny_dataset), "--checkpoint", str(ckpt),
               "--frames", "3"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert "extra=['nofusion.proj.bias', 'nofusion.proj.weight']" in captured.err


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
