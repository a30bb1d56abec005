"""The exit-code contract under seeded mutations of every input format.

An 8-tracklet ``gen-data`` set, a model config and a checkpoint trained
on them are mutated one file at a time: truncated, one bit flipped, a
line deleted or duplicated, or one space-separated token replaced. Each
mutated tree runs through ``cli.main`` in-process, on a command that
reads the mutated file. No exception may escape ``main``, the exit code
must be 0-3, and stderr must hold at most one line.
"""

import struct
import zlib

import numpy as np
import pytest

from vtfpar.cli import main

SEED = 16
MUTATIONS = 100
TOKENS = (b"", b"-1", b"0", b"nan", b"inf", b"1e309", b"abc", b"1" * 20,
          "é".encode(), b"=", b"[x]")
CONFIG = """\
[vision]
image_size = 16
patch_size = 8
dim = 16
depth = 1
heads = 2
mlp_ratio = 2

[text]
blocks = 1
heads = 2

[fusion]
heads = 2
blocks = 1
mlp_ratio = 2
"""


def mutate(blob: bytes, rng: np.random.Generator) -> tuple[str, bytes]:
    """One seeded mutation of ``blob``: its kind and the mutated bytes."""
    kind = ("truncate", "bit flip", "delete line", "duplicate line",
            "replace token")[rng.integers(5)]
    if kind == "truncate":
        return kind, blob[:rng.integers(len(blob))]
    if kind == "bit flip":
        out = bytearray(blob)
        out[rng.integers(len(out))] ^= 1 << int(rng.integers(8))
        return kind, bytes(out)
    lines = blob.split(b"\n")
    i = rng.integers(len(lines))
    if kind == "delete line":
        del lines[i]
    elif kind == "duplicate line":
        lines.insert(i, lines[i])
    else:
        tokens = lines[i].split(b" ")
        tokens[rng.integers(len(tokens))] = TOKENS[rng.integers(len(TOKENS))]
        lines[i] = b" ".join(tokens)
    return kind, b"\n".join(lines)


def reseal(blob: bytes) -> bytes:
    """``blob`` with its trailing CRC32 recomputed over the rest."""
    payload = blob[:-4]
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    data, config, ckpt = root / "data", root / "model.txt", root / "model.ckpt"
    assert main(["gen-data", "--out", str(data), "--tracklets", "8", "--frames", "2",
                 "--height", "12", "--width", "10", "--split-fraction", "0.5",
                 "--seed", "5"]) == 0
    config.write_text(CONFIG, encoding="utf-8")
    assert main(["train", "--data", str(data), "--config", str(config), "--epochs", "1",
                 "--frames", "2", "--checkpoint", str(ckpt),
                 "--log", str(root / "log.tsv")]) == 0
    return root


def test_seeded_mutations_keep_the_exit_code_contract(tree, capsys):
    data, config, ckpt = tree / "data", tree / "model.txt", tree / "model.ckpt"
    frames = sorted(data.glob("*/*.vtf"))
    capsys.readouterr()

    def commands(out):
        return {
            "train": ["train", "--data", str(data), "--config", str(config),
                      "--epochs", "1", "--frames", "2", "--checkpoint",
                      str(out / "m.ckpt"), "--log", str(out / "log.tsv")],
            "eval": ["eval", "--data", str(data), "--config", str(config),
                     "--checkpoint", str(ckpt), "--frames", "2"],
            "ablate-frames": ["ablate-frames", "--data", str(data), "--config",
                              str(config), "--frames", "2", "--epochs", "1"],
            "gen-data": ["gen-data", "--out", str(out / "new"), "--schema",
                         str(data / "schema.txt"), "--tracklets", "2",
                         "--frames", "1", "--height", "8", "--width", "8"],
        }

    # each file, with the commands that read it
    readers = [(data / "schema.txt", ("gen-data", "train", "eval", "ablate-frames")),
               (data / "manifest.txt", ("train", "eval", "ablate-frames")),
               (config, ("train", "eval", "ablate-frames")),
               (ckpt, ("eval",))]
    readers += [(path, ("train", "eval", "ablate-frames"))
                for path in (frames[0], frames[-1])]

    rng = np.random.default_rng(SEED)
    broken = []
    for n in range(MUTATIONS):
        path, names = readers[rng.integers(len(readers))]
        command = names[rng.integers(len(names))]
        original = path.read_bytes()
        kind, blob = mutate(original, rng)
        if path == ckpt and rng.integers(2):
            kind, blob = f"{kind}, CRC resealed", reseal(blob)
        out = tree / f"run{n}"
        out.mkdir()
        path.write_bytes(blob)
        try:
            rc = main(commands(out)[command])
        except Exception as e:  # noqa: BLE001 - any escape breaks the contract
            rc = f"{type(e).__name__}: {e}"
        finally:
            path.write_bytes(original)
        err = capsys.readouterr().err
        if rc not in (0, 1, 2, 3) or err.count("\n") > 1:
            broken.append((n, path.name, kind, command, rc, err))
    assert broken == []
