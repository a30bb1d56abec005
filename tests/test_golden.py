"""Golden outputs: SHA-256 pins of one small end-to-end pipeline.

One subprocess, at one BLAS thread and one worker thread, generates a
40-tracklet dataset; trains a frozen (2 epochs), an unfrozen (1 epoch)
and a no-fusion (2 epochs) model; evaluates each checkpoint; and writes
the ``gradcheck`` table, without its ``elapsed`` line, and the prompt
dump. Every artifact's SHA-256 must equal its pin; the dataset's covers
every file's relative path and bytes, in sorted order. A change that moves
numbers updates the pins and lists each old -> new pin.

The bits depend on the numpy build and on the BLAS kernel OpenBLAS picks at
run time, which the subprocess reports. The checkpoints and the gradcheck
table have one pin per known x86 kernel, SkylakeX (AVX-512) and Haswell
(AVX2); the other artifacts are the same under both. Under another build
or kernel the test skips. A second run forces the Haswell kernel with
``OPENBLAS_CORETYPE``, so that one machine checks both pin sets.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tests.blas import cpu_has_avx2
from tests.test_cli import _subprocess_env

# numpy version, BLAS name, BLAS version (numpy.show_config(mode="dicts"))
PINNED_BUILD = ("2.4.6", "scipy-openblas", "0.3.31.188.0")

PINS = {
    "frozen.tsv": "1e39cb1cd6804089e7867a088ace1c1a11b2d533054925bb9bcdb7ec638804cd",
    "frozen_eval.tsv": "ba6d8dc353fd3c98f3661466b5c4ba910569b3d2040412705f84215d22915c88",
    "unfrozen.tsv": "96e8d7a22a37532c04d00469f12868d1a31bc5c06a403315a1d5ee68260fedb7",
    "unfrozen_eval.tsv": "4a8e2b4dd20392356753c981272a26d3c8643c001639c7e594398c813fd8e357",
    "nofusion.tsv": "b515c10c65fa51be550d9449060cc228faf2d622afbe3c3fcce6323eacb25b86",
    "nofusion_eval.tsv": "0f1b6c22d8ac9bd587f2ffd4559e985f5b1a67f83c77a6eb87becd687ba7b834",
    "prompts.tsv": "85efeba979fa05a0b307620a405cc2635c562d0a827fe7bdf47c824eb6404557",
    "data": "7bbc226d4c9b6ec7f270d8821ab12b00e990cd06a8318ca103128da6848b98dc",
}

# run-time OpenBLAS kernel -> pins of the artifacts whose bits depend on it
KERNEL_PINS = {
    "SkylakeX": {
        "frozen.ckpt": "5f72b53b11d66c12f5eab6e77f88853b5b760f2a9142e84c9137bd78a52f78a1",
        "unfrozen.ckpt": "e730cfad4139e99ed9c786e087a80b805d3e1391d5700e0cd8aaa0acc85b5086",
        "nofusion.ckpt": "52e5051996b3f0d184e1a741fe25f0665c0e46e5d02198d89efd2af2db0cfd18",
        "gradcheck.tsv": "51042bef361a698115f6f60624d308f953894466d1205d54ab625c34543b6a8a",
    },
    "Haswell": {
        "frozen.ckpt": "4c1e96e44bb3353f0d644ec84c28d80cb724f640217ed39e1dd03ff6a57d46e0",
        "unfrozen.ckpt": "4c36ee4374097612214aca3c636ea439a243cb91970eb57672bf1f6131bd5df7",
        "nofusion.ckpt": "9b137d96d15e851a55bb3fa2d4e89854bf538c89c4fe687454df7ce907467a7d",
        "gradcheck.tsv": "54e93bc265f396a20598f9eccc8d43110967b476100af9d621a2bd26ae3d5f30",
    },
}

_PIPELINE = """
import contextlib, sys
from vtfpar.cli import main
from tests.blas import blas_core

out = sys.argv[1]
data = f"{out}/data"

with open(f"{out}/blas_core.txt", "w", encoding="utf-8") as f:
    f.write(blas_core())

def run(*argv, stdout="stdout.txt"):
    with open(f"{out}/{stdout}", "w", encoding="utf-8") as f, \\
            contextlib.redirect_stdout(f):
        if main(list(argv)) != 0:
            sys.exit(f"failed: {argv}")

run("gen-data", "--out", data, "--tracklets", "40", "--seed", "3")
for name, epochs, *flags in (("frozen", "2"), ("unfrozen", "1", "--no-freeze"),
                             ("nofusion", "2", "--no-fusion")):
    ckpt = f"{out}/{name}.ckpt"
    run("train", "--data", data, "--epochs", epochs, *flags,
        "--checkpoint", ckpt, "--log", f"{out}/{name}.tsv")
    run("eval", "--data", data, "--checkpoint", ckpt, "--out", f"{out}/{name}_eval.tsv")
run("gradcheck", "--trials", "2", "--model-coords", "60", stdout="gradcheck.tsv")
run("dump-prompts", stdout="prompts.tsv")
"""


def _digest(path) -> str:
    """SHA-256 of a file's bytes or, for a directory, of every file's
    relative path and bytes under it, in sorted order."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        blob = file.read_bytes()
        h.update(f"{file.relative_to(path).as_posix()}\0{len(blob)}\0".encode())
        h.update(blob)
    return h.hexdigest()


def _build() -> tuple[str, str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return np.__version__, blas.get("name", "?"), blas.get("version", "?")


# None: the kernel OpenBLAS picks for this CPU
@pytest.mark.parametrize("coretype", [None, "Haswell"], ids=["native", "Haswell"])
def test_pipeline_outputs_match_their_pins(coretype, tmp_path):
    if _build() != PINNED_BUILD:
        pytest.skip(f"pins are for numpy/BLAS {PINNED_BUILD}, this is {_build()}")
    if coretype == "Haswell" and not cpu_has_avx2():
        pytest.skip("OpenBLAS's Haswell kernel needs AVX2")
    forced = {"OPENBLAS_CORETYPE": coretype} if coretype else {}
    # run from the repository root, so that the pipeline imports tests.blas
    subprocess.run([sys.executable, "-c", _PIPELINE, str(tmp_path)], check=True,
                   cwd=Path(__file__).resolve().parents[1],
                   env=_subprocess_env(VTFPAR_THREADS="1", **forced))
    core = (tmp_path / "blas_core.txt").read_text(encoding="utf-8")
    if coretype and core != coretype:
        pytest.skip(f"OPENBLAS_CORETYPE={coretype} runs the {core!r} kernel here")
    if core not in KERNEL_PINS:
        pytest.skip(f"pins are for the OpenBLAS kernels {sorted(KERNEL_PINS)}, "
                    f"this runs {core!r}")
    table = (tmp_path / "gradcheck.tsv").read_text(encoding="utf-8").splitlines(True)
    (tmp_path / "gradcheck.tsv").write_text(
        "".join(line for line in table if not line.startswith("elapsed\t")),
        encoding="utf-8")
    pins = PINS | KERNEL_PINS[core]
    assert {name: _digest(tmp_path / name) for name in pins} == pins
