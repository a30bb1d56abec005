"""Golden outputs: SHA-256 pins of one small end-to-end pipeline.

One subprocess, at one BLAS thread and one worker thread, generates a
40-tracklet dataset; trains a frozen (2 epochs), an unfrozen (1 epoch)
and a no-fusion (2 epochs) model; evaluates each checkpoint; and writes
the ``gradcheck`` table, without its ``elapsed`` line, and the prompt
dump. Every artifact's SHA-256 must equal its pin. A change that moves
numbers updates the pins and lists each old -> new pin.

The bits depend on the numpy build and its BLAS kernels, so the pins hold
for the build they were taken on; under any other build the test skips.
"""

import hashlib
import subprocess
import sys

import numpy as np
import pytest

from tests.test_cli import _subprocess_env

# numpy version, BLAS name, BLAS version (numpy.show_config(mode="dicts"))
PINNED_BUILD = ("2.4.6", "scipy-openblas", "0.3.31.188.0")

PINS = {
    "frozen.ckpt": "0d595f4256c896eb0ad9923d1562bd884e4a8575a889ed0a06b411b3f2fa9b7e",
    "frozen.tsv": "58801067c8ba6c3c7222ad8458a45f352bb709d535453f18f94763a4ebca2004",
    "frozen_eval.tsv": "a50615c0d7acc7befd9eb6a81ec6da8418b5b7bbc17198895ba7c8b61b523328",
    "frozen_eval.txt": "d22881f9fd74178d4df706d926d729c466aacebc5bda2811cc2f9d870709dff8",
    "unfrozen.ckpt": "ce2b1ce8364b4a7675100a13e69b6c732378b9dda6c092e90726742b73825775",
    "unfrozen.tsv": "f1ca84212a029c46061e7f6805ddae93ca248ae6d65e5696020f6e047fcb6f15",
    "unfrozen_eval.tsv": "7e06674d867ea7f0b48b00341336642a6a792d84a08214ab01956e9e77a431e0",
    "unfrozen_eval.txt": "1487ec529387099cb01b2f48d6452a9010a1579898314e9695477f01fa456edc",
    "nofusion.ckpt": "0a7f59e43aa04bcf0f9d6602fd29226d481114269e197251060c17092f364a22",
    "nofusion.tsv": "8fc4ca5f43040b5a832b8c2c694a07c96e2e2566a43e4af57dbc9d38249f5c44",
    "nofusion_eval.tsv": "4074d33298c9853bf43109da8fc5244cbdd174a60ccd3f4f168b64d67a1ceada",
    "nofusion_eval.txt": "a748ff1222187e4cf17c5fa7ed54c931125683a19c4fd62646830b238518d27a",
    "gradcheck.tsv": "ac5c5804349f66e4624c608df597b0f90b4f1fbfddad25d71bcd9f516c31ba4d",
    "prompts.tsv": "85efeba979fa05a0b307620a405cc2635c562d0a827fe7bdf47c824eb6404557",
}

_PIPELINE = """
import contextlib, sys
from vtfpar.cli import main

out = sys.argv[1]
data = f"{out}/data"

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


def _build() -> tuple[str, str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return np.__version__, blas.get("name", "?"), blas.get("version", "?")


def test_pipeline_outputs_match_their_pins(tmp_path):
    if _build() != PINNED_BUILD:
        pytest.skip(f"pins are for numpy/BLAS {PINNED_BUILD}, this is {_build()}")
    subprocess.run([sys.executable, "-c", _PIPELINE, str(tmp_path)], check=True,
                   env=_subprocess_env(OPENBLAS_NUM_THREADS="1", VTFPAR_THREADS="1"))
    table = (tmp_path / "gradcheck.tsv").read_text(encoding="utf-8").splitlines(True)
    (tmp_path / "gradcheck.tsv").write_text(
        "".join(line for line in table if not line.startswith("elapsed\t")),
        encoding="utf-8")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINS}
    assert digests == PINS
