"""Gradient-check harness: coverage, thresholds, self-test via a
deliberately corrupted backward rule."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vtfpar.tensor as tensor_mod
from vtfpar.gradcheck import _CASES, check_model, check_op, run_all
from vtfpar.tensor import OP_KINDS


def test_every_op_kind_has_a_case():
    # one table row per op kind, no stale rows; each case must build and run
    assert set(_CASES) == set(OP_KINDS)
    for name in OP_KINDS:
        result = check_op(name, trials=1, seed=1)
        assert result.checked > 0


@pytest.mark.parametrize("name", OP_KINDS)
def test_op_gradients_verify(name):
    result = check_op(name, trials=3, seed=0)
    assert result.passed, f"{name}: max rel err {result.max_rel_err:.3e}"
    assert result.max_rel_err < 1e-4


def test_model_gradients_verify():
    result = check_model(n_coords=80, seed=0)
    assert result.passed, f"max rel err {result.max_rel_err:.3e}"


def test_corrupted_backward_rule_is_caught(monkeypatch):
    # harness self-test: break the gelu derivative and expect a failure
    monkeypatch.setattr(tensor_mod, "_gelu_grad", lambda x, cdf: np.ones_like(x))
    result = check_op("gelu", trials=2, seed=0)
    assert not result.passed


def test_run_all_reports_every_kind_plus_model():
    report = run_all(op_trials=1, model_coords=20, seed=2)
    names = [r.name for r in report.results]
    assert names == list(OP_KINDS) + ["full_model"]
    assert report.passed
    assert report.elapsed_s > 0


def test_check_op_same_in_every_process():
    # string hashing changes with PYTHONHASHSEED; the op seeds must not
    code = "from vtfpar.gradcheck import check_op; print(check_op('mul', trials=2))"
    path = [str(Path(tensor_mod.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")]
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert "CheckResult(name='mul'" in outs[0]
