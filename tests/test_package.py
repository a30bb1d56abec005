"""Package surface: every exported name resolves; the import needs only
numpy; one error class per exit code; what the benchmark binds still works."""

import ast
import builtins
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vtfpar
import vtfpar.cli as cli_mod
from vtfpar.errors import DataError, UsageError, VerificationError
from vtfpar.tensor import OP_KINDS


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from vtfpar import *", namespace)
    assert sorted(set(vtfpar.__all__) - set(namespace)) == []
    assert len(vtfpar.__all__) == len(set(vtfpar.__all__))


def test_package_binds_no_public_name_it_does_not_export():
    # a name dropped from __all__ must also leave the package's imports
    public = {name for name, value in vars(vtfpar).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(vtfpar.__all__)


def test_import_loads_no_scipy():
    # a fresh interpreter, so that no other test's imports count
    code = ("import sys, vtfpar, vtfpar.cli, vtfpar.gradcheck; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=os.environ.copy())
    assert out.stdout.strip() == "[]"


def test_exception_classes_are_the_three_of_errors_py():
    # the CLI has three failure exits, so a new failure raises one of their classes;
    # a class counts when a base is a builtin exception or named like one
    builtin = {n for n in dir(builtins) if inspect.isclass(getattr(builtins, n))
               and issubclass(getattr(builtins, n), BaseException)}
    found = []
    for path in sorted(Path(vtfpar.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                         for b in node.bases]
                if any(b in builtin or b.endswith("Error") for b in bases):
                    found.append((path.name, node.name))
    assert sorted(found) == [("errors.py", "DataError"), ("errors.py", "UsageError"),
                             ("errors.py", "VerificationError")]


@pytest.mark.parametrize("error, code", [(UsageError, 1), (DataError, 2),
                                         (VerificationError, 3)])
def test_main_gives_each_error_class_its_exit_code(error, code, monkeypatch, capsys):
    def fail(args):
        raise error("the reason")

    monkeypatch.setitem(cli_mod._COMMANDS, "dump-prompts", fail)
    assert cli_mod.main(["dump-prompts"]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(": the reason\n")
    assert captured.err.count("\n") == 1


def test_benchmark_fast_tests_pass():
    # perfbench/ calls src/ by name (op kinds, logits_batch, config fields,
    # traced callables), so a change that breaks one fails here
    root = Path(vtfpar.__file__).resolve().parents[2]
    if not (root / "perfbench" / "tests").is_dir():
        pytest.skip(f"no perfbench/tests in {root}")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/tests", "-m", "not slow"],
        cwd=root, capture_output=True, text=True, env=os.environ.copy())
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]


def test_benchmark_rows_name_only_existing_op_kinds():
    # a traced benchmark run exits 2 when an op kind it lists has no row, so
    # a kind leaves OP_KINDS only after BENCHMARK.json stops naming it
    path = Path(vtfpar.__file__).resolve().parents[2] / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip(f"no {path.name} in {path.parent}")
    rows = [row["name"] for row in json.loads(path.read_text(encoding="utf-8"))["per_layer"]]
    kinds = {name.split(".")[2] for name in rows
             if name.startswith(("tensor.op.", "gradcheck.check_op_s."))}
    assert kinds and sorted(kinds - set(OP_KINDS)) == []


def test_benchmark_trace_targets_resolve_and_restore():
    # the tracer wraps src/ callables by name (data.read_frame, Adam.step, ...),
    # so a rename leaves a target unresolved and the traced benchmark run fails
    path = Path(vtfpar.__file__).resolve().parents[2] / "perfbench" / "tracer.py"
    if not path.is_file():
        pytest.skip(f"no {path.name} in {path.parent}")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    before = tracer_mod.snapshot()
    tracer = tracer_mod.Tracer("tier-1")
    tracer.install()
    try:
        assert tracer.unresolved == []
    finally:
        tracer.restore()
    assert tracer_mod.snapshot() == before
