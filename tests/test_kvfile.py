"""The shared ``key = value`` line format and the three loaders built on it."""

import re

import pytest

from vtfpar.data import load_dataset
from vtfpar.errors import DataError
from vtfpar.kvfile import keyed, read_sections
from vtfpar.model import load_model_config
from vtfpar.schema import load_schema

# name -> (loader, body with a repeated key and its line,
#          body with a line that has no "=" and its line,
#          body with a repeated section and its second header's line);
# each raises DataError
LOADERS = {
    "schema": (load_schema,
               ("[group g binary]\na = one\na = two\n", 3),
               ("[group g binary]\na = one\nnonsense\n", 3),
               ("[group g binary]\na = one\n[group g binary]\nb = two\n", 3)),
    "manifest": (load_dataset,
                 ("schema = schema.txt\nschema = other.txt\n[split train]\n", 2),
                 ("schema = schema.txt\n[split train]\ntracklet train/t0\n", 3),
                 ("schema = schema.txt\n[split train]\ntracklet = train/t0\n"
                  "[split train]\ntracklet = train/t1\n", 4)),
    "model config": (load_model_config,
                     ("[vision]\ndim = 32\nheads = 2\ndim = 64\n", 4),
                     ("# config\n[vision]\nnonsense line\n", 3),
                     # a second [vision] would otherwise repeat its keys unnoticed
                     ("[vision]\ndim = 32\n[text]\nblocks = 1\n[vision]\ndim = 64\n", 5)),
}


def _line_error(path, lineno):
    return re.escape(f"{path}:{lineno}: ")


@pytest.mark.parametrize("name", LOADERS)
def test_repeated_key_is_a_line_error(tmp_path, name):
    load, (body, lineno), _, _ = LOADERS[name]
    path = tmp_path / "file.txt"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DataError, match=_line_error(path, lineno) + "duplicate key"):
        load(path)


@pytest.mark.parametrize("name", LOADERS)
def test_line_without_equals_is_a_line_error(tmp_path, name):
    load, _, (body, lineno), _ = LOADERS[name]
    path = tmp_path / "file.txt"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DataError, match=_line_error(path, lineno)):
        load(path)


@pytest.mark.parametrize("name", LOADERS)
def test_repeated_section_is_a_line_error_at_its_second_header(tmp_path, name):
    load, _, _, (body, lineno) = LOADERS[name]
    path = tmp_path / "file.txt"
    path.write_text(body, encoding="utf-8")
    header = body.splitlines()[lineno - 1]
    with pytest.raises(DataError,
                       match=_line_error(path, lineno) + re.escape(f"duplicate section {header}")):
        load(path)


@pytest.mark.parametrize("name", LOADERS)
def test_missing_file_names_the_path(tmp_path, name):
    load, _, _, _ = LOADERS[name]
    path = tmp_path / "absent.txt"
    with pytest.raises(DataError, match=re.escape(f"cannot read {name} {path}")):
        load(path)


def test_sections_keep_headers_lines_and_entry_order(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("# c\na = 1\n\n[x  y]\nk = v = w\nempty =\n[z]\n", encoding="utf-8")
    preamble, xy, z = read_sections(path, "test file")
    assert (preamble.header, preamble.lineno, preamble.entries) == ((), 0, [(2, "a", "1")])
    assert (xy.header, xy.lineno) == (("x", "y"), 4)
    assert xy.entries == [(5, "k", "v = w"), (6, "empty", "")]
    assert (z.header, z.lineno, z.entries) == (("z",), 7, [])
    assert keyed(xy, path) == {"k": (5, "v = w"), "empty": (6, "")}


def test_entry_without_key_rejected(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("[s]\n= value\n", encoding="utf-8")
    with pytest.raises(DataError, match=_line_error(path, 2)):
        read_sections(path, "test file")


def test_headers_that_differ_only_in_blanks_are_one_section(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("[x y]\n[x  y ]\n", encoding="utf-8")
    with pytest.raises(DataError, match=_line_error(path, 2) + re.escape("duplicate section [x y]")):
        read_sections(path, "test file")
