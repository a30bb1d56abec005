"""Schema invariants and the schema file loader."""

import re

import pytest

from vtfpar.errors import DataError
from vtfpar.schema import (AttributeGroup, AttributeSchema, default_schema,
                           load_schema, render_schema, save_schema)


def test_default_schema_shape():
    schema = default_schema()
    assert len(schema.groups) == 14
    assert schema.n_classes == 43
    assert sum(g.size for g in schema.groups) == 43
    assert "Age ≤ 40" in schema.raw_strings


def test_group_slices_partition():
    schema = default_schema()
    slices = schema.group_slices
    assert slices[0][1] == 0
    for (_, _, stop), (_, start, _) in zip(slices, slices[1:]):
        assert stop == start
    assert slices[-1][2] == schema.n_classes


def test_duplicate_group_names_rejected():
    g = AttributeGroup("g", "binary", ("x",), ("x",))
    with pytest.raises(DataError, match="duplicate group names"):
        AttributeSchema((g, g))


def test_exclusive_group_needs_two_classes():
    with pytest.raises(DataError, match="exclusive group needs >= 2 classes"):
        AttributeGroup("g", "exclusive", ("only",), ("only",))


@pytest.mark.parametrize("raw", ["", " ", "_", "_ _"])
def test_raw_without_words_rejected(raw):
    with pytest.raises(DataError, match="no words"):
        AttributeGroup("g", "binary", ("a",), (raw,))


def test_unknown_kind_rejected():
    with pytest.raises(DataError, match="unknown group kind 'multi'"):
        AttributeGroup("g", "multi", ("a", "b"), ("a", "b"))


def test_roundtrip_through_file(tmp_path):
    schema = default_schema()
    path = tmp_path / "schema.txt"
    save_schema(schema, path)
    loaded = load_schema(path)
    assert loaded == schema


def test_render_is_canonical(tmp_path):
    schema = default_schema()
    text1 = render_schema(schema)
    path = tmp_path / "schema.txt"
    path.write_text(text1, encoding="utf-8")
    assert render_schema(load_schema(path)) == text1


class TestLoaderErrors:
    def _load(self, tmp_path, body):
        path = tmp_path / "schema.txt"
        path.write_text(body, encoding="utf-8")
        return load_schema(path)

    def test_duplicate_class_line_numbered(self, tmp_path):
        body = "[group g binary]\na = one\na = two\n"
        with pytest.raises(DataError, match=r"schema\.txt:3"):
            self._load(tmp_path, body)

    def test_group_name_under_two_kinds_line_numbered(self, tmp_path):
        # two headers, so not a repeated section, but one group name
        body = "[group g binary]\na = one\n[group g exclusive]\nb = two\nc = three\n"
        with pytest.raises(DataError, match=r"schema\.txt:3: duplicate group name 'g'"):
            self._load(tmp_path, body)

    def test_bad_header(self, tmp_path):
        with pytest.raises(DataError, match=r"schema\.txt:1"):
            self._load(tmp_path, "[grp g binary]\na = one\n")

    def test_bad_kind(self, tmp_path):
        with pytest.raises(DataError, match="unknown group kind"):
            self._load(tmp_path, "[group g fuzzy]\na = one\n")

    def test_empty_raw(self, tmp_path):
        with pytest.raises(DataError, match=r"schema\.txt:2"):
            self._load(tmp_path, "[group g binary]\na =\n")

    @pytest.mark.parametrize("raw", ["_", "__", "_ _"])
    def test_raw_of_separators_only_line_numbered(self, tmp_path, raw):
        # split-expands to an empty phrase, so no prompt can be built
        body = f"[group g binary]\na = one\nb = {raw}\n"
        with pytest.raises(DataError, match=r"schema\.txt:3: class 'b'.*no words"):
            self._load(tmp_path, body)

    def test_key_before_group(self, tmp_path):
        with pytest.raises(DataError, match=r"schema\.txt:1"):
            self._load(tmp_path, "a = one\n")

    def test_bad_template_placeholder(self, tmp_path):
        with pytest.raises(DataError, match="placeholder"):
            self._load(tmp_path, "template = no slot\n[group g binary]\na = one\n")

    def test_exclusive_single_class_reports_header_line(self, tmp_path):
        body = "# comment\n[group g exclusive]\nonly = one\n"
        with pytest.raises(DataError, match=r"schema\.txt:2"):
            self._load(tmp_path, body)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.txt"
        with pytest.raises(DataError, match=re.escape(f"cannot read schema {path}")):
            load_schema(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        body = "# header\n\ntemplate = a {} b\n\n[group g binary]\n# note\nx = raw x\n"
        schema = self._load(tmp_path, body)
        assert schema.template == "a {} b"
        assert schema.n_classes == 1
