"""Attribute schema: named groups partitioning the attribute classes.

Schema files use the shared ``key = value`` line format of
``vtfpar.kvfile`` (grammar in the README's "File formats"), so that
validation errors can point at an exact line:

    template = the pedestrian has an attribute {}

    [group top_length exclusive]
    short = topLength_short
    long = topLength_long

Group kinds: ``exclusive`` (exactly one class true per tracklet, argmax
decision) and ``binary`` (each class decided independently, threshold 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import DataError
from .kvfile import keyed, read_sections

GROUP_KINDS = ("exclusive", "binary")
DEFAULT_TEMPLATE = "the pedestrian has an attribute {}"


def _has_no_words(raw: str) -> bool:
    """True for a raw attribute string made only of separators (blanks and
    underscores), which split-expands to an empty phrase."""
    return not raw.replace("_", " ").strip()


def _fail(path, lineno: int | None, msg: str):
    where = f"{path}:{lineno}: " if lineno is not None else f"{path}: "
    raise DataError(where + msg)


@dataclass(frozen=True)
class AttributeGroup:
    name: str
    kind: str
    classes: tuple[str, ...]
    raws: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in GROUP_KINDS:
            raise DataError(f"group {self.name}: unknown group kind {self.kind!r}")
        if len(self.classes) != len(self.raws):
            raise DataError(f"group {self.name}: classes and raw strings differ in count")
        if not self.classes:
            raise DataError(f"group {self.name}: empty group")
        if self.kind == "exclusive" and len(self.classes) < 2:
            raise DataError(f"group {self.name}: exclusive group needs >= 2 classes")
        if len(set(self.classes)) != len(self.classes):
            raise DataError(f"group {self.name}: duplicate class names")
        for raw in self.raws:
            if _has_no_words(raw):
                raise DataError(
                    f"group {self.name}: raw attribute string {raw!r} has no words")

    @property
    def size(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class AttributeSchema:
    groups: tuple[AttributeGroup, ...]
    template: str = DEFAULT_TEMPLATE

    def __post_init__(self):
        if not self.groups:
            raise DataError("schema has no groups")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise DataError("duplicate group names")
        if self.template.count("{}") != 1:
            raise DataError("template must contain exactly one {} placeholder")

    @property
    def n_classes(self) -> int:
        return self.group_slices[-1][2]

    @property
    def raw_strings(self) -> list[str]:
        return [raw for g in self.groups for raw in g.raws]

    @cached_property
    def group_slices(self) -> tuple[tuple[AttributeGroup, int, int], ...]:
        """Each group with its [start, stop) class-index range (computed once)."""
        out = []
        start = 0
        for g in self.groups:
            out.append((g, start, start + g.size))
            start += g.size
        return tuple(out)


def default_schema() -> AttributeSchema:
    """Built-in schema: 14 pedestrian attribute groups, 43 classes."""
    def g(name, kind, *pairs):
        return AttributeGroup(name, kind,
                              tuple(c for c, _ in pairs),
                              tuple(r for _, r in pairs))

    colors = ("black", "white", "red", "yellow", "blue",
              "green", "purple", "gray", "brown")
    groups = (
        g("top_length", "exclusive", ("short", "topLength_short"), ("long", "topLength_long")),
        g("bottom_length", "exclusive", ("short", "bottomLength_short"), ("long", "bottomLength_long")),
        g("shoulder_bag", "binary", ("shoulder_bag", "shoulderBag")),
        g("backpack", "binary", ("backpack", "backpack")),
        g("hat", "binary", ("hat", "hat")),
        g("hand_bag", "binary", ("hand_bag", "handBag")),
        g("hair", "exclusive", ("short", "hairLength_short"), ("long", "hairLength_long")),
        g("gender", "exclusive", ("male", "gender_male"), ("female", "gender_female")),
        g("bottom_type", "exclusive", ("pants", "bottomType_pants"), ("dress", "bottomType_dress")),
        g("pose", "exclusive", ("front", "pose_front"), ("side", "pose_side"), ("back", "pose_back")),
        g("motion", "exclusive", ("walking", "motion_walking"), ("running", "motion_running"),
          ("riding", "motion_riding"), ("staying", "motion_staying")),
        g("top_color", "exclusive", *[(c, f"topColor_{c}") for c in colors]),
        g("bottom_color", "exclusive", *[(c, f"bottomColor_{c}") for c in colors]),
        g("age", "exclusive", ("child", "Age ≤ 16"), ("young", "Age ≤ 40"),
          ("middle", "Age ≤ 60"), ("old", "Age > 60")),
    )
    return AttributeSchema(groups)


def render_schema(schema: AttributeSchema) -> str:
    """Canonical text form; parse(render(s)) == s."""
    lines = [f"template = {schema.template}", ""]
    for g in schema.groups:
        lines.append(f"[group {g.name} {g.kind}]")
        for cls, raw in zip(g.classes, g.raws):
            lines.append(f"{cls} = {raw}")
        lines.append("")
    return "\n".join(lines)


def save_schema(schema: AttributeSchema, path) -> None:
    Path(path).write_text(render_schema(schema), encoding="utf-8")


def load_schema(path) -> AttributeSchema:
    preamble, *sections = read_sections(path, "schema")
    template, template_line = DEFAULT_TEMPLATE, None
    for key, (lineno, value) in keyed(preamble, path).items():
        if key != "template":
            _fail(path, lineno, f"unexpected key {key!r} before first group")
        template, template_line = value, lineno

    groups: list[AttributeGroup] = []
    for section in sections:
        if len(section.header) != 3 or section.header[0] != "group":
            _fail(path, section.lineno, f"bad section header [{' '.join(section.header)}], "
                  "expected [group NAME KIND]")
        _, name, kind = section.header
        if any(g.name == name for g in groups):
            _fail(path, section.lineno, f"duplicate group name {name!r}")
        classes = keyed(section, path)
        for cls, (lineno, raw) in classes.items():
            if _has_no_words(raw):
                _fail(path, lineno,
                      f"class {cls!r}: raw attribute string {raw!r} has no words")
        try:
            groups.append(AttributeGroup(name, kind, tuple(classes),
                                         tuple(raw for _, raw in classes.values())))
        except DataError as e:
            _fail(path, section.lineno, str(e))

    if not groups:
        _fail(path, None, "schema defines no groups")
    try:
        return AttributeSchema(tuple(groups), template)
    except DataError as e:
        _fail(path, template_line, str(e))
