"""The line format shared by schema, manifest and model-config files.

A file is a preamble of ``key = value`` entries, then sections, each opened
by a ``[word word ...]`` header line that no later header repeats. Blank and
``#`` lines are skipped; an entry splits at its first ``=`` and both sides
are stripped. Any other line is a ``path:line`` error. Which headers and
keys are allowed, and whether a key may repeat, is up to each loader.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import DataError


@dataclass(frozen=True)
class Section:
    header: tuple[str, ...]  # () for the preamble
    lineno: int  # line of the header, 0 for the preamble
    entries: list[tuple[int, str, str]]  # (lineno, key, value) in file order


def read_sections(path, what: str) -> list[Section]:
    """The preamble, then one section per header, in file order."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {what} {path}: {e}") from None
    sections = [Section((), 0, [])]
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            header = tuple(line[1:-1].split())
            if any(s.header == header for s in sections[1:]):
                raise DataError(f"{path}:{lineno}: duplicate section [{' '.join(header)}]")
            sections.append(Section(header, lineno, []))
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq or not key:
            raise DataError(f"{path}:{lineno}: expected [header] or 'key = value', got {line!r}")
        sections[-1].entries.append((lineno, key, value))
    return sections


def keyed(section: Section, path) -> dict[str, tuple[int, str]]:
    """``key -> (lineno, value)`` in file order; a repeated key is an error."""
    out: dict[str, tuple[int, str]] = {}
    for lineno, key, value in section.entries:
        if key in out:
            raise DataError(f"{path}:{lineno}: duplicate key {key!r} "
                            f"(first on line {out[key][0]})")
        out[key] = (lineno, value)
    return out
