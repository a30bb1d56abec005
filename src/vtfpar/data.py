"""Datasets on disk and the synthetic tracklet generator.

Frames file (``frames.vtf``): a tracklet's frame records back to back, in
frame order. A record ("VTFIMG01") is the magic, int32 LE height and
width, then row-major RGB float32 LE pixels in [0, 1]. Errors name the
record, counting from 0, as in ``frame 2 of .../frames.vtf: truncated
pixels``.

Dataset layout: ``<root>/<split>/<tracklet_id>/`` holding one
``frames.vtf`` and one ``labels.txt`` record (other files are ignored);
``<root>/manifest.txt`` lists the schema file and every tracklet per
split. Label records and manifests use the shared ``key = value`` line
format of ``vtfpar.kvfile`` (grammar in the README's "File formats").

The generator plants one fixed low-frequency spatial prototype per
attribute class: a frame is the sum of its tracklet's active prototypes
over a gray base, plus Gaussian pixel noise, clipped to [0, 1]. With
probability ``occlusion_p`` a frame is replaced by pure uniform noise
carrying no attribute signal, which is what makes single-frame
recognition strictly harder than multi-frame.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, UsageError
from .kvfile import keyed, read_sections
from .parallel import map_indexed
from .schema import AttributeSchema, load_schema, save_schema
from .vision import bilinear_resize

FRAME_MAGIC = b"VTFIMG01"
FRAMES_FILE = "frames.vtf"
_PROTOTYPE_SEED = 7
_PROTOTYPE_GRID = 6
_PROTOTYPE_AMPLITUDE = 0.3
_PROTOTYPE_CELL_RMS = 0.577  # cell scale of a uniform(-1, 1) draw
_BASE_LEVEL = 0.5


@dataclass(frozen=True)
class Tracklet:
    id: str
    frames: np.ndarray  # (t, h, w, 3) float32 in [0, 1]
    labels: np.ndarray  # (n_classes,) int8 in {0, 1}


@dataclass
class Dataset:
    schema: AttributeSchema
    splits: dict[str, list[Tracklet]]

    def split(self, name: str) -> list[Tracklet]:
        if name not in self.splits:
            raise DataError(f"dataset has no split {name!r} (have {sorted(self.splits)})")
        return self.splits[name]


# -- frames files -----------------------------------------------------------


def write_frames(path, frames) -> None:
    """Write ``frames``, each (h, w, 3), as one frames file, with one open."""
    records = []
    for frame in frames:
        h, w, c = frame.shape
        if c != 3:
            raise DataError(f"frame must have 3 channels, got shape {frame.shape}")
        records += [FRAME_MAGIC, struct.pack("<ii", h, w),
                    np.ascontiguousarray(frame, dtype="<f4").tobytes()]
    with open(path, "wb") as f:
        f.write(b"".join(records))


def read_frame(blob: bytes, offset: int, where: str) -> tuple[np.ndarray, int]:
    """The frame record at ``offset`` of a frames file's bytes, as a read-only
    view, and the offset after it; ``where`` names the record in errors."""
    head = offset + len(FRAME_MAGIC) + 8
    if len(blob) < head:
        raise DataError(f"{where}: truncated header")
    if blob[offset:head - 8] != FRAME_MAGIC:
        raise DataError(f"{where}: bad magic header")
    h, w = struct.unpack_from("<ii", blob, head - 8)
    if h <= 0 or w <= 0:
        raise DataError(f"{where}: bad dimensions {h}x{w}")
    end = head + h * w * 3 * 4
    if len(blob) < end:
        raise DataError(f"{where}: truncated pixels, {end - head} bytes for {h}x{w} "
                        f"but {len(blob) - head} left")
    frame = np.frombuffer(blob, dtype="<f4", count=h * w * 3, offset=head).reshape(h, w, 3)
    # NaN fails both comparisons; only a failed frame pays the isfinite pass
    if not (0.0 <= frame.min() and frame.max() <= 1.0):
        if not np.isfinite(frame).all():
            raise DataError(f"{where}: non-finite pixels")
        raise DataError(f"{where}: pixel values outside [0, 1]")
    return frame, end


# -- label records ------------------------------------------------------------


def _group_summary(schema: AttributeSchema, labels: np.ndarray) -> dict[str, str]:
    """``group NAME`` key -> its echo text, one per schema group."""
    echo, flags = {}, labels.tolist()
    for group, start, stop in schema.group_slices:
        active = [c for c, on in zip(group.classes, flags[start:stop]) if on]
        echo[f"group {group.name}"] = ", ".join(active) if active else "none"
    return echo


def write_labels(path, tracklet_id: str, labels: np.ndarray,
                 schema: AttributeSchema) -> None:
    lines = [f"tracklet = {tracklet_id}",
             "labels = " + " ".join(str(int(v)) for v in labels)]
    # human-diffable echo
    lines += [f"{key} = {text}" for key, text in _group_summary(schema, labels).items()]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def validate_labels(labels: np.ndarray, schema: AttributeSchema, where: str) -> None:
    if labels.shape != (schema.n_classes,):
        raise DataError(
            f"{where}: {labels.size} labels for schema with {schema.n_classes} classes")
    flags = labels.tolist()
    if not set(flags) <= {0, 1}:
        raise DataError(f"{where}: labels must be 0/1")
    for group, start, stop in schema.group_slices:
        if group.kind == "exclusive" and sum(flags[start:stop]) != 1:
            raise DataError(
                f"{where}: exclusive group {group.name} must have exactly one "
                f"positive, got {int(sum(flags[start:stop]))}")


def read_labels(path, schema: AttributeSchema) -> tuple[str, np.ndarray]:
    preamble, *sections = read_sections(path, "labels")
    if sections:
        raise DataError(f"{path}:{sections[0].lineno}: unexpected section header")
    entries = keyed(preamble, path)
    if "tracklet" not in entries or "labels" not in entries:
        raise DataError(f"{path}: missing tracklet id or labels line")
    lineno, value = entries["labels"]
    try:
        labels = np.array([int(v) for v in value.split()], dtype=np.int8)
    except (ValueError, OverflowError):  # OverflowError: outside int8
        raise DataError(f"{path}:{lineno}: labels must be 0/1") from None
    validate_labels(labels, schema, str(path))
    # ``group NAME = ...`` lines, where present, echo the labels vector
    echo = _group_summary(schema, labels)
    for key, (lineno, value) in entries.items():
        if key in ("tracklet", "labels"):
            continue
        where = f"{path}:{lineno}"
        if not key.startswith("group "):
            raise DataError(f"{where}: unexpected key {key!r}")
        if key not in echo:
            raise DataError(f"{where}: {key!r} names no schema group")
        if value != echo[key]:
            raise DataError(f"{where}: {key} = {value!r} disagrees with the labels, "
                            f"which give {echo[key]!r}")
    return entries["tracklet"][1], labels


# -- synthetic generation ------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    n_tracklets: int = 700
    frames_per_tracklet: int = 6
    height: int = 28
    width: int = 28
    noise_sigma: float = 0.1
    occlusion_p: float = 0.3
    split_fraction: float = 5.0 / 7.0  # train share: 500 / 200 by default
    seed: int = 0

    def __post_init__(self):
        if self.n_tracklets < 2 or self.frames_per_tracklet < 1:
            raise UsageError(f"bad synthetic size {self}")
        if self.height < 2 or self.width < 2:
            raise UsageError("frames must be at least 2x2")
        if self.frames_per_tracklet * self.height * self.width * 12 > np.iinfo(np.intp).max:
            # numpy raises a ValueError, not a MemoryError, for a frame array this large
            raise MemoryError(f"{self.frames_per_tracklet} float32 frames of "
                              f"{self.height}x{self.width}x3 exceed the address space")
        if not 0.0 <= self.occlusion_p < 1.0:
            raise UsageError(f"occlusion_p must be in [0, 1), got {self.occlusion_p}")
        if not 0.0 <= self.noise_sigma < np.inf:  # NaN fails every comparison
            raise UsageError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0.0 < self.split_fraction < 1.0:
            raise UsageError(
                f"split_fraction must be in (0, 1), got {self.split_fraction}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")

    @property
    def n_train(self) -> int:
        n = int(round(self.n_tracklets * self.split_fraction))
        return min(max(n, 1), self.n_tracklets - 1)


def class_prototypes(spec: SyntheticSpec, schema: AttributeSchema) -> np.ndarray:
    """Fixed per-class low-frequency patterns, shape (n_classes, h, w, 3).

    The coarse grids are orthogonalized across classes (when the grid
    space is large enough) so the planted signals add without
    interfering; each grid is bilinearly upsampled to frame size.
    """
    c = schema.n_classes
    dim = _PROTOTYPE_GRID * _PROTOTYPE_GRID * 3
    rng = np.random.default_rng([_PROTOTYPE_SEED, 0])
    if c <= dim:
        q, _ = np.linalg.qr(rng.standard_normal((dim, c)))
        grids = (q.T * _PROTOTYPE_CELL_RMS * np.sqrt(dim)).reshape(
            c, _PROTOTYPE_GRID, _PROTOTYPE_GRID, 3)
    else:
        grids = rng.uniform(-1.0, 1.0, (c, _PROTOTYPE_GRID, _PROTOTYPE_GRID, 3))
    return _PROTOTYPE_AMPLITUDE * bilinear_resize(
        grids, spec.height, spec.width).astype(np.float32)


def sample_labels(spec: SyntheticSpec, schema: AttributeSchema,
                  index: int) -> np.ndarray:
    rng = np.random.default_rng([spec.seed, index, 0])
    labels = np.zeros(schema.n_classes, dtype=np.int8)
    for group, start, stop in schema.group_slices:
        if group.kind == "exclusive":
            labels[start + rng.integers(group.size)] = 1
        else:
            labels[start:stop] = rng.random(group.size) < 0.5
    return labels


def render_tracklet(spec: SyntheticSpec, schema: AttributeSchema, index: int,
                    prototypes: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic tracklet ``index``: (frames, labels, occluded mask).

    Seeds derive from (master seed, tracklet index, frame index), so the
    output is independent of generation order, and the clean signal of a
    frame does not depend on ``occlusion_p``.
    """
    if prototypes is None:
        prototypes = class_prototypes(spec, schema)
    labels = sample_labels(spec, schema, index)
    clean = _BASE_LEVEL + prototypes[labels.astype(bool)].sum(axis=0)
    shape = (spec.height, spec.width, 3)
    frames = np.empty((spec.frames_per_tracklet,) + shape, dtype=np.float32)
    occluded = np.zeros(spec.frames_per_tracklet, dtype=bool)
    for f in range(spec.frames_per_tracklet):
        rng = np.random.default_rng([spec.seed, index, 1 + f])
        if rng.random() < spec.occlusion_p:
            occluded[f] = True
            frames[f] = rng.random(shape, dtype=np.float32)
        else:
            # clean + noise, clipped in place; the frame's dtype rounds it
            noise = rng.normal(0.0, spec.noise_sigma, shape)
            noise += clean
            frames[f] = np.clip(noise, 0.0, 1.0, out=noise)
    return frames, labels, occluded


def generate(spec: SyntheticSpec, schema: AttributeSchema, out_dir) -> Path:
    """Write a full synthetic dataset tree; returns the manifest path."""
    prototypes = class_prototypes(spec, schema)  # first: a failed allocation writes nothing
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot create dataset directory {out}: {e}") from None
    save_schema(schema, out / "schema.txt")
    n_train = spec.n_train
    entries: list[tuple[str, str]] = []
    for i in range(spec.n_tracklets):
        split = "train" if i < n_train else "test"
        entries.append((split, f"{split}/t{i:05d}"))

    def build(i: int) -> None:
        split, rel = entries[i]
        frames, labels, _ = render_tracklet(spec, schema, i, prototypes)
        tdir = os.path.join(out, rel)  # str paths: cheaper than a Path per file
        os.makedirs(tdir, exist_ok=True)
        write_frames(f"{tdir}/{FRAMES_FILE}", frames)
        write_labels(f"{tdir}/labels.txt", f"t{i:05d}", labels, schema)

    map_indexed(build, spec.n_tracklets)

    lines = ["# synthetic pedestrian attribute dataset",
             f"# tracklets={spec.n_tracklets} frames={spec.frames_per_tracklet} "
             f"sigma={spec.noise_sigma} occlusion={spec.occlusion_p} seed={spec.seed}",
             "schema = schema.txt", ""]
    for split in ("train", "test"):
        lines.append(f"[split {split}]")
        lines.extend(f"tracklet = {rel}" for s, rel in entries if s == split)
        lines.append("")
    manifest = out / "manifest.txt"
    manifest.write_text("\n".join(lines), encoding="utf-8")
    return manifest


# -- loading ------------------------------------------------------------------


def _load_tracklet(tdir: Path, schema: AttributeSchema, shape: tuple | None) -> Tracklet:
    """One tracklet; every frame must have ``shape``, or, given None, the
    shape of the tracklet's first frame."""
    tracklet_id, labels = read_labels(tdir / "labels.txt", schema)
    if tracklet_id != tdir.name:
        raise DataError(f"{tdir / 'labels.txt'}: tracklet id {tracklet_id!r} "
                        f"does not match its directory {tdir.name!r}")
    path = os.path.join(tdir, FRAMES_FILE)  # str: cheaper than a Path per tracklet
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except FileNotFoundError:
        raise DataError(f"tracklet {tdir} has no {FRAMES_FILE}; "
                        "regenerate the dataset with `vtfpar gen-data`") from None
    except OSError as e:
        raise DataError(f"cannot read frames {path}: {e}") from None
    frames, offset = [], 0
    while not frames or offset < len(blob):  # an empty file fails frame 0's header
        where = f"frame {len(frames)} of {path}"
        frame, offset = read_frame(blob, offset, where)
        shape = shape or frame.shape
        if frame.shape != shape:
            raise DataError(f"{where}: shape {frame.shape} differs from "
                            f"{shape}, the shape of the dataset's first frame")
        frames.append(frame)
    return Tracklet(tracklet_id, np.stack(frames), labels)


def read_manifest(path) -> tuple[Path, Path, dict[str, list[Path]]]:
    """A manifest, or the directory holding ``manifest.txt``: its path, the
    schema file its ``schema =`` entry names, and each split's tracklet
    directories, every split header and tracklet entry checked."""
    manifest = Path(path)
    if manifest.is_dir():
        manifest = manifest / "manifest.txt"
    root = manifest.parent
    preamble, *sections = read_sections(manifest, "manifest")
    entries = keyed(preamble, manifest)
    for key, (lineno, _) in entries.items():
        if key != "schema":
            raise DataError(f"{manifest}:{lineno}: unexpected key {key!r} before any [split]")
    if "schema" not in entries:
        raise DataError(f"{manifest}: no schema entry")
    splits: dict[str, list[Path]] = {}
    listed: dict[tuple, int] = {}  # tracklet directory's (dev, inode) -> its manifest line
    for section in sections:
        if len(section.header) != 2 or section.header[0] != "split":
            raise DataError(f"{manifest}:{section.lineno}: expected [split NAME], "
                            f"got [{' '.join(section.header)}]")
        name = section.header[1]
        # an empty split would evaluate nothing
        if not section.entries:
            raise DataError(f"{manifest}:{section.lineno}: [split {name}] lists no tracklet")
        tdirs = splits[name] = []
        for lineno, key, value in section.entries:
            where = f"{manifest}:{lineno}"
            if key != "tracklet":
                raise DataError(f"{where}: unexpected key {key!r}")
            # a repeat, however spelled, would train on a tracklet twice or leak
            # test data into training: key on the directory itself, one stat each
            try:
                st = os.stat(root / value)
            except OSError:
                st = None
            if st is None or not stat.S_ISDIR(st.st_mode):
                raise DataError(f"{where}: tracklet {value} is missing or not a directory")
            tdir = (st.st_dev, st.st_ino)
            if tdir in listed:
                raise DataError(f"{where}: tracklet {value} is already listed "
                                f"on line {listed[tdir]}")
            listed[tdir] = lineno
            tdirs.append(root / value)
    if not splits:
        raise DataError(f"{manifest}: no splits declared")
    return manifest, root / entries["schema"][1], splits


def load_dataset(path) -> Dataset:
    """Load every tracklet that ``read_manifest(path)`` lists, validating all
    invariants; batches stack clips, so every frame has one shape."""
    _, schema_path, splits = read_manifest(path)
    schema = load_schema(schema_path)
    loaded: dict[str, list[Tracklet]] = {}
    shape = None
    for split, tdirs in splits.items():
        loaded[split] = []
        for tdir in tdirs:
            loaded[split].append(_load_tracklet(tdir, schema, shape))
            shape = loaded[split][-1].frames.shape[1:]
    return Dataset(schema=schema, splits=loaded)
