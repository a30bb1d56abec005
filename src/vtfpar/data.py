"""Datasets on disk and the synthetic tracklet generator.

A dataset is ``<root>/manifest.txt``, the schema file it names, and one
frames file per tracklet. The manifest (the ``key = value`` format of
``vtfpar.kvfile``; grammar in the README's "File formats") names the
schema, then lists each split's tracklets, one line each:
``tracklet = train/t00000.vtf 0 1 0 ...``, the frames file's path
relative to the root, then its ``n_classes`` 0/1 labels. A tracklet is
its frames file, identified by the file's ``(st_dev, st_ino)``, so no
spelling lists it twice. Files the manifest does not list are ignored.
``read_manifest`` is the one reader and checker of a dataset's layout;
``load_frames`` reads the frames files of the splits it is given, which
the CLI checks first; ``load_dataset`` reads every split's. ``generate``
writes ``<root>/<split>/tNNNNN.vtf`` files and the manifest; generating
into an existing tree overwrites each frames file whole and leaves files
it does not write, such as an older tree's tracklet directories, in place.

Frames file: a tracklet's frame records back to back, in frame order. A
record ("VTFIMG01") is the magic, int32 LE height and width, then
row-major RGB float32 LE pixels in [0, 1]. Errors name the record,
counting from 0, as in ``frame 2 of .../t00004.vtf: truncated pixels``.
``read_frame`` parses one record, and the loader calls it once per frame.
Batches stack clips of several tracklets, so every frame a command reads
must have the shape of the first one it reads: the first record of the
first listed tracklet of the splits it uses.

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
_PROTOTYPE_SEED = 7
_PROTOTYPE_GRID = 6
_PROTOTYPE_AMPLITUDE = 0.3
_PROTOTYPE_CELL_RMS = 0.577  # cell scale of a uniform(-1, 1) draw
_BASE_LEVEL = 0.5


@dataclass(frozen=True)
class Tracklet:
    frames: np.ndarray  # (t, h, w, 3) float32 in [0, 1]
    labels: np.ndarray  # (n_classes,) int8 in {0, 1}


@dataclass
class Dataset:
    schema: AttributeSchema
    splits: dict[str, list[Tracklet]]

    def split(self, name: str) -> list[Tracklet]:
        return pick_split(self.splits, name)


def pick_split(splits: dict, name: str):
    """``splits[name]``; a data error naming the splits there are if absent."""
    if name not in splits:
        raise DataError(f"dataset has no split {name!r} (have {sorted(splits)})")
    return splits[name]


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


# -- labels -------------------------------------------------------------------


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
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic tracklet ``index``: (frames, labels).

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
    for f in range(spec.frames_per_tracklet):
        rng = np.random.default_rng([spec.seed, index, 1 + f])
        if rng.random() < spec.occlusion_p:
            frames[f] = rng.random(shape, dtype=np.float32)
        else:
            # clean + noise, clipped in place; the frame's dtype rounds it
            noise = rng.normal(0.0, spec.noise_sigma, shape)
            noise += clean
            frames[f] = np.clip(noise, 0.0, 1.0, out=noise)
    return frames, labels


def generate(spec: SyntheticSpec, schema: AttributeSchema, out_dir) -> Path:
    """Write a full synthetic dataset tree; returns the manifest path."""
    prototypes = class_prototypes(spec, schema)  # first: a failed allocation writes nothing
    out = Path(out_dir)
    try:
        for split in ("train", "test"):
            (out / split).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot create dataset directory {out}: {e}") from None
    save_schema(schema, out / "schema.txt")
    n_train = spec.n_train
    rels = [f"{'train' if i < n_train else 'test'}/t{i:05d}.vtf"
            for i in range(spec.n_tracklets)]

    def build(i: int) -> np.ndarray:
        frames, labels = render_tracklet(spec, schema, i, prototypes)
        write_frames(os.path.join(out, rels[i]), frames)  # str: cheaper than a Path
        return labels

    labels = map_indexed(build, spec.n_tracklets)
    lines = ["# synthetic pedestrian attribute dataset",
             f"# tracklets={spec.n_tracklets} frames={spec.frames_per_tracklet} "
             f"sigma={spec.noise_sigma} occlusion={spec.occlusion_p} seed={spec.seed}",
             "schema = schema.txt", ""]
    for split in ("train", "test"):
        lines.append(f"[split {split}]")
        lines.extend(f"tracklet = {rel} " + " ".join(map(str, flags.tolist()))
                     for rel, flags in zip(rels, labels) if rel.startswith(f"{split}/"))
        lines.append("")
    manifest = out / "manifest.txt"
    manifest.write_text("\n".join(lines), encoding="utf-8")
    return manifest


# -- loading ------------------------------------------------------------------


def _read_frames(path: Path, shape: tuple | None) -> np.ndarray:
    """A frames file's frames; every frame must have ``shape``, or, given
    None, the shape of the file's first frame."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
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
    return np.stack(frames)


def read_manifest(path) -> tuple[Path, Path, AttributeSchema,
                                 dict[str, list[tuple[Path, np.ndarray]]]]:
    """A manifest, or the directory holding ``manifest.txt``: its path, the
    schema file its ``schema =`` entry names, that schema, and each split's
    ``(frames file, labels)`` pairs, every split header and tracklet line
    checked."""
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
    schema_path = root / entries["schema"][1]
    schema = load_schema(schema_path)
    splits: dict[str, list[tuple[Path, np.ndarray]]] = {}
    listed: dict[tuple, int] = {}  # frames file's (dev, inode) -> its manifest line
    for section in sections:
        if len(section.header) != 2 or section.header[0] != "split":
            raise DataError(f"{manifest}:{section.lineno}: expected [split NAME], "
                            f"got [{' '.join(section.header)}]")
        name = section.header[1]
        # an empty split would evaluate nothing
        if not section.entries:
            raise DataError(f"{manifest}:{section.lineno}: [split {name}] lists no tracklet")
        tracklets = splits[name] = []
        for lineno, key, value in section.entries:
            where = f"{manifest}:{lineno}"
            if key != "tracklet":
                raise DataError(f"{where}: unexpected key {key!r}")
            # the path may hold blanks; an empty value splits into no words
            rel, *flags = value.rsplit(None, schema.n_classes) or [value]
            if not flags:
                raise DataError(f"{where}: tracklet {rel} has no labels; "
                                "regenerate the dataset with `vtfpar gen-data`")
            try:
                labels = np.array([int(v) for v in flags], dtype=np.int8)
            except (ValueError, OverflowError):  # OverflowError: outside int8
                raise DataError(f"{where}: labels must be 0/1") from None
            validate_labels(labels, schema, where)
            # a repeat, however spelled, would train on a tracklet twice or leak
            # test data into training: key on the file itself, one stat each
            try:
                st = os.stat(root / rel)
            except (OSError, ValueError):  # ValueError: a NUL in the path
                st = None
            if st is None or not stat.S_ISREG(st.st_mode):
                raise DataError(f"{where}: tracklet {rel} is missing or not a file")
            inode = (st.st_dev, st.st_ino)
            if inode in listed:
                raise DataError(f"{where}: tracklet {rel} is already listed "
                                f"on line {listed[inode]}")
            listed[inode] = lineno
            tracklets.append((root / rel, labels))
    if not splits:
        raise DataError(f"{manifest}: no splits declared")
    return manifest, schema_path, schema, splits


def load_dataset(path) -> Dataset:
    """The dataset ``read_manifest(path)`` lists, frames and all."""
    _, _, schema, splits = read_manifest(path)
    return load_frames(schema, splits)


def load_frames(schema: AttributeSchema, splits: dict) -> Dataset:
    """Read the frames files of ``splits``, some or all of ``read_manifest``'s;
    every frame has the shape of the first one read."""
    loaded: dict[str, list[Tracklet]] = {}
    shape = None
    for split, tracklets in splits.items():
        loaded[split] = []
        for frames_path, labels in tracklets:
            frames = _read_frames(frames_path, shape)
            shape = frames.shape[1:]
            loaded[split].append(Tracklet(frames, labels))
    return Dataset(schema=schema, splits=loaded)
