"""Synthetic generation, on-disk formats, and loader validation."""

import hashlib
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import vtfpar.data as data_mod
from vtfpar.data import (FRAME_MAGIC, SyntheticSpec, class_prototypes, generate,
                         load_dataset, read_frame, read_manifest,
                         render_tracklet, sample_labels, validate_labels,
                         write_frames)
from vtfpar.errors import DataError, UsageError
from vtfpar.schema import AttributeGroup, AttributeSchema, default_schema


def small_schema():
    return AttributeSchema((
        AttributeGroup("shape", "exclusive", ("round", "square"),
                       ("shape_round", "shape_square")),
        AttributeGroup("marked", "binary", ("marked",), ("marked",)),
    ))


def small_spec(**kw):
    base = dict(n_tracklets=6, frames_per_tracklet=3, height=10, width=8,
                noise_sigma=0.05, occlusion_p=0.0, split_fraction=0.5, seed=1)
    base.update(kw)
    return SyntheticSpec(**base)


def _last_tracklet_line(lines: list[str], split: str) -> int:
    """Index of the last ``tracklet`` line of ``split`` in a generated manifest."""
    return max(i for i, line in enumerate(lines) if line.startswith(f"tracklet = {split}/"))


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def record(frame: np.ndarray) -> bytes:
    """One frame record, built independently of the writer."""
    h, w, _ = frame.shape
    return FRAME_MAGIC + struct.pack("<ii", h, w) + frame.astype("<f4").tobytes()


def frames_of(path) -> list[np.ndarray]:
    """Every record of a frames file, parsed with ``read_frame``."""
    blob, offset, frames = Path(path).read_bytes(), 0, []
    while offset < len(blob):
        frame, offset = read_frame(blob, offset, f"frame {len(frames)} of {path}")
        frames.append(frame)
    return frames


class TestFrameFiles:
    def test_roundtrip_is_the_records_back_to_back(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = [rng.random((5, 4, 3)).astype(np.float32),
                  rng.random((2, 7, 3)).astype(np.float32)]
        path = tmp_path / "frames.vtf"
        write_frames(path, frames)
        assert path.read_bytes() == b"".join(map(record, frames))
        loaded = frames_of(path)
        assert len(loaded) == 2
        for got, want in zip(loaded, frames):
            npt.assert_array_equal(got, want)

    def test_bad_magic_names_frame_and_file(self, tmp_path):
        frame = np.full((2, 2, 3), 0.5, dtype=np.float32)
        path = tmp_path / "frames.vtf"
        path.write_bytes(record(frame) + b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(DataError, match=f"^frame 1 of {re.escape(str(path))}: "
                                            "bad magic header$"):
            frames_of(path)

    def test_truncated_names_frame_and_file(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "frames.vtf"
        write_frames(path, rng.random((2, 5, 4, 3)).astype(np.float32))
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(DataError, match=f"^frame 1 of {re.escape(str(path))}: "
                                            "truncated pixels"):
            frames_of(path)

    def test_unreadable_frames_file(self, tmp_path, monkeypatch):
        manifest = generate(small_spec(), small_schema(), tmp_path / "data")
        path = tmp_path / "data" / "train" / "t00000.vtf"

        def read_then_remove(*args):  # listed and checked, then gone before its read
            checked = read_manifest(*args)
            path.unlink()
            return checked

        monkeypatch.setattr(data_mod, "read_manifest", read_then_remove)
        with pytest.raises(DataError, match=f"^cannot read frames {re.escape(str(path))}: "):
            load_dataset(manifest)

    def test_out_of_range_pixels_rejected(self, tmp_path):
        path = tmp_path / "frames.vtf"
        write_frames(path, [np.full((3, 3, 3), 1.5, dtype=np.float32)])
        with pytest.raises(DataError, match=f"^frame 0 of {re.escape(str(path))}: "
                                            "pixel values outside \\[0, 1\\]$"):
            frames_of(path)

    def test_four_channels_refused_by_the_writer(self, tmp_path):
        path = tmp_path / "frames.vtf"
        with pytest.raises(DataError, match="3 channels"):
            write_frames(path, np.zeros((2, 3, 3, 4), dtype=np.float32))
        assert not path.exists()


def _bad_records(kind: str, frames: list[np.ndarray], k: int) -> bytes:
    """A frames file whose record ``k`` has the defect ``kind``."""
    records = [record(f) for f in frames]
    bad = frames[k].copy()
    if kind == "truncated header":  # the file ends inside record k's header
        return b"".join(records[:k]) + records[k][:11]
    if kind == "truncated pixels":
        return b"".join(records[:k]) + records[k][:-4]
    if kind == "bytes after the last record":  # k records, then stray bytes
        return b"".join(records[:k]) + b"\x00" * 7
    if kind == "bad magic":
        records[k] = b"VTFIMG02" + records[k][8:]
    elif kind == "bad dimensions":
        records[k] = FRAME_MAGIC + struct.pack("<ii", 0, 8) + records[k][16:]
    elif kind == "non-finite pixels":
        bad[1, 2, 0] = np.nan
        records[k] = record(bad)
    elif kind == "pixels outside [0, 1]":
        bad[1, 2, 0] = 1.5
        records[k] = record(bad)
    else:  # "shape": a frame the size of no other in the dataset
        records[k] = record(bad[:8])
    return b"".join(records)


_MESSAGES = {
    "truncated header": "truncated header",
    "truncated pixels": "truncated pixels, 960 bytes for 10x8 but 956 left",
    "bytes after the last record": "truncated header",
    "bad magic": "bad magic header",
    "bad dimensions": "bad dimensions 0x8",
    "non-finite pixels": "non-finite pixels",
    "pixels outside [0, 1]": "pixel values outside [0, 1]",
    "shape": "shape (8, 8, 3) differs from (10, 8, 3), the shape of the dataset's first frame",
}


@pytest.mark.parametrize("k", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("kind", list(_MESSAGES))
def test_frames_file_error_names_its_frame(kind, k, tmp_path):
    # the last test tracklet, so the dataset's first frame comes from elsewhere
    manifest = generate(small_spec(), small_schema(), tmp_path / "data")
    path = tmp_path / "data" / "test" / "t00005.vtf"
    path.write_bytes(_bad_records(kind, frames_of(path), k))
    message = f"frame {k} of {path}: {_MESSAGES[kind]}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_dataset(manifest)


def test_empty_frames_file_is_refused(tmp_path):
    manifest = generate(small_spec(), small_schema(), tmp_path / "data")
    path = tmp_path / "data" / "train" / "t00002.vtf"
    path.write_bytes(b"")
    with pytest.raises(DataError, match=f"^frame 0 of {re.escape(str(path))}: "
                                        "truncated header$"):
        load_dataset(manifest)


class TestLabels:
    """``validate_labels``, which ``read_manifest`` runs on each tracklet line."""

    def test_wrong_count_schema_mismatch(self):
        with pytest.raises(DataError, match=r"^where: 2 labels for schema with 3 classes$"):
            validate_labels(np.array([1, 0], dtype=np.int8), small_schema(), "where")

    def test_exclusive_violation_rejected(self):
        schema = small_schema()
        validate_labels(np.array([0, 1, 0], dtype=np.int8), schema, "where")
        for flags, got in (([1, 1, 0], 2), ([0, 0, 1], 0)):
            with pytest.raises(DataError, match=rf"^where: exclusive group shape must have "
                                                rf"exactly one positive, got {got}$"):
                validate_labels(np.array(flags, dtype=np.int8), schema, "where")


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(UsageError):
            small_spec(occlusion_p=1.5)
        with pytest.raises(UsageError):
            small_spec(split_fraction=1.5)
        with pytest.raises(UsageError):
            small_spec(noise_sigma=-0.1)

    def test_default_split_counts(self):
        spec = SyntheticSpec()
        assert spec.n_tracklets == 700
        assert spec.n_train == 500

    def test_labels_respect_group_constraints(self):
        schema = default_schema()
        spec = small_spec(n_tracklets=50)
        for i in range(50):
            labels = sample_labels(spec, schema, i)
            for group, start, stop in schema.group_slices:
                if group.kind == "exclusive":
                    assert labels[start:stop].sum() == 1


class TestRenderTracklet:
    def test_zero_noise_zero_occlusion_identical_frames(self):
        schema = small_schema()
        spec = small_spec(noise_sigma=0.0, occlusion_p=0.0)
        frames, _ = render_tracklet(spec, schema, 0)
        for f in range(1, frames.shape[0]):
            npt.assert_array_equal(frames[f], frames[0])

    def test_deterministic(self):
        schema = small_schema()
        spec = small_spec()
        a = render_tracklet(spec, schema, 3)
        b = render_tracklet(spec, schema, 3)
        npt.assert_array_equal(a[0], b[0])
        npt.assert_array_equal(a[1], b[1])

    def test_occlusion_binomial_rate(self):
        schema = small_schema()
        spec = small_spec(n_tracklets=1000, frames_per_tracklet=6,
                          occlusion_p=0.5, height=6, width=5)
        protos = class_prototypes(spec, schema)
        # an occluded frame is one that differs from the occlusion_p=0 render
        counts = [(render_tracklet(spec, schema, i, protos)[0]
                   != render_tracklet(replace(spec, occlusion_p=0.0), schema, i, protos)[0]
                   ).any(axis=(1, 2, 3)).sum() for i in range(1000)]
        mean = np.mean(counts)
        # binomial(6, 0.5): mean 3, se of the sample mean over 1000 draws
        se = np.sqrt(6 * 0.25 / 1000)
        assert abs(mean - 3.0) < 3 * se

    def test_signal_independent_of_occlusion_probability(self):
        # a frame that is not occluded is bitwise the clean render's frame; one
        # that differs is uniform noise, far from it, not other pixel noise
        schema = small_schema()
        spec = small_spec(occlusion_p=0.6, frames_per_tracklet=8)
        kept = 0
        for i in range(4):
            mixed = render_tracklet(spec, schema, i)[0]
            clean = render_tracklet(replace(spec, occlusion_p=0.0), schema, i)[0]
            gap = np.abs(mixed - clean).mean(axis=(1, 2, 3))
            assert ((gap == 0) | (gap > 0.15)).all(), gap
            kept += int((gap == 0).sum())
        assert 0 < kept < 32

    def test_frames_in_unit_range(self):
        schema = default_schema()
        spec = small_spec(noise_sigma=0.3, occlusion_p=0.4)
        frames, _ = render_tracklet(spec, schema, 0)
        assert frames.min() >= 0.0 and frames.max() <= 1.0


class TestGenerateLoad:
    def test_roundtrip_labels_and_frames(self, tmp_path):
        schema = small_schema()
        spec = small_spec()
        manifest = generate(spec, schema, tmp_path / "data")
        ds = load_dataset(manifest)
        assert len(ds.split("train")) == 3
        assert len(ds.split("test")) == 3
        protos = class_prototypes(spec, schema)
        for i, t in enumerate(ds.split("train")):
            frames, labels = render_tracklet(spec, schema, i, protos)
            npt.assert_array_equal(t.frames, frames)
            npt.assert_array_equal(t.labels, labels)

    def test_same_seed_byte_identical_trees(self, tmp_path):
        schema = small_schema()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        generate(small_spec(), schema, d1)
        generate(small_spec(), schema, d2)
        assert tree_digest(d1) == tree_digest(d2)

    def test_different_seed_differs(self, tmp_path):
        schema = small_schema()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        generate(small_spec(seed=1), schema, d1)
        generate(small_spec(seed=2), schema, d2)
        assert tree_digest(d1) != tree_digest(d2)

    def test_regenerating_with_fewer_frames_removes_the_stale_ones(self, tmp_path):
        schema = small_schema()
        out = tmp_path / "data"
        generate(small_spec(frames_per_tracklet=4, seed=1), schema, out)
        # files generate does not write stay: a note, and an older tree's
        # tracklet directory beside the frames file that replaces it
        note, old = out / "train" / "notes.txt", out / "train" / "t00000"
        note.write_text("kept\n", encoding="utf-8")
        old.mkdir()
        (old / "labels.txt").write_text("tracklet = t00000\n", encoding="utf-8")
        manifest = generate(small_spec(frames_per_tracklet=2, seed=2), schema, out)
        ds = load_dataset(manifest)
        assert {t.frames.shape[0] for t in ds.split("train") + ds.split("test")} == {2}
        assert note.read_text(encoding="utf-8") == "kept\n"
        assert [p.name for p in old.iterdir()] == ["labels.txt"]
        note.unlink()
        (old / "labels.txt").unlink()
        old.rmdir()
        generate(small_spec(frames_per_tracklet=2, seed=2), schema, tmp_path / "fresh")
        assert tree_digest(out) == tree_digest(tmp_path / "fresh")

    def test_truncated_frame_detected_on_load(self, tmp_path):
        schema = small_schema()
        manifest = generate(small_spec(), schema, tmp_path / "data")
        victim = tmp_path / "data" / "train" / "t00000.vtf"
        victim.write_bytes(victim.read_bytes()[:-5])
        with pytest.raises(DataError, match=f"^frame 2 of {re.escape(str(victim))}: "
                                            "truncated pixels"):
            load_dataset(manifest)

    def test_a_fresh_tree_is_a_manifest_a_schema_and_one_frames_file_per_tracklet(
            self, tmp_path):
        root = tmp_path / "data"
        generate(small_spec(), small_schema(), root)
        files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
        assert files == ["manifest.txt", "schema.txt",
                         *(f"test/t{i:05d}.vtf" for i in range(3, 6)),
                         *(f"train/t{i:05d}.vtf" for i in range(3))]

    def test_load_parses_each_frame_once_with_read_frame(self, tmp_path, monkeypatch):
        # perfbench's data.frames_read counts these calls by this name
        spec = small_spec(n_tracklets=5, frames_per_tracklet=4)
        manifest = generate(spec, small_schema(), tmp_path / "data")
        calls = []

        def counting_read_frame(*args):
            calls.append(args[2])
            return read_frame(*args)

        monkeypatch.setattr(data_mod, "read_frame", counting_read_frame)
        ds = load_dataset(manifest)
        assert len(calls) == spec.n_tracklets * spec.frames_per_tracklet == 20
        assert len(set(calls)) == 20  # each record of each file, once
        assert sum(t.frames.shape[0] for t in ds.split("train") + ds.split("test")) == 20

    def test_wrong_schema_class_count_detected(self, tmp_path):
        schema = small_schema()
        manifest = generate(small_spec(), schema, tmp_path / "data")
        # swap in a schema with a different class count
        from vtfpar.schema import save_schema
        bigger = AttributeSchema((
            AttributeGroup("shape", "exclusive", ("round", "square", "oval"),
                           ("a", "b", "c")),
            AttributeGroup("marked", "binary", ("marked",), ("marked",)),
        ))
        save_schema(bigger, tmp_path / "data" / "schema.txt")
        at = 1 + next(i for i, line in enumerate(manifest.read_text().splitlines())
                      if line.startswith("tracklet = train/t00000.vtf "))
        with pytest.raises(DataError, match=rf"manifest\.txt:{at}: 3 labels for schema "
                                            rf"with 4 classes$"):
            load_dataset(manifest)

    @pytest.mark.parametrize("defect", ["missing", "directory", "nul"])
    def test_listed_frames_file_missing_or_not_a_file_detected(self, tmp_path, defect):
        # refused by the manifest reader, naming the line that lists it
        manifest = generate(small_spec(), small_schema(), tmp_path / "data")
        lines = manifest.read_text().splitlines()
        at = _last_tracklet_line(lines, "test")
        rel = lines[at].split()[2]
        (tmp_path / "data" / rel).unlink()
        if defect == "directory":
            (tmp_path / "data" / rel).mkdir()
        elif defect == "nul":  # os.stat raises ValueError, not OSError
            lines[at] = lines[at].replace(rel, rel.replace("t0", "t\0"))
            manifest.write_text("\n".join(lines) + "\n")
            rel = rel.replace("t0", "t\0")
        with pytest.raises(DataError, match=rf"manifest\.txt:{at + 1}: tracklet {re.escape(rel)} "
                                            rf"is missing or not a file$"):
            load_dataset(manifest)

    def test_tracklet_line_with_an_empty_value_rejected(self, tmp_path):
        manifest = generate(small_spec(), small_schema(), tmp_path / "data")
        lines = manifest.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("tracklet = train/t00001"))
        lines[at] = "tracklet ="
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"manifest\.txt:{at + 1}: tracklet  has no labels"):
            load_dataset(manifest)

    def test_a_path_with_blanks_is_read_whole(self, tmp_path):
        manifest = generate(small_spec(), small_schema(), tmp_path / "data")
        text = manifest.read_text()
        (tmp_path / "data" / "test" / "t00004.vtf").rename(tmp_path / "data" / "test" / "t 4 .vtf")
        manifest.write_text(text.replace("test/t00004.vtf", "test/t 4 .vtf"))
        tracklet = load_dataset(manifest).split("test")[1]
        npt.assert_array_equal(tracklet.frames, render_tracklet(small_spec(), small_schema(), 4)[0])
        npt.assert_array_equal(tracklet.labels, sample_labels(small_spec(), small_schema(), 4))

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_tracklet_listed_twice_rejected(self, tmp_path, split):
        # the repeat ends the train split, or the test split
        manifest = generate(small_spec(), small_schema(), tmp_path / "data")
        lines = manifest.read_text().splitlines()
        first = next(i for i, line in enumerate(lines)
                     if line.startswith("tracklet = train/t00000.vtf ")) + 1
        at = _last_tracklet_line(lines, split) + 1
        lines.insert(at, lines[first - 1].replace("train/t00000.vtf", "./train//t00000.vtf"))
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"manifest\.txt:{at + 1}: .*line {first}"):
            load_dataset(manifest)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_split_listing_no_tracklet_rejected(self, tmp_path, split):
        # an empty test split would evaluate nothing and log a held-out F1 of 0
        manifest = generate(small_spec(), small_schema(), tmp_path / "data")
        lines = [line for line in manifest.read_text().splitlines()
                 if not line.startswith(f"tracklet = {split}/")]
        manifest.write_text("\n".join(lines) + "\n")
        header = lines.index(f"[split {split}]") + 1
        with pytest.raises(DataError, match=rf"manifest\.txt:{header}: "
                                            rf"\[split {split}\] lists no tracklet$"):
            load_dataset(manifest)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_repeated_split_section_rejected(self, tmp_path, split):
        # not merged into the first section, as a model config's is not
        manifest = generate(small_spec(), small_schema(), tmp_path / "data")
        lines = manifest.read_text().splitlines()
        at = _last_tracklet_line(lines, split)
        lines.insert(at, f"[split {split}]")  # its last tracklet in a section of its own
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"manifest\.txt:{at + 1}: "
                                            rf"duplicate section \[split {split}\]$"):
            load_dataset(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path / "manifest.txt")

    def test_thread_env_does_not_change_output(self, tmp_path, monkeypatch):
        schema = small_schema()
        monkeypatch.setenv("VTFPAR_THREADS", "1")
        generate(small_spec(), schema, tmp_path / "a")
        monkeypatch.setenv("VTFPAR_THREADS", "4")
        generate(small_spec(), schema, tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
