"""Synthetic generation, on-disk formats, and loader validation."""

import hashlib
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from vtfpar.data import (SyntheticSpec, class_prototypes, generate,
                         load_dataset, read_frame, read_labels,
                         render_tracklet, sample_labels, write_frame,
                         write_labels)
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


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class TestFrameFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = rng.random((5, 4, 3)).astype(np.float32)
        path = tmp_path / "f.vtf"
        write_frame(path, frame)
        npt.assert_array_equal(read_frame(path), frame)

    def test_bad_magic_names_file(self, tmp_path):
        path = tmp_path / "bad.vtf"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(DataError, match="bad.vtf"):
            read_frame(path)

    def test_truncated_names_file(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "trunc.vtf"
        write_frame(path, rng.random((5, 4, 3)).astype(np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(DataError, match="trunc.vtf"):
            read_frame(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="nope.vtf"):
            read_frame(tmp_path / "nope.vtf")

    def test_out_of_range_pixels_rejected(self, tmp_path):
        path = tmp_path / "hot.vtf"
        frame = np.full((3, 3, 3), 1.5, dtype=np.float32)
        write_frame(path, frame)
        with pytest.raises(DataError, match="\\[0, 1\\]"):
            read_frame(path)


class TestLabels:
    def test_roundtrip(self, tmp_path):
        schema = small_schema()
        labels = np.array([1, 0, 1], dtype=np.int8)
        path = tmp_path / "labels.txt"
        write_labels(path, "t001", labels, schema)
        tid, loaded = read_labels(path, schema)
        assert tid == "t001"
        npt.assert_array_equal(loaded, labels)

    def test_human_readable_group_lines(self, tmp_path):
        schema = small_schema()
        path = tmp_path / "labels.txt"
        write_labels(path, "t001", np.array([0, 1, 0], dtype=np.int8), schema)
        text = path.read_text()
        assert "group shape = square" in text
        assert "group marked = none" in text

    def test_wrong_count_schema_mismatch(self, tmp_path):
        schema = small_schema()
        path = tmp_path / "labels.txt"
        path.write_text("tracklet = t\nlabels = 1 0\n")
        with pytest.raises(DataError, match="labels"):
            read_labels(path, schema)

    def test_exclusive_violation_rejected(self, tmp_path):
        schema = small_schema()
        path = tmp_path / "labels.txt"
        path.write_text("tracklet = t\nlabels = 1 1 0\n")
        with pytest.raises(DataError, match="shape"):
            read_labels(path, schema)

    def test_group_echo_disagreeing_with_labels_rejected(self, tmp_path):
        schema = small_schema()
        path = tmp_path / "labels.txt"
        write_labels(path, "t001", np.array([0, 1, 0], dtype=np.int8), schema)
        path.write_text(path.read_text().replace("group shape = square",
                                                 "group shape = WRONG"))
        with pytest.raises(DataError, match=r"labels\.txt:3: group shape = 'WRONG'"):
            read_labels(path, schema)

    def test_group_echo_naming_no_schema_group_rejected(self, tmp_path):
        schema = small_schema()
        path = tmp_path / "labels.txt"
        path.write_text("tracklet = t\nlabels = 1 0 1\ngroup colour = red\n")
        with pytest.raises(DataError, match=r"labels\.txt:3: 'group colour' names no"):
            read_labels(path, schema)


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
        frames, _, occluded = render_tracklet(spec, schema, 0)
        assert not occluded.any()
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
        counts = [render_tracklet(spec, schema, i, protos)[2].sum()
                  for i in range(1000)]
        mean = np.mean(counts)
        # binomial(6, 0.5): mean 3, se of the sample mean over 1000 draws
        se = np.sqrt(6 * 0.25 / 1000)
        assert abs(mean - 3.0) < 3 * se

    def test_signal_independent_of_occlusion_probability(self):
        schema = small_schema()
        clean = render_tracklet(small_spec(occlusion_p=0.0), schema, 2)
        mixed = render_tracklet(small_spec(occlusion_p=0.6), schema, 2)
        occluded = mixed[2]
        npt.assert_array_equal(mixed[0][~occluded], clean[0][~occluded])

    def test_frames_in_unit_range(self):
        schema = default_schema()
        spec = small_spec(noise_sigma=0.3, occlusion_p=0.4)
        frames, _, _ = render_tracklet(spec, schema, 0)
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
            frames, labels, _ = render_tracklet(spec, schema, i, protos)
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
        note = out / "train" / "t00000" / "notes.txt"  # not a frame: stays
        note.write_text("kept\n", encoding="utf-8")
        manifest = generate(small_spec(frames_per_tracklet=2, seed=2), schema, out)
        ds = load_dataset(manifest)
        assert {t.frames.shape[0] for t in ds.split("train") + ds.split("test")} == {2}
        assert note.read_text(encoding="utf-8") == "kept\n"
        note.unlink()
        generate(small_spec(frames_per_tracklet=2, seed=2), schema, tmp_path / "fresh")
        assert tree_digest(out) == tree_digest(tmp_path / "fresh")

    def test_truncated_frame_detected_on_load(self, tmp_path):
        schema = small_schema()
        manifest = generate(small_spec(), schema, tmp_path / "data")
        victim = sorted((tmp_path / "data" / "train").rglob("*.vtf"))[0]
        victim.write_bytes(victim.read_bytes()[:-5])
        with pytest.raises(DataError, match=victim.name):
            load_dataset(manifest)

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
        with pytest.raises(DataError, match="labels"):
            load_dataset(manifest)

    def test_tracklet_id_must_match_directory(self, tmp_path):
        manifest = generate(small_spec(), small_schema(), tmp_path / "data")
        path = tmp_path / "data" / "train" / "t00000" / "labels.txt"
        path.write_text(path.read_text().replace("tracklet = t00000",
                                                 "tracklet = t00001"))
        with pytest.raises(DataError, match="'t00001' does not match its directory 't00000'"):
            load_dataset(manifest)

    def test_missing_tracklet_dir_detected(self, tmp_path):
        schema = small_schema()
        manifest = generate(small_spec(), schema, tmp_path / "data")
        import shutil
        shutil.rmtree(sorted((tmp_path / "data" / "test").iterdir())[0])
        with pytest.raises(DataError, match="missing"):
            load_dataset(manifest)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_tracklet_listed_twice_rejected(self, tmp_path, split):
        manifest = generate(small_spec(), small_schema(), tmp_path / "data")
        lines = manifest.read_text().splitlines()
        first = lines.index("tracklet = train/t00000") + 1
        with manifest.open("a") as f:
            f.write(f"[split {split}]\ntracklet = ./train//t00000\n")
        with pytest.raises(DataError, match=rf"manifest\.txt:{len(lines) + 2}: .*line {first}"):
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
