"""Loader contracts: which pixel check a frame fails, and which files of a
dataset tree hold its frames."""

import re

import numpy as np
import numpy.testing as npt
import pytest

from vtfpar.data import generate, load_dataset, write_frames
from vtfpar.errors import DataError
from tests.test_data import small_schema, small_spec


@pytest.fixture
def dataset(tmp_path):
    manifest = generate(small_spec(), small_schema(), tmp_path / "data")
    return manifest, tmp_path / "data" / "train" / "t00000.vtf"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("above_one", [False, True], ids=["alone", "with_above_one"])
def test_non_finite_pixels_are_named_before_the_range(value, above_one, dataset):
    manifest, path = dataset
    frames = load_dataset(manifest).split("train")[0].frames
    frames[1, 2, 1, 0] = value
    if above_one:
        frames[1, 0, 0, 2] = 1.5
    write_frames(path, frames)
    with pytest.raises(DataError,
                       match=f"^frame 1 of {re.escape(str(path))}: non-finite pixels$"):
        load_dataset(manifest)


def test_files_the_manifest_does_not_list_are_ignored(dataset):
    manifest, path = dataset
    expected = load_dataset(manifest).split("train")[0].frames
    # read as frames, their bytes would fail the magic check
    old = path.with_suffix("")  # an older tree's tracklet directory
    old.mkdir()
    (old / "frames.vtf").write_bytes(b"not a frame")
    (path.parent / "000000.vtf").write_bytes(b"not a frame")
    (path.parent / "t00000.vtf.bak").write_bytes(b"not a frame")
    (path.parent / "notes").write_bytes(b"")
    npt.assert_array_equal(load_dataset(manifest).split("train")[0].frames, expected)
