"""Checkpoint binary format: roundtrip, ordering, corruption detection."""

import struct
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from vtfpar.errors import DataError, UsageError
from vtfpar.params import (CHECKPOINT_MAGIC, ParameterSet, load_checkpoint,
                           read_checkpoint_arrays, save_checkpoint)


def _pset(seed=0):
    rng = np.random.default_rng(seed)
    params = ParameterSet()
    params.add("b.second", rng.normal(size=(3, 4)).astype(np.float32))
    params.add("a.first", rng.normal(size=(5,)).astype(np.float32))
    params.add("c.third", rng.normal(size=(2, 2, 2)).astype(np.float32)).requires_grad = False
    return params


def test_roundtrip_bitwise(tmp_path):
    params = _pset()
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path)
    fresh = _pset(seed=99)
    load_checkpoint(fresh, read_checkpoint_arrays(path), path)
    for p in params:
        npt.assert_array_equal(fresh[p.name].data, p.data)


def test_load_preserves_trainability(tmp_path):
    params = _pset()
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path)
    fresh = _pset()
    load_checkpoint(fresh, read_checkpoint_arrays(path), path)
    assert not fresh["c.third"].requires_grad
    assert fresh["a.first"].requires_grad


def test_header_and_sorted_name_order(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_pset(), path)
    blob = path.read_bytes()
    assert blob.startswith(CHECKPOINT_MAGIC)
    names = list(read_checkpoint_arrays(path))
    assert names == sorted(names)
    assert blob.index(b"a.first") < blob.index(b"b.second") < blob.index(b"c.third")


def test_write_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(_pset(), p1)
    save_checkpoint(_pset(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_crc_corruption_detected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_pset(), path)
    blob = bytearray(path.read_bytes())
    blob[len(CHECKPOINT_MAGIC) + 10] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="CRC32"):
        read_checkpoint_arrays(path)


def test_bad_magic_detected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_pset(), path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="magic"):
        read_checkpoint_arrays(path)


def test_truncation_detected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_pset(), path)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(DataError):
        read_checkpoint_arrays(path)


def test_name_mismatch_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_pset(), path)
    other = ParameterSet()
    other.add("different", np.zeros(3, dtype=np.float32))
    with pytest.raises(DataError, match="names"):
        load_checkpoint(other, read_checkpoint_arrays(path), path)


def test_shape_mismatch_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_pset(), path)
    other = ParameterSet()
    other.add("a.first", np.zeros(6, dtype=np.float32))
    other.add("b.second", np.zeros((3, 4), dtype=np.float32))
    other.add("c.third", np.zeros((2, 2, 2), dtype=np.float32))
    with pytest.raises(DataError, match="a.first"):
        load_checkpoint(other, read_checkpoint_arrays(path), path)


def test_float64_models_store_float32(tmp_path):
    params = ParameterSet(np.float64)
    value = np.array([1.0 + 1e-12], dtype=np.float64)  # below f32 resolution
    assert params.add("w", value).data[0] != 1.0
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path)
    stored = read_checkpoint_arrays(path)["w"]
    assert stored.dtype == np.float32
    assert stored[0] == np.float32(1.0)


def test_duplicate_parameter_names_rejected():
    params = ParameterSet()
    params.add("w", np.zeros(1))
    with pytest.raises(UsageError, match="duplicate parameter name 'w'"):
        params.add("w", np.zeros(1))


def _rewrite_with_crc(path, old: bytes, new: bytes) -> None:
    """Replace ``old`` by ``new`` once in the payload and re-seal the CRC."""
    payload = path.read_bytes()[:-4]
    assert payload.count(old) == 1 and len(new) == len(old)
    payload = payload.replace(old, new)
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


@pytest.mark.parametrize("new_name, message", [
    (b"c.th\xffrd", "not UTF-8"),
    (b"a.first", "'a.first' appears twice"),
], ids=["not-utf8", "duplicate"])
def test_malformed_name_with_valid_crc_is_a_data_error(new_name, message, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_pset(), path)
    _rewrite_with_crc(path, b"c.third", new_name)
    with pytest.raises(DataError, match=message) as info:
        read_checkpoint_arrays(path)
    text = str(info.value)
    assert text.startswith(f"checkpoint {path}: ") and "\n" not in text


def _sealed(path, records) -> None:
    """A checkpoint of (name, dims, value bytes) records with a valid CRC."""
    payload = CHECKPOINT_MAGIC + struct.pack("<I", len(records))
    for name, dims, values in records:
        payload += struct.pack("<I", len(name)) + name
        payload += struct.pack(f"<I{len(dims)}I", len(dims), *dims) + values
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


@pytest.mark.parametrize("dims, message", [
    ((65536,) * 4, "truncated record"),  # 2**64 values: 0 in int64
    ((4294967295,) * 2, "truncated record"),  # negative in int64
    ((1,) * 70, "w has 70 dims"),
], ids=["wraps-to-0", "wraps-negative", "too-many-dims"])
def test_impossible_dims_with_valid_crc_are_a_data_error(dims, message, tmp_path):
    path = tmp_path / "m.ckpt"
    _sealed(path, [(b"w", dims, b"\0" * 16)])
    with pytest.raises(DataError, match=message) as info:
        read_checkpoint_arrays(path)
    assert str(info.value).startswith(f"checkpoint {path}: ")


def test_scalar_record_holds_one_value(tmp_path):
    path = tmp_path / "m.ckpt"
    _sealed(path, [(b"s", (), struct.pack("<f", 2.5))])
    arrays = read_checkpoint_arrays(path)
    assert arrays["s"].shape == () and arrays["s"] == np.float32(2.5)
