"""Named parameter collections and the binary checkpoint format.

Checkpoint layout (all little-endian):

    "VTFPAR01"                       8-byte magic
    uint32 parameter count
    repeated, sorted by name:
        uint32 name length, utf-8 name bytes
        uint32 ndim, uint32 x ndim dims
        float32 x prod(dims) row-major values
    uint32 CRC32 of everything above

Values are stored as float32 regardless of the in-memory dtype.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DataError
from .tensor import Tensor

CHECKPOINT_MAGIC = b"VTFPAR01"


class Parameter:
    """A named tensor slot; ``trainable`` mirrors the tensor's grad flag."""

    __slots__ = ("name", "tensor")

    def __init__(self, name: str, tensor: Tensor):
        self.name = name
        self.tensor = tensor

    @property
    def trainable(self) -> bool:
        return self.tensor.requires_grad

    @trainable.setter
    def trainable(self, flag: bool) -> None:
        self.tensor.requires_grad = bool(flag)

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    def set_value(self, array: np.ndarray) -> None:
        """Rebind to new values, preserving dtype and trainability."""
        if array.shape != self.tensor.shape:
            raise DataError(
                f"parameter {self.name}: cannot assign shape {array.shape} "
                f"over {self.tensor.shape}")
        self.tensor = Tensor(array, dtype=self.tensor.dtype,
                             requires_grad=self.tensor.requires_grad)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape}, trainable={self.trainable})"


class ParameterSet:
    """Insertion-ordered collection of uniquely named parameters."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, array: np.ndarray, trainable: bool = True) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Parameter(name, Tensor(array, requires_grad=trainable))
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def trainable(self) -> list[Parameter]:
        return [p for p in self if p.trainable]

    def zero_grad(self) -> None:
        for p in self:
            p.tensor.zero_grad()

    def set_trainable_prefix(self, prefix: str, flag: bool) -> None:
        for p in self:
            if p.name.startswith(prefix):
                p.trainable = flag


def save_checkpoint(params: ParameterSet, path) -> None:
    """Write all parameters in sorted-name order with a trailing CRC32."""
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", len(params))]
    for name in sorted(params.names()):
        p = params[name]
        nb = name.encode("utf-8")
        arr = p.data
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    payload = b"".join(chunks)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    Path(path).write_bytes(payload + struct.pack("<I", crc))


def read_checkpoint_arrays(path) -> dict[str, np.ndarray]:
    """Parse a checkpoint into name -> float32 array, verifying the CRC."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from None
    if len(blob) < len(CHECKPOINT_MAGIC) + 8:
        raise DataError(f"checkpoint {path}: truncated")
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise DataError(f"checkpoint {path}: bad magic header")
    payload, tail = blob[:-4], blob[-4:]
    if struct.unpack("<I", tail)[0] != (zlib.crc32(payload) & 0xFFFFFFFF):
        raise DataError(f"checkpoint {path}: CRC32 mismatch")

    arrays: dict[str, np.ndarray] = {}
    off = len(CHECKPOINT_MAGIC)

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(payload):
            raise DataError(f"checkpoint {path}: truncated record")
        chunk = payload[off:off + n]
        off += n
        return chunk

    (count,) = struct.unpack("<I", take(4))
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8")
        (ndim,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        n_values = int(np.prod(dims, dtype=np.int64)) if ndim else 1
        raw = take(4 * n_values)
        arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    if off != len(payload):
        raise DataError(f"checkpoint {path}: {len(payload) - off} trailing bytes")
    return arrays


def load_checkpoint(params: ParameterSet, path) -> None:
    """Load values into an existing parameter set; names and shapes must match."""
    arrays = read_checkpoint_arrays(path)
    missing = sorted(set(params.names()) - set(arrays))
    extra = sorted(set(arrays) - set(params.names()))
    if missing or extra:
        raise DataError(
            f"checkpoint {path}: parameter names do not match model "
            f"(missing={missing[:3]}, extra={extra[:3]})")
    for name, arr in arrays.items():
        p = params[name]
        if arr.shape != p.tensor.shape:
            raise DataError(
                f"checkpoint {path}: {name} has shape {arr.shape}, "
                f"model expects {p.tensor.shape}")
        p.set_value(arr.astype(p.tensor.dtype))
