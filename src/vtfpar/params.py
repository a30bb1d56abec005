"""Named parameters (leaf tensors whose array ``set_value`` replaces between
tapes, clearing the gradient), their collections and the checkpoint format.

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

import math
import struct
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DataError, UsageError
from .tensor import DEFAULT_DTYPE, Tensor

CHECKPOINT_MAGIC = b"VTFPAR01"
# about 24x the default model; a larger one is refused before it is drawn
_MAX_VALUES = 1 << 24


class Parameter(Tensor):
    """A named leaf tensor; ``requires_grad`` is its trainable flag."""

    __slots__ = ("name",)

    def __init__(self, name: str, array: np.ndarray, dtype):
        super().__init__(array, dtype=dtype, requires_grad=True)
        self.name = name

    def set_value(self, array: np.ndarray) -> None:
        """Replace the array by ``array`` cast to this dtype; drop the gradient."""
        if array.shape != self.shape:
            raise DataError(
                f"parameter {self.name}: cannot assign shape {array.shape} "
                f"over {self.shape}")
        self.data = array.astype(self.dtype, copy=False)
        self.grad = None


class ParameterSet:
    """Insertion-ordered collection of uniquely named parameters.

    The set owns the parameter dtype: ``add`` casts every array to it.
    """

    def __init__(self, dtype=DEFAULT_DTYPE):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Parameter] = {}
        self._values = 0

    def add(self, name: str, array: np.ndarray) -> Parameter:
        """A new trainable parameter holding ``array`` cast to the set's dtype."""
        if name in self._params:
            raise UsageError(f"duplicate parameter name {name!r}")
        p = Parameter(name, array, self.dtype)
        self._params[name] = p
        self._values += p.size
        return p

    def normal(self, name: str, shape: tuple[int, ...], std: float,
               rng: np.random.Generator) -> Parameter:
        """Standard normal draws, cast to the set's dtype, then scaled by ``std``."""
        if self._values + math.prod(shape) > _MAX_VALUES:
            raise UsageError(f"parameter {name}: the model would exceed {_MAX_VALUES} values")
        return self.add(name, std * rng.standard_normal(shape).astype(self.dtype))

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def trainable(self) -> list[Parameter]:
        return [p for p in self if p.requires_grad]


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
    """Parse a checkpoint into name -> finite float32 array, verifying the CRC."""
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
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"checkpoint {path}: a parameter name is not UTF-8") from None
        if name in arrays:
            raise DataError(f"checkpoint {path}: parameter {name!r} appears twice")
        (ndim,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        raw = take(4 * math.prod(dims))
        try:
            arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
        except ValueError:  # more dims than numpy allows
            raise DataError(f"checkpoint {path}: {name} has {ndim} dims") from None
        if not np.isfinite(arrays[name]).all():
            raise DataError(f"checkpoint {path}: {name} holds a non-finite value")
    if off != len(payload):
        raise DataError(f"checkpoint {path}: {len(payload) - off} trailing bytes")
    return arrays


def load_checkpoint(params: ParameterSet, arrays: dict[str, np.ndarray], path) -> None:
    """Load the arrays ``read_checkpoint_arrays(path)`` returned into an
    existing parameter set; names and shapes must match."""
    missing = sorted(set(params.names()) - set(arrays))
    extra = sorted(set(arrays) - set(params.names()))
    if missing or extra:
        raise DataError(
            f"checkpoint {path}: parameter names do not match model "
            f"(missing={missing[:3]}, extra={extra[:3]})")
    for name, arr in arrays.items():
        p = params[name]
        if arr.shape != p.shape:
            raise DataError(
                f"checkpoint {path}: {name} has shape {arr.shape}, "
                f"model expects {p.shape}")
        p.set_value(arr)
