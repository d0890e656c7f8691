"""GTSR tensor files: little-endian binary, magic "GTSR", u32 rank,
u64 extents, then 32-bit floats row-major."""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"GTSR"


class TensorFormatError(ValueError):
    pass


def save_tensor(path, array):
    """Write `array` as float32; a C-contiguous `<f4` array is written from
    its own buffer, without a copy."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(arr.data)


def load_tensor(path, dtype=np.float32):
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise TensorFormatError(f"{path}: bad magic {magic!r}")
        try:
            (rank,) = struct.unpack("<I", f.read(4))
            shape = struct.unpack(f"<{rank}Q", f.read(8 * rank))
        except struct.error:
            raise TensorFormatError(f"{path}: truncated header")
        n = int(np.prod(shape, dtype=np.int64)) if rank else 1
        data = np.empty(n, dtype="<f4")
        if f.readinto(data) != 4 * n:
            raise TensorFormatError(f"{path}: truncated payload")
        if f.read(1):
            raise TensorFormatError(f"{path}: trailing bytes")
    return data.reshape(shape).astype(dtype, copy=False)
