"""GTSR tensor files: little-endian binary, a magic, u32 rank, u64 extents,
then the values row-major. Magic "GTSD" holds a float64 array as 64-bit
floats; "GTSR" holds any other array as 32-bit floats."""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"GTSR"
MAGIC_F64 = b"GTSD"
LAYOUTS = {MAGIC: "<f4", MAGIC_F64: "<f8"}


class TensorFormatError(ValueError):
    pass


def save_tensor(path, array):
    """Write `array` as float64 (GTSD) when it is float64, else as float32
    (GTSR); a C-contiguous array already in that layout is written from its
    own buffer, without a copy."""
    magic = MAGIC_F64 if np.asarray(array).dtype == np.float64 else MAGIC
    arr = np.ascontiguousarray(array, dtype=LAYOUTS[magic])
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<I", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(arr.data)


def load_tensor(path, dtype=np.float32):
    """The array in `path`, cast to `dtype`. The header's size is checked
    against the file before anything is allocated."""
    with open(path, "rb") as f:
        total = os.fstat(f.fileno()).st_size
        magic = f.read(4)
        if magic not in LAYOUTS:
            raise TensorFormatError(f"{path}: bad magic {magic!r}")
        try:
            (rank,) = struct.unpack("<I", f.read(4))
            extents = f.read(8 * rank) if 8 * (rank + 1) <= total else b""
            shape = struct.unpack(f"<{rank}Q", extents)
        except struct.error:
            raise TensorFormatError(f"{path}: truncated header")
        layout, n = np.dtype(LAYOUTS[magic]), math.prod(shape)
        size, left = n * layout.itemsize, total - f.tell()
        if size != left:
            what = "truncated payload" if size > left else "trailing bytes"
            raise TensorFormatError(f"{path}: {what}: the header gives "
                                    f"{size} bytes, {left} follow")
        values = np.empty(n, dtype=layout)
        f.readinto(values)
    return values.reshape(shape).astype(dtype, copy=False)
