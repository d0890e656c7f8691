import pathlib
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sagefuse.tensorio import (MAGIC, MAGIC_F64, TensorFormatError,
                               load_tensor, save_tensor)


def test_round_trip_matrix(tmp_path):
    path = tmp_path / "m.gtsr"
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    save_tensor(path, arr)
    assert np.array_equal(load_tensor(path), arr)


@pytest.mark.parametrize("dtype, magic, fmt", [
    (np.float32, MAGIC, "<4f"), (np.float64, MAGIC_F64, "<4d")])
def test_round_trip_preserves_row_major_order(tmp_path, dtype, magic, fmt):
    path = tmp_path / "m.gtsr"
    save_tensor(path, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=dtype))
    raw = path.read_bytes()
    assert raw[:4] == magic
    rank = struct.unpack("<I", raw[4:8])[0]
    assert rank == 2
    assert struct.unpack("<2Q", raw[8:24]) == (2, 2)
    assert struct.unpack(fmt, raw[24:]) == (1.0, 2.0, 3.0, 4.0)


def _reference_bytes(array):
    """The GTSR layout written through `struct` and `tobytes`: float64 as
    `<f8` under the GTSD magic, anything else as `<f4` under GTSR."""
    f64 = np.asarray(array).dtype == np.float64
    arr = np.ascontiguousarray(array, dtype="<f8" if f64 else "<f4")
    return ((MAGIC_F64 if f64 else MAGIC) + struct.pack("<I", arr.ndim)
            + struct.pack(f"<{arr.ndim}Q", *arr.shape) + arr.tobytes())


@pytest.mark.parametrize("array", [
    np.arange(24, dtype=np.float32).reshape(2, 3, 4),
    np.linspace(-1.0, 1.0, 12).reshape(3, 4),
    np.arange(24, dtype=np.float32).reshape(4, 6)[:, ::2],
    np.arange(24, dtype=np.float64).reshape(4, 6).T,
    np.float32(2.5),
    np.zeros((0, 3), dtype=np.float32),
    np.arange(6, dtype=np.int64).reshape(2, 3),
], ids=["f32", "f64", "f32-strided", "f64-transposed", "scalar", "empty",
        "int64"])
def test_bytes_equal_the_struct_layout(tmp_path, array):
    path = tmp_path / "m.gtsr"
    save_tensor(path, array)
    assert path.read_bytes() == _reference_bytes(array)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_save_writes_without_a_copy(tmp_path, dtype):
    arr = np.ones((1024, 1024), dtype=dtype)  # 4 or 8 MiB
    tracemalloc.start()
    try:
        save_tensor(tmp_path / "m.gtsr", arr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < arr.nbytes // 8


def test_load_as_float64(tmp_path):
    path = tmp_path / "m.gtsr"
    save_tensor(path, np.ones((2, 2)))
    out = load_tensor(path, dtype=np.float64)
    assert out.dtype == np.float64


def test_float64_round_trip_is_exact(tmp_path):
    path = tmp_path / "m.gtsr"
    arr = np.random.default_rng(0).normal(0, 1, (5, 3))
    save_tensor(path, arr)
    assert load_tensor(path, dtype=np.float64).tobytes() == arr.tobytes()
    assert np.array_equal(load_tensor(path), arr.astype(np.float32))


@pytest.mark.parametrize("extents", [(2 ** 62,), (2 ** 40, 2 ** 40)],
                         ids=["2^62", "2^80"])
def test_oversized_header_rejected_before_allocating(tmp_path, extents):
    path = tmp_path / "big.gtsr"
    path.write_bytes(MAGIC + struct.pack(f"<I{len(extents)}Q", len(extents),
                                         *extents) + b"\x00" * 16)
    size = 4 * int(np.prod(extents, dtype=object))
    with pytest.raises(TensorFormatError,
                       match=f"truncated payload: the header gives {size} "
                             "bytes, 16 follow"):
        load_tensor(path)


def test_rank_beyond_the_file_rejected(tmp_path):
    path = tmp_path / "rank.gtsr"
    path.write_bytes(MAGIC + struct.pack("<I", 2 ** 32 - 1) + b"\x00" * 8)
    with pytest.raises(TensorFormatError, match="truncated header"):
        load_tensor(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.gtsr"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(TensorFormatError, match="magic"):
        load_tensor(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.gtsr"
    save_tensor(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(TensorFormatError, match="truncated"):
        load_tensor(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.gtsr"
    save_tensor(path, np.ones(3))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(TensorFormatError, match="trailing"):
        load_tensor(path)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
       st.integers(0, 2 ** 31 - 1))
def test_round_trip_arbitrary_shapes(shape, seed):
    path = pathlib.Path(tempfile.mkdtemp()) / "x.gtsr"
    arr = np.random.default_rng(seed).normal(0, 1, shape).astype(np.float32)
    save_tensor(path, arr)
    out = load_tensor(path)
    assert out.shape == tuple(shape)
    assert np.array_equal(out, arr)
