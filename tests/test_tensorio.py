"""Golden tensor format and checkpoint container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import damaged

from ssmdet.tensorio import (
    TensorFormatError,
    load_checkpoint,
    save_checkpoint,
    tensor_bytes,
    tensor_from_bytes,
)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_roundtrip_bit_exact(dtype):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4, 5)).astype(dtype)
    back = tensor_from_bytes(tensor_bytes(arr))
    assert back.dtype == dtype
    assert np.array_equal(back, arr)


def test_header_layout():
    blob = tensor_bytes(np.zeros((2, 3), dtype=np.float32))
    assert blob[:4] == b"TNSR"
    assert int.from_bytes(blob[4:8], "little") == 1      # version
    assert blob[8] == 0                                  # f32 code
    assert int.from_bytes(blob[9:13], "little") == 2     # rank
    assert int.from_bytes(blob[13:17], "little") == 2    # first extent
    assert int.from_bytes(blob[17:21], "little") == 3
    assert len(blob) == 21 + 6 * 4


def test_payload_is_little_endian_row_major():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64)
    blob = tensor_bytes(arr)
    payload = np.frombuffer(blob[-32:], dtype="<f8")
    assert np.array_equal(payload, [1.0, 2.0, 3.0, 4.0])


def test_bad_magic_rejected():
    with pytest.raises(TensorFormatError, match="magic"):
        tensor_from_bytes(b"NOPE" + b"\x00" * 20)


def test_truncated_payload_rejected():
    blob = tensor_bytes(np.ones(4, dtype=np.float32))
    with pytest.raises(TensorFormatError, match="truncated"):
        tensor_from_bytes(blob[:-2])


def test_trailing_bytes_rejected():
    blob = tensor_bytes(np.ones(4, dtype=np.float32))
    with pytest.raises(TensorFormatError, match="2 bytes after the tensor payload"):
        tensor_from_bytes(blob + b"\x00\x00")


@pytest.mark.parametrize("via", ["blob", "checkpoint"])
def test_damaged_extent_rejected_without_allocating(tmp_path, via):
    blob = bytearray(tensor_bytes(np.zeros((2, 3), dtype=np.float32)))
    blob[13:17] = (0x7FFFFFFF).to_bytes(4, "little")
    with pytest.raises(TensorFormatError, match="truncated"):
        if via == "blob":
            tensor_from_bytes(bytes(blob))
        else:
            path = tmp_path / "damaged.ckpt"
            path.write_bytes(f"CKPT 1\ntensor x 0 {len(blob)}\nend\n".encode() + blob)
            load_checkpoint(path)


def test_unsupported_dtype_rejected():
    with pytest.raises(TensorFormatError):
        tensor_bytes(np.zeros(3, dtype=np.int32))


def test_checkpoint_roundtrip_with_meta(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {
        "backbone.stage2.weight": rng.standard_normal((4, 2, 3, 3)).astype(np.float32),
        "head.bias": rng.standard_normal(7),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tensors, meta={"scale": "n", "note": "unit test"})
    meta, back = load_checkpoint(path)
    assert meta["scale"] == "n"
    assert meta["note"] == "unit test"
    assert set(back) == set(tensors)
    for name, arr in tensors.items():
        assert np.array_equal(back[name], arr)
        assert back[name].dtype == arr.dtype


def test_checkpoint_missing_terminator_rejected(tmp_path):
    path = tmp_path / "broken.ckpt"
    path.write_bytes(b"CKPT 1\ntensor x 0 10\n")
    with pytest.raises(TensorFormatError, match="terminator"):
        load_checkpoint(path)


@pytest.mark.parametrize("first_line", [b"CKPT ", b"CKPT 2", b"CKPT 1 1"])
def test_checkpoint_bad_version_line_rejected(tmp_path, first_line):
    path = tmp_path / "broken.ckpt"
    path.write_bytes(first_line + b"\nend\n")
    with pytest.raises(TensorFormatError, match="unsupported checkpoint version"):
        load_checkpoint(path)


@pytest.mark.parametrize("line", ["garbage", "meta onlykey", "tensor x a b", "tensor x 0",
                                  "tensor x -1 10", "blob x 0 10", "meta n \xff", "meta scale m"])
def test_checkpoint_malformed_manifest_line_named(tmp_path, line):
    path = tmp_path / "broken.ckpt"
    path.write_bytes(b"CKPT 1\nmeta scale n\n" + line.encode() + b"\nend\n")
    with pytest.raises(TensorFormatError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"malformed checkpoint manifest line 3: {line!r}"


def test_checkpoint_duplicated_tensor_line_named(tmp_path):
    path = tmp_path / "twice.ckpt"
    save_checkpoint(path, {"x": np.arange(3.0)})
    raw = path.read_bytes()
    line = raw.split(b"\n")[1]
    path.write_bytes(raw.replace(line + b"\n", line + b"\n" + line + b"\n", 1))
    with pytest.raises(TensorFormatError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"malformed checkpoint manifest line 3: {line.decode()!r}"


_GOOD_BLOB = tensor_bytes(np.arange(24, dtype=np.float32).reshape(2, 3, 4))


@pytest.fixture(scope="module")
def corrupt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupt")


@pytest.fixture(scope="module")
def good_checkpoint(corrupt_dir) -> bytes:
    path = corrupt_dir / "good.ckpt"
    save_checkpoint(path, {"stem.weight": np.ones((2, 1, 3, 3), dtype=np.float32),
                           "head.bias": np.arange(3.0)}, meta={"scale": "n", "classes": "3"})
    return path.read_bytes()


# A damaged file either loads (a flipped payload byte is still a valid file) or
# raises a ValueError subclass, never IndexError, KeyError, struct.error or MemoryError.
@settings(max_examples=200, deadline=None)
@given(blob=damaged(_GOOD_BLOB))
def test_damaged_tensor_loads_or_raises_value_error(blob):
    try:
        tensor_from_bytes(blob)
    except ValueError:
        pass


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_loads_or_raises_value_error(corrupt_dir, good_checkpoint, data):
    path = corrupt_dir / "damaged.ckpt"
    path.write_bytes(data.draw(damaged(good_checkpoint)))
    try:
        load_checkpoint(path)
    except ValueError:
        pass
