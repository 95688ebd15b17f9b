"""Bit-exact tensor and checkpoint serialization.

Tensor blob layout: magic "TNSR", version u32=1, dtype code u8 (0=f32,
1=f64), rank u32, extents rank x u32, then the little-endian row-major
payload. Checkpoints are a text manifest (meta lines plus a name ->
offset/length table) terminated by "end", followed by concatenated
tensor blobs; offsets are relative to the first blob byte.
"""

from __future__ import annotations

import io
import struct

import numpy as np

__all__ = [
    "TensorFormatError",
    "load_checkpoint",
    "load_tensor",
    "read_tensor",
    "save_checkpoint",
    "save_tensor",
    "tensor_bytes",
    "write_tensor",
]

_MAGIC = b"TNSR"
_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class TensorFormatError(ValueError):
    """Malformed tensor blob or checkpoint."""


def write_tensor(fh, array: np.ndarray) -> None:
    array = np.asarray(array)
    if array.dtype not in _DTYPE_CODES:
        raise TensorFormatError(f"unsupported dtype {array.dtype}; use float32 or float64")
    fh.write(_MAGIC)
    fh.write(struct.pack("<I", _VERSION))
    fh.write(struct.pack("<B", _DTYPE_CODES[array.dtype]))
    fh.write(struct.pack("<I", array.ndim))
    for extent in array.shape:
        fh.write(struct.pack("<I", extent))
    le = array.astype(array.dtype.newbyteorder("<"), copy=False)
    fh.write(np.ascontiguousarray(le).tobytes())


def read_tensor(fh) -> np.ndarray:
    def take(n: int) -> bytes:
        buf = fh.read(n)
        if len(buf) != n:
            raise TensorFormatError("truncated tensor blob")
        return buf

    if take(4) != _MAGIC:
        raise TensorFormatError("bad magic; not a tensor blob")
    (version,) = struct.unpack("<I", take(4))
    if version != _VERSION:
        raise TensorFormatError(f"unsupported tensor format version {version}")
    (code,) = struct.unpack("<B", take(1))
    if code not in _CODE_DTYPES:
        raise TensorFormatError(f"unknown dtype code {code}")
    (rank,) = struct.unpack("<I", take(4))
    if rank > 32:
        raise TensorFormatError(f"implausible rank {rank}")
    shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(rank))
    dtype = _CODE_DTYPES[code]
    count = int(np.prod(shape)) if shape else 1
    data = np.frombuffer(take(count * dtype.itemsize), dtype=dtype)
    return data.reshape(shape).astype(dtype.newbyteorder("="))


def tensor_bytes(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    write_tensor(buf, array)
    return buf.getvalue()


def save_tensor(path, array: np.ndarray) -> None:
    with open(path, "wb") as fh:
        write_tensor(fh, array)


def load_tensor(path) -> np.ndarray:
    # parse from memory: a damaged extent must not make the file read allocate its claimed size
    with open(path, "rb") as fh:
        return read_tensor(io.BytesIO(fh.read()))


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict[str, str] | None = None) -> None:
    blobs = {name: tensor_bytes(arr) for name, arr in tensors.items()}
    lines = [f"CKPT {_VERSION}"]
    for key, value in (meta or {}).items():
        lines.append(f"meta {key} {value}")
    offset = 0
    for name, blob in blobs.items():
        lines.append(f"tensor {name} {offset} {len(blob)}")
        offset += len(blob)
    lines.append("end")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        for blob in blobs.values():
            fh.write(blob)


def load_checkpoint(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    head, sep, _ = raw.partition(b"\nend\n")
    if not sep:
        raise TensorFormatError("checkpoint missing manifest terminator")
    lines = head.decode("utf-8", errors="replace").splitlines()
    if not lines or not lines[0].startswith("CKPT "):
        raise TensorFormatError("not a checkpoint file")
    version = lines[0][len("CKPT "):]
    if version != str(_VERSION):
        raise TensorFormatError(f"unsupported checkpoint version {version!r}")
    base = len(head) + len(sep)
    meta: dict[str, str] = {}
    tensors: dict[str, np.ndarray] = {}
    for number, line in enumerate(lines[1:], start=2):
        # the manifest is ASCII; a line with any other character is malformed
        kind, _, rest = line.partition(" ") if line.isascii() else ("", "", "")
        fields = rest.split(" ", 1) if kind == "meta" else rest.rsplit(" ", 2)
        if kind == "meta" and len(fields) == 2:
            meta[fields[0]] = fields[1]
        elif kind == "tensor" and len(fields) == 3 and all(f.isdigit() for f in fields[1:]):
            name, offset, length = fields
            lo = base + int(offset)
            tensors[name] = read_tensor(io.BytesIO(raw[lo:lo + int(length)]))
        else:
            raise TensorFormatError(f"malformed checkpoint manifest line {number}: {line!r}")
    return meta, tensors
