"""Bit-exact tensor and checkpoint serialization.

``tensor_bytes`` and ``tensor_from_bytes`` convert one array to and from
an in-memory tensor blob. Blob layout: magic "TNSR", version u32=1, dtype
code u8 (0=f32, 1=f64), rank u32, extents rank x u32, then the
little-endian row-major payload. Checkpoints are a text manifest (meta
lines plus a name -> offset/length table) terminated by "end", followed
by concatenated tensor blobs; offsets are relative to the first blob byte.
"""

from __future__ import annotations

import math
import struct

import numpy as np

__all__ = [
    "TensorFormatError",
    "load_checkpoint",
    "save_checkpoint",
    "tensor_bytes",
    "tensor_from_bytes",
]

_MAGIC = b"TNSR"
_VERSION = 1
_HEAD = struct.Struct("<4sIBI")   # magic, version, dtype code, rank
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class TensorFormatError(ValueError):
    """Malformed tensor blob or checkpoint."""


def tensor_bytes(array: np.ndarray) -> bytes:
    array = np.asarray(array)
    if array.dtype not in _DTYPE_CODES:
        raise TensorFormatError(f"unsupported dtype {array.dtype}; use float32 or float64")
    head = _HEAD.pack(_MAGIC, _VERSION, _DTYPE_CODES[array.dtype], array.ndim)
    extents = struct.pack(f"<{array.ndim}I", *array.shape)
    return head + extents + array.astype(array.dtype.newbyteorder("<"), copy=False).tobytes()


def tensor_from_bytes(blob: bytes) -> np.ndarray:
    """Parse one tensor blob; its length must be exactly what its header declares."""
    if len(blob) < _HEAD.size:
        raise TensorFormatError("truncated tensor blob")
    magic, version, code, rank = _HEAD.unpack_from(blob)
    if magic != _MAGIC:
        raise TensorFormatError("bad magic; not a tensor blob")
    if version != _VERSION:
        raise TensorFormatError(f"unsupported tensor format version {version}")
    if code not in _CODE_DTYPES:
        raise TensorFormatError(f"unknown dtype code {code}")
    if rank > 32:
        raise TensorFormatError(f"implausible rank {rank}")
    offset = _HEAD.size + 4 * rank
    if len(blob) < offset:
        raise TensorFormatError("truncated tensor blob")
    shape = struct.unpack_from(f"<{rank}I", blob, _HEAD.size)
    dtype = _CODE_DTYPES[code]
    count = math.prod(shape)
    extra = len(blob) - offset - count * dtype.itemsize
    if extra < 0:
        raise TensorFormatError("truncated tensor blob")
    if extra > 0:
        raise TensorFormatError(f"{extra} bytes after the tensor payload")
    data = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    return data.reshape(shape).astype(dtype.newbyteorder("="))


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
    lines = head.decode("utf-8", errors="replace").split("\n")
    if not lines[0].startswith("CKPT "):
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
        # a key or name given twice is malformed, not overwritten
        if kind == "meta" and len(fields) == 2 and fields[0] not in meta:
            meta[fields[0]] = fields[1]
        elif kind == "tensor" and len(fields) == 3 and all(f.isdigit() for f in fields[1:]) \
                and fields[0] not in tensors:
            name, offset, length = fields
            lo = base + int(offset)
            tensors[name] = tensor_from_bytes(raw[lo:lo + int(length)])
        else:
            raise TensorFormatError(f"malformed checkpoint manifest line {number}: {line!r}")
    return meta, tensors
