"""Binary volume file format.

Layout (little-endian regardless of host): magic "VOL1", u8 dtype tag
(0 = float32), u8 ndim, ndim x u32 dims, then the payload.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError
from .tensor import Tensor

MAGIC = b"VOL1"
DTYPE_F32 = 0


def write_volume(path, v: Tensor):
    data = v.data if isinstance(v, Tensor) else np.asarray(v)
    arr = np.ascontiguousarray(data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BB", DTYPE_F32, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


def read_volume(path) -> Tensor:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r} at byte offset 0")
    if len(blob) < 6:
        raise FormatError(
            f"truncated header: file ends at byte offset {len(blob)}, header needs 6 bytes"
        )
    dtype_tag, ndim = struct.unpack("<BB", blob[4:6])
    if dtype_tag != DTYPE_F32:
        raise FormatError(f"unsupported dtype tag {dtype_tag} at byte offset 4")
    dims_end = 6 + 4 * ndim
    if len(blob) < dims_end:
        raise FormatError(
            f"truncated dims: file ends at byte offset {len(blob)}, "
            f"dims end at byte offset {dims_end}"
        )
    dims = struct.unpack(f"<{ndim}I", blob[6:dims_end])
    # math.prod over Python ints: an int64 product of u32 dims can wrap
    expected = dims_end + 4 * math.prod(dims)
    if len(blob) != expected:
        raise FormatError(
            f"payload length mismatch at byte offset {dims_end}: "
            f"expected {expected} total bytes, got {len(blob)}"
        )
    arr = np.frombuffer(blob[dims_end:], dtype="<f4").reshape(dims)
    return Tensor(arr.astype(np.float32))
