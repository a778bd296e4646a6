"""Low-level helpers for the toolkit's binary file formats.

Both on-disk formats (weight checkpoints, feature datasets) are built from
the same few primitives: little-endian u32 scalars, length-prefixed UTF-8
strings, and contiguous row-major float arrays with an explicit dims header.
Keeping the primitives here means both formats fail the same way on damage:
a field declared longer than what is left of the file raises
``TruncatedError`` naming what was being read.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from typing import BinaryIO

import numpy as np

U32_MAX = 0xFFFFFFFF


class FormatError(ValueError):
    """Base class for binary format violations."""


class BadMagicError(FormatError):
    """File does not start with the expected 4-byte magic."""


class VersionError(FormatError):
    """Recognized magic but unsupported format version."""


class TruncatedError(FormatError):
    """File ended before a declared field was complete."""


def require(f: BinaryIO, n: int, what: str) -> None:
    """Raise ``TruncatedError`` unless a regular file still holds ``n``
    bytes, so a damaged length never turns into a huge read or allocation."""
    st = os.fstat(f.fileno())
    left = st.st_size - f.tell() if stat.S_ISREG(st.st_mode) else n
    if n > left:
        raise TruncatedError(f"expected {n} bytes for {what}, {left} left in the file")


def read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    # Reads up to 64 KiB cannot be a hazard and are checked after the fact:
    # an fstat for every small field doubled the read time of a dataset.
    if n > 1 << 16:
        require(f, n, what)
    buf = f.read(n)
    if len(buf) != n:
        raise TruncatedError(f"expected {n} bytes for {what}, got {len(buf)}")
    return buf


def write_u32(f: BinaryIO, value: int) -> None:
    if not 0 <= value <= U32_MAX:
        raise FormatError(f"u32 out of range: {value}")
    f.write(struct.pack("<I", value))


def read_u32(f: BinaryIO, what: str = "u32") -> int:
    return struct.unpack("<I", read_exact(f, 4, what))[0]


def write_str(f: BinaryIO, s: str) -> None:
    raw = s.encode("utf-8")
    write_u32(f, len(raw))
    f.write(raw)


def read_str(f: BinaryIO, what: str = "string") -> str:
    n = read_u32(f, f"{what} length")
    try:
        return read_exact(f, n, what).decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{what} is not valid UTF-8: {e}") from None


def write_array(f: BinaryIO, arr: np.ndarray, dtype: str) -> None:
    """Write dims header (rank, then each dim as u32) plus row-major payload."""
    a = np.ascontiguousarray(arr, dtype=np.dtype(dtype).newbyteorder("<"))
    write_u32(f, a.ndim)
    for d in a.shape:
        write_u32(f, d)
    f.write(a.tobytes())


def read_array(f: BinaryIO, dtype: str, what: str = "array") -> np.ndarray:
    rank = read_u32(f, f"{what} rank")
    if rank > 8:
        raise FormatError(f"{what}: implausible rank {rank}")
    shape = tuple(read_u32(f, f"{what} dim {i}") for i in range(rank))
    dt = np.dtype(dtype).newbyteorder("<")
    count = math.prod(shape)
    raw = read_exact(f, count * dt.itemsize, f"{what} payload")
    return np.frombuffer(raw, dtype=dt).reshape(shape).astype(np.float64)


def check_magic(f: BinaryIO, expected: bytes) -> None:
    got = read_exact(f, 4, "magic")
    if got != expected:
        raise BadMagicError(f"bad magic: expected {expected!r}, got {got!r}")


def check_version(f: BinaryIO, supported: int) -> None:
    version = read_u32(f, "format version")
    if version != supported:
        raise VersionError(f"unsupported format version {version}, expected {supported}")
