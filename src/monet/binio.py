"""Low-level helpers for the toolkit's binary file formats.

Both on-disk formats (weight checkpoints, feature datasets) are built from
the same few primitives: little-endian u32 scalars, length-prefixed UTF-8
strings, and contiguous row-major float arrays with an explicit dims header.

A file is encoded in memory and written in one call, so its writer can hash
the bytes it wrote without reading the file back.  A file, or a pipe, is
read whole in one call by a ``BlockReader``, which checks that one buffer
against an expected sha256 when given one and parses its fields with
``struct.unpack_from`` out of it.  Both formats fail the same way on damage:
a field declared longer than what is left of the file raises
``TruncatedError`` naming what was being read.
"""

from __future__ import annotations

import hashlib
import math
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


class DigestError(FormatError):
    """The bytes read do not have the sha256 they were expected to have."""


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def pack_u32(*values: int) -> bytes:
    for value in values:
        if not 0 <= value <= U32_MAX:
            raise FormatError(f"u32 out of range: {value}")
    return struct.pack(f"<{len(values)}I", *values)


def pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return pack_u32(len(raw)) + raw


def pack_array(arr: np.ndarray, dtype: str) -> list:
    """Dims header (rank, then each dim as u32) and the row-major payload,
    as two pieces for ``write_file``."""
    a = np.ascontiguousarray(arr, dtype=np.dtype(dtype).newbyteorder("<"))
    return [pack_u32(a.ndim, *a.shape), a]


def write_file(path: str, pieces: list) -> bytes:
    """Join ``pieces`` (bytes or contiguous arrays) and write them to
    ``path`` in one call; returns the bytes written."""
    raw = b"".join(pieces)
    with open(path, "wb") as f:
        f.write(raw)
    return raw


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

class BlockReader:
    """A binary file just opened for reading, read whole and parsed front
    to back.

    ``take(n, ...)`` consumes the next ``n`` bytes and returns where they
    start in ``buf``, for ``struct.unpack_from`` or ``np.frombuffer``.  A
    field's name is a ``str.format`` template and its arguments, formatted
    only when the field is cut short.  Given the hex ``sha256`` the file
    should have, the reader raises ``DigestError`` before any field is
    parsed unless the bytes it read have it.
    """

    def __init__(self, f: BinaryIO, sha256: str | None = None):
        self.buf = f.read()
        if sha256 is not None and (got := hashlib.sha256(self.buf).hexdigest()) != sha256:
            raise DigestError(f"sha256 {got} of the bytes read, expected {sha256}")
        self.end = len(self.buf)
        self.pos = 0  # offset in buf of the next byte to take

    def left(self) -> int:
        """Bytes of the file not yet taken."""
        return self.end - self.pos

    def require(self, n: int, what: str) -> None:
        """Raise ``TruncatedError`` unless the file still holds ``n`` bytes,
        so a damaged length never turns into a huge allocation."""
        left = self.left()
        if n > left:
            raise TruncatedError(f"expected {n} bytes for {what}, {left} left in the file")

    def take(self, n: int, what: str, *args) -> int:
        p = self.pos
        if p + n > self.end:
            self.require(n, what.format(*args))
        self.pos = p + n
        return p

    def u32(self, what: str, *args) -> int:
        p = self.take(4, what, *args)
        return struct.unpack_from("<I", self.buf, p)[0]

    def string(self, what: str, *args) -> str:
        n = self.u32(what + " length", *args)
        p = self.take(n, what, *args)
        try:
            return self.buf[p:p + n].decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{what.format(*args)} is not valid UTF-8: {e}") from None

    def array(self, dtype: str, what: str) -> np.ndarray:
        """A dims header and its payload, widened to a new f64 array."""
        rank = self.u32(what + " rank")
        if rank > 8:
            raise FormatError(f"{what}: implausible rank {rank}")
        shape = tuple(self.u32(what + " dim {}", i) for i in range(rank))
        dt = np.dtype(dtype).newbyteorder("<")
        count = math.prod(shape)
        p = self.take(count * dt.itemsize, what + " payload")
        return np.frombuffer(self.buf, dt, count, p).reshape(shape).astype(np.float64)

    def magic(self, expected: bytes) -> None:
        p = self.take(4, "magic")
        got = bytes(self.buf[p:p + 4])
        if got != expected:
            raise BadMagicError(f"bad magic: expected {expected!r}, got {got!r}")

    def version(self, supported: int) -> None:
        version = self.u32("format version")
        if version != supported:
            raise VersionError(f"unsupported format version {version}, expected {supported}")
