"""Low-level helpers for the package's little-endian binary file formats.

Bulk arrays are raw little-endian bytes in C order, written by
``write_array`` and read by ``Reader.read_array``: ids as ``"<i8"``,
checkpoint tensors as ``"<f8"`` and store offsets as ``"<u8"``. Header
scalars (counts, string lengths, tensor shapes) are unsigned LEB128
varints; strings are a varint length followed by UTF-8 bytes. Fixed-width
integers are little-endian.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import BadMagic, TruncatedFile, VersionMismatch


def write_varint(buf: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def write_array(buf: bytearray, values, dtype) -> None:
    """Append every value of an array as raw ``dtype`` bytes, in C order."""
    buf += np.ascontiguousarray(values, dtype=dtype).tobytes()


class Reader:
    """Cursor over a bytes object with truncation checking."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def _need(self, n: int):
        if self.pos + n > len(self.data):
            raise TruncatedFile(f"need {n} bytes at offset {self.pos}, have {len(self.data)}")

    def read_bytes(self, n: int) -> bytes:
        self._need(n)
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def read_array(self, count: int, dtype) -> np.ndarray:
        """The next ``count`` items of ``dtype`` as a writable native-order
        array; a count the buffer cannot hold fails before any array exists."""
        dtype = np.dtype(dtype)
        raw = self.read_bytes(dtype.itemsize * count)
        return np.frombuffer(raw, dtype).astype(dtype.newbyteorder("="))

    def read_varint(self) -> int:
        result = 0
        shift = 0
        while True:
            self._need(1)
            byte = self.data[self.pos]
            self.pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 63:
                raise TruncatedFile("varint overflows 64 bits")

    def read_u32(self) -> int:
        return struct.unpack("<I", self.read_bytes(4))[0]

    def read_u64(self) -> int:
        return struct.unpack("<Q", self.read_bytes(8))[0]

    def read_string(self) -> str:
        n = self.read_varint()
        return self.read_bytes(n).decode("utf-8")


def write_u32(buf: bytearray, value: int) -> None:
    buf += struct.pack("<I", value)


def write_u64(buf: bytearray, value: int) -> None:
    buf += struct.pack("<Q", value)


def write_string(buf: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    write_varint(buf, len(raw))
    buf += raw


def check_magic(reader: Reader, expected: bytes) -> None:
    """Validate a magic tag, distinguishing wrong-format from wrong-version."""
    got = reader.read_bytes(len(expected))
    if got != expected:
        # same format family but different trailing version digit
        if got[:-1] == expected[:-1] and got[-1:].isdigit():
            raise VersionMismatch(f"expected {expected!r}, found {got!r}")
        raise BadMagic(f"expected {expected!r}, found {got!r}")
