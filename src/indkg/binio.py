"""Low-level helpers for the package's little-endian binary file formats.

Every file is a magic tag, then fixed-width scalars and string tables, then
raw arrays. Integers are fixed-width little-endian: u64 for counts, shapes
and offsets, and u32 only for the store's CRC32. Bulk arrays are raw
little-endian bytes in C order, written by ``write_array`` and read by
``Reader.read_array``: ids as ``"<i8"``, checkpoint tensors as ``"<f8"``,
store offsets and tensor shapes as ``"<u8"``. Strings are stored as a
string table (``write_strings`` / ``Reader.read_strings``): a u64 count,
the UTF-8 byte length of each string as one ``"<u8"`` array, then the
concatenated bytes.
"""

from __future__ import annotations

import itertools
import struct

import numpy as np

from .errors import BadMagic, CorruptHeader, TruncatedFile, VersionMismatch


def write_array(buf: bytearray, values, dtype) -> None:
    """Append every value of an array as raw ``dtype`` bytes, in C order."""
    buf += np.ascontiguousarray(values, dtype=dtype).tobytes()


class Reader:
    """Cursor over a bytes object with truncation checking."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def read_bytes(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedFile(f"need {n} bytes at offset {self.pos}, have {len(self.data)}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def read_array(self, count: int, dtype) -> np.ndarray:
        """The next ``count`` items of ``dtype`` as a writable native-order
        array; a count the buffer cannot hold fails before any array exists."""
        dtype = np.dtype(dtype)
        raw = self.read_bytes(dtype.itemsize * count)
        return np.frombuffer(raw, dtype).astype(dtype.newbyteorder("="))

    def expect_end(self) -> None:
        """Fail unless every byte has been read: a file ends with its last
        block."""
        if self.pos != len(self.data):
            raise CorruptHeader(f"{len(self.data) - self.pos} bytes after the last block "
                                f"at offset {self.pos}")

    def read_u32(self) -> int:
        return struct.unpack("<I", self.read_bytes(4))[0]

    def read_u64(self) -> int:
        return struct.unpack("<Q", self.read_bytes(8))[0]

    def read_strings(self) -> list[str]:
        """The next string table as a list of str."""
        lens = self.read_array(self.read_u64(), "<u8").tolist()
        # Python ints: a corrupt length cannot wrap the sum or the offsets,
        # so it fails as truncation in read_bytes
        blob = self.read_bytes(sum(lens))
        try:
            return [blob[end - n:end].decode("utf-8")
                    for n, end in zip(lens, itertools.accumulate(lens))]
        except UnicodeDecodeError as exc:
            raise CorruptHeader(f"string table is not UTF-8: {exc}") from None


def write_u32(buf: bytearray, value: int) -> None:
    buf += struct.pack("<I", value)


def write_u64(buf: bytearray, value: int) -> None:
    buf += struct.pack("<Q", value)


def write_strings(buf: bytearray, strings) -> None:
    """Append a string table: u64 count, u64 byte lengths, UTF-8 bytes."""
    raw = [s.encode("utf-8") for s in strings]
    write_u64(buf, len(raw))
    write_array(buf, [len(b) for b in raw], "<u8")
    buf += b"".join(raw)


def check_magic(reader: Reader, expected: bytes) -> None:
    """Validate a magic tag, distinguishing wrong-format from wrong-version."""
    got = reader.read_bytes(len(expected))
    if got != expected:
        # same format family but different trailing version digit
        if got[:-1] == expected[:-1] and got[-1:].isdigit():
            raise VersionMismatch(f"expected {expected!r}, found {got!r}")
        raise BadMagic(f"expected {expected!r}, found {got!r}")
