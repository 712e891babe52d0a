"""Low-level helpers for the package's little-endian binary file formats.

All id arrays are stored as unsigned LEB128 varints; strings as a varint
length followed by UTF-8 bytes. Fixed-width integers are little-endian.

Id arrays go through the block codec, ``write_varints`` and
``Reader.read_varints``, which encode and decode a whole int64 array with one
numpy pass per byte position (at most ten) instead of one Python call per
varint. The decoder finds the terminator bytes (high bit clear) in a window
of at most ten bytes per varint and combines each varint's 7-bit groups by
Horner's rule, back from its terminator. Both go through the array
``BLOCK`` varints at a time, so their temporary arrays do not grow with it.
The bytes are those of the scalar ``write_varint`` / ``read_varint`` pair,
which remain for headers, string lengths and checkpoints.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import BadMagic, TruncatedFile, VersionMismatch

BLOCK = 8192  # varints per pass of the block codec: temporaries of a few hundred KB


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


def write_varints(buf: bytearray, values) -> None:
    """Append every value of an integer array as a LEB128 varint, in order."""
    values = np.asarray(values, dtype=np.int64).ravel()
    if values.size and values.min() < 0:
        raise ValueError("varints are unsigned")
    for lo in range(0, values.size, BLOCK):
        rest = values[lo:lo + BLOCK].copy()
        width = max(1, -(-int(rest.max()).bit_length() // 7))
        # column j holds byte j of every varint; keep[:, j] marks the varints
        # that have a byte j, so the row-major mask drops the unused tail bytes
        block = np.empty((rest.size, width), dtype=np.uint8)
        keep = np.empty((rest.size, width), dtype=bool)
        keep[:, 0] = True
        for j in range(width):
            more = rest > 0x7F
            block[:, j] = (rest.astype(np.uint8) & 0x7F) | (more.view(np.uint8) << 7)
            if j + 1 < width:
                keep[:, j + 1] = more
            rest >>= 7
        buf += memoryview(block[keep])


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

    def read_varints(self, count: int) -> np.ndarray:
        """The next ``count`` varints as an int64 array."""
        if count > len(self.data) - self.pos:  # every varint takes a byte
            raise TruncatedFile(f"need {count} varints at offset {self.pos}, "
                                f"have {len(self.data) - self.pos} bytes")
        out = np.empty(count, dtype=np.int64)
        for lo in range(0, count, BLOCK):
            values = out[lo:lo + BLOCK]
            window = np.frombuffer(self.data, dtype=np.uint8, offset=self.pos,
                                   count=min(10 * len(values), len(self.data) - self.pos))
            ends = np.flatnonzero(window < 0x80)[:len(values)]
            if len(ends) < len(values):
                # fewer terminators than varints: the buffer ends, or a run
                # of continuation bytes is longer than any 64-bit varint
                raise TruncatedFile(f"{len(values)} varints at offset {self.pos} run "
                                    f"past the end of the buffer or over 10 bytes")
            lengths = ends.copy()
            lengths[1:] -= ends[:-1]
            lengths[0] += 1
            longest = int(lengths.max())
            if longest > 10:
                raise TruncatedFile("varint overflows 64 bits")
            # Horner's rule from each terminator, which holds the highest
            # 7-bit group, back to the first byte. Lanes of varints shorter
            # than j + 1 bytes keep their value, so their (possibly negative)
            # index ends - j is never used.
            values[:] = window[ends]
            if longest == 10 and values[lengths == 10].any():
                raise TruncatedFile("varint overflows int64")
            for j in range(1, longest):
                values[:] = np.where(lengths > j, (values << 7) | (window[ends - j] & 0x7F), values)
            self.pos += int(ends[-1]) + 1
        return out

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
