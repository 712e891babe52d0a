"""Indexed binary store for extracted subgraphs (magic ``IKGS2``).

File layout, all little-endian:

    magic "IKGS2"
    u64 record count
    u64 absolute byte offset per record (the offset table)
    records: an int64 payload followed by u32 CRC32 of the payload

A record's payload is one int64 array,
``[k, h, r, t, union_size, n, m, n x (node, d_h, d_t), m x (edge row)]``:
k, the target triple, the k-hop union size used for pruning statistics, the
node ids with their clamped (d_h, d_t) pairs, and the local edge list.
Offsets give O(1) random access; the writer buffers records and emits the
whole file on close so the table can precede the data.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import binio
from .errors import CorruptRecord, EmptyStore, IndexOutOfRange, MissingFile
from .subgraph import CorpusStats, Subgraph

MAGIC = b"IKGS2"


def encode_record(sub: Subgraph) -> bytes:
    payload = np.concatenate([
        [sub.k, *sub.target, sub.union_size, sub.num_nodes, len(sub.edges)],
        np.column_stack([sub.nodes, sub.dist_pairs]).ravel(), np.ravel(sub.edges)])
    buf = bytearray()
    binio.write_array(buf, payload, "<i8")
    binio.write_u32(buf, zlib.crc32(buf))
    return bytes(buf)


def decode_record(data: bytes, index: int) -> Subgraph:
    """Decode one record; a bad CRC, or a payload that is not a whole int64
    array of non-negative values whose counts it matches exactly, raises
    CorruptRecord(index)."""
    if len(data) < 4:
        raise CorruptRecord(index)
    payload, stored = data[:-4], data[-4:]
    if zlib.crc32(payload) != binio.Reader(stored).read_u32() or len(payload) % 8:
        raise CorruptRecord(index)
    values = binio.Reader(payload).read_array(len(payload) // 8, "<i8")
    if len(values) < 7 or values.min() < 0:
        raise CorruptRecord(index)
    k, h, r, t, union_size, n, m = values[:7].tolist()
    if len(values) != 7 + 3 * n + 3 * m:
        raise CorruptRecord(index)
    node_block = values[7:7 + 3 * n].reshape(n, 3)
    edges = values[7 + 3 * n:].reshape(m, 3)
    return Subgraph((h, r, t), node_block[:, 0], node_block[:, 1:], edges, k, union_size)


class StoreWriter:
    """Collects records and writes the finished store on close."""

    def __init__(self, path):
        self.path = path
        self._records: list[bytes] = []
        self._closed = False

    def write(self, sub: Subgraph) -> int:
        if self._closed:
            raise ValueError("writer already closed")
        self._records.append(encode_record(sub))
        return len(self._records) - 1

    def close(self) -> None:
        if self._closed:
            return
        header = bytearray(MAGIC)
        binio.write_u64(header, len(self._records))
        base = len(header) + 8 * len(self._records)
        offset = base
        for rec in self._records:
            binio.write_u64(header, offset)
            offset += len(rec)
        with open(self.path, "wb") as fh:
            fh.write(header)
            for rec in self._records:
                fh.write(rec)
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class StoreReader:
    """Random-access reader over a finalized store file."""

    def __init__(self, path):
        import os
        if not os.path.isfile(path):
            raise MissingFile(str(path))
        with open(path, "rb") as fh:
            self._data = fh.read()
        rd = binio.Reader(self._data)
        binio.check_magic(rd, MAGIC)
        self.count = rd.read_u64()
        self._offsets = rd.read_array(self.count, "<u8").tolist()
        self._end = len(self._data)

    def read(self, index: int) -> Subgraph:
        if not (0 <= index < self.count):
            raise IndexOutOfRange(f"record {index} outside [0, {self.count})")
        start = self._offsets[index]
        stop = self._offsets[index + 1] if index + 1 < self.count else self._end
        return decode_record(self._data[start:stop], index)

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        for i in range(self.count):
            yield self.read(i)


def collect_stats(subs) -> CorpusStats:
    """Exact aggregates over a sized iterable of subgraphs, such as a
    StoreReader or the list a store was written from."""
    if len(subs) == 0:
        raise EmptyStore("cannot aggregate over an empty store")
    n_nodes, n_edges, pruning = [], [], []
    empty = 0
    for sub in subs:
        n_nodes.append(sub.num_nodes)
        n_edges.append(len(sub.edges))
        if len(sub.edges) == 0:
            empty += 1
        if sub.union_size > 0:
            pruning.append(1.0 - sub.num_nodes / sub.union_size)
    return CorpusStats(
        count=len(subs),
        max_nodes=int(max(n_nodes)),
        mean_nodes=float(np.mean(n_nodes)),
        max_edges=int(max(n_edges)),
        mean_edges=float(np.mean(n_edges)),
        pruning_ratio=float(np.mean(pruning)) if pruning else 0.0,
        empty_count=empty,
    )
