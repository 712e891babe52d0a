import zlib

import numpy as np
import pytest

from indkg.binio import write_u32
from indkg.errors import (
    BadMagic,
    CorruptHeader,
    CorruptRecord,
    EmptyStore,
    IndexOutOfRange,
    VersionMismatch,
)
from indkg.kgcore import IndexedGraph
from indkg.store import StoreReader, StoreWriter, collect_stats, decode_record, encode_record
from indkg.subgraph import Subgraph, extract_enclosing_subgraph

from helpers import random_subgraph, random_triples


def minimal_subgraph():
    return Subgraph((7, 1, 9), np.array([7, 9]),
                    np.array([[0, 3], [3, 0]]),
                    np.empty((0, 3), dtype=np.int64), 2, union_size=2)


def test_roundtrip_minimal(tmp_path):
    path = tmp_path / "s.ikgs"
    sub = minimal_subgraph()
    with StoreWriter(path) as w:
        assert w.write(sub) == 0
    r = StoreReader(path)
    assert len(r) == 1
    assert r.read(0) == sub


def test_index_out_of_range(tmp_path):
    path = tmp_path / "s.ikgs"
    with StoreWriter(path) as w:
        w.write(minimal_subgraph())
    r = StoreReader(path)
    with pytest.raises(IndexOutOfRange):
        r.read(1)
    with pytest.raises(IndexOutOfRange):
        r.read(-1)


def test_record_checksum():
    sub = minimal_subgraph()
    rec = bytearray(encode_record(sub))
    assert decode_record(bytes(rec), 0) == sub
    rec[2] ^= 0xFF
    with pytest.raises(CorruptRecord):
        decode_record(bytes(rec), 0)


def _with_crc(payload: bytes) -> bytes:
    crc = bytearray()
    write_u32(crc, zlib.crc32(payload))
    return payload + bytes(crc)


def test_payload_not_filled_exactly_by_varints():
    sub = minimal_subgraph()
    payload = encode_record(sub)[:-4]
    for bad in (payload[:-1], payload + b"\x00"):
        with pytest.raises(CorruptRecord) as info:
            decode_record(_with_crc(bad), 3)
        assert info.value.index == 3


def test_crc_valid_record_with_bad_values():
    # k, h, r, t, union_size, n, m, then n node rows and m edge rows
    good = [2, 7, 1, 9, 2, 2, 1, 7, 0, 3, 9, 3, 0, 0, 1, 1]
    assert decode_record(_with_crc(np.array(good, "<i8").tobytes()), 0) \
        == Subgraph((7, 1, 9), np.array([7, 9]), np.array([[0, 3], [3, 0]]),
                    np.array([[0, 1, 1]]), 2, union_size=2)
    negative_id = good[:7] + [-7] + good[8:]
    too_short = good[:6]
    rows_missing = good[:-3]
    extra_value = good + [0]
    huge_count = good[:5] + [2**62] + good[6:]
    for bad in (negative_id, too_short, rows_missing, extra_value, huge_count):
        with pytest.raises(CorruptRecord) as info:
            decode_record(_with_crc(np.array(bad, "<i8").tobytes()), 5)
        assert info.value.index == 5


def test_bad_magic_and_version(tmp_path):
    p = tmp_path / "x.ikgs"
    p.write_bytes(b"WRONG" + b"\x00" * 16)
    with pytest.raises(BadMagic):
        StoreReader(p)
    for older_or_newer in (b"IKGS1", b"IKGS9"):
        p.write_bytes(older_or_newer + b"\x00" * 16)
        with pytest.raises(VersionMismatch):
            StoreReader(p)


def _store_of(tmp_path, subs):
    path = tmp_path / "s.ikgs"
    with StoreWriter(path) as w:
        for sub in subs:
            w.write(sub)
    return path


def test_empty_store_with_trailing_bytes_is_corrupt_header(tmp_path):
    # it used to open with len() == 0
    path = _store_of(tmp_path, [])
    assert len(StoreReader(path)) == 0
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(CorruptHeader, match="8 bytes after the last block"):
        StoreReader(path)


TABLE = len(b"IKGS2") + 8     # the offset table's first byte


@pytest.mark.parametrize("edit", [
    pytest.param(lambda t: t[[0, 2, 1]], id="swapped"),
    pytest.param(lambda t: t[[0, 1, 1]], id="repeated"),
    pytest.param(lambda t: np.append(t[:2], 10 ** 6), id="past-the-end"),
    pytest.param(lambda t: t + [1, 0, 0], id="gap-after-table"),
    pytest.param(lambda t: t - [8, 0, 0], id="inside-table"),
])
def test_offsets_out_of_order_are_corrupt_header_at_open(tmp_path, edit):
    # they used to open and fail only when a record was read, as CorruptRecord
    rng = np.random.default_rng(7)
    path = _store_of(tmp_path, [random_subgraph(rng) for _ in range(3)])
    data = bytearray(path.read_bytes())
    table = np.frombuffer(data, "<u8", 3, offset=TABLE)
    data[TABLE:TABLE + 24] = edit(table).astype("<u8").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptHeader, match="offsets of 3 records"):
        StoreReader(path)


def test_bytes_after_the_last_record_fail_as_it_is_read(tmp_path):
    rng = np.random.default_rng(8)
    subs = [random_subgraph(rng) for _ in range(3)]
    path = _store_of(tmp_path, subs)
    path.write_bytes(path.read_bytes() + bytes(8))
    r = StoreReader(path)
    assert [r.read(0), r.read(1)] == subs[:2]
    with pytest.raises(CorruptRecord) as info:
        r.read(2)
    assert info.value.index == 2


def test_sequential_indices_and_random_order_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    subs = [random_subgraph(rng) for _ in range(200)]
    path = tmp_path / "s.ikgs"
    with StoreWriter(path) as w:
        for i, sub in enumerate(subs):
            assert w.write(sub) == i
    r = StoreReader(path)
    for i in rng.permutation(len(subs)):
        assert r.read(int(i)) == subs[i]


def test_reserialize_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    subs = [random_subgraph(rng) for _ in range(50)]
    p1, p2 = tmp_path / "a.ikgs", tmp_path / "b.ikgs"
    with StoreWriter(p1) as w:
        for sub in subs:
            w.write(sub)
    with StoreWriter(p2) as w:
        for sub in StoreReader(p1):
            w.write(sub)
    assert p1.read_bytes() == p2.read_bytes()


def test_stats_single(tmp_path):
    path = tmp_path / "s.ikgs"
    sub = Subgraph((0, 0, 1), np.array([0, 1, 2]),
                   np.array([[0, 1], [1, 0], [1, 1]]),
                   np.array([[0, 2, 0]]), 2, union_size=4)
    with StoreWriter(path) as w:
        w.write(sub)
    stats = collect_stats(StoreReader(path))
    assert stats.max_nodes == 3 and stats.mean_nodes == 3.0
    assert stats.pruning_ratio == 0.25
    assert stats.empty_count == 0


def test_stats_two_sizes(tmp_path):
    path = tmp_path / "s.ikgs"
    s1 = minimal_subgraph()
    s2 = Subgraph((0, 0, 1), np.array([0, 1, 2, 3]),
                  np.zeros((4, 2), dtype=np.int64),
                  np.array([[0, 2, 0]]), 2, union_size=4)
    with StoreWriter(path) as w:
        w.write(s1)
        w.write(s2)
    stats = collect_stats(StoreReader(path))
    assert stats.mean_nodes == 3.0 and stats.max_nodes == 4
    assert stats.empty_count == 1


def test_stats_empty_store(tmp_path):
    path = tmp_path / "s.ikgs"
    StoreWriter(path).close()
    with pytest.raises(EmptyStore):
        collect_stats(StoreReader(path))


def test_stats_of_written_subgraphs_equal_stats_of_store(tmp_path):
    rng = np.random.default_rng(4)
    g = IndexedGraph(random_triples(rng, 30, 3, 0.1), 30, 3)
    subs = [extract_enclosing_subgraph(g, tuple(t), 2, max_nodes=cap)
            for t in g.triples[:30].tolist() for cap in (0, 3)]
    path = tmp_path / "s.ikgs"
    with StoreWriter(path) as w:
        for sub in subs:
            w.write(sub)
    stats = collect_stats(subs)
    assert stats == collect_stats(StoreReader(path))
    assert stats.to_dict() == collect_stats(StoreReader(path)).to_dict()
    assert stats.count == 60 and stats.empty_count > 0
    with pytest.raises(EmptyStore):
        collect_stats([])


def test_pruning_ratio_matches_recomputation(tmp_path):
    rng = np.random.default_rng(2)
    from helpers import random_triples
    from indkg.subgraph import bfs_distances
    triples = random_triples(rng, 30, 3, 0.1)
    g = IndexedGraph(triples, 30, 3)
    path = tmp_path / "s.ikgs"
    ratios = []
    with StoreWriter(path) as w:
        for target in g.triples[:40].tolist():
            sub = extract_enclosing_subgraph(g, tuple(target), 2)
            w.write(sub)
            d_h = bfs_distances(g, target[0], 2, masked_edge=tuple(target))
            d_t = bfs_distances(g, target[2], 2, masked_edge=tuple(target))
            union = len(set(d_h) | set(d_t))
            ratios.append(1.0 - sub.num_nodes / union)
    stats = collect_stats(StoreReader(path))
    assert abs(stats.pruning_ratio - np.mean(ratios)) < 1e-12
