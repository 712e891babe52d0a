import numpy as np
import pytest

from indkg import kgcore
from indkg.errors import (
    BadMagic,
    DuplicateTriple,
    EmptyInput,
    EntityOverlap,
    IdOutOfBounds,
    MalformedLine,
    MissingFile,
    TruncatedFile,
    UnknownEntity,
    UnknownRelation,
    VersionMismatch,
)

from helpers import (ONE_PASS_NOISE, PER_LINE_NOISE, build_vocab_loop_oracle,
                     edge_positions_scan_oracle, graph_index_oracle, make_raw_dataset_dir,
                     parse_triples_oracle, write_noisy_tsv, write_tsv)


def test_load_triples_single_line(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("a\tr\tb\n")
    assert kgcore.load_triples(p) == [("a", "r", "b")]


def test_load_triples_empty_file(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("")
    assert kgcore.load_triples(p) == []


def test_load_triples_extra_fields_ignored(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("a\tr\tb\textra\n")
    assert kgcore.load_triples(p) == [("a", "r", "b")]


def test_load_triples_malformed_line(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("a\tr\n")
    with pytest.raises(MalformedLine) as exc:
        kgcore.load_triples(p)
    assert exc.value.line_no == 1


def test_load_triples_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        kgcore.load_triples(tmp_path / "nope.txt")


def test_build_vocab_first_appearance_order():
    v = kgcore.build_vocab([("a", "r", "b")])
    assert v.entity2id == {"a": 0, "b": 1}
    assert v.relation2id == {"r": 0}


def test_build_vocab_unknown_relation():
    with pytest.raises(UnknownRelation):
        kgcore.build_vocab([("a", "r", "b")], query=[("x", "s", "y")])


def test_build_vocab_dedup():
    v = kgcore.build_vocab([("a", "r", "b"), ("b", "r", "a")])
    assert v.num_entities == 2
    assert v.num_relations == 1


def test_build_vocab_inductive_ids_appended():
    v = kgcore.build_vocab([("a", "r", "b")], support=[("x", "r", "y")])
    assert v.entity2id == {"a": 0, "b": 1, "x": 2, "y": 3}


def _label_splits(rng, n_entities=25, n_relations=4):
    """A train split and four later splits over one pool of entity labels;
    the later splits use only relations train has."""
    draw = lambda n, rels: [(f"e{rng.integers(n_entities)}", rels[rng.integers(len(rels))],
                             f"e{rng.integers(n_entities)}") for _ in range(n)]
    train = draw(int(rng.integers(1, 15)), [f"r{i}" for i in range(n_relations)])
    known = sorted({r for _, r, _ in train})
    return train, [draw(int(rng.integers(1, 8)), known) for _ in range(4)]


@pytest.mark.parametrize("seed", range(20))
def test_build_vocab_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    train, later = _label_splits(rng)
    v = kgcore.build_vocab(train, *later)
    assert (v.entity2id, v.relation2id) == build_vocab_loop_oracle(train, *later)
    assert v.id2entity == list(v.entity2id) and v.id2relation == list(v.relation2id)
    # an unknown relation in each later split in turn, and in every split after it
    for first in range(4):
        bad = [list(split) for split in later]
        for i in range(first, 4):
            bad[i].insert(int(rng.integers(len(bad[i]) + 1)), ("e0", f"new{i}", "e1"))
        with pytest.raises(UnknownRelation) as err:
            kgcore.build_vocab(train, *bad)
        assert err.value.label == build_vocab_loop_oracle(train, *bad) == f"new{first}"


def test_vocab_roundtrip():
    v = kgcore.build_vocab([("a", "r", "b"), ("c", "s", "a")])
    for label, i in v.entity2id.items():
        assert v.id2entity[i] == label
    for label, i in v.relation2id.items():
        assert v.id2relation[i] == label


def test_encode_triples():
    v = kgcore.build_vocab([("a", "r", "b")])
    enc = kgcore.encode_triples([("a", "r", "b")], v)
    assert enc.tolist() == [[0, 0, 1]]
    assert kgcore.encode_triples([], v).shape == (0, 3)


def test_encode_triples_frozen_vocab():
    v = kgcore.build_vocab([("a", "r", "b")])
    with pytest.raises(UnknownEntity):
        kgcore.encode_triples([("a", "r", "c")], v)


def test_indexed_graph_single_edge():
    g = kgcore.IndexedGraph([(0, 0, 1)], 2, 1)
    nbrs, rels = g.out_edges(0)
    assert nbrs.tolist() == [1] and rels.tolist() == [0]
    nbrs, rels = g.in_edges(1)
    assert nbrs.tolist() == [0] and rels.tolist() == [0]
    assert g.contains(0, 0, 1) and not g.contains(1, 0, 0)


def test_indexed_graph_dedup():
    g1 = kgcore.IndexedGraph([(0, 0, 1), (0, 0, 1)], 2, 1)
    g2 = kgcore.IndexedGraph([(0, 0, 1)], 2, 1)
    assert np.array_equal(g1.triples, g2.triples)


def test_indexed_graph_chain_degrees():
    g = kgcore.IndexedGraph([(0, 0, 1), (1, 0, 2), (2, 0, 0)], 3, 1)
    for e in range(3):
        assert len(g.out_edges(e)[0]) == 1
        assert len(g.in_edges(e)[0]) == 1


def test_indexed_graph_bounds():
    with pytest.raises(IdOutOfBounds):
        kgcore.IndexedGraph([(0, 0, 5)], 2, 1)
    with pytest.raises(IdOutOfBounds):
        kgcore.IndexedGraph([(0, 3, 1)], 2, 1)


def test_indexed_graph_order_invariant():
    rng = np.random.default_rng(0)
    triples = np.array([(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 0), (0, 1, 2)])
    g1 = kgcore.IndexedGraph(triples, 4, 2)
    g2 = kgcore.IndexedGraph(triples[rng.permutation(len(triples))], 4, 2)
    for e in range(4):
        assert np.array_equal(g1.out_edges(e)[0], g2.out_edges(e)[0])
        assert np.array_equal(g1.out_edges(e)[1], g2.out_edges(e)[1])
    assert np.array_equal(g1.triples, g2.triples)


def test_edge_count_invariant():
    rng = np.random.default_rng(1)
    from helpers import random_triples
    triples = random_triples(rng, 15, 3, 0.1)
    g = kgcore.IndexedGraph(triples, 15, 3)
    total = sum(len(g.out_edges(e)[0]) + len(g.in_edges(e)[0]) for e in range(15))
    assert total == 2 * g.num_triples


@pytest.mark.parametrize("seed", range(4))
def test_contains_equals_contains_many(seed):
    # a one-triple lookup agrees with the batched one everywhere, also on
    # out-of-range ids whose keys alias known triples: (h, R, t) keys as
    # (h + 1, 0, t) and (h, r, E) as (h, r + 1, 0)
    rng = np.random.default_rng(seed)
    from helpers import random_triples
    n, n_rel = int(rng.integers(2, 12)), int(rng.integers(2, 4))
    triples = np.vstack([random_triples(rng, n, n_rel, 0.3), [(1, 0, 0), (0, 1, 0)]])
    g = kgcore.IndexedGraph(np.unique(triples, axis=0), n, n_rel)
    aliases = [(h - 1, n_rel, t) for h, r, t in triples.tolist() if r == 0 and h > 0]
    aliases += [(h, r - 1, n) for h, r, t in triples.tolist() if r > 0 and t == 0]
    assert np.isin(kgcore.triple_keys(aliases, n, n_rel), g.known_keys).all()
    assert [g.contains(*p) for p in aliases] == [False] * len(aliases)
    ids = range(-1, n + 2)
    probes = [(h, r, t) for h in ids for r in range(-1, n_rel + 2) for t in ids]
    want = g.contains_many(probes).tolist()
    assert any(want)
    assert [g.contains(*p) for p in probes] == want
    assert [g.contains(*p) for p in np.array(probes)] == want
    empty = kgcore.IndexedGraph(np.empty((0, 3), np.int64), n, n_rel)
    assert not any(empty.contains(*p) for p in probes)


def test_contains_matches_python_set():
    rng = np.random.default_rng(14)
    from helpers import random_triples
    n, n_rel = 30, 4
    triples = random_triples(rng, n, n_rel, 0.1)
    # (0, 1, 0) and (1, 0, 0) share keys with the out-of-range (0, 0, n)
    # and (0, n_rel, 0) probed below
    corners = [(0, 0, 0), (n - 1, n_rel - 1, n - 1), (0, n_rel - 1, n - 1),
               (0, 1, 0), (1, 0, 0)]
    known = np.vstack([triples, random_triples(rng, n, n_rel, 0.05), corners])
    for g, members in ((kgcore.IndexedGraph(triples, n, n_rel, known_triples=known), known),
                       (kgcore.IndexedGraph(triples, n, n_rel), triples)):
        known_set = set(map(tuple, members.tolist()))
        probes = np.vstack([
            members[rng.choice(len(members), 40)],
            np.column_stack([rng.integers(n, size=400), rng.integers(n_rel, size=400),
                             rng.integers(n, size=400)]),
            corners, [(n - 1, 0, 0), (0, 0, n - 1), (n - 1, n_rel - 1, 0)]])
        expect = [tuple(p) in known_set for p in probes.tolist()]
        assert any(expect) and not all(expect)
        assert [g.contains(*p) for p in probes.tolist()] == expect
        assert g.contains_many(probes).tolist() == expect
        outside = [(n, 0, 0), (-1, 0, 0), (0, n_rel, 0), (0, 0, n), (0, -1, 0)]
        assert not any(g.contains(*p) for p in outside)
        assert not g.contains_many(outside).any()
        assert g.contains_many(np.empty((0, 3), np.int64)).shape == (0,)


@pytest.mark.parametrize("size", [0, 1, 2, 9, 60])
@pytest.mark.parametrize("near_top", [False, True])
def test_find_sorted_matches_bisect_oracle(size, near_top):
    # repeated keys, and probes before, between, at and after the elements,
    # also next to 2**63 - 1, which triple keys can reach
    from bisect import bisect_left
    rng = np.random.default_rng(size)
    span = 3 * size + 3
    base = 2 ** 63 - 1 - span if near_top else 0
    sorted_keys = base + np.sort(rng.integers(0, span, size))
    keys = base + np.arange(-1, span + 1)
    rng.shuffle(keys)
    pos, found = kgcore.find_sorted(sorted_keys, keys)
    listed = sorted_keys.tolist()
    want = [bisect_left(listed, k) for k in keys.tolist()]
    assert pos.tolist() == want
    assert found.tolist() == [i < size and listed[i] == k
                              for i, k in zip(want, keys.tolist())]
    assert found.dtype == bool and (found.any() == (size > 0))
    # a 2-D key array gives 2-D answers
    half = len(keys) // 2
    pos2, found2 = kgcore.find_sorted(sorted_keys, keys[:2 * half].reshape(half, 2))
    assert pos2.shape == found2.shape == (half, 2)
    assert np.array_equal(pos2.ravel(), pos[:2 * half])
    assert np.array_equal(found2.ravel(), found[:2 * half])


def _oracle_graph_cases(rng):
    """(triples, num_entities, num_relations, known) on random multigraphs
    with duplicate rows, self-loops, reverse twins and isolated entities."""
    for i in range(60):
        ne, nr = int(rng.integers(1, 25)), int(rng.integers(1, 5))
        used = int(rng.integers(1, ne + 1))         # ids >= used stay isolated
        m = int(rng.integers(0, 3 * used))
        tri = np.column_stack([rng.integers(used, size=m), rng.integers(nr, size=m),
                               rng.integers(used, size=m)])
        loops = rng.integers(used, size=3)
        tri = np.vstack([tri, np.column_stack([loops, rng.integers(nr, size=3), loops]),
                         tri[: m // 2, ::-1], tri[: m // 3]])
        tri = tri[rng.permutation(len(tri))]
        extra = np.column_stack([rng.integers(ne, size=10), rng.integers(nr, size=10),
                                 rng.integers(ne, size=10)])
        yield tri, ne, nr, (None if i % 2 else np.vstack([extra, tri]))
    yield np.empty((0, 3), np.int64), 5, 2, None
    yield np.empty((0, 3), np.int64), 5, 2, [(0, 1, 4), (0, 1, 4), (3, 0, 3)]


def test_graph_index_matches_oracle():
    rng = np.random.default_rng(21)
    seen = {"dup": 0, "loop": 0, "twin": 0, "isolated": 0}
    for tri, ne, nr, known in _oracle_graph_cases(rng):
        g = kgcore.IndexedGraph(tri, ne, nr, known_triples=known)
        arrays, out_edges, in_edges = graph_index_oracle(tri, ne, nr, known)
        for name, expect in arrays.items():
            got = getattr(g, name)
            assert got.dtype == expect.dtype, name
            assert np.array_equal(got, expect), name
        for e in range(ne):
            for got, expect in ((g.out_edges(e), out_edges[e]), (g.in_edges(e), in_edges[e])):
                assert all(np.array_equal(a, b) for a, b in zip(got, expect)), e
        rows = set(map(tuple, tri.tolist()))
        seen["dup"] += len(rows) < len(tri)
        seen["loop"] += any(h == t for h, _, t in rows)
        seen["twin"] += any((t, r, h) in rows for h, r, t in rows if h != t)
        seen["isolated"] += len(np.unique(tri[:, [0, 2]])) < ne
    assert all(seen.values()), seen


def test_edge_positions_match_run_scan_oracle():
    # graph edges find both entries; known held-out triples, a reverse
    # twin's absent side and an absent parallel relation find neither, on
    # graphs with self-loops, duplicate rows, isolated ids and no edges
    rng = np.random.default_rng(30)
    cases = list(_oracle_graph_cases(rng))
    # (0, 1) under relations 0 and 1 but not 2, a twin (1, 0, 0) of (0, 0, 1)
    # only, a loop under relation 2 and a known non-edge (0, 2, 1)
    cases.append((np.array([(0, 0, 1), (0, 1, 1), (1, 0, 0), (2, 2, 2), (3, 1, 2)]), 4, 3,
                  [(0, 2, 1), (3, 0, 3), (0, 0, 1)]))
    seen = {"edge": 0, "held_out": 0, "twin_absent": 0, "loop": 0, "edgeless": 0}
    for tri, ne, nr, known in cases:
        g = kgcore.IndexedGraph(tri, ne, nr, known_triples=known)
        corners = [(0, 0, 0), (ne - 1, nr - 1, ne - 1), (0, nr - 1, ne - 1), (ne - 1, 0, 0)]
        probes = np.vstack([g.triples, g.triples[:, ::-1], np.reshape(tri, (-1, 3)),
                            np.reshape(known if known is not None else [], (-1, 3)),
                            corners, rng.integers(0, [ne, nr, ne], size=(20, 3))])
        got = g.edge_positions(probes)
        assert got.dtype == np.int64 and got.shape == (len(probes), 2)
        assert np.array_equal(got, edge_positions_scan_oracle(g, probes))
        edges = set(map(tuple, g.triples.tolist()))
        is_edge = np.array([tuple(p) in edges for p in probes.tolist()], dtype=bool)
        assert np.array_equal(got >= 0, np.column_stack([is_edge, is_edge]))
        assert np.all(g.csr_keys[1:] > g.csr_keys[:-1])
        assert g.edge_positions(np.empty((0, 3), np.int64)).shape == (0, 2)
        seen["edge"] += bool(is_edge.any())
        seen["held_out"] += any(tuple(p) not in edges for p in np.reshape(
            known if known is not None else [], (-1, 3)).tolist())
        seen["twin_absent"] += any((t, r, h) not in edges for h, r, t in edges if h != t)
        seen["loop"] += any(h == t for h, _, t in edges)
        seen["edgeless"] += not edges
    assert all(seen.values()), seen
    # rows 0: out (1, 0) (1, 1), in (1, 0); 1: out (0, 0), in (0, 0) (0, 1);
    # 2: out (2, 2), in (2, 2) (3, 1); 3: out (2, 1)
    assert kgcore.IndexedGraph(*cases[-1][:3]).edge_positions(
        [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 0), (1, 1, 0), (2, 2, 2)]).tolist() == [
            [0, 4], [1, 5], [-1, -1], [3, 2], [-1, -1], [6, 7]]


@pytest.mark.parametrize("bad", [(2, 0, 1), (0, 0, 2), (-1, 0, 1), (0, 0, -1),
                                 (0, 2, 1), (0, -1, 1)])
def test_edge_positions_reject_ids_out_of_range(bad):
    # a bad row's keys may equal an edge's: (0, -1, 1)'s out-key is that of
    # (0, 1, 0), so no id out of range reaches the lookup
    g = kgcore.IndexedGraph([(0, 0, 1), (0, 1, 1), (1, 1, 0)], 2, 2)
    with pytest.raises(IdOutOfBounds):
        g.edge_positions([(0, 0, 1), bad])


def test_check_duplicates_matches_oracle():
    rng = np.random.default_rng(22)
    v = kgcore.build_vocab([(f"e{i}", f"r{i % 3}", f"e{(i + 1) % 12}") for i in range(12)])
    for tri, _, _, _ in _oracle_graph_cases(rng):
        tri = tri % [12, 3, 12]
        got = kgcore._check_duplicates("train", tri, v)
        if len(tri):
            assert np.array_equal(got, np.unique(tri, axis=0))
        else:
            assert got.shape == (0, 3)


def test_duplicate_warning_counts_dropped_rows(caplog):
    raw = [("c", "r", "a"), ("a", "r", "b"), ("b", "r", "c")]
    v = kgcore.build_vocab(raw)
    # one row given three times: 2 rows dropped, 1 distinct row duplicated
    rows = kgcore.encode_triples([raw[1]] * 3 + [raw[0], raw[2]], v)
    with caplog.at_level("WARNING", logger="indkg.kgcore"):
        uniq = kgcore._check_duplicates("train", rows, v)
    assert uniq.tolist() == [[0, 0, 1], [1, 0, 2], [2, 0, 0]]
    assert "train: dropped 2 duplicate triple(s)" in caplog.text


def test_load_triples_reports_first_malformed_line(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("a\tr\tb\n\n  \n c \t r\t d\textra\n"
                 "e\t \tf\n"
                 "g\tr\n")
    with pytest.raises(MalformedLine) as exc:
        kgcore.load_triples(p)
    assert exc.value.line_no == 5
    p.write_text("a\tr\tb\n\n  \n c \t r\t d\textra\ng\tr\n")
    with pytest.raises(MalformedLine) as exc:
        kgcore.load_triples(p)
    assert exc.value.line_no == 5
    p.write_text("a\tr\tb\r\n\n c \t r\t d\textra")
    assert kgcore.load_triples(p) == [("a", "r", "b"), ("c", "r", "d")]
    # blank, tab-only and CRLF lines after a byte-order mark count one line each
    p.write_bytes("\ufeffa\tr\tb\r\n\r\n\t\t\r\n  \nc\tr\td\r\ne\tr\r\nf\tr\tg\n".encode())
    for parse in (kgcore.load_triples, parse_triples_oracle):
        with pytest.raises(MalformedLine) as exc:
            parse(p)
        assert exc.value.line_no == 6
    # an unterminated last line is checked like any other, in either form
    for text in ("a\tr\tb\nc", "a\tr\tb\nc\td", "a\tr\tb\r\nc\t\td"):
        p.write_text(text)
        with pytest.raises(MalformedLine) as exc:
            kgcore.load_triples(p)
        assert exc.value.line_no == 2
    for text in ("a\tr\tb\n\t ", "a\tr\tb", "a\tr\tb\n\n"):
        p.write_text(text)
        assert kgcore.load_triples(p) == parse_triples_oracle(p) == [("a", "r", "b")]


_RAW_FILES = {"train": ("train", "train.txt"), "valid": ("train", "valid.txt"),
              "test": ("train", "test.txt"), "support": ("ind", "train.txt"),
              "query": ("ind", "test.txt"), "ind_valid": ("ind", "valid.txt")}


def test_parse_and_load_match_line_oracle(tmp_path, monkeypatch):
    """Files mixing the formatting the parse rules undo load as the
    line-by-line oracle reads them; a file with only CRLF endings, a BOM,
    padded fields or no final newline takes the one-pass form, any other
    noisy file the per-line form."""
    per_line_calls, one_pass_files, per_line_files = [], set(), set()
    fields_by_line = kgcore._fields_by_line

    def spy(path, lines):
        assert str(path) not in one_pass_files, f"{path} parsed line by line"
        per_line_calls.append(str(path))
        return fields_by_line(path, lines)
    monkeypatch.setattr(kgcore, "_fields_by_line", spy)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        root = make_raw_dataset_dir(tmp_path / f"raw{seed}", rng)
        support = parse_triples_oracle(root / "ind" / "train.txt")
        if seed % 2:    # a self-loop is never a support triple
            write_tsv(root / "ind" / "valid.txt", [(support[0][0], support[0][1], support[0][0])])
        for sub, name in _RAW_FILES.values():
            path = root / sub / name
            if not path.is_file():
                continue
            rows = parse_triples_oracle(path)
            noise = ONE_PASS_NOISE + PER_LINE_NOISE
            kinds = write_noisy_tsv(path, rows, rng,
                                    [k for k in noise if rng.random() < 0.25])
            (per_line_files if kinds & set(PER_LINE_NOISE) else one_pass_files).add(str(path))
            assert kgcore.load_triples(path) == parse_triples_oracle(path) == rows
        raw = {split: parse_triples_oracle(root.joinpath(*parts))
               if root.joinpath(*parts).is_file() else []
               for split, parts in _RAW_FILES.items()}
        e2i, r2i = build_vocab_loop_oracle(raw["train"], raw["valid"], raw["test"],
                                           raw["support"] + raw["ind_valid"], raw["query"])
        bundle = kgcore.load_raw_dataset(root)
        assert (bundle.vocab.entity2id, bundle.vocab.relation2id) == (e2i, r2i)
        assert (bundle.vocab.id2entity, bundle.vocab.id2relation) == (list(e2i), list(r2i))
        for split, triples in raw.items():
            ids = np.array([(e2i[h], r2i[r], e2i[t]) for h, r, t in triples], np.int64)
            expect = np.unique(ids.reshape(-1, 3), axis=0)
            assert np.array_equal(bundle.splits()[split], expect), (seed, split)
    assert set(per_line_calls) == per_line_files
    assert len(one_pass_files) > 20 and len(per_line_files) > 20


def test_byte_order_mark_is_not_part_of_a_label(tmp_path):
    plain = make_raw_dataset_dir(tmp_path / "plain", np.random.default_rng(11))
    bom = make_raw_dataset_dir(tmp_path / "bom", np.random.default_rng(11))
    for path in bom.glob("*/*.txt"):
        path.write_bytes("\ufeff".encode() + path.read_bytes())
    for root in (plain, bom):
        kgcore.persist_dataset(kgcore.load_raw_dataset(root), root / "dataset.ikgd")
    assert (bom / "dataset.ikgd").read_bytes() == (plain / "dataset.ikgd").read_bytes()


def test_no_training_triple_raises_empty_input():
    for splits in ([[]], [[], [("a", "r", "b")]]):
        with pytest.raises(EmptyInput):
            kgcore.build_vocab(*splits)


def test_encode_triples_reports_first_unknown_label_in_row_order():
    v = kgcore.build_vocab([("a", "r", "b")])
    cases = [([("a", "r", "b"), ("a", "s", "x"), ("y", "r", "b")], UnknownEntity, "x"),
             ([("a", "s", "b"), ("x", "r", "b")], UnknownRelation, "s"),
             ([("a", "r", "b"), ("a", "s", "b"), ("a", "r", "x")], UnknownRelation, "s")]
    for raw, err, label in cases:
        with pytest.raises(err) as exc:
            kgcore.encode_triples(raw, v)
        assert exc.value.label == label


def test_triple_key_overflow_raises_before_allocating(monkeypatch):
    import tracemalloc

    def no_csr(*args, **kwargs):
        raise AssertionError("adjacency built for an overflowing key space")
    monkeypatch.setattr(kgcore, "_build_csr", no_csr)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="int64"):
            kgcore.IndexedGraph([(0, 0, 1)], 2 ** 31, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="int64"):
        kgcore.triple_keys(np.zeros((1, 3), np.int64), 2 ** 31 + 1, 2)
    # E * E * R = 2 ** 63 still fits: the largest key is 2 ** 63 - 1
    ne, nr = 2 ** 31, 2
    assert kgcore.triple_keys([(ne - 1, nr - 1, ne - 1)], ne, nr).tolist() == [2 ** 63 - 1]


def test_cross_split_duplicate_reported():
    v = kgcore.build_vocab([("a", "r", "b"), ("b", "r", "c")], valid=[("a", "r", "c")])
    train = kgcore.encode_triples([("a", "r", "b"), ("b", "r", "c")], v)
    kgcore._check_cross_split(train, kgcore.encode_triples([("a", "r", "c")], v), "valid", v)
    with pytest.raises(DuplicateTriple, match=r"1 triple\(s\) of split 'test'.*\(1, 0, 2\)"):
        kgcore._check_cross_split(
            train, kgcore.encode_triples([("a", "r", "c"), ("b", "r", "c")], v), "test", v)


def _bundles_equal(a, b):
    assert a.vocab.entity2id == b.vocab.entity2id
    assert a.vocab.relation2id == b.vocab.relation2id
    for key in a.splits():
        assert np.array_equal(a.splits()[key], b.splits()[key])


def test_bundle_roundtrip_tiny(tmp_path):
    v = kgcore.build_vocab([("a", "r", "b")], support=[("x", "r", "y")],
                           query=[("x", "r", "y")])
    e = lambda raw: kgcore.encode_triples(raw, v)
    bundle = kgcore.DatasetBundle(v, e([("a", "r", "b")]), e([]), e([]),
                                  e([("x", "r", "y")]), e([("x", "r", "y")]), e([]))
    path = tmp_path / "dataset.ikgd"
    kgcore.persist_dataset(bundle, path)
    loaded = kgcore.load_dataset(path)
    _bundles_equal(bundle, loaded)


def test_bundle_roundtrip_non_ascii_labels(tmp_path):
    v = kgcore.build_vocab([("é", "主語", "日本語"), ("", "r", "é")],
                           support=[("ü\U0001d11e", "主語", "ß")],
                           query=[("ß", "r", "ü\U0001d11e")])
    e = lambda raw: kgcore.encode_triples(raw, v)
    bundle = kgcore.DatasetBundle(v, e([("é", "主語", "日本語"), ("", "r", "é")]),
                                  e([]), e([]), e([("ü\U0001d11e", "主語", "ß")]),
                                  e([("ß", "r", "ü\U0001d11e")]), e([]))
    path = tmp_path / "dataset.ikgd"
    kgcore.persist_dataset(bundle, path)
    loaded = kgcore.load_dataset(path)
    _bundles_equal(bundle, loaded)
    assert loaded.vocab.id2entity == bundle.vocab.id2entity
    assert loaded.vocab.id2relation == bundle.vocab.id2relation


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.ikgd"
    p.write_bytes(b"NOPE1" + b"\x00" * 10)
    with pytest.raises(BadMagic):
        kgcore.load_dataset(p)
    for former in (b"IKGD1", b"IKGD2"):        # the former varint layouts
        p.write_bytes(former + b"\x00" * 10)
        with pytest.raises(VersionMismatch):
            kgcore.load_dataset(p)


def test_truncated(tmp_path):
    rng = np.random.default_rng(2)
    root = make_raw_dataset_dir(tmp_path / "raw", rng)
    bundle = kgcore.load_raw_dataset(root)
    data = kgcore.serialize_dataset(bundle)
    with pytest.raises(TruncatedFile):
        kgcore.deserialize_dataset(data[: len(data) // 2])


def test_raw_dataset_roundtrip_byte_stable(tmp_path):
    rng = np.random.default_rng(3)
    root = make_raw_dataset_dir(tmp_path / "raw", rng, n_train_ents=60,
                                density=0.1)
    bundle = kgcore.load_raw_dataset(root)
    assert len(bundle.train) > 100
    data = kgcore.serialize_dataset(bundle)
    loaded = kgcore.deserialize_dataset(data)
    _bundles_equal(bundle, loaded)
    assert kgcore.serialize_dataset(loaded) == data


def test_entity_disjointness_enforced(tmp_path):
    rng = np.random.default_rng(4)
    root = make_raw_dataset_dir(tmp_path / "raw", rng)
    # contaminate the support file with a training entity
    with open(root / "ind" / "train.txt", "a", encoding="utf-8") as fh:
        fh.write("e0\tr0\tu1\n")
    with pytest.raises(EntityOverlap):
        kgcore.load_raw_dataset(root)


def test_entity_id_disjointness_holds(tmp_path):
    rng = np.random.default_rng(5)
    root = make_raw_dataset_dir(tmp_path / "raw", rng)
    bundle = kgcore.load_raw_dataset(root)
    train_ids = set(bundle.train[:, [0, 2]].ravel().tolist())
    ind_ids = set(np.vstack([bundle.support, bundle.query])[:, [0, 2]].ravel().tolist())
    assert not train_ids & ind_ids


def test_entity_disjointness_covers_ind_valid(tmp_path):
    rng = np.random.default_rng(6)
    root = make_raw_dataset_dir(tmp_path / "raw", rng)
    (u, r, _), = kgcore.load_triples(root / "ind" / "train.txt")[:1]
    (e, _, _), = kgcore.load_triples(root / "train" / "train.txt")[:1]
    write_tsv(root / "ind" / "valid.txt", [(u, r, u)])
    assert len(kgcore.load_raw_dataset(root).ind_valid) == 1
    # an inductive validation triple that names a training entity
    write_tsv(root / "ind" / "valid.txt", [(u, r, e)])
    with pytest.raises(EntityOverlap):
        kgcore.load_raw_dataset(root)


def _raw_labels(root, *parts):
    path = root.joinpath(*parts)
    return kgcore.load_triples(path) if path.is_file() else []


@pytest.mark.parametrize("split", [("ind", "train.txt"), ("ind", "valid.txt"),
                                   ("ind", "test.txt")])
def test_entity_overlap_labels_match_label_set_oracle(tmp_path, split):
    rng = np.random.default_rng(8)
    root = make_raw_dataset_dir(tmp_path / "raw", rng)
    train = kgcore.load_triples(root / "train" / "train.txt")
    (u, r, _), = kgcore.load_triples(root / "ind" / "train.txt")[:1]
    # two training entities, one of them twice, and one valid-only label
    (e, _, f), (g, _, _) = train[:2]
    rows = _raw_labels(root, *split) + [(u, r, e), (f, r, u), (e, r, g), (u, r, "vx")]
    write_tsv(root.joinpath(*split), rows)
    with open(root / "train" / "valid.txt", "a", encoding="utf-8") as fh:
        fh.write(f"{e}\t{r}\tvx\n")
    ind = [x for name in ("train.txt", "valid.txt", "test.txt")
           for h, _, t in _raw_labels(root, "ind", name) for x in (h, t)]
    oracle = {x for h, _, t in train for x in (h, t)} & set(ind)
    with pytest.raises(EntityOverlap) as err:
        kgcore.load_raw_dataset(root)
    assert err.value.labels == oracle and {e, f, g} <= oracle and "vx" not in oracle


def test_entity_shared_only_by_held_out_and_query_is_not_overlap(tmp_path):
    # "vx" is in valid, "tx" in test, and both in query, but neither in train
    rng = np.random.default_rng(9)
    root = make_raw_dataset_dir(tmp_path / "raw", rng)
    (e, r, _), = kgcore.load_triples(root / "train" / "train.txt")[:1]
    (u, _, _), = kgcore.load_triples(root / "ind" / "train.txt")[:1]
    for name, row in (("valid.txt", (e, r, "vx")), ("test.txt", ("tx", r, e))):
        write_tsv(root / "train" / name, _raw_labels(root, "train", name) + [row])
    write_tsv(root / "ind" / "test.txt",
              _raw_labels(root, "ind", "test.txt") + [(u, r, "vx"), ("tx", r, u)])
    bundle = kgcore.load_raw_dataset(root)
    e2i = bundle.vocab.entity2id
    assert min(e2i["vx"], e2i["tx"]) > bundle.train[:, [0, 2]].max()


def test_unknown_relation_comes_before_entity_overlap(tmp_path):
    rng = np.random.default_rng(10)
    root = make_raw_dataset_dir(tmp_path / "raw", rng)
    (e, r, _), = kgcore.load_triples(root / "train" / "train.txt")[:1]
    (u, _, _), = kgcore.load_triples(root / "ind" / "train.txt")[:1]
    support = _raw_labels(root, "ind", "train.txt")
    write_tsv(root / "ind" / "train.txt", support + [(u, r, e)])
    with pytest.raises(EntityOverlap):
        kgcore.load_raw_dataset(root)
    write_tsv(root / "ind" / "train.txt", support + [(u, r, e), (u, "unseen", u)])
    with pytest.raises(UnknownRelation):
        kgcore.load_raw_dataset(root)


def test_inductive_held_out_triple_in_support_rejected(tmp_path):
    rng = np.random.default_rng(7)
    root = make_raw_dataset_dir(tmp_path / "raw", rng)
    support = kgcore.load_triples(root / "ind" / "train.txt")
    query = kgcore.load_triples(root / "ind" / "test.txt")
    # a query fact that also sits in support would be observed while scored
    write_tsv(root / "ind" / "test.txt", query + support[:1])
    with pytest.raises(DuplicateTriple, match=r"1 triple\(s\) of split 'query'"):
        kgcore.load_raw_dataset(root)
    write_tsv(root / "ind" / "test.txt", query)
    write_tsv(root / "ind" / "valid.txt", support[1:3])
    with pytest.raises(DuplicateTriple, match=r"2 triple\(s\) of split 'ind_valid'"):
        kgcore.load_raw_dataset(root)
    write_tsv(root / "ind" / "valid.txt", [(support[0][0], support[0][1], support[0][0])])
    assert len(kgcore.load_raw_dataset(root).ind_valid) == 1


@pytest.mark.parametrize("block", ["train", "valid", "test", "support", "query", "ind_valid"])
def test_out_of_range_id_in_any_block_fails_at_load(tmp_path, block):
    # the check covers a block whose graph the loading stage never builds
    bundle = kgcore.load_raw_dataset(make_raw_dataset_dir(tmp_path / "raw",
                                                          np.random.default_rng(8)))
    ne, nr = bundle.vocab.num_entities, bundle.vocab.num_relations
    path = tmp_path / "dataset.ikgd"
    for bad in ((ne, 0, 0), (0, 0, ne), (-1, 0, 0), (0, nr, 0), (0, -1, 0)):
        setattr(bundle, block, np.array([bad], dtype=np.int64))
        kgcore.persist_dataset(bundle, path)
        with pytest.raises(IdOutOfBounds):
            kgcore.load_dataset(path)
        with pytest.raises(IdOutOfBounds):
            kgcore.DatasetBundle(bundle.vocab, **bundle.splits())


def test_bundle_builds_each_graph_once_on_first_use(tmp_path, monkeypatch):
    built = []
    build_csr = kgcore._build_csr

    def counting(triples, *args):
        built.append(len(triples))
        return build_csr(triples, *args)
    monkeypatch.setattr(kgcore, "_build_csr", counting)
    root = make_raw_dataset_dir(tmp_path / "raw", np.random.default_rng(9))
    kgcore.persist_dataset(kgcore.load_raw_dataset(root), tmp_path / "dataset.ikgd")
    assert built == []
    bundle = kgcore.load_dataset(tmp_path / "dataset.ikgd")
    assert built == []
    g = bundle.ind_graph
    assert bundle.ind_graph is g and built == [len(bundle.support)]
    assert bundle.train_graph.num_triples == len(bundle.train)
    assert built == [len(bundle.support), len(bundle.train)]
    given = kgcore.DatasetBundle(bundle.vocab, **bundle.splits(),
                                 train_graph=bundle.ind_graph)
    assert given.train_graph is g and len(built) == 2
