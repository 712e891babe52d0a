from dataclasses import fields

import numpy as np
import pytest

from indkg.errors import IdOutOfBounds
from indkg.kgcore import build_graph
from indkg import subgraph
from indkg.subgraph import Subgraph, bfs_distances, extract_enclosing_subgraph, \
    extract_enclosing_subgraphs, label_nodes

from helpers import enclosing_nodes_oracle, enclosing_subgraph_oracle, \
    masked_adjacency, matrix_power_distances, random_triples


def test_bfs_chain():
    g = build_graph([(0, 0, 1), (1, 0, 2)], 3, 1)
    assert bfs_distances(g, 0, 1) == {0: 0, 1: 1}
    assert bfs_distances(g, 0, 2) == {0: 0, 1: 1, 2: 2}


def test_bfs_isolated():
    g = build_graph([(0, 0, 1)], 3, 1)
    assert bfs_distances(g, 2, 3) == {2: 0}


def test_bfs_triangle_masked():
    g = build_graph([(0, 0, 1), (1, 0, 2), (2, 0, 0)], 3, 1)
    d = bfs_distances(g, 0, 2, masked_edge=(0, 0, 1))
    assert d == {0: 0, 2: 1, 1: 2}


def test_bfs_mask_only_that_relation():
    # parallel edge under a different relation keeps 0 and 1 adjacent
    g = build_graph([(0, 0, 1), (0, 1, 1)], 2, 2)
    d = bfs_distances(g, 0, 2, masked_edge=(0, 0, 1))
    assert d == {0: 0, 1: 1}


def test_bfs_bounds():
    g = build_graph([(0, 0, 1)], 2, 1)
    with pytest.raises(IdOutOfBounds):
        bfs_distances(g, 5, 1)


def test_bfs_matches_matrix_power_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(5, 30))
        triples = random_triples(rng, n, 3, 0.15)
        g = build_graph(triples, n, 3)
        src = int(rng.integers(n))
        k = int(rng.integers(1, 4))
        tgt = tuple(triples[rng.integers(len(triples))]) if len(triples) else None
        d = bfs_distances(g, src, k, masked_edge=tgt)
        A = masked_adjacency(g.triples, n, tgt if tgt else (-1, -1, -1))
        oracle = matrix_power_distances(A, src, k)
        expect = {i: int(oracle[i]) for i in range(n) if 0 <= oracle[i] <= k}
        assert d == expect


def test_extraction_pendant_excluded():
    # path h-a-t plus pendant a-x; x has d_h = d_t = 2, sum 4 > 3
    h, a, t, x = 0, 1, 2, 3
    g = build_graph([(h, 0, a), (a, 0, t), (a, 0, x), (h, 0, t)], 4, 1)
    sub = extract_enclosing_subgraph(g, (h, 0, t), 2)
    assert set(sub.nodes.tolist()) == {h, t, a}


def test_extraction_disconnected_pair():
    g = build_graph([(0, 0, 1)], 4, 1)
    sub = extract_enclosing_subgraph(g, (0, 0, 1), 2)
    assert sub.nodes.tolist() == [0, 1]
    assert len(sub.edges) == 0
    assert sub.dist_pairs[0].tolist() == [0, 3]  # d_t(h) = CAP = k + 1
    assert sub.dist_pairs[1].tolist() == [3, 0]


def test_extraction_oracle_random_graphs():
    rng = np.random.default_rng(1)
    for trial in range(50):
        n = int(rng.integers(6, 40))
        triples = random_triples(rng, n, 4, float(rng.uniform(0.1, 0.3)))
        if len(triples) == 0:
            continue
        g = build_graph(triples, n, 4)
        target = tuple(g.triples[rng.integers(g.num_triples)])
        for k in (1, 2, 3):
            sub = extract_enclosing_subgraph(g, target, k)
            expected = enclosing_nodes_oracle(g.triples, n, target, k)
            assert set(sub.nodes.tolist()) == expected, (trial, target, k)


def test_target_edge_never_in_edges():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(6, 25))
        triples = random_triples(rng, n, 3, 0.2)
        if len(triples) == 0:
            continue
        g = build_graph(triples, n, 3)
        target = tuple(g.triples[rng.integers(g.num_triples)])
        sub = extract_enclosing_subgraph(g, target, 2)
        h_loc, t_loc = sub.head_local, sub.tail_local
        for s, d, r in sub.edges.tolist():
            assert (s, d, r) != (h_loc, t_loc, target[1])


def test_stored_distances_exact_and_subgraph_distances_not_shorter():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(6, 30))
        triples = random_triples(rng, n, 3, 0.15)
        if len(triples) == 0:
            continue
        g = build_graph(triples, n, 3)
        target = tuple(g.triples[rng.integers(g.num_triples)])
        k = 2
        sub = extract_enclosing_subgraph(g, target, k)
        d_h = bfs_distances(g, target[0], k, masked_edge=target)
        d_t = bfs_distances(g, target[2], k, masked_edge=target)
        cap = k + 1
        # stored distances are exact in the full masked graph
        for li, gid in enumerate(sub.nodes.tolist()):
            assert sub.dist_pairs[li, 0] == min(d_h.get(gid, cap), cap)
            assert sub.dist_pairs[li, 1] == min(d_t.get(gid, cap), cap)
        # distances inside the extracted subgraph can only grow
        if len(sub.edges):
            sub_graph = build_graph(sub.edges[:, [0, 2, 1]], sub.num_nodes, 3)
            inner = bfs_distances(sub_graph, sub.head_local, k)
            for li in range(sub.num_nodes):
                if li in inner and sub.dist_pairs[li, 0] <= k:
                    assert inner[li] >= sub.dist_pairs[li, 0]


def test_max_nodes_cap_deterministic():
    rng = np.random.default_rng(4)
    triples = random_triples(rng, 25, 3, 0.25)
    g = build_graph(triples, 25, 3)
    target = tuple(g.triples[0])
    full = extract_enclosing_subgraph(g, target, 3)
    if full.num_nodes <= 5:
        pytest.skip("fixture too small")
    capped = extract_enclosing_subgraph(g, target, 3, max_nodes=5)
    capped2 = extract_enclosing_subgraph(g, target, 3, max_nodes=5)
    assert capped.num_nodes == 5
    assert capped == capped2
    # kept interior nodes are the best by (d_h + d_t, id)
    sums = {int(g_): int(dh + dt) for g_, (dh, dt)
            in zip(full.nodes[2:].tolist(), full.dist_pairs[2:].tolist())}
    kept = capped.nodes[2:].tolist()
    ranked = sorted(sums, key=lambda i: (sums[i], i))
    assert kept == sorted(ranked[:3])


def _assert_extraction_matches_oracle(triples, n, n_rel, target, k, max_nodes=None):
    g = build_graph(triples, n, n_rel)
    sub = extract_enclosing_subgraph(g, target, k, max_nodes=max_nodes)
    nodes, dist_pairs, edges, union_size = enclosing_subgraph_oracle(
        triples, n, target, k, max_nodes)
    assert sub.nodes.tolist() == nodes
    assert sub.dist_pairs.tolist() == dist_pairs
    assert sub.edges.tolist() == edges
    assert sub.union_size == union_size
    assert sub.nodes.dtype == sub.dist_pairs.dtype == sub.edges.dtype == np.int64
    assert sub.edges.shape == (len(edges), 3)
    return sub


def test_extraction_full_oracle_random_graphs():
    rng = np.random.default_rng(12)
    for trial in range(40):
        n = int(rng.integers(4, 30))
        triples = random_triples(rng, n, 3, float(rng.uniform(0.05, 0.3)))
        ents = rng.integers(n, size=3)
        extra = [(int(e), int(rng.integers(3)), int(e)) for e in ents]      # self-loops
        if len(triples):
            h, r, t = triples[rng.integers(len(triples))].tolist()
            extra += [(t, r, h), (h, (r + 1) % 3, t)]   # reverse twin, parallel edge
        triples = np.vstack([triples.reshape(-1, 3), np.asarray(extra, dtype=np.int64)])
        g = build_graph(triples, n, 3)
        targets = [tuple(x) for x in g.triples[rng.choice(g.num_triples, 3)].tolist()]
        targets.append((int(rng.integers(n)), int(rng.integers(3)), int(rng.integers(n))))
        for target in targets:
            for k in (1, 2, 3):
                for max_nodes in (None, int(rng.integers(1, 8))):
                    _assert_extraction_matches_oracle(triples, n, 3, target, k, max_nodes)


def test_extraction_self_loop_target():
    # the masked loop (0, 0, 0) goes; the loop under relation 1 stays
    triples = [(0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 2), (2, 1, 0), (3, 0, 4)]
    sub = _assert_extraction_matches_oracle(triples, 5, 2, (0, 0, 0), 2)
    assert sub.nodes.tolist() == [0, 1, 2]
    assert sub.head_local == sub.tail_local == 0
    assert sub.dist_pairs.tolist() == [[0, 0], [1, 1], [1, 1]]
    assert [0, 0, 1] in sub.edges.tolist() and [0, 0, 0] not in sub.edges.tolist()


def test_extraction_reverse_twin_keeps_pair_adjacent():
    triples = [(0, 0, 1), (1, 0, 0), (1, 1, 2)]
    sub = _assert_extraction_matches_oracle(triples, 3, 2, (0, 0, 1), 2)
    assert sub.dist_pairs.tolist() == [[0, 1], [1, 0], [2, 1]]
    assert sub.edges.tolist() == [[1, 0, 0], [1, 2, 1]]


def test_extraction_parallel_edges_under_two_relations():
    triples = [(0, 0, 1), (0, 1, 1), (1, 0, 2)]
    sub = _assert_extraction_matches_oracle(triples, 3, 2, (0, 0, 1), 1)
    assert sub.nodes.tolist() == [0, 1]
    assert sub.dist_pairs.tolist() == [[0, 1], [1, 0]]
    assert sub.edges.tolist() == [[0, 1, 1]]


def test_extraction_cap_breaks_sum_ties_by_id():
    # interior 9, 4, 7 and 5 all have d_h + d_t = 2; 6 and 8 have 3
    h, t = 0, 1
    triples = [(h, 0, t)]
    for i in (9, 4, 7, 5):
        triples += [(h, 0, i), (i, 1, t)]
    triples += [(h, 0, 6), (6, 0, 8), (8, 0, t)]
    full = _assert_extraction_matches_oracle(triples, 10, 2, (h, 0, t), 2)
    assert full.nodes.tolist() == [0, 1, 4, 5, 6, 7, 8, 9]
    capped = _assert_extraction_matches_oracle(triples, 10, 2, (h, 0, t), 2, max_nodes=4)
    assert capped.nodes.tolist() == [0, 1, 4, 5]
    capped = _assert_extraction_matches_oracle(triples, 10, 2, (h, 0, t), 2, max_nodes=7)
    assert capped.nodes.tolist() == [0, 1, 4, 5, 6, 7, 9]


def test_label_shapes_and_anchors():
    g = build_graph([(0, 0, 1), (1, 0, 2), (2, 0, 3), (0, 0, 3)], 4, 1)
    sub = extract_enclosing_subgraph(g, (0, 0, 3), 2)
    labels = label_nodes(sub)
    width = 2 * (sub.k + 2)
    assert labels.shape == (sub.num_nodes, width)
    assert np.all(labels.sum(axis=1) == 2.0)
    assert labels[sub.head_local, 0] == 1.0
    assert labels[sub.tail_local, width // 2] == 1.0


def test_label_head_example():
    # k = 2, head node with d_t = 1 -> [1,0,0,0, 0,1,0,0]
    g = build_graph([(0, 0, 1)], 2, 1)
    sub = extract_enclosing_subgraph(g, (0, 1 - 1, 1), 2)
    sub.dist_pairs[0] = (0, 1)
    labels = label_nodes(sub)
    assert labels[0].tolist() == [1, 0, 0, 0, 0, 1, 0, 0]


def test_label_unreachable_clamp():
    g = build_graph([(0, 0, 1)], 2, 1)
    sub = extract_enclosing_subgraph(g, (0, 0, 1), 2)
    labels = label_nodes(sub)
    # head disconnected from tail: (0, CAP) -> [1,0,0,0, 0,0,0,1]
    assert labels[0].tolist() == [1, 0, 0, 0, 0, 0, 0, 1]


def _batch_fixture(rng):
    """A random graph with reverse twins, self-loops, parallel edges and
    entities with no edge, and a batch of rows: graph edges, known triples
    outside the adjacency, self-loop targets, rows sharing an endpoint and
    duplicates."""
    n, n_rel = int(rng.integers(4, 30)), 3
    used = int(rng.integers(2, n + 1))              # entities >= used have no edge
    triples = random_triples(rng, used, n_rel, float(rng.uniform(0.05, 0.3)))
    extra = [(int(e), int(rng.integers(n_rel)), int(e)) for e in rng.integers(used, size=2)]
    if len(triples):
        h, r, t = triples[rng.integers(len(triples))].tolist()
        extra += [(t, r, h), (h, (r + 1) % n_rel, t)]
    triples = np.vstack([triples.reshape(-1, 3), np.asarray(extra, dtype=np.int64)])
    held_out = rng.integers(0, [n, n_rel, n], size=(3, 3))
    g = build_graph(triples, n, n_rel, known_triples=np.vstack([triples, held_out]))
    rows = [tuple(x) for x in g.triples[rng.choice(g.num_triples, 4)].tolist()]
    rows += [tuple(x) for x in held_out.tolist()]
    anchor = int(rng.integers(n))
    rows += [(anchor, int(rng.integers(n_rel)), int(rng.integers(n))) for _ in range(4)]
    rows += [(int(rng.integers(n)), 0, anchor), (anchor, 1, anchor), (n - 1, 0, 0)]
    rows += rows[:2]
    order = rng.permutation(len(rows))
    return triples, n, n_rel, g, [rows[i] for i in order]


def _assert_same_subgraph(got, want):
    assert got == want
    for field in ("nodes", "dist_pairs", "edges"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype == np.int64 and a.shape == b.shape
    assert all(type(x) is int for x in got.target)
    assert type(got.union_size) is int


def test_batched_extraction_matches_one_row_and_oracle():
    rng = np.random.default_rng(18)
    for trial in range(12):
        triples, n, n_rel, g, rows = _batch_fixture(rng)
        for k in (1, 2, 3):
            for max_nodes in (0, 2, 3, 5):
                subs = extract_enclosing_subgraphs(g, rows, k, max_nodes=max_nodes)
                assert len(subs) == len(rows)
                for row, sub in zip(rows, subs):
                    _assert_same_subgraph(
                        sub, extract_enclosing_subgraph(g, row, k, max_nodes=max_nodes))
                    nodes, dist_pairs, edges, union_size = enclosing_subgraph_oracle(
                        triples, n, row, k, max_nodes or None)
                    assert sub.target == row
                    assert sub.nodes.tolist() == nodes, (trial, row, k, max_nodes)
                    assert sub.dist_pairs.tolist() == dist_pairs
                    assert sub.edges.tolist() == edges
                    assert sub.union_size == union_size


def test_batched_extraction_independent_of_chunking(monkeypatch):
    rng = np.random.default_rng(19)
    cases = []
    for _ in range(6):
        _, _, _, g, rows = _batch_fixture(rng)
        cases += [(g, rows, k, m) for k in (1, 3) for m in (0, 3)]
    whole = [extract_enclosing_subgraphs(g, rows, k, max_nodes=m) for g, rows, k, m in cases]
    monkeypatch.setattr(subgraph, "_CHUNK_SOURCES", 1)    # one row per chunk
    for (g, rows, k, m), want in zip(cases, whole):
        got = extract_enclosing_subgraphs(g, rows, k, max_nodes=m)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same_subgraph(a, b)


def test_batched_extraction_empty_and_invalid():
    g = build_graph([(0, 0, 1), (1, 0, 2)], 3, 1)
    assert extract_enclosing_subgraphs(g, [], 2) == []
    assert extract_enclosing_subgraphs(g, np.empty((0, 3), dtype=np.int64), 2) == []
    with pytest.raises(IdOutOfBounds):
        extract_enclosing_subgraphs(g, [(0, 0, 1), (1, 0, 3), (0, 0, 2)], 2)
    with pytest.raises(IdOutOfBounds):
        extract_enclosing_subgraphs(g, [(-1, 0, 1)], 2)
    with pytest.raises(ValueError):
        extract_enclosing_subgraphs(g, [(0, 0, 1)], 0)


def test_batched_extraction_deep_k_matches_oracle():
    # a 150-node path with a chord: near its end, d_h + d_t of the pair
    # (0, 1) passes the int8 range while both distances stay within k
    n = 150
    triples = [(i, 0, i + 1) for i in range(n - 1)] + [(0, 1, 80), (85, 0, 85)]
    g = build_graph(triples, n, 2)
    rows = [(0, 0, 1), (0, 1, 1), (0, 1, 80), (0, 0, 75), (10, 0, 89), (85, 0, 85),
            (3, 1, 3)]
    k = 70
    for max_nodes in (0, 5):
        for row, sub in zip(rows, extract_enclosing_subgraphs(g, rows, k, max_nodes)):
            nodes, dist_pairs, edges, union_size = enclosing_subgraph_oracle(
                triples, n, row, k, max_nodes or None)
            assert sub.nodes.tolist() == nodes, row
            assert sub.dist_pairs.tolist() == dist_pairs
            assert sub.edges.tolist() == edges
            assert sub.union_size == union_size
    # without (0, 0, 1), node 11 is 70 hops away through the chord
    oracle = matrix_power_distances(masked_adjacency(g.triples, n, (0, 0, 1)), 0, k)
    expect = {i: int(d) for i, d in enumerate(oracle) if 0 <= d <= k}
    assert bfs_distances(g, 0, k, masked_edge=(0, 0, 1)) == expect
    assert expect[11] == 70 and 10 not in expect


def _assert_rows_match_oracle(triples, n, g, rows, k):
    for row, sub in zip(rows, extract_enclosing_subgraphs(g, rows, k)):
        nodes, dist_pairs, edges, union_size = enclosing_subgraph_oracle(triples, n, row, k)
        assert sub.target == row
        assert sub.nodes.tolist() == nodes, (row, k)
        assert sub.dist_pairs.tolist() == dist_pairs
        assert sub.edges.tolist() == edges
        assert sub.union_size == union_size


def _assert_bfs_matches_oracle(g, n, source, k, masked_edge=None):
    A = masked_adjacency(g.triples, n, masked_edge or (-1, -1, -1))
    oracle = matrix_power_distances(A, source, k)
    expect = {i: int(d) for i, d in enumerate(oracle) if 0 <= d <= k}
    assert bfs_distances(g, source, k, masked_edge=masked_edge) == expect


# share 0 pulls every level and share inf pushes every level: a pushed
# frontier keeps one copy per reaching entry, so its entry count can exceed
# the graph's
DIRECTIONS = [pytest.param(0.0, id="all-pull"), pytest.param(float("inf"), id="all-push")]


@pytest.mark.parametrize("share", DIRECTIONS)
def test_bfs_each_direction_matches_oracles(monkeypatch, share):
    # masked edge rows, reverse twins, parallel relations, self-loops and
    # sources without edges, k from 1 to 4
    monkeypatch.setattr(subgraph, "_PUSH_SHARE", share)
    rng = np.random.default_rng(28)
    for _ in range(5):
        triples, n, n_rel, g, rows = _batch_fixture(rng)
        for k in (1, 2, 3, 4):
            _assert_rows_match_oracle(triples, n, g, rows, k)
        for source in range(n):
            for k in (1, 4):
                _assert_bfs_matches_oracle(g, n, source, k)
        for row in g.triples[:3].tolist():
            _assert_bfs_matches_oracle(g, n, row[0], 3, masked_edge=tuple(row))


@pytest.mark.parametrize("share", DIRECTIONS + [pytest.param(subgraph._PUSH_SHARE, id="mixed")])
@pytest.mark.parametrize("n_src", [64, 65])
def test_chunks_at_the_word_boundary_match_oracles(monkeypatch, share, n_src):
    # 64 sources fill a word, bit 63 included; one more opens a second chunk.
    # Graph-edge rows take two sources of their own; rows under relation 3,
    # which no edge has, share their endpoints
    monkeypatch.setattr(subgraph, "_PUSH_SHARE", share)
    rng = np.random.default_rng(n_src)
    n = 90
    triples = np.vstack([random_triples(rng, n, 3, 0.03), [(5, 0, 5), (7, 1, 6), (6, 1, 7)]])
    g = build_graph(triples, n, 4)
    ends = rng.permutation(n)
    shared = [(int(ends[2 * i]), 3, int(ends[2 * i + 1])) for i in range(32)]
    edge_rows = [tuple(row) for row in g.triples.tolist() if row[0] != row[2]][:32]
    cases = [(shared, [64]), (edge_rows, [64])]
    if n_src == 65:
        cases = [(shared + [(int(ends[0]), 3, int(ends[64]))], [64, 2]),
                 (edge_rows[:31] + [(int(ends[3]), 3, int(ends[70]))] + edge_rows[31:32], [64, 2])]
    calls = []
    bfs = subgraph._bfs
    monkeypatch.setattr(subgraph, "_bfs",
                        lambda *args: calls.append(len(args[1])) or bfs(*args))
    for rows, chunk_sources in cases:
        calls.clear()
        _assert_rows_match_oracle(triples, n, g, rows, 3)
        assert calls == chunk_sources


@pytest.mark.parametrize("share", DIRECTIONS + [pytest.param(subgraph._PUSH_SHARE, id="mixed")])
def test_inductive_graph_shape_matches_oracles(monkeypatch, share):
    # an inductive graph over the full vocabulary: 120 of its 1,500
    # entities have edges, and candidate endpoints come from all of them
    monkeypatch.setattr(subgraph, "_PUSH_SHARE", share)
    rng = np.random.default_rng(1500)
    n, lo = 1500, 1100
    triples = random_triples(rng, 120, 3, 0.03) + [lo, 0, lo]
    g = build_graph(triples, n, 3)
    head = int(triples[0, 0])
    rows = [(head, 1, int(e)) for e in rng.choice(n, 11, replace=False)]
    rows += [tuple(row) for row in g.triples[:4].tolist()]
    rows += [(int(rng.integers(lo)), 2, int(rng.integers(lo))), (3, 0, 3)]
    for k in (1, 3):
        _assert_rows_match_oracle(triples, n, g, rows, k)
    for source in (0, head, lo + 119, n - 1):
        _assert_bfs_matches_oracle(g, n, source, 4)
    _assert_bfs_matches_oracle(g, n, head, 3, masked_edge=tuple(g.triples[0].tolist()))


SUBGRAPH_FIELDS = dict(target=(0, 0, 1), nodes=np.array([0, 1, 2]),
                       dist_pairs=np.array([[0, 1], [1, 0], [1, 1]]),
                       edges=np.array([[0, 2, 0], [2, 1, 0]]), k=2, union_size=3)
CHANGED_FIELDS = dict(target=(0, 1, 1), nodes=np.array([0, 1, 3]),
                      dist_pairs=np.array([[0, 1], [1, 0], [1, 2]]),
                      edges=np.array([[0, 2, 0]]), k=3, union_size=4)


def test_changed_fields_cover_every_subgraph_field():
    assert list(CHANGED_FIELDS) == [f.name for f in fields(Subgraph)]


@pytest.mark.parametrize("name", list(CHANGED_FIELDS))
def test_subgraphs_differing_in_one_field_compare_unequal(name):
    sub = Subgraph(**SUBGRAPH_FIELDS)
    assert sub == Subgraph(**{key: np.copy(v) for key, v in SUBGRAPH_FIELDS.items()})
    assert sub != Subgraph(**{**SUBGRAPH_FIELDS, name: CHANGED_FIELDS[name]})
