import itertools

import numpy as np
import pytest
from scipy.stats import chisquare

from indkg.errors import EmptyInput, ExhaustedRetries
from indkg.kgcore import IndexedGraph
from indkg.sampling import (
    RETRY_CAP,
    _corruption_pool,
    corrupt_triple,
    make_classification_batch,
    make_ranking_batch,
    make_ranking_candidates,
    make_train_batch,
    sample_meta_task,
)
from indkg import sampling
from indkg.evaluate import compute_rank, run_link_prediction_triples

from helpers import (
    corrupt_triple_oracle,
    corruptions_after_positives_oracle,
    corruption_pool_oracle,
    corruption_pool_scan_oracle,
    grow_region_loop_oracle,
    masked_adjacency,
    matrix_power_distances,
    random_triples,
    ranking_candidates_oracle,
)


def test_corrupt_only_option():
    # over entities {0, 1}, (0, 0, 1) has one head and one tail corruption
    g = IndexedGraph([(0, 0, 1)], 2, 1)
    drawn = {corrupt_triple((0, 0, 1), g, np.random.default_rng(s))
             for s in range(50)}
    assert drawn == {(1, 0, 1), (0, 0, 0)}
    # entity 0 as the head is the input itself, so only the tail side is left
    for s in range(20):
        assert corrupt_triple((0, 0, 1), g, np.random.default_rng(s),
                              entities=[0]) == (0, 0, 0)


def test_corrupt_exhausted():
    g = IndexedGraph([(0, 0, 0)], 1, 1)
    rng = np.random.default_rng(0)
    with pytest.raises(ExhaustedRetries):
        corrupt_triple((0, 0, 0), g, rng)
    with pytest.raises(EmptyInput):
        corrupt_triple((0, 0, 0), g, rng, entities=np.empty(0, np.int64))


def test_corrupt_uniform_chi_square():
    n = 100
    g = IndexedGraph([(0, 0, 1)], n, 1)
    rng = np.random.default_rng(1)
    counts = {"head": np.zeros(n), "tail": np.zeros(n)}
    for _ in range(10_000):
        h, _, t = corrupt_triple((0, 0, 1), g, rng)
        assert (h == 0) != (t == 1)         # exactly one side corrupted
        if h != 0:
            counts["head"][h] += 1
        else:
            counts["tail"][t] += 1
    # a draw equal to the input is redrawn: the 99 heads other than 0 and
    # the 99 tails other than 1 are equally likely
    assert counts["head"][0] == 0 and counts["tail"][1] == 0
    cells = np.concatenate([np.delete(counts["head"], 0),
                            np.delete(counts["tail"], 1)])
    _, p = chisquare(cells)
    assert p > 0.001


def test_corrupt_filtered_avoids_known():
    triples = [(0, 0, t) for t in range(1, 50)]
    g = IndexedGraph(triples, 60, 1)
    rng = np.random.default_rng(2)
    sides = set()
    for _ in range(200):
        cand = corrupt_triple((0, 0, 1), g, rng, filtered=True)
        assert not g.contains(*cand)
        sides.add("head" if cand[0] != 0 else "tail")
    assert sides == {"head", "tail"}


def test_corrupt_triple_matches_oracle():
    # pins the draw stream: side, then entity, rejection in the same order
    rng = np.random.default_rng(31)
    seen = {"exhausted": 0, "entities": 0, "unfiltered": 0}
    for trial in range(60):
        n, nr = int(rng.integers(1, 25)), int(rng.integers(1, 4))
        triples = random_triples(rng, n, nr, float(rng.uniform(0.05, 0.9)))
        known = np.vstack([triples, random_triples(rng, n, nr, 0.1)]).reshape(-1, 3)
        if len(triples) == 0:
            continue
        g = IndexedGraph(triples, n, nr, known_triples=known)
        known_set = set(map(tuple, known.tolist()))
        ents = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        triple = tuple(triples[int(rng.integers(len(triples)))].tolist())
        for filtered in (True, False):
            for entities in (None, ents):
                seed = (trial, filtered, entities is None)
                got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
                for _ in range(4):
                    want = corrupt_triple_oracle(known_set, n, triple, want_rng,
                                                 filtered, entities, RETRY_CAP)
                    try:
                        got = corrupt_triple(triple, g, got_rng, filtered, entities)
                    except ExhaustedRetries:
                        got = None
                    assert got == want
                    assert got is None or all(type(x) is int for x in got)
                    seen["exhausted"] += got is None
                    seen["entities"] += entities is not None
                    seen["unfiltered"] += not filtered
    assert all(seen.values()), seen


def test_train_instance():
    rng = np.random.default_rng(3)
    triples = random_triples(rng, 20, 3, 0.15)
    g = IndexedGraph(triples, 20, 3)
    pos, neg = make_train_batch(g, [g.triples[0]], 2, 1, [np.random.default_rng(7)])
    assert pos.sub.target == tuple(g.triples[0])
    assert neg.sub.target != pos.sub.target


def test_train_instance_deterministic():
    rng = np.random.default_rng(4)
    triples = random_triples(rng, 20, 3, 0.15)
    g = IndexedGraph(triples, 20, 3)
    a = make_train_batch(g, [g.triples[1]], 2, 2, [np.random.default_rng(7)])
    b = make_train_batch(g, [g.triples[1]], 2, 2, [np.random.default_rng(7)])
    assert len(a) == 3
    for x, y in zip(a, b):
        assert x.sub == y.sub
        assert np.array_equal(x.labels, y.labels)


def test_train_batch_matches_one_positive_at_a_time():
    # [pos0, negs0..., pos1, negs1...]: each positive's negatives come from
    # its own stream, whatever else the batch holds
    rng = np.random.default_rng(6)
    triples = random_triples(rng, 25, 3, 0.2)
    g = IndexedGraph(triples, 25, 3)
    positives = g.triples[:5]
    for num_neg in (1, 3):
        batch = make_train_batch(g, positives, 2, num_neg,
                                 [np.random.default_rng((7, i)) for i in range(5)])
        alone = [it for i, p in enumerate(positives)
                 for it in make_train_batch(g, [p], 2, num_neg,
                                            [np.random.default_rng((7, i))])]
        assert len(batch) == 5 * (1 + num_neg)
        assert [it.sub.target for it in batch[::1 + num_neg]] == \
            [tuple(p) for p in positives.tolist()]
        for x, y in zip(batch, alone, strict=True):
            assert x.sub == y.sub and x.rel == y.rel
            assert np.array_equal(x.labels, y.labels)
    assert make_train_batch(g, [], 2, 1, []) == []
    with pytest.raises(ValueError):          # one stream per positive
        make_train_batch(g, positives, 2, 1, [np.random.default_rng(7)])


def test_classification_batch_layout():
    rng = np.random.default_rng(5)
    triples = random_triples(rng, 15, 2, 0.2)
    g = IndexedGraph(triples, 15, 2)
    batch = make_classification_batch(g, g.triples[:2], 2,
                                      np.random.default_rng(0))
    assert len(batch.items) == 4
    assert batch.labels01.tolist() == [1, 1, 0, 0]


def test_classification_batch_empty():
    g = IndexedGraph([(0, 0, 1)], 2, 1)
    with pytest.raises(EmptyInput):
        make_classification_batch(g, [], 2, np.random.default_rng(0))


def test_classification_batch_deterministic():
    rng = np.random.default_rng(6)
    triples = random_triples(rng, 15, 2, 0.2)
    g = IndexedGraph(triples, 15, 2)
    a = make_classification_batch(g, g.triples[:5], 2, np.random.default_rng(3))
    b = make_classification_batch(g, g.triples[:5], 2, np.random.default_rng(3))
    for x, y in zip(a.items, b.items):
        assert x.sub == y.sub


def test_ranking_batch_default_size():
    rng = np.random.default_rng(7)
    triples = random_triples(rng, 80, 2, 0.05)
    g = IndexedGraph(triples, 80, 2)
    batch = make_ranking_batch(g, tuple(g.triples[0]), 2, "tail", 50,
                               np.random.default_rng(0))
    assert len(batch.candidates) == 51
    truth = batch.candidates[batch.truth_idx]
    assert truth.sub.target == tuple(g.triples[0])
    # filtered negatives never collide with known triples
    for i, c in enumerate(batch.candidates):
        if i != batch.truth_idx:
            assert not g.contains(*c.sub.target)


def test_ranking_batch_tiny_graph():
    g = IndexedGraph([(0, 0, 1)], 2, 1)
    batch = make_ranking_batch(g, (0, 0, 1), 2, "tail", 1,
                               np.random.default_rng(0))
    assert len(batch.candidates) == 2


def test_ranking_truth_recoverable():
    rng = np.random.default_rng(8)
    triples = random_triples(rng, 30, 2, 0.1)
    g = IndexedGraph(triples, 30, 2)
    truth = tuple(g.triples[0])
    batch = make_ranking_batch(g, truth, 2, "head", 10, np.random.default_rng(1))
    scores = [1.0 if c.sub.target == truth else 0.0 for c in batch.candidates]
    assert compute_rank(scores, batch.truth_idx) == 1.0


def test_ranking_batch_matches_candidates():
    rng = np.random.default_rng(12)
    triples = random_triples(rng, 30, 2, 0.1)
    g = IndexedGraph(triples, 30, 2)
    for i, triple in enumerate(g.triples[:4].tolist()):
        for direction in ("head", "tail"):
            for num_neg in (3, 50):
                want, truth_idx = make_ranking_candidates(
                    g, triple, direction, num_neg, np.random.default_rng((i, num_neg)))
                batch = make_ranking_batch(g, triple, 2, direction, num_neg,
                                           np.random.default_rng((i, num_neg)))
                assert batch.truth_idx == truth_idx
                assert [c.sub.target for c in batch.candidates] == want


def test_ranking_mean_rank_random_scorer():
    g = IndexedGraph([(0, 0, 1)], 60, 1)
    rng = np.random.default_rng(9)
    ranks = []
    for i in range(2000):
        cands, truth_idx = make_ranking_candidates(g, (0, 0, 1), "tail", 50,
                                                   np.random.default_rng((5, i)))
        scores = rng.normal(size=len(cands))
        ranks.append(compute_rank(scores, truth_idx))
    assert abs(np.mean(ranks) - 26.0) < 0.5


def test_ranking_candidates_match_per_entity_loop():
    rng = np.random.default_rng(13)
    for trial in range(12):
        n = int(rng.integers(3, 70))
        triples = random_triples(rng, n, 3, float(rng.uniform(0.02, 0.3)))
        known = np.vstack([triples, random_triples(rng, n, 3, 0.05)])
        if len(triples) == 0:
            continue
        g = IndexedGraph(triples, n, 3, known_triples=known)
        known_set = set(map(tuple, known.tolist()))
        targets = [tuple(x) for x in triples[rng.choice(len(triples), 3)].tolist()]
        targets.append((int(rng.integers(n)), int(rng.integers(3)), int(rng.integers(n))))
        for i, triple in enumerate(targets):
            for direction in ("head", "tail"):
                pool = _corruption_pool(g, triple, direction)
                assert pool.dtype == np.int64
                side = 0 if direction == "head" else 2
                assert pool.tolist() == [c[side] for c in corruption_pool_oracle(
                    known_set, n, triple, direction)]
                for num_neg in (1, 5, 50):
                    seed = (trial, i, num_neg)
                    got = make_ranking_candidates(g, triple, direction, num_neg,
                                                  np.random.default_rng(seed))
                    want = ranking_candidates_oracle(known_set, n, triple, direction,
                                                     num_neg, np.random.default_rng(seed))
                    assert got == want
                    assert all(type(x) is int for c in got[0] for x in c)


def test_corruption_pool_at_key_range_edges():
    # entities 0..4, relations 0..2; the known set outgrows the adjacency
    ne, nr = 5, 3
    adjacency = [(0, 0, 0), (0, 0, 4), (4, 2, 4), (1, 0, 2)]
    known = adjacency + [(4, 2, e) for e in range(ne)] + [(2, 0, 0), (3, 0, 0),
                                                          (3, 1, 0), (1, 2, 3)]
    g = IndexedGraph(adjacency, ne, nr, known_triples=known)
    known_set = set(known)

    def pool(triple, direction):
        return _corruption_pool(g, triple, direction).tolist()

    # every side of every triple whose ids reach one past each end of the graph
    ids = range(-2, ne + 2)
    for i, triple in enumerate(itertools.product(ids, range(-1, nr + 1), ids)):
        for direction, side in (("head", 0), ("tail", 2)):
            want = corruption_pool_oracle(known_set, ne, triple, direction)
            assert pool(triple, direction) == [c[side] for c in want]
            got = make_ranking_candidates(g, triple, direction, 3,
                                          np.random.default_rng(i))
            assert got == ranking_candidates_oracle(
                known_set, ne, triple, direction, 3, np.random.default_rng(i))
    # entity 0 and E-1, relation 0 and R-1 at the ends of the key space
    assert pool((0, 0, 0), "tail") == [1, 2, 3]
    assert pool((0, 0, 0), "head") == [1, 4]
    assert pool((4, 2, 4), "head") == [0, 1, 2, 3]
    assert pool((4, 2, 1), "tail") == []                   # every tail known
    assert pool((2, 1, 3), "tail") == [0, 1, 2, 4]         # no known (2, 1, .)
    assert pool((1, 1, 1), "head") == [0, 2, 3, 4]         # no known (., 1, 1)
    # ids outside the graph know no triple: an out-of-range relation or
    # endpoint must not alias another key range, and a negative truth must
    # not clear entity E-1
    assert pool((2, 1, -1), "tail") == [0, 1, 2, 3, 4]
    assert pool((-1, 1, 2), "head") == [0, 1, 2, 3, 4]
    assert pool((-1, 0, 0), "tail") == [1, 2, 3, 4]
    assert pool((0, nr, 0), "tail") == [1, 2, 3, 4]        # not (1, 0, .)'s range
    assert pool((0, 0, ne), "head") == [1, 2, 3, 4]        # not (., 1, 0)'s heads
    assert pool((0, -1, ne - 1), "head") == [1, 2, 3, 4]


def test_corruption_pool_ranges_equal_the_key_scan():
    # the head side reads one range of reversed_keys where the scan reads
    # every known key; ids reach past both ends, and a graph may know nothing
    rng = np.random.default_rng(31)
    graphs = [IndexedGraph(np.empty((0, 3), dtype=np.int64), 4, 2)]
    for _ in range(8):
        n, nr = int(rng.integers(2, 12)), int(rng.integers(1, 4))
        triples = random_triples(rng, n, nr, float(rng.uniform(0.05, 0.5)))
        known = np.vstack([triples, random_triples(rng, n, nr, 0.1)])
        graphs.append(IndexedGraph(triples, n, nr, known_triples=known))
    for g in graphs:
        ne, nr = g.num_entities, g.num_relations
        assert g.reversed_keys.dtype == np.int64
        assert len(g.reversed_keys) == len(g.known_keys)
        for triple in itertools.product(range(-2, ne + 2), range(-1, nr + 1),
                                        range(-2, ne + 2)):
            for direction in ("head", "tail"):
                got = _corruption_pool(g, triple, direction)
                want = corruption_pool_scan_oracle(g, triple, direction)
                assert got.dtype == np.int64
                assert got.tolist() == want.tolist(), (triple, direction)


def test_ranking_candidates_fallback_matches_loop(caplog):
    # every tail corruption of (0, 0, 1) but (0, 0, 0) is a known triple;
    # the head side has five filtered corruptions
    triples = [(0, 0, t) for t in range(1, 6)]
    g = IndexedGraph(triples, 6, 1)
    known_set = set(triples)
    for num_neg in (3, 6, 50):           # 6 and 50 reach the entity count
        short_pools = []
        for direction in ("head", "tail"):
            pool = corruption_pool_oracle(known_set, 6, (0, 0, 1), direction)
            got = make_ranking_candidates(g, (0, 0, 1), direction, num_neg,
                                          np.random.default_rng(4))
            want = ranking_candidates_oracle(known_set, 6, (0, 0, 1), direction,
                                             num_neg, np.random.default_rng(4))
            assert got == want
            cands, truth_idx = got
            assert cands[truth_idx] == (0, 0, 1)
            negs = cands[:truth_idx] + cands[truth_idx + 1:]
            assert not any(g.contains(*c) for c in negs)
            if len(pool) < num_neg:      # the whole filtered pool, nothing else
                assert sorted(negs) == pool
                short_pools.append(len(pool))
            else:
                assert len(negs) == num_neg
        # the ranking run counts the short sides in one warning
        with caplog.at_level("WARNING", logger="indkg"):
            caplog.clear()
            run_link_prediction_triples(lambda c: np.zeros(len(c)), g,
                                        [(0, 0, 1)], num_neg, seed=4)
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 1
        assert warnings[0].startswith(f"{len(short_pools)} of 2 ranking sides")
        assert f"smallest pool held {min(short_pools)}" in warnings[0]
    # every tail corruption known: the truth is ranked alone
    full = IndexedGraph([(0, 0, t) for t in range(6)], 6, 1)
    assert make_ranking_candidates(full, (0, 0, 1), "tail", 5,
                                   np.random.default_rng(0)) == ([(0, 0, 1)], 0)


def test_meta_task_split_arithmetic():
    rng = np.random.default_rng(10)
    triples = random_triples(rng, 30, 3, 0.3)
    g = IndexedGraph(triples, 30, 3)
    task = sample_meta_task(g, 10, 0.8, np.random.default_rng(0))
    assert len(task.support) + len(task.query) >= 10
    # partition: support and query disjoint, union = region triples
    sup = set(map(tuple, task.support.tolist()))
    que = set(map(tuple, task.query.tolist()))
    assert not sup & que


def test_meta_task_forced_support():
    # star: entity 3 appears in exactly one triple; that triple can never be
    # a query triple because 3 would be missing from support
    triples = [(0, 0, 1), (0, 0, 2), (0, 0, 3), (1, 0, 2), (2, 0, 1)]
    g = IndexedGraph(triples, 4, 1)
    for seed in range(30):
        task = sample_meta_task(g, 5, 0.6, np.random.default_rng(seed))
        que = set(map(tuple, task.query.tolist()))
        assert (0, 0, 3) not in que


def test_meta_task_query_entities_in_support():
    rng = np.random.default_rng(11)
    triples = random_triples(rng, 40, 3, 0.15)
    g = IndexedGraph(triples, 40, 3)
    for seed in range(200):
        task = sample_meta_task(g, 20, 0.8, np.random.default_rng(seed))
        sup_ents = set(task.support[:, [0, 2]].ravel().tolist())
        que_ents = set(task.query[:, [0, 2]].ravel().tolist())
        assert que_ents <= sup_ents


def test_meta_task_exhausted():
    g = IndexedGraph([(0, 0, 1)], 2, 1)
    with pytest.raises(ExhaustedRetries):
        sample_meta_task(g, 50, 0.8, np.random.default_rng(0), max_attempts=5)


def _stops_mid_level(triples, n, start, visited, region):
    """True when the region was cut inside a BFS level: a visited vertex
    short of the deepest level still has an edge outside the region."""
    dist = matrix_power_distances(masked_adjacency(triples, n, (-1, -1, -1)), start, n)
    deepest = max(dist[v] for v in visited)
    region = set(region)
    return any(dist[v] < deepest and (h, r, t) not in region
               for h, r, t in np.asarray(triples).tolist()
               for v in (h, t) if v in visited)


def test_meta_task_matches_region_loop_oracle(monkeypatch):
    rng = np.random.default_rng(23)
    seen = {"loop": 0, "twin": 0, "parallel": 0, "isolated": 0, "mid_level": 0}
    for case in range(40):
        ne, nr = int(rng.integers(4, 30)), int(rng.integers(1, 4))
        used = int(rng.integers(2, ne + 1))         # ids >= used stay isolated
        m = int(rng.integers(used, 4 * used))
        tri = np.column_stack([rng.integers(used, size=m), rng.integers(nr, size=m),
                               rng.integers(used, size=m)])
        tri = np.vstack([tri, tri[: m // 3, ::-1],
                         np.column_stack([tri[: m // 4, [0]], (tri[: m // 4, [1]] + 1) % nr,
                                          tri[: m // 4, [2]]])])
        g = IndexedGraph(tri, ne, nr)
        rows = set(map(tuple, g.triples.tolist()))
        seen["loop"] += any(h == t for h, _, t in rows)
        seen["twin"] += any((t, r, h) in rows for h, r, t in rows if h != t)
        seen["parallel"] += len({(h, t) for h, _, t in rows}) < len(rows)
        seen["isolated"] += used < ne
        for start in rng.choice(ne, size=min(ne, 4), replace=False).tolist():
            size = int(rng.integers(2, len(rows) + 2))
            visited, region = grow_region_loop_oracle(g.triples, start, size)
            assert sampling._grow_region(g, start, size) == region
            seen["mid_level"] += _stops_mid_level(g.triples, ne, start, visited, region)
        size, seed = int(rng.integers(2, max(3, len(rows) // 2))), int(rng.integers(1 << 30))

        def sample():
            try:
                return sample_meta_task(g, size, 0.7, np.random.default_rng(seed),
                                        max_attempts=20)
            except ExhaustedRetries:
                return None
        got = sample()
        with monkeypatch.context() as patch:
            patch.setattr(sampling, "_grow_region",
                          lambda graph, s, n: grow_region_loop_oracle(graph.triples, s, n)[1])
            want = sample()
        assert (got is None) == (want is None)
        if got is not None:
            for name in ("support", "query"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert all(seen.values()), seen


def test_batch_triples_match_draw_order_oracle():
    # every negative is drawn before the one batched extraction, which draws
    # nothing: the stream is positives' corruptions in order
    rng = np.random.default_rng(41)
    for trial in range(25):
        n, nr = int(rng.integers(4, 25)), int(rng.integers(1, 4))
        triples = random_triples(rng, n, nr, float(rng.uniform(0.1, 0.4)))
        if len(triples) < 2:
            continue
        known = np.vstack([triples, random_triples(rng, n, nr, 0.05)]).reshape(-1, 3)
        g = IndexedGraph(triples, n, nr, known_triples=known)
        known_set = set(map(tuple, known.tolist()))
        positives = triples[rng.choice(len(triples), size=min(5, len(triples)),
                                       replace=False)]
        batch = make_classification_batch(g, positives, 2, np.random.default_rng(trial))
        want = corruptions_after_positives_oracle(known_set, n, positives,
                                                  np.random.default_rng(trial))
        assert [it.sub.target for it in batch.items] == want
        assert [it.rel for it in batch.items] == [t[1] for t in want]
        for filtered in (True, False):
            num_neg = int(rng.integers(1, 4))
            inst = make_train_batch(g, positives[:1], 2, num_neg,
                                    [np.random.default_rng(trial)], filtered)
            want = corruptions_after_positives_oracle(
                known_set, n, positives[:1], np.random.default_rng(trial),
                num_neg, filtered)
            assert [it.sub.target for it in inst] == want
