"""Enclosing-subgraph extraction and distance-based node labelling.

A candidate pair (h, t) is summarized by the subgraph of nodes lying on a
short undirected path between them: node i is kept when d(i,h) <= k,
d(i,t) <= k and d(i,h) + d(i,t) <= k + 1, with both distances computed in
the graph with the target edge removed. Node features are the concatenated
one-hot encodings of the two distances, clamped into k + 2 buckets per side.
``extract_enclosing_subgraphs`` extracts a batch of targets with one
bit-parallel BFS per chunk of up to 64 sources: each entity's ``uint64``
word holds one bit per source, and each level pushes or pulls by the
frontier's adjacency count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import IdOutOfBounds
from .kgcore import IndexedGraph, find_sorted

# sources per extraction chunk: one bit each of an entity's uint64 word
_CHUNK_SOURCES = 64
# a BFS level pushes while its frontier's adjacency entries, repeats
# included, are fewer than this share of the graph's, and pulls otherwise.
# A pushed entry costs about three pulled ones (np.bitwise_or.at against
# one gather and a reduceat); 64-source chunks ran fastest from 0.05 to
# 0.15 and 10-25 % slower at 0.3, and smaller calls moved less
_PUSH_SHARE = 0.15


@dataclass
class Subgraph:
    target: tuple[int, int, int]          # (h, r, t) in global ids
    nodes: np.ndarray                     # global ids; h at local 0, t at local 1
    dist_pairs: np.ndarray                # (n, 2) clamped distances (d_h, d_t)
    edges: np.ndarray                     # (m, 3) local (src, dst, rel); target edge excluded
    k: int
    union_size: int = 0                   # |k-hop neighborhood of h or t|, for pruning stats

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def head_local(self) -> int:
        return 0

    @property
    def tail_local(self) -> int:
        return 0 if self.target[0] == self.target[2] else 1

    def __eq__(self, other):
        return isinstance(other, Subgraph) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self))


def _csr_slices(starts: np.ndarray, stops: np.ndarray):
    """Positions of the adjacency entries in the runs ``[starts, stops)``,
    given as non-empty arrays, and each run's length."""
    lens = stops - starts
    ends = np.cumsum(lens)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens), lens


def _dist_dtype(k: int):
    """int8 while it holds d_h + d_t up to 2k + 2, else int64."""
    return np.int8 if 2 * k + 2 <= np.iinfo(np.int8).max else np.int64


def _bfs(graph: IndexedGraph, sources: np.ndarray, masks: np.ndarray,
         k: int, dtype) -> np.ndarray:
    """(S, E) undirected hop distances from each of up to 64 sources, -1
    beyond ``k``.

    One bit-parallel search: entity ``e``'s ``uint64`` word in ``seen``
    holds bit ``s`` once source ``s`` has reached it. The frontier is the
    entities that gained bits at the level before, with those bits. A level
    whose frontier has fewer adjacency entries than ``_PUSH_SHARE`` of the
    graph's pushes: it ORs each frontier word along its entity's run, so
    its work follows the entities it touches. Any other level pulls: one
    gather of the frontier words over every run and one OR-reduction per
    entity with an edge. Source ``s`` clears its bit on the adjacency
    positions ``masks[s]`` (a row's two ``edge_positions``, or -1), so a
    reverse twin (t, r, h) still connects the pair. A source without edges
    takes no bit. The levels keep only their frontiers; the distances are
    unpacked from those words once, over the id span of the entities
    reached, in words as narrow as the sources with a bit allow.
    """
    ne, n_src = graph.num_entities, len(sources)
    indptr, nbr = graph.indptr, graph.nbr
    edged = np.flatnonzero(indptr[sources + 1] > indptr[sources])
    ent, masks = sources[edged], masks[edged]
    bit = np.left_shift(np.uint64(1), np.arange(len(ent), dtype=np.uint64))
    seen = np.zeros(ne, dtype=np.uint64)
    np.bitwise_or.at(seen, ent, bit)
    m_src, m_col = np.nonzero(masks >= 0)
    crosses = None      # per adjacency entry, the sources that may cross it
    if len(m_src):
        crosses = np.full(len(nbr), ~np.uint64(0))
        np.bitwise_and.at(crosses, masks[m_src, m_col], ~bit[m_src])
    # a pushed entity reached over several entries stays repeated in the
    # frontier, each copy with all the bits it gained
    word, kept = seen[ent], []
    for d in range(1, k + 1):
        if not len(ent):
            break
        if d > 1:
            kept.append((ent, word))
        starts, stops = indptr[ent], indptr[ent + 1]
        if (stops - starts).sum() < _PUSH_SHARE * len(nbr):
            idx, lens = _csr_slices(starts, stops)
            to, w = nbr[idx], np.repeat(word, lens)
            if crosses is not None:
                w &= crosses[idx]
            old = seen[to]
            np.bitwise_or.at(seen, to, w)
        else:
            to = graph.edged
            front = np.zeros(ne, dtype=np.uint64)
            front[ent] = word
            w = front[nbr]
            if crosses is not None:
                w &= crosses
            old = seen[to]
            seen[to] = old | np.bitwise_or.reduceat(w, indptr[to])
        if d == k:
            break
        word = seen[to] ^ old
        hit = word != 0
        ent, word = to[hit], word[hit]
    # a bit first set at level t > 0 is in the running OR of the kept
    # frontiers t..L, so L + 1 less that count is t (the bits of level
    # L + 1 are in none); an unreached bit reads -1, and each source's own
    # 0 is written last
    reached = seen != 0
    lo, hi = reached.argmax(), ne - reached[::-1].argmax()
    wtype = np.dtype(f"<u{1 << max(0, (len(edged) - 1).bit_length() - 3)}")

    def bits(words):
        # entity-major 0/1 of dtype, 8 * wtype.itemsize per entity
        return np.unpackbits(words.astype(wtype).view(np.uint8),
                             bitorder="little").view(np.int8).astype(dtype, copy=False)

    val = bits(seen[lo:hi]) * (len(kept) + 2) - 1
    acc = np.zeros(hi - lo, dtype=np.uint64)
    for ent, word in kept:
        acc[ent - lo] |= word
        val -= bits(acc)
    dist = np.full((n_src, ne), -1, dtype=dtype)
    dist[edged, lo:hi] = val.reshape(hi - lo, 8 * wtype.itemsize)[:, :len(edged)].T
    dist[np.arange(n_src), sources] = 0
    return dist


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("hop budget k must be >= 1")


def bfs_distances(graph: IndexedGraph, source: int, k: int,
                  masked_edge: tuple[int, int, int] | None = None) -> dict[int, int]:
    """Undirected hop distances from ``source``, truncated at ``k`` hops.

    Every triple acts as a bidirectional edge; ``masked_edge`` suppresses
    that one triple in both traversal directions, and its ids are checked
    like ``source``'s. The batched extraction's search with one source.
    """
    if not 0 <= source < graph.num_entities:
        raise IdOutOfBounds(f"entity id {source} outside [0, {graph.num_entities})")
    masks = (np.full((1, 2), -1, dtype=np.int64) if masked_edge is None else
             graph.edge_positions(masked_edge))
    _check_k(k)
    dist = _bfs(graph, np.array([source], dtype=np.int64), masks, k, _dist_dtype(k))[0]
    reached = np.flatnonzero(dist >= 0)
    return dict(zip(reached.tolist(), dist[reached].tolist()))


def _chunks(source_keys: list, cap: int):
    """Consecutive row spans, each with at most ``cap`` rows and ``cap``
    distinct sources: (start, stop, the span's source keys in first-seen
    order, (rows, 2) indices of each row's two sources among them)."""
    start, seen, row_src = 0, {}, []
    for c, pair in enumerate(source_keys):
        new = {key for key in pair if key not in seen}
        if row_src and (len(row_src) == cap or len(seen) + len(new) > cap):
            yield start, c, list(seen), np.array(row_src, dtype=np.int64)
            start, seen, row_src = c, {}, []
        row_src.append([seen.setdefault(key, len(seen)) for key in pair])
    if row_src:
        yield start, len(source_keys), list(seen), np.array(row_src, dtype=np.int64)


def extract_enclosing_subgraphs(graph: IndexedGraph, triples, k: int,
                                max_nodes: int = 0) -> list[Subgraph]:
    """The enclosing subgraph of every row of an (n, 3) triple array, in
    row order.

    Each row's node set, distances and edges are those of its own search in
    the graph without that row's triple; an id out of range raises
    IdOutOfBounds. A row that is a graph edge masks its two adjacency
    positions (``IndexedGraph.edge_positions``), so it gets BFS sources of
    its own; every other row shares one source per endpoint entity with the
    rest of its chunk, so a ranking side's fixed endpoint is searched once.
    Rows go in chunks of at most ``_CHUNK_SOURCES`` distinct sources, one
    bit each in ``_bfs``'s words; a chunk's (sources, E) distances and its
    (rows, E) arrays in ``_split_rows`` take up to 64 * E * itemsize bytes
    each, with itemsize 1 unless k > 62. ``max_nodes`` 0 means no cap;
    otherwise a row's interior nodes are retained in ascending
    (d_h + d_t, id) order until the cap is met.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    masks = graph.edge_positions(triples)
    _check_k(k)
    if not len(triples):
        return []
    ne = graph.num_entities
    # a source key is its entity, plus ne * (row + 1) for an edge row's own
    own = np.where(masks[:, 0] >= 0, ne * (np.arange(len(triples)) + 1), 0)
    keys = triples[:, [0, 2]] + own[:, None]
    dtype = _dist_dtype(k)
    subs = []
    for start, stop, src, row_src in _chunks(keys.tolist(), _CHUNK_SOURCES):
        owner, sources = np.divmod(np.array(src, dtype=np.int64), ne)
        src_masks = np.where((owner > 0)[:, None], masks[owner - 1], -1)
        dist = _bfs(graph, sources, src_masks, k, dtype)
        subs += _split_rows(graph, triples[start:stop], masks[start:stop, 0],
                            dist[row_src[:, 0]], dist[row_src[:, 1]], k, max_nodes)
    return subs


def _split_rows(graph, triples, masked_out, d_h, d_t, k, max_nodes):
    """One Subgraph per row from its (C, E) distance rows: the kept nodes
    and the edges among them for every row at once, then the split."""
    ne, rows = graph.num_entities, np.arange(len(triples))
    h, t = triples[:, 0], triples[:, 2]
    reach_h, reach_t = d_h >= 0, d_t >= 0
    union_size = np.count_nonzero(reach_h | reach_t, axis=1)
    d_sum = d_h + d_t
    inner = reach_h & reach_t & (d_sum <= k + 1)
    inner[rows, h] = inner[rows, t] = False
    i_row, i_ent = np.divmod(np.flatnonzero(inner), ne)
    n_inner = np.bincount(i_row, minlength=len(rows))
    if max_nodes and (n_inner + 2 > max_nodes).any():
        # rank each row's interior by (d_h + d_t, id); capped rows keep the best
        order = np.lexsort((i_ent, d_sum[i_row, i_ent], i_row))
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order)) - (np.cumsum(n_inner) - n_inner)[i_row[order]]
        keep = (n_inner[i_row] + 2 <= max_nodes) | (rank < max(0, max_nodes - 2))
        i_row, i_ent = i_row[keep], i_ent[keep]
        n_inner = np.bincount(i_row, minlength=len(rows))

    # nodes: h, then t when distinct, then the interior in ascending id
    two = h != t
    n_ends = 1 + two
    sizes = n_ends + n_inner
    first = np.cumsum(sizes) - sizes
    nodes = np.empty(first[-1] + sizes[-1], dtype=np.int64)
    nodes[first] = h
    nodes[first[two] + 1] = t[two]
    nodes[np.arange(len(i_row)) + np.cumsum(n_ends)[i_row]] = i_ent
    node_row = np.repeat(rows, sizes)
    flat = node_row * ne + nodes
    dist_pairs = np.column_stack([d_h.take(flat), d_t.take(flat)]).astype(np.int64)
    dist_pairs[dist_pairs < 0] = k + 1    # reached distances are <= k already

    # induced edges: out-runs of the kept nodes whose neighbor is kept in
    # the same row, minus the row's own target entry; a neighbor's local id
    # comes from the sorted flat (row, entity) keys
    local = np.arange(len(nodes)) - first[node_row]
    by_key = np.argsort(flat)
    keys = flat[by_key]
    idx, lens = _csr_slices(graph.indptr[nodes], graph.out_end[nodes])
    e_node = np.repeat(np.arange(len(nodes)), lens)
    want = node_row[e_node] * ne + graph.nbr[idx]
    at, hit = find_sorted(keys, want)
    keep = hit & (idx != masked_out[node_row[e_node]])
    e_node, dst, rel = e_node[keep], local[by_key[at[keep]]], graph.rel[idx[keep]]
    # flat node order is (row, src), and an out-run lists one neighbor's
    # relations in ascending order, so a stable sort on (node, dst) orders
    # the edges by (row, src, dst, rel)
    order = np.argsort(e_node * sizes.max() + dst, kind="stable")
    e_node = e_node[order]
    edges = np.column_stack([local[e_node], dst[order], rel[order]])
    e_count = np.bincount(node_row[e_node], minlength=len(rows))
    e_first = np.cumsum(e_count) - e_count

    return [Subgraph((hh, rr, tt), nodes[a:a + n], dist_pairs[a:a + n],
                     edges[ea:ea + m], k, u)
            for (hh, rr, tt), a, n, ea, m, u
            in zip(triples.tolist(), first.tolist(), sizes.tolist(),
                   e_first.tolist(), e_count.tolist(), union_size.tolist())]


def extract_enclosing_subgraph(graph: IndexedGraph, target: tuple[int, int, int],
                               k: int, max_nodes: int = 0) -> Subgraph:
    """The enclosing subgraph of one target triple:
    ``extract_enclosing_subgraphs`` of one row."""
    return extract_enclosing_subgraphs(graph, [target], k, max_nodes=max_nodes)[0]


def label_nodes(sub: Subgraph) -> np.ndarray:
    """Per-node feature matrix of shape (n, 2*(k+2)).

    Row i is onehot(d_h) concatenated with onehot(d_t), each one-hot of
    width k + 2 (buckets 0..k plus an unreachable/overflow bucket).
    """
    width = sub.k + 2
    labels = np.zeros((sub.num_nodes, 2 * width), dtype=np.float64)
    cols = np.minimum(np.maximum(sub.dist_pairs, 0), width - 1) + (0, width)
    labels[np.arange(sub.num_nodes)[:, None], cols] = 1.0
    return labels


@dataclass
class CorpusStats:
    count: int
    max_nodes: int
    mean_nodes: float
    max_edges: int
    mean_edges: float
    pruning_ratio: float
    empty_count: int

    def to_dict(self) -> dict:
        return asdict(self)
