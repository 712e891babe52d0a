"""Enclosing-subgraph extraction and distance-based node labelling.

A candidate pair (h, t) is summarized by the subgraph of nodes lying on a
short undirected path between them: node i is kept when d(i,h) <= k,
d(i,t) <= k and d(i,h) + d(i,t) <= k + 1, with both distances computed in
the graph with the target edge removed. Node features are the concatenated
one-hot encodings of the two distances, clamped into k + 2 buckets per side.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import IdOutOfBounds
from .kgcore import IndexedGraph


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
        return (isinstance(other, Subgraph)
                and self.target == other.target
                and self.k == other.k
                and self.union_size == other.union_size
                and np.array_equal(self.nodes, other.nodes)
                and np.array_equal(self.dist_pairs, other.dist_pairs)
                and np.array_equal(self.edges, other.edges))


def _csr_slices(starts: np.ndarray, stops: np.ndarray):
    """Positions of the adjacency entries in the runs ``[starts, stops)``,
    given as non-empty arrays, and each run's length."""
    lens = stops - starts
    ends = np.cumsum(lens)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens), lens


def _masked_entries(graph: IndexedGraph, masked_edge) -> np.ndarray:
    """Adjacency positions of a triple's two entries, (t, r) in the out-run
    of h and (h, r) in the in-run of t: both when the graph holds the
    triple, else none."""
    if masked_edge is None:
        return np.empty(0, dtype=np.int64)
    mh, mr, mt = masked_edge
    if not (0 <= mh < graph.num_entities and 0 <= mt < graph.num_entities):
        return np.empty(0, dtype=np.int64)
    pos = []
    for s, e, v in ((graph.indptr[mh], graph.out_end[mh], mt),
                    (graph.out_end[mt], graph.indptr[mt + 1], mh)):
        hit = (graph.nbr[s:e] == v) & (graph.rel[s:e] == mr)
        pos.append(s + np.flatnonzero(hit))
    return np.concatenate(pos)


def _hop_distances(graph: IndexedGraph, source: int, k: int,
                   masked: np.ndarray) -> np.ndarray:
    """Dense undirected hop distances from ``source``: -1 beyond ``k`` hops.

    One level per step: the adjacency rows of the whole frontier are
    gathered at once. The ``masked`` adjacency positions (``_masked_entries``
    of one triple: none or two) are skipped, so a reverse twin (t, r, h)
    still connects the pair.
    """
    dist = np.full(graph.num_entities, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    for d in range(1, k + 1):
        idx, _ = _csr_slices(graph.indptr[frontier], graph.indptr[frontier + 1])
        if len(masked):
            idx = idx[(idx != masked[0]) & (idx != masked[1])]
        nbr = graph.nbr[idx]
        dist[nbr[dist[nbr] < 0]] = d
        frontier = np.flatnonzero(dist == d)
        if not len(frontier):
            break
    return dist


def _check_query(graph: IndexedGraph, entities, k: int) -> None:
    for e in entities:
        if not (0 <= e < graph.num_entities):
            raise IdOutOfBounds(f"entity {e} outside [0, {graph.num_entities})")
    if k < 1:
        raise ValueError("hop budget k must be >= 1")


def bfs_distances(graph: IndexedGraph, source: int, k: int,
                  masked_edge: tuple[int, int, int] | None = None) -> dict[int, int]:
    """Undirected hop distances from ``source``, truncated at ``k`` hops.

    Every triple acts as a bidirectional edge; ``masked_edge`` suppresses
    that one triple in both traversal directions.
    """
    _check_query(graph, (source,), k)
    dist = _hop_distances(graph, source, k, _masked_entries(graph, masked_edge))
    reached = np.flatnonzero(dist >= 0)
    return dict(zip(reached.tolist(), dist[reached].tolist()))


def extract_enclosing_subgraph(graph: IndexedGraph, target: tuple[int, int, int],
                               k: int, max_nodes: int = 0) -> Subgraph:
    """Extract the enclosing subgraph of the target triple.

    The target edge's two adjacency positions are found once and skipped
    by both distance searches and by the edge gather, so the edge never
    leaks into message passing. ``max_nodes`` 0 means no cap; otherwise
    interior nodes are retained in ascending (d_h + d_t, id) order until
    the cap is met.
    """
    h, r, t = (int(x) for x in target)
    _check_query(graph, (h, t), k)
    masked = _masked_entries(graph, (h, r, t))
    d_h = _hop_distances(graph, h, k, masked)
    d_t = _hop_distances(graph, t, k, masked)
    union_size = int(np.count_nonzero((d_h >= 0) | (d_t >= 0)))

    inner = (d_h >= 0) & (d_t >= 0) & (d_h + d_t <= k + 1)
    inner[[h, t]] = False
    interior = np.flatnonzero(inner)
    if max_nodes and len(interior) + 2 > max_nodes:
        order = np.lexsort((interior, d_h[interior] + d_t[interior]))
        interior = np.sort(interior[order[:max(0, max_nodes - 2)]])

    nodes = np.concatenate([[h] if h == t else [h, t], interior]).astype(np.int64)
    dist_pairs = np.column_stack([d_h[nodes], d_t[nodes]])
    dist_pairs[dist_pairs < 0] = k + 1    # reached distances are <= k already

    # induced edges: out-runs of the kept nodes whose neighbor is kept too
    local = np.full(graph.num_entities, -1, dtype=np.int64)
    local[nodes] = np.arange(len(nodes))
    idx, lens = _csr_slices(graph.indptr[nodes], graph.out_end[nodes])
    src = np.repeat(np.arange(len(nodes)), lens)
    dst = local[graph.nbr[idx]]
    rel = graph.rel[idx]
    keep = dst >= 0
    if len(masked):
        keep &= (idx != masked[0]) & (idx != masked[1])
    src, dst, rel = src[keep], dst[keep], rel[keep]
    order = np.lexsort((rel, dst, src))
    edges = np.column_stack([src[order], dst[order], rel[order]])
    return Subgraph((h, r, t), nodes, dist_pairs, edges, k, union_size)


def label_nodes(sub: Subgraph) -> np.ndarray:
    """Per-node feature matrix of shape (n, 2*(k+2)).

    Row i is onehot(d_h) concatenated with onehot(d_t), each one-hot of
    width k + 2 (buckets 0..k plus an unreachable/overflow bucket).
    """
    width = sub.k + 2
    labels = np.zeros((sub.num_nodes, 2 * width), dtype=np.float64)
    d = np.clip(sub.dist_pairs, 0, width - 1)
    rows = np.arange(sub.num_nodes)
    labels[rows, d[:, 0]] = 1.0
    labels[rows, width + d[:, 1]] = 1.0
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
