"""Negative sampling and batch assembly for training and evaluation.

All constructors are pure functions of (inputs, rng state); parallel callers
should derive one RNG stream per item, e.g. ``np.random.default_rng((seed,
item_index))``, so results are independent of worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, ExhaustedRetries
from .kgcore import IndexedGraph
from .subgraph import Subgraph, extract_enclosing_subgraphs, label_nodes

RETRY_CAP = 1000


def corrupt_triple(triple, graph: IndexedGraph, rng, filtered: bool = True,
                   entities=None):
    """Replace the head or the tail with a uniformly drawn entity.

    Each draw picks the side (head when ``rng.random() < 0.5``), then the
    entity from ``entities`` (default: every id of ``graph``). Rejection-
    samples until the corruption differs from the input and, when filtered,
    is absent from the graph's known-triple set; raises ExhaustedRetries
    after ``RETRY_CAP`` draws.
    """
    h, r, t = (int(x) for x in triple)
    if entities is None:
        entities = range(graph.num_entities)
    if len(entities) == 0:
        raise EmptyInput("no entities to corrupt with")
    for _ in range(RETRY_CAP):
        corrupt_head = rng.random() < 0.5
        e = int(entities[rng.integers(len(entities))])
        cand = (e, r, t) if corrupt_head else (h, r, e)
        if cand == (h, r, t):
            continue
        if filtered and graph.contains(*cand):
            continue
        return cand
    raise ExhaustedRetries(
        f"no valid corruption of {(h, r, t)} found in {RETRY_CAP} draws")


@dataclass
class ScoredItem:
    sub: Subgraph
    labels: np.ndarray
    rel: int


def _items(graph, triples, k, max_nodes: int = 0) -> list[ScoredItem]:
    """ScoredItems of the triples, extracted in one batched call."""
    subs = extract_enclosing_subgraphs(graph, triples, k, max_nodes=max_nodes)
    return [ScoredItem(sub, label_nodes(sub), sub.target[1]) for sub in subs]


def make_train_batch(graph: IndexedGraph, triples, k: int, num_neg: int,
                     rngs, filtered: bool = True,
                     max_nodes: int = 0) -> list[ScoredItem]:
    """For each positive in order, its ScoredItem, then those of its
    ``num_neg`` corruptions, drawn from its own stream in ``rngs``.

    Every negative is drawn before the one batched extraction, which draws
    nothing.
    """
    rows = []
    for triple, rng in zip(np.asarray(triples, dtype=np.int64).reshape(-1, 3).tolist(),
                           rngs, strict=True):
        rows.append(tuple(triple))
        rows += [corrupt_triple(triple, graph, rng, filtered) for _ in range(num_neg)]
    return _items(graph, rows, k, max_nodes)


@dataclass
class ClassificationBatch:
    items: list[ScoredItem]
    labels01: np.ndarray


def make_classification_batch(graph: IndexedGraph, triples, k: int, rng,
                              max_nodes: int = 0) -> ClassificationBatch:
    """One uniform head-or-tail corruption per positive.

    Items are ordered all positives then all negatives, with binary labels
    to match. Every negative is drawn before the one batched extraction,
    which draws nothing from ``rng``.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    if len(triples) == 0:
        raise EmptyInput("no triples to classify")
    negs = [corrupt_triple(t, graph, rng) for t in triples.tolist()]
    items = _items(graph, np.vstack([triples, negs]), k, max_nodes)
    labels01 = np.concatenate([np.ones(len(triples), np.int64),
                               np.zeros(len(triples), np.int64)])
    return ClassificationBatch(items, labels01)


@dataclass
class RankingBatch:
    candidates: list[ScoredItem]
    truth_idx: int


def _corruption_pool(graph, triple, direction):
    """Ascending int64 ids of the entities that corrupt one side of
    ``triple`` into neither the truth nor a known triple.

    A side's known triples are one key range: a tail side ``(h, r, .)``
    holds the keys ``[(h * R + r) * E, (h * R + r + 1) * E)`` of
    ``graph.known_keys``, keys ``(h * R + r) * E + t``, and a head side
    ``(., r, t)`` the keys ``[(t * R + r) * E, (t * R + r + 1) * E)`` of
    ``graph.reversed_keys``, keys ``(t * R + r) * E + h``. One boolean mask
    over the entities clears the range's entities and the truth; an id
    outside the graph has no known triple and clears nothing.
    """
    h, r, t = triple
    ne, nr = graph.num_entities, graph.num_relations
    fixed, keys, truth = ((h, graph.known_keys, t) if direction == "tail"
                          else (t, graph.reversed_keys, h))
    keep = np.ones(ne, dtype=bool)
    if 0 <= fixed < ne and 0 <= r < nr:
        lo = (fixed * nr + r) * ne
        # an inclusive upper bound: lo + ne may reach 2**63 (_check_key_space)
        hi = keys.searchsorted(lo + ne - 1, side="right")
        keep[keys[keys.searchsorted(lo):hi] - lo] = False
    if 0 <= truth < ne:
        keep[truth] = False
    return np.flatnonzero(keep)


def make_ranking_candidates(graph: IndexedGraph, triple, direction: str,
                            num_neg: int, rng):
    """Candidate triples for one ranking query: (triples, truth_idx).

    ``min(num_neg, len(pool))`` negatives are drawn without replacement
    from the filtered corruption pool, so none is a known triple, and a side
    with an empty pool ranks the truth alone. ``num_neg`` at or above the
    entity count is thus full filtered ranking; the ranking loop counts the
    short sides. The truth is planted at a uniformly random position.
    """
    if direction not in ("head", "tail"):
        raise ValueError(f"unknown ranking direction {direction!r}")
    triple = h, r, t = tuple(int(x) for x in triple)
    pool = _corruption_pool(graph, triple, direction)
    picks = rng.choice(len(pool), size=min(num_neg, len(pool)), replace=False)
    ents = pool[picks].tolist()
    chosen = ([(e, r, t) for e in ents] if direction == "head"
              else [(h, r, e) for e in ents])
    truth_idx = int(rng.integers(len(chosen) + 1))
    return chosen[:truth_idx] + [triple] + chosen[truth_idx:], truth_idx


def make_ranking_batch(graph: IndexedGraph, triple, k: int, direction: str,
                       num_neg: int, rng, max_nodes: int = 0) -> RankingBatch:
    """Ranking candidates with their enclosing subgraphs extracted in one
    batched call."""
    cands, truth_idx = make_ranking_candidates(graph, triple, direction,
                                               num_neg, rng)
    return RankingBatch(_items(graph, cands, k, max_nodes), truth_idx)


@dataclass
class MetaTask:
    """A sampled training-graph region split into support and query triples,
    each an (n, 3) int64 array, with what the sampler discarded on the way:
    the regions it drew with fewer than ``region_size`` triples, the splits
    it rejected for an empty query or support, and the query triples this
    task moved into support."""
    support: np.ndarray
    query: np.ndarray
    short_regions: int = 0
    rejected_splits: int = 0
    moved: int = 0


def _grow_region(graph: IndexedGraph, start: int, region_size: int):
    """BFS from start, collecting the triples of visited nodes until enough;
    returns them sorted."""
    visited = {start}
    frontier = [start]
    triples = set()
    while frontier and len(triples) < region_size:
        nxt = []
        for u in frontier:
            nbrs, rels = graph.out_edges(u)
            for v, r in zip(nbrs.tolist(), rels.tolist()):
                triples.add((u, r, v))
                if v not in visited:
                    visited.add(v)
                    nxt.append(v)
            nbrs, rels = graph.in_edges(u)
            for v, r in zip(nbrs.tolist(), rels.tolist()):
                triples.add((v, r, u))
                if v not in visited:
                    visited.add(v)
                    nxt.append(v)
            if len(triples) >= region_size:
                break
        frontier = nxt
    return sorted(triples)


def sample_meta_task(graph: IndexedGraph, region_size: int, support_frac: float,
                     rng, max_attempts: int = 100) -> MetaTask:
    """Sample a region and split its triples into support and query.

    Query triples whose entities are missing from the support set are moved
    into support; a task whose query would become empty is rejected and
    resampled. The task counts the short regions, rejected splits and moved
    triples (``MetaTask``); counting draws nothing.
    """
    if region_size < 2:
        raise ValueError("region_size must be >= 2 triples")
    if not 0.0 < support_frac < 1.0:
        raise ValueError("support_frac must be in (0, 1)")
    short = rejected = 0
    for _ in range(max_attempts):
        start = int(rng.integers(graph.num_entities))
        triples = _grow_region(graph, start, region_size)
        if len(triples) < region_size:
            short += 1
            continue
        order = rng.permutation(len(triples))
        cut = int(round(support_frac * len(triples)))
        if cut == 0 or cut == len(triples):
            rejected += 1
            continue
        support = [triples[i] for i in order[:cut]]
        query = [triples[i] for i in order[cut:]]
        # moving a triple into support only adds entities to it, so every
        # query triple left after one pass stays covered
        ents = {e for h, _, t in support for e in (h, t)}
        covered = [q[0] in ents and q[2] in ents for q in query]
        support += [q for q, c in zip(query, covered) if not c]
        query = [q for q, c in zip(query, covered) if c]
        if not query:
            rejected += 1
            continue
        return MetaTask(np.asarray(support, dtype=np.int64),
                        np.asarray(query, dtype=np.int64), short, rejected,
                        len(covered) - len(query))
    raise ExhaustedRetries(
        f"no valid meta-task found in {max_attempts} attempts")
