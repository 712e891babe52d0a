"""Ranking / classification metrics, evaluation protocols, early stopping.

A scorer maps a sequence of candidates (triples or ScoredItems) to a float
array of scores. Triple classification calls it once per batch. Both
link-prediction entry points share one loop, which draws and ranks each
query side on its own but scores consecutive sides together, up to
``SCORE_GROUP`` candidates per call.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    EmptyInput,
    EmptyScores,
    NonFiniteValue,
    ShapeMismatch,
    SingleClass,
)
from .sampling import (
    make_classification_batch,
    make_ranking_batch,
    make_ranking_candidates,
)

log = logging.getLogger(__name__)

# Most candidates of one link-prediction scorer call: consecutive ranking
# sides are scored together up to this count, and a larger side alone.
SCORE_GROUP = 512


def compute_rank(scores, truth_idx: int) -> float:
    """Rank of the truth among scores (1 = best), averaging over ties. Any
    NaN score, the truth's or a negative's, makes the rank NaN."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise EmptyScores("cannot rank an empty score array")
    if not (0 <= truth_idx < scores.size):
        raise IndexError(f"truth index {truth_idx} outside [0, {scores.size})")
    if np.isnan(scores).any():
        return float("nan")
    s = scores[truth_idx]
    better = int((scores > s).sum())
    tied = int((scores == s).sum()) - 1
    return 1.0 + better + tied / 2.0


def ranking_metrics(ranks, hits_at=(1, 5, 10)):
    """(MRR, {N: Hit@N}) over a list of ranks. Any NaN rank makes MRR and
    every Hit@N NaN."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise EmptyInput("no ranks to aggregate")
    if np.isnan(ranks).any():
        return float("nan"), {n: float("nan") for n in hits_at}
    mrr = float(np.mean(1.0 / ranks))
    hits = {n: float(np.mean(ranks <= n)) for n in hits_at}
    return mrr, hits


def classification_metrics(scores, labels01):
    """Exact AUC (Mann-Whitney pair count) and grouped-tie average precision.

    One grouping of tied scores serves both. AUC counts a tied
    positive/negative pair as half a success. AUC-PR treats every block of
    tied scores as a single step of the precision/recall curve, so the
    result is deterministic under ties. Any NaN score makes both NaN. A
    label other than 0 or 1 raises ValueError.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels01 = np.asarray(labels01)
    if scores.shape != labels01.shape:
        raise ValueError("scores and labels must align")
    if not ((labels01 == 0) | (labels01 == 1)).all():
        raise ValueError("labels must be 0 or 1")
    n_pos = int(labels01.sum())
    n_neg = int(len(labels01) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("both classes required")
    if np.isnan(scores).any():
        return float("nan"), float("nan")
    # ascending blocks of tied scores: their sizes and their positives
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    tp = np.bincount(inverse, weights=labels01, minlength=len(counts))
    # Mann-Whitney U: a block of c ties ending at rank e has mean rank
    # e - (c - 1) / 2, so the rank sum is exact in half-integers
    mean_rank = np.cumsum(counts) - (counts - 1) / 2.0
    u = (mean_rank * tp).sum() - n_pos * (n_pos + 1) / 2.0
    auc = float(u / (n_pos * n_neg))
    # AUC-PR over descending blocks; cumsum adds the per-block terms one by
    # one, in order, where np.sum would add them pairwise and round otherwise
    tp, counts = tp[::-1], counts[::-1]
    ap = np.cumsum(tp * (np.cumsum(tp) / np.cumsum(counts)))[-1]
    return auc, float(ap / n_pos)


@dataclass
class MetricsReport:
    auc: float | None = None
    auc_pr: float | None = None
    mrr: float | None = None
    hits: dict = field(default_factory=dict)
    n_queries: int = 0
    n_classified: int = 0
    seed: int | None = None
    wall_ms: float = 0.0

    def to_dict(self) -> dict:
        return dict(asdict(self), hits={str(k): v for k, v in sorted(self.hits.items())})

    def format_table(self) -> str:
        rows = []
        for key, value in self.to_dict().items():
            if key == "hits":
                for n, v in value.items():
                    rows.append((f"hit@{n}", f"{v:.4f}"))
            elif isinstance(value, float):
                rows.append((key, f"{value:.4f}"))
            elif value is not None:
                rows.append((key, str(value)))
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _link_prediction(scorer, side, query_triples, num_neg: int,
                     seed: int) -> MetricsReport:
    """The ranking loop of both model families. ``side(triple, direction,
    rng)`` draws one side's (candidates, truth_idx) from the RNG (seed, query
    index, 0 | 1 for head | tail). Consecutive sides are scored together:
    one ``scorer`` call takes the concatenated candidates of as many sides
    as fit in ``SCORE_GROUP`` (a larger side is scored alone), and each
    side is ranked on its own slice of the scores. The head and tail ranks
    are pooled. Sides with fewer than ``num_neg`` negatives are counted in
    one warning per run."""
    start = time.monotonic()
    query_triples = np.asarray(query_triples, dtype=np.int64).reshape(-1, 3)
    if len(query_triples) == 0:
        raise EmptyInput("no query triples")
    ranks, short, pending = [], [], []

    def score_pending():
        cands = [c for side_cands, _ in pending for c in side_cands]
        scores = np.asarray(scorer(cands), dtype=np.float64)
        if scores.shape != (len(cands),):
            raise ShapeMismatch(f"scorer returned {scores.shape} scores for "
                                f"{len(cands)} candidates")
        stop = 0
        for side_cands, truth_idx in pending:
            stop += len(side_cands)
            ranks.append(compute_rank(scores[stop - len(side_cands):stop], truth_idx))
        pending.clear()

    for qi, triple in enumerate(query_triples.tolist()):
        for si, direction in enumerate(("head", "tail")):
            cands, truth_idx = side(triple, direction,
                                    np.random.default_rng((seed, qi, si)))
            if len(cands) - 1 < num_neg:
                short.append(len(cands) - 1)
            if pending and sum(len(c) for c, _ in pending) + len(cands) > SCORE_GROUP:
                score_pending()
            pending.append((cands, truth_idx))
    score_pending()
    if short:
        log.warning("%d of %d ranking sides had fewer than %d filtered "
                    "negatives; the smallest pool held %d", len(short),
                    len(ranks), num_neg, min(short))
    mrr, hits = ranking_metrics(ranks)
    return MetricsReport(mrr=mrr, hits=hits, n_queries=len(query_triples),
                         seed=seed,
                         wall_ms=(time.monotonic() - start) * 1000.0)


def run_link_prediction(scorer, graph, query_triples, k: int, num_neg: int,
                        seed: int, max_nodes: int = 0) -> MetricsReport:
    """Filtered ranking protocol: rank the truth against ``min(num_neg,
    pool size)`` filtered corruptions on each side (``make_ranking_candidates``;
    ``num_neg`` at or above the entity count ranks against the whole pool),
    each candidate a ScoredItem with its enclosing subgraph."""
    def side(triple, direction, rng):
        batch = make_ranking_batch(graph, triple, k, direction, num_neg, rng,
                                   max_nodes=max_nodes)
        return batch.candidates, batch.truth_idx
    return _link_prediction(scorer, side, query_triples, num_neg, seed)


def run_link_prediction_triples(scorer, graph, query_triples, num_neg: int,
                                seed: int) -> MetricsReport:
    """Sampled ranking over raw (h, r, t) candidates, without subgraph
    extraction; used by entity-encoding models."""
    def side(triple, direction, rng):
        return make_ranking_candidates(graph, triple, direction, num_neg, rng)
    return _link_prediction(scorer, side, query_triples, num_neg, seed)


def run_triple_classification(scorer, graph, triples, k: int, seed: int,
                              max_nodes: int = 0) -> MetricsReport:
    """Binary discrimination of query triples from uniform corruptions,
    scored as one batch of ScoredItems."""
    start = time.monotonic()
    rng = np.random.default_rng((seed, 0xC1A55))
    batch = make_classification_batch(graph, triples, k, rng, max_nodes=max_nodes)
    auc, auc_pr = classification_metrics(scorer(batch.items), batch.labels01)
    return MetricsReport(auc=auc, auc_pr=auc_pr, n_classified=len(batch.items),
                         seed=seed,
                         wall_ms=(time.monotonic() - start) * 1000.0)


@dataclass
class MonitorState:
    """Early-stopping monitor maximizing a validation metric."""
    patience: int = 10
    min_delta: float = 0.0
    best_value: float = float("-inf")
    best_epoch: int = -1
    checks_since_best: int = 0
    n_checks: int = 0


def early_stop_decision(state: MonitorState, new_value: float):
    """Returns (state, stop, is_best) after observing one validation value."""
    if not np.isfinite(new_value):
        raise NonFiniteValue(f"monitored value is {new_value}")
    state.n_checks += 1
    is_best = new_value > state.best_value + state.min_delta
    if is_best:
        state.best_value = new_value
        state.best_epoch = state.n_checks
        state.checks_since_best = 0
    else:
        state.checks_since_best += 1
    stop = state.checks_since_best >= state.patience
    return state, stop, is_best
