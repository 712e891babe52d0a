"""Ranking / classification metrics, evaluation protocols, early stopping.

A scorer maps a sequence of candidates (triples or ScoredItems) to a float
array of scores. The protocols call it once per ranking side or per
classification batch, and both link-prediction entry points share one loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, EmptyScores, NonFiniteValue, SingleClass
from .sampling import (
    make_classification_batch,
    make_ranking_batch,
    make_ranking_candidates,
)


def compute_rank(scores, truth_idx: int, tie_policy: str = "mean") -> float:
    """Rank of the truth among scores (1 = best), averaging over ties."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise EmptyScores("cannot rank an empty score array")
    if not (0 <= truth_idx < scores.size):
        raise IndexError(f"truth index {truth_idx} outside [0, {scores.size})")
    if tie_policy != "mean":
        raise ValueError(f"unsupported tie policy {tie_policy!r}")
    s = scores[truth_idx]
    better = int((scores > s).sum())
    tied = int((scores == s).sum()) - 1
    return 1.0 + better + tied / 2.0


def ranking_metrics(ranks, hits_at=(1, 5, 10)):
    """(MRR, {N: Hit@N}) over a list of ranks."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise EmptyInput("no ranks to aggregate")
    mrr = float(np.mean(1.0 / ranks))
    hits = {n: float(np.mean(ranks <= n)) for n in hits_at}
    return mrr, hits


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks of ``scores`` ascending, tied values sharing their mean rank.

    The ranks are exact half-integers; any NaN score makes every rank NaN.
    """
    if np.isnan(scores).any():
        return np.full(scores.shape, np.nan)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # a block of c tied values ending at rank e has mean rank e - (c - 1) / 2
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def classification_metrics(scores, labels01):
    """Exact AUC (Mann-Whitney pair count) and grouped-tie average precision.

    AUC counts a tied positive/negative pair as half a success. AUC-PR treats
    every block of tied scores as a single step of the precision/recall
    curve, so the result is deterministic under ties.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels01 = np.asarray(labels01, dtype=np.int64)
    if scores.shape != labels01.shape:
        raise ValueError("scores and labels must align")
    n_pos = int(labels01.sum())
    n_neg = int(len(labels01) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("both classes required")
    # Mann-Whitney U via average ranks; equals explicit pair counting
    ranks = _average_ranks(scores)
    u = ranks[labels01 == 1].sum() - n_pos * (n_pos + 1) / 2.0
    auc = float(u / (n_pos * n_neg))
    # grouped-tie average precision, descending score blocks
    order = np.argsort(-scores, kind="stable")
    s_sorted, y_sorted = scores[order], labels01[order]
    boundaries = np.flatnonzero(np.diff(s_sorted)) + 1
    blocks = np.split(y_sorted, boundaries)
    ap = 0.0
    cum_tp = cum_n = 0
    for block in blocks:
        tp = int(block.sum())
        cum_tp += tp
        cum_n += len(block)
        if tp:
            ap += tp * (cum_tp / cum_n)
    auc_pr = float(ap / n_pos)
    return auc, auc_pr


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
        return {
            "auc": self.auc,
            "auc_pr": self.auc_pr,
            "mrr": self.mrr,
            "hits": {str(k): v for k, v in sorted(self.hits.items())},
            "n_queries": self.n_queries,
            "n_classified": self.n_classified,
            "seed": self.seed,
            "wall_ms": self.wall_ms,
        }

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


def _link_prediction(scorer, side, query_triples, seed: int) -> MetricsReport:
    """The ranking loop of both model families: ``side(triple, direction,
    rng)`` draws (candidates, truth_idx) from the RNG (seed, query index,
    0 | 1 for head | tail), ``scorer`` scores them in one call, and the head
    and tail ranks are pooled."""
    start = time.monotonic()
    query_triples = np.asarray(query_triples, dtype=np.int64).reshape(-1, 3)
    if len(query_triples) == 0:
        raise EmptyInput("no query triples")
    ranks = []
    for qi, triple in enumerate(query_triples.tolist()):
        for si, direction in enumerate(("head", "tail")):
            cands, truth_idx = side(triple, direction,
                                    np.random.default_rng((seed, qi, si)))
            ranks.append(compute_rank(scorer(cands), truth_idx))
    mrr, hits = ranking_metrics(ranks)
    return MetricsReport(mrr=mrr, hits=hits, n_queries=len(query_triples),
                         seed=seed,
                         wall_ms=(time.monotonic() - start) * 1000.0)


def run_link_prediction(scorer, graph, query_triples, k: int, num_neg: int,
                        seed: int, max_nodes=None) -> MetricsReport:
    """Sampled ranking protocol: rank the truth against ``num_neg`` filtered
    corruptions on each side, each candidate a ScoredItem with its enclosing
    subgraph."""
    def side(triple, direction, rng):
        batch = make_ranking_batch(graph, triple, k, direction, num_neg, rng,
                                   max_nodes=max_nodes)
        return batch.candidates, batch.truth_idx
    return _link_prediction(scorer, side, query_triples, seed)


def run_link_prediction_triples(scorer, graph, query_triples, num_neg: int,
                                seed: int) -> MetricsReport:
    """Sampled ranking over raw (h, r, t) candidates, without subgraph
    extraction; used by entity-encoding models."""
    def side(triple, direction, rng):
        return make_ranking_candidates(graph, triple, direction, num_neg, rng)
    return _link_prediction(scorer, side, query_triples, seed)


def run_triple_classification(scorer, graph, triples, k: int, seed: int,
                              max_nodes=None) -> MetricsReport:
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
