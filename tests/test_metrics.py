import warnings

import numpy as np
import pytest

from indkg.errors import EmptyInput, EmptyScores, NonFiniteValue, SingleClass
from indkg.evaluate import (
    MetricsReport,
    MonitorState,
    classification_metrics,
    compute_rank,
    early_stop_decision,
    ranking_metrics,
    run_link_prediction_triples,
)
from indkg.kgcore import build_graph

from helpers import (
    ap_grouped_oracle,
    auc_pair_oracle,
    random_triples,
    rank_sort_oracle,
)


def test_rank_examples():
    assert compute_rank([3.0, 1.0, 2.0], 0) == 1.0
    assert compute_rank([3.0, 1.0, 2.0], 1) == 3.0
    # truth tied with one other score: positions 1 and 2 average to 1.5
    assert compute_rank([5.0, 5.0, 1.0], 0) == 1.5
    # all equal over 51 candidates: mean rank 26
    assert compute_rank([0.0] * 51, 17) == 26.0


def test_rank_errors():
    with pytest.raises(EmptyScores):
        compute_rank([], 0)
    with pytest.raises(IndexError):
        compute_rank([1.0], 2)


def test_rank_matches_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        # coarse quantization forces frequent ties
        scores = np.round(rng.normal(size=n), 1)
        idx = int(rng.integers(n))
        assert compute_rank(scores, idx) == pytest.approx(
            rank_sort_oracle(scores, idx), abs=1e-12)


def test_ranking_metrics_examples():
    mrr, hits = ranking_metrics([1, 2, 4, 20])
    assert mrr == pytest.approx((1 + 0.5 + 0.25 + 0.05) / 4)
    assert hits[1] == 0.25 and hits[5] == 0.75 and hits[10] == 0.75
    with pytest.raises(EmptyInput):
        ranking_metrics([])


def test_auc_examples():
    auc, _ = classification_metrics([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0])
    assert auc == 1.0
    auc, _ = classification_metrics([0.2, 0.3, 0.8, 0.9], [1, 1, 0, 0])
    assert auc == 0.0
    auc, _ = classification_metrics([0.5, 0.5], [1, 0])
    assert auc == 0.5


def test_auc_pr_examples():
    _, ap = classification_metrics([0.9, 0.8, 0.3], [1, 1, 0])
    assert ap == 1.0
    # one positive ranked second: precision at its step is 1/2
    _, ap = classification_metrics([0.9, 0.8], [0, 1])
    assert ap == 0.5
    # tied block containing 1 pos and 1 neg: single step, precision 1/2
    _, ap = classification_metrics([0.7, 0.7], [1, 0])
    assert ap == 0.5


def test_tied_neg_inf_scores_form_one_step():
    # -inf - -inf is NaN; the tie must still be one precision/recall step,
    # whatever the order of the tied labels
    for scores, labels in (([1.0, -np.inf, -np.inf], [0, 1, 0]),
                           ([1.0, -np.inf, -np.inf], [0, 0, 1]),
                           ([1.0, -5.0, -5.0], [0, 1, 0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, ap = classification_metrics(scores, labels)
        assert ap == pytest.approx(1 / 3)
        assert ap == ap_grouped_oracle(np.array(scores), np.array(labels))


def test_single_class_rejected():
    with pytest.raises(SingleClass):
        classification_metrics([0.1, 0.2], [1, 1])
    with pytest.raises(SingleClass):
        classification_metrics([0.1, 0.2], [0, 0])


def test_classification_metrics_match_oracles():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        scores = np.round(rng.normal(size=n), 1)
        auc, ap = classification_metrics(scores, labels)
        assert abs(auc - auc_pair_oracle(scores, labels)) < 1e-12
        assert abs(ap - ap_grouped_oracle(scores, labels)) < 1e-12


def test_auc_matches_scipy_average_ranks_bitwise():
    from scipy.stats import rankdata
    rng = np.random.default_rng(3)
    for i in range(300):
        n = int(rng.integers(2, 120))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (0, 1)
        scores = (rng.integers(0, int(rng.integers(1, 12)), size=n).astype(float)
                  if i % 2 else rng.normal(size=n))
        if i % 5 == 0:
            scores[rng.integers(n)] = -np.inf
        ranks = rankdata(scores, method="average")
        n_pos = int(labels.sum())
        u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
        auc, _ = classification_metrics(scores, labels)
        assert auc == float(u / (n_pos * (n - n_pos)))
    scores = np.array([0.3, np.nan, 0.1])
    assert np.isnan(rankdata(scores, method="average")).all()
    assert np.isnan(classification_metrics(scores, [1, 0, 0])[0])


def test_nan_score_makes_both_metrics_nan():
    auc, auc_pr = classification_metrics([0.3, np.nan, 0.1], [1, 0, 0])
    assert np.isnan(auc) and np.isnan(auc_pr)
    auc, auc_pr = classification_metrics([np.nan, 0.2, 0.1, 0.4], [1, 1, 0, 0])
    assert np.isnan(auc) and np.isnan(auc_pr)


@pytest.mark.parametrize("labels", [[2, 0, 0], [1, -1, 0], [0.5, 1, 0]])
def test_labels_outside_zero_one_rejected(labels):
    with pytest.raises(ValueError, match="0 or 1"):
        classification_metrics([0.3, 0.2, 0.1], labels)


def test_auc_antisymmetry():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=50)
    labels = rng.integers(0, 2, size=50)
    auc, _ = classification_metrics(scores, labels)
    flipped, _ = classification_metrics(-scores, labels)
    assert auc + flipped == pytest.approx(1.0, abs=1e-12)


def test_report_serialization_keys():
    rep = MetricsReport(auc=0.5, auc_pr=0.5, mrr=0.25,
                        hits={10: 0.5, 1: 0.1}, n_queries=4, seed=7)
    d = rep.to_dict()
    assert list(d["hits"]) == ["1", "10"]
    table = rep.format_table()
    assert "hit@10" in table and "0.2500" in table


def test_link_prediction_triples_random_scorer_mrr():
    # iid candidate scores are exchangeable with respect to the truth
    # position, so the expected reciprocal rank over 51 candidates is H(51)/51
    g = build_graph([(0, 0, 1)], 400, 1)
    rng = np.random.default_rng(3)

    def score(triples):
        return rng.normal(size=len(triples))

    queries = [(0, 0, 1)] * 200
    rep = run_link_prediction_triples(score, g, queries, 50, seed=11)
    expect = np.sum(1.0 / np.arange(1, 52)) / 51.0
    assert abs(rep.mrr - expect) < 0.02
    assert rep.n_queries == 200


def test_full_filtered_ranking_logs_one_warning(caplog):
    # num_neg above the entity count: every side is short, and the run
    # says so once, not once per side
    rng = np.random.default_rng(4)
    g = build_graph(random_triples(rng, 12, 2, 0.2), 12, 2)
    queries = g.triples[:5]
    with caplog.at_level("WARNING", logger="indkg"):
        run_link_prediction_triples(lambda c: np.zeros(len(c)), g, queries, 50,
                                    seed=1)
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 1
    assert messages[0].startswith("10 of 10 ranking sides had fewer than 50")


def test_early_stopping_patience():
    state = MonitorState(patience=2)
    state, stop, best = early_stop_decision(state, 0.5)
    assert best and not stop
    state, stop, best = early_stop_decision(state, 0.4)
    assert not best and not stop
    state, stop, best = early_stop_decision(state, 0.45)
    assert not best and stop
    assert state.best_epoch == 1


def test_early_stopping_min_delta():
    state = MonitorState(patience=5, min_delta=0.1)
    early_stop_decision(state, 0.5)
    _, _, best = early_stop_decision(state, 0.55)
    assert not best  # improvement below min_delta does not count
    _, _, best = early_stop_decision(state, 0.65)
    assert best


def test_early_stopping_nonfinite():
    with pytest.raises(NonFiniteValue):
        early_stop_decision(MonitorState(), float("nan"))
