import warnings

import numpy as np
import pytest

from indkg import evaluate
from indkg.errors import (
    EmptyInput,
    EmptyScores,
    NonFiniteValue,
    ShapeMismatch,
    SingleClass,
)
from indkg.evaluate import (
    MetricsReport,
    MonitorState,
    classification_metrics,
    compute_rank,
    early_stop_decision,
    ranking_metrics,
    run_link_prediction,
    run_link_prediction_triples,
)
from indkg.kgcore import IndexedGraph
from indkg.model import init_model
from indkg.sampling import make_ranking_batch, make_ranking_candidates
from indkg.training import subgraph_item_scorer

from helpers import (
    ap_grouped_oracle,
    auc_pair_oracle,
    link_prediction_per_side_oracle,
    random_graph,
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


@pytest.mark.parametrize("scores, truth", [([np.nan, 1.0, 2.0], 0),
                                            ([0.5, np.nan, 2.0], 0),
                                            ([3.0, 1.0, np.nan], 1)])
def test_nan_score_makes_the_rank_nan(scores, truth):
    # a NaN truth once ranked 0.5 (MRR 2.0), and a NaN negative ranked below it
    assert np.isnan(compute_rank(scores, truth))


def test_nan_rank_makes_mrr_and_every_hit_nan():
    mrr, hits = ranking_metrics([1.0, np.nan, 3.0], hits_at=(1, 3, 10))
    assert np.isnan(mrr)
    assert sorted(hits) == [1, 3, 10] and all(np.isnan(v) for v in hits.values())


def test_link_prediction_with_one_nan_score_reports_nan():
    g = IndexedGraph([(0, 0, 1), (1, 0, 2), (2, 0, 3)], 8, 1)
    calls = []

    def score(cands):
        out = np.arange(len(cands), dtype=np.float64)
        if not calls:
            out[-1] = np.nan
        calls.append(len(cands))
        return out

    rep = run_link_prediction_triples(score, g, [(0, 0, 1), (1, 0, 2)], 3, seed=0)
    assert calls and np.isnan(rep.mrr)
    assert rep.hits and all(np.isnan(v) for v in rep.hits.values())
    # the same run without the NaN gives ranks in range
    calls.append(0)
    rep = run_link_prediction_triples(score, g, [(0, 0, 1), (1, 0, 2)], 3, seed=0)
    assert 0.0 < rep.mrr <= 1.0 and all(0.0 <= v <= 1.0 for v in rep.hits.values())


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
    g = IndexedGraph([(0, 0, 1)], 400, 1)
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
    g = IndexedGraph(random_triples(rng, 12, 2, 0.2), 12, 2)
    queries = g.triples[:5]
    with caplog.at_level("WARNING", logger="indkg"):
        run_link_prediction_triples(lambda c: np.zeros(len(c)), g, queries, 50,
                                    seed=1)
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 1
    assert messages[0].startswith("10 of 10 ranking sides had fewer than 50")


K = 2


def table_scorers(num_entities, num_relations, seed):
    """A triple scorer and a ScoredItem scorer reading one coarse random
    table of (h, r, t) scores, so ties are frequent and a candidate's score
    does not depend on the call it is scored in."""
    table = np.round(np.random.default_rng(seed).normal(
        size=(num_entities, num_relations, num_entities)), 1)

    def score_triples(cands):
        tri = np.asarray(cands, dtype=np.int64).reshape(-1, 3)
        return table[tri[:, 0], tri[:, 1], tri[:, 2]]

    return score_triples, lambda items: score_triples([it.sub.target for it in items])


def entry_points(graph, score_triples, score_items):
    """(run, side, scorer) for both link-prediction entry points, where
    ``run(queries, num_neg, seed)`` is the protocol and ``side`` draws one
    side as the protocol does."""
    def run_items(queries, num_neg, seed):
        return run_link_prediction(score_items, graph, queries, K, num_neg, seed)

    def side_items(num_neg):
        def side(triple, direction, rng):
            batch = make_ranking_batch(graph, triple, K, direction, num_neg, rng)
            return batch.candidates, batch.truth_idx
        return side

    def run_triples(queries, num_neg, seed):
        return run_link_prediction_triples(score_triples, graph, queries, num_neg, seed)

    def side_triples(num_neg):
        return lambda triple, direction, rng: make_ranking_candidates(
            graph, triple, direction, num_neg, rng)

    return {"items": (run_items, side_items, score_items),
            "triples": (run_triples, side_triples, score_triples)}


def recorded_ranks(monkeypatch):
    ranks = []

    def rank(scores, truth_idx):
        ranks.append(compute_rank(scores, truth_idx))
        return ranks[-1]
    monkeypatch.setattr(evaluate, "compute_rank", rank)
    return ranks


# (entities, density, num_neg): full-size sides; short sides on a dense
# graph; num_neg at or above the entity count (full filtered ranking)
GRAPHS = [(20, 0.15, 5), (10, 0.5, 7), (12, 0.2, 50)]


@pytest.mark.parametrize("entry", ["items", "triples"])
@pytest.mark.parametrize("n_ent,density,num_neg", GRAPHS)
def test_grouped_ranking_equals_per_side_oracle(monkeypatch, caplog, entry,
                                                n_ent, density, num_neg):
    rng = np.random.default_rng(n_ent + num_neg)
    graph, triples = random_graph(rng, n_ent, 3, density)
    queries = triples[rng.choice(len(triples), size=6, replace=False)]
    run, side, scorer = entry_points(graph, *table_scorers(n_ent, 3, 5))[entry]
    ranks, short, mrr, hits = link_prediction_per_side_oracle(
        scorer, side(num_neg), queries, num_neg, seed=3)
    got_ranks = recorded_ranks(monkeypatch)
    with caplog.at_level("WARNING", logger="indkg"):
        rep = run(queries, num_neg, 3)
    assert got_ranks == ranks
    assert rep.mrr == pytest.approx(mrr, abs=1e-12)
    assert rep.hits == pytest.approx(hits, abs=1e-12)
    assert rep.n_queries == len(queries)
    warned = [r.getMessage() for r in caplog.records]
    if short:
        assert warned == [f"{len(short)} of {len(ranks)} ranking sides had fewer "
                          f"than {num_neg} filtered negatives; the smallest pool "
                          f"held {min(short)}"]
    else:
        assert warned == []


@pytest.mark.parametrize("group", [1, 7, 30, evaluate.SCORE_GROUP])
def test_scorer_calls_hold_consecutive_sides_within_the_group(monkeypatch, group):
    # sides of 21 candidates (num_neg 20) and, at full filtered ranking, of
    # up to 40: a call either holds whole consecutive sides, at most
    # ``group`` candidates in all, or one side alone; sides that fit in one
    # group share one call
    rng = np.random.default_rng(7)
    graph, triples = random_graph(rng, 40, 3, 0.05)
    score, _ = table_scorers(40, 3, 1)
    sides, calls = [], []

    def candidates(*args):
        out = make_ranking_candidates(*args)
        sides.append(len(out[0]))
        return out

    def scorer(cands):
        calls.append(len(cands))
        return score(cands)

    monkeypatch.setattr(evaluate, "make_ranking_candidates", candidates)
    monkeypatch.setattr(evaluate, "SCORE_GROUP", group)
    for num_neg in (20, 100):
        sides.clear(), calls.clear()
        run_link_prediction_triples(scorer, graph, triples[:10], num_neg, seed=2)
        assert len(sides) == 20
        i = 0
        for size in calls:
            j = i + 1
            while sum(sides[i:j]) < size:
                j += 1
            assert sum(sides[i:j]) == size
            assert j == i + 1 or size <= group
            i = j
        assert i == len(sides)
        if sum(sides) <= group:
            assert calls == [sum(sides)]


@pytest.mark.parametrize("entry", ["items", "triples"])
def test_group_of_one_candidate_gives_the_same_report(monkeypatch, entry):
    # with a real model on the subgraph side: a union of several sides'
    # subgraphs scores each candidate as its own side would
    rng = np.random.default_rng(11)
    graph, triples = random_graph(rng, 16, 3, 0.2)
    model = init_model(3, K, dim=8, rel_dim=6, num_layers=2, num_bases=2,
                       layer_kind="att", rng=np.random.default_rng(0))
    score_triples, _ = table_scorers(16, 3, 2)
    run = entry_points(graph, score_triples, subgraph_item_scorer(model))[entry][0]
    queries = triples[:8]
    want = run(queries, 6, 4).to_dict()
    monkeypatch.setattr(evaluate, "SCORE_GROUP", 1)
    got = run(queries, 6, 4).to_dict()
    want.pop("wall_ms"), got.pop("wall_ms")
    assert got == want


def test_scorer_returning_the_wrong_count_is_rejected():
    g = IndexedGraph([(0, 0, 1), (1, 0, 2)], 5, 1)
    with pytest.raises(ShapeMismatch):
        run_link_prediction_triples(lambda c: np.zeros(len(c) - 1), g,
                                    [(0, 0, 1)], 3, seed=0)


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
