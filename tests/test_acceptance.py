"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a one-line
PASS summary; tolerances and budgets are stated inline. Criterion 7 needs
the real benchmark dataset on disk and is skipped when it is absent.
"""

import json
import os
import time

import numpy as np
import pytest

from indkg.cli import main
from indkg.config import RunConfig
from indkg.evaluate import (
    classification_metrics,
    compute_rank,
    run_link_prediction_triples,
)
from indkg.kgcore import DatasetBundle, Vocab, build_graph
from indkg.model import (
    DecoderKind,
    gradient_check,
    init_model,
    kge_score,
    subgraph_score,
)
from indkg.autodiff import Tensor
from indkg.store import StoreReader, StoreWriter
from indkg.subgraph import extract_enclosing_subgraph, label_nodes
from indkg.training import entity_triple_scorer, train_entity_encoder_model

from helpers import (
    ap_grouped_oracle,
    auc_pair_oracle,
    enclosing_nodes_oracle,
    make_raw_dataset_dir,
    planted_type_cycle_kg,
    random_subgraph,
    random_triples,
    rank_sort_oracle,
)


def report(num, detail):
    print(f"[acceptance] criterion {num}: PASS  ({detail})")


def test_criterion_1_extraction_oracle():
    """200 random graphs, every k in {1, 2, 3}, node sets equal the
    walk-length oracle; budget 10 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    graphs = 0
    while graphs < 200:
        n = int(rng.integers(5, 30))
        triples = random_triples(rng, n, 4, float(rng.uniform(0.08, 0.3)))
        if len(triples) == 0:
            continue
        graphs += 1
        g = build_graph(triples, n, 4)
        target = tuple(g.triples[rng.integers(g.num_triples)])
        for k in (1, 2, 3):
            sub = extract_enclosing_subgraph(g, target, k)
            expected = enclosing_nodes_oracle(g.triples, n, target, k)
            assert set(sub.nodes.tolist()) == expected, (graphs, target, k)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(1, f"200 graphs x 3 hop budgets in {elapsed:.2f}s")


def test_criterion_2_label_invariants():
    """Distance labels: width 2(k+2), two-hot rows, anchor one-hots at the
    endpoint slots, all distances clamped to k+1. Zero violations allowed."""
    rng = np.random.default_rng(102)
    checked = 0
    for _ in range(150):
        n = int(rng.integers(5, 30))
        triples = random_triples(rng, n, 3, 0.15)
        if len(triples) == 0:
            continue
        g = build_graph(triples, n, 3)
        target = tuple(g.triples[rng.integers(g.num_triples)])
        k = int(rng.integers(1, 4))
        sub = extract_enclosing_subgraph(g, target, k)
        labels = label_nodes(sub)
        width = 2 * (k + 2)
        assert labels.shape == (sub.num_nodes, width)
        assert np.all((labels == 0.0) | (labels == 1.0))
        assert np.all(labels.sum(axis=1) == 2.0)
        assert np.all(labels[:, :width // 2].sum(axis=1) == 1.0)
        assert np.all(sub.dist_pairs <= k + 1)
        assert np.all(sub.dist_pairs >= 0)
        # each row is exactly the one-hot pair of its stored distances
        for i, (dh, dt) in enumerate(sub.dist_pairs.tolist()):
            assert labels[i, dh] == 1.0 and labels[i, width // 2 + dt] == 1.0
        assert labels[sub.head_local, 0] == 1.0
        assert labels[sub.tail_local, width // 2] == 1.0
        checked += sub.num_nodes
    report(2, f"{checked} labelled nodes, zero violations")


def test_criterion_3_gradient_checks():
    """Central-difference checks for every layer kind, composition op and
    decoder, plus the assembled models; max relative error 1e-4; budget 60 s."""
    t0 = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(103)

    for kind in (DecoderKind("transe", p=2.0), DecoderKind("transe", p=1.0),
                 DecoderKind("distmult"), DecoderKind("rotate")):
        d = 8
        h = Tensor(rng.normal(size=d), requires_grad=True)
        t = Tensor(rng.normal(size=d), requires_grad=True)
        r = Tensor(rng.normal(size=d // 2 if kind.name == "rotate" else d),
                   requires_grad=True)
        err = gradient_check({"h": h, "r": r, "t": t},
                             lambda: kge_score(kind, h, r, t),
                             sample_frac=1.0, rng=np.random.default_rng(0))
        assert err <= 1e-4, kind
        worst = max(worst, err)

    triples = random_triples(rng, 16, 3, 0.25)
    g = build_graph(triples, 16, 3)
    target = tuple(g.triples[0])
    sub = extract_enclosing_subgraph(g, target, 2)
    labels = label_nodes(sub)
    configs = [("rgcn", "sub"), ("att", "sub"),
               ("comp", "sub"), ("comp", "mult"), ("comp", "corr")]
    for layer_kind, comp_op in configs:
        model = init_model(3, 2, dim=8, rel_dim=8, num_layers=2, num_bases=2,
                           layer_kind=layer_kind, comp_op=comp_op,
                           rng=np.random.default_rng(11))
        err = gradient_check(
            model.tensors(),
            lambda: subgraph_score(model, sub, labels, target[1]),
            sample_frac=0.2, rng=np.random.default_rng(1))
        assert err <= 1e-4, (layer_kind, comp_op)
        worst = max(worst, err)

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(3, f"worst relative error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_4_metric_oracles():
    """AUC, AUC-PR and mean-tie rank agree with independent oracles to 1e-12
    on 1000 random instances of up to 2000 scores each."""
    rng = np.random.default_rng(104)
    for _ in range(500):
        n = int(rng.integers(2, 2001))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        scores = np.round(rng.normal(size=n), 1)  # ties on purpose
        auc, ap = classification_metrics(scores, labels)
        assert abs(auc - auc_pair_oracle(scores, labels)) < 1e-12
        assert abs(ap - ap_grouped_oracle(scores, labels)) < 1e-12
    for _ in range(500):
        n = int(rng.integers(1, 2001))
        scores = np.round(rng.normal(size=n), 1)
        idx = int(rng.integers(n))
        assert abs(compute_rank(scores, idx)
                   - rank_sort_oracle(scores, idx)) < 1e-12
    report(4, "1000 instances, max deviation below 1e-12")


def test_criterion_5_ranking_statistics():
    """Constant scorer: every rank over 51 candidates is exactly 26, so
    MRR = 1/26. Random scorer, 10000 queries: MRR within 0.005 of
    H(51)/51."""
    g = build_graph([(0, 0, 1)], 500, 1)
    rep = run_link_prediction_triples(lambda c: np.zeros(len(c)), g,
                                      [(0, 0, 1)] * 100, 50, seed=105)
    assert abs(rep.mrr - 1.0 / 26.0) < 1e-15  # one ulp from the mean

    rng = np.random.default_rng(105)
    rep = run_link_prediction_triples(lambda c: rng.normal(size=len(c)), g,
                                      [(0, 0, 1)] * 10_000, 50, seed=106)
    expect = float(np.sum(1.0 / np.arange(1, 52)) / 51.0)
    assert abs(rep.mrr - expect) < 0.005
    report(5, f"constant MRR exact, random MRR {rep.mrr:.4f} vs {expect:.4f}")


def _run_pipeline(raw, out, seed=7):
    base = ["--data_root", str(raw), "--output_dir", str(out),
            "--seed", str(seed), "--k", "2", "--dim", "8", "--rel_dim", "8",
            "--num_layers", "1", "--num_bases", "2", "--epochs", "3",
            "--layer_kind", "att"]
    assert main(["preprocess"] + base) == 0
    assert main(["train"] + base) == 0
    assert main(["eval"] + base) == 0


def _strip_wall_jsonl(path):
    out = []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        rec.pop("wall_ms", None)
        out.append(json.dumps(rec, sort_keys=True))
    return "\n".join(out)


def _strip_wall_json(path):
    rec = json.loads(path.read_text())
    rec.pop("wall_ms", None)
    return json.dumps(rec, sort_keys=True)


def test_criterion_6_determinism(tmp_path):
    """Two full train + eval runs with the same seed produce byte-identical
    logs and reports once wall-clock fields are removed."""
    raw = tmp_path / "raw"
    make_raw_dataset_dir(str(raw), np.random.default_rng(66))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    _run_pipeline(raw, out1)
    _run_pipeline(raw, out2)
    m1 = _strip_wall_jsonl(out1 / "metrics.jsonl")
    m2 = _strip_wall_jsonl(out2 / "metrics.jsonl")
    assert m1 == m2
    r1 = _strip_wall_json(out1 / "report.json")
    r2 = _strip_wall_json(out2 / "report.json")
    assert r1 == r2
    report(6, f"{len(m1.splitlines())} log lines identical across runs")


def _benchmark_root():
    for cand in (os.environ.get("INDKG_DATA"),
                 os.path.join(os.path.dirname(__file__), "..", "data",
                              "fb15k-237-v1")):
        if cand and os.path.isdir(os.path.join(cand, "train")) \
                and os.path.isdir(os.path.join(cand, "ind")):
            return cand
    return None


def test_criterion_7_benchmark(tmp_path):
    """Real-benchmark quality gate: AUC-PR >= 0.75 and Hit@10 >= 0.55 within
    a 30 minute budget on 4 threads. Requires the dataset on disk (set
    INDKG_DATA or place it under data/fb15k-237-v1)."""
    root = _benchmark_root()
    if root is None:
        pytest.skip("benchmark dataset not available in this environment "
                    "(no network access); set INDKG_DATA to run")
    out = tmp_path / "bench"
    base = ["--data_root", root, "--output_dir", str(out), "--seed", "7",
            "--k", "3", "--dim", "32", "--rel_dim", "32", "--num_layers", "3",
            "--num_bases", "4", "--epochs", "10", "--layer_kind", "att",
            "--threads", "4", "--batch_size", "16", "--lr", "0.005"]
    t0 = time.monotonic()
    assert main(["preprocess"] + base) == 0
    assert main(["train"] + base) == 0
    assert main(["eval", "--task", "tc"] + base) == 0
    tc = json.loads((out / "report.json").read_text())
    assert main(["eval", "--task", "lp"] + base) == 0
    lp = json.loads((out / "report.json").read_text())
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    assert tc["auc_pr"] >= 0.75
    assert lp["hits"]["10"] >= 0.55
    report(7, f"auc_pr {tc['auc_pr']:.3f}, hit@10 {lp['hits']['10']:.3f} "
              f"in {elapsed:.0f}s")


def test_criterion_8_entity_encoder_planted_kg():
    """Relation-derived entity encoder reaches MRR >= 0.9 on a synthetic KG
    whose facts follow a planted compositional rule."""
    rng = np.random.default_rng(108)
    train, support, query, ne, nr = planted_type_cycle_kg(rng)
    vocab = Vocab({f"e{i}": i for i in range(ne)},
                  {f"r{i}": i for i in range(nr)})
    empty = np.empty((0, 3), dtype=np.int64)
    bundle = DatasetBundle(vocab, train, empty, empty, support, query, empty)
    cfg = RunConfig(seed=7, dim=16, lr=0.01, episodes=300, margin=5.0,
                    region_size=80, support_frac=0.8, num_neg=4,
                    model_family="entity")
    enc, _ = train_entity_encoder_model(bundle, cfg)
    ents = np.unique(np.vstack([support, query])[:, [0, 2]])
    scorer = entity_triple_scorer(enc, support, ents)
    rep = run_link_prediction_triples(scorer, bundle.ind_graph, query, 50,
                                      seed=7)
    assert rep.mrr >= 0.9
    report(8, f"MRR {rep.mrr:.3f} on {len(query)} held-out queries")


def test_criterion_9_store_roundtrip(tmp_path):
    """10000 subgraphs survive a write / read / rewrite cycle with the
    rewritten file byte-identical to the original."""
    rng = np.random.default_rng(109)
    subs = [random_subgraph(rng) for _ in range(10_000)]
    p1, p2 = tmp_path / "a.ikgs", tmp_path / "b.ikgs"
    with StoreWriter(p1) as w:
        for sub in subs:
            w.write(sub)
    reader = StoreReader(p1)
    assert len(reader) == 10_000
    with StoreWriter(p2) as w:
        for sub in reader:
            w.write(sub)
    assert p1.read_bytes() == p2.read_bytes()
    for i in (0, 4_999, 9_999):
        assert reader.read(i) == subs[i]
    report(9, f"{len(subs)} records, {p1.stat().st_size} bytes identical")
