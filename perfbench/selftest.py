"""Shows that every output check can fail.

Each check runs once on a correct output, which it must accept, and once on
a deliberately corrupted copy, which it must reject:

    python3 perfbench/selftest.py

Exits 0 when every check accepts the correct output and rejects the
corrupted one.
"""

from __future__ import annotations

import os
import sys
import tempfile
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from indkg import kgcore  # noqa: E402
from indkg.evaluate import classification_metrics, compute_rank, ranking_metrics  # noqa: E402
from indkg.model import (DecoderKind, init_entity_encoder, init_model,  # noqa: E402
                         subgraph_score)
from indkg.store import StoreReader, StoreWriter  # noqa: E402
from indkg.subgraph import extract_enclosing_subgraph, label_nodes  # noqa: E402
from indkg.training import entity_triple_scorer  # noqa: E402

SPEC = replace(gen.PROBE, train_graph=gen.GraphSpec(60, 400))


def drop_interior_node(sub):
    """The subgraph with its last interior node and that node's edges removed."""
    keep = np.ones(sub.num_nodes, bool)
    keep[-1] = False
    edges = sub.edges[(sub.edges[:, 0] != sub.num_nodes - 1) & (sub.edges[:, 1] != sub.num_nodes - 1)]
    return replace(sub, nodes=sub.nodes[keep], dist_pairs=sub.dist_pairs[keep], edges=edges)


def cases(tmp):
    """(name, errors on the correct output, errors on the corrupted one)."""
    splits = gen.make_splits(SPEC, gen.PROBE_SEED)
    gen.write_raw(splits, os.path.join(tmp, "raw"))
    bundle = kgcore.load_raw_dataset(os.path.join(tmp, "raw"))
    n = bundle.vocab.num_entities
    bad_splits = dict(splits, train=splits["train"][1:] + [splits["valid"][0]])
    yield "bundle", checks.check_bundle(bundle, splits), checks.check_bundle(bundle, bad_splits)

    tri = checks.id_triples(splits, ("train",), bundle.vocab)
    subs = [extract_enclosing_subgraph(bundle.train_graph, tuple(t), 3) for t in bundle.valid.tolist()]
    sub = max(subs, key=lambda s: s.num_nodes)
    assert sub.num_nodes > 2, "fixture needs a subgraph with interior nodes"
    yield ("subgraph, one interior node dropped", checks.check_subgraph(sub, tri, n),
           checks.check_subgraph(drop_interior_node(sub), tri, n))

    path = os.path.join(tmp, "s.ikgs")
    with StoreWriter(path) as w:
        for s in subs:
            w.write(s)
    good = checks.check_store(StoreReader(path), len(subs), tri, n, range(len(subs)))
    with StoreWriter(path) as w:
        for s in subs:
            w.write(drop_interior_node(s) if s is sub else s)
    yield "store", good, checks.check_store(StoreReader(path), len(subs), tri, n, range(len(subs)))

    model = init_model(bundle.vocab.num_relations, 3, dim=8, rel_dim=8, num_layers=2,
                       num_bases=2, layer_kind="att", rng=np.random.default_rng(3))
    echo = {"num_layers": 2, "layer_kind": "att"}
    arrays = {k: t.data for k, t in model.tensors().items()}
    score = subgraph_score(model, sub, label_nodes(sub), sub.target[1]).item()
    item = [(sub, sub.target[1])]
    yield ("att score, perturbed by 1e-6",
           checks.check_dense_scores(arrays, echo, item, [score], tri, n, "item"),
           checks.check_dense_scores(arrays, echo, item, [score * (1 + 1e-6)], tri, n, "item"))

    enc = init_entity_encoder(bundle.vocab.num_relations, 8, DecoderKind("transe"),
                              rng=np.random.default_rng(4))
    ents = np.unique(np.vstack([bundle.support, bundle.query])[:, [0, 2]])
    scorer = entity_triple_scorer(enc, bundle.support, ents)
    triples = [tuple(t) for t in bundle.query.tolist()] + [(0, 0, 1)]
    scores = [scorer(t) for t in triples]
    arrays = {"psi": enc.psi.data, "dec_rel": enc.dec_rel.data}
    echo = {"decoder": "transe", "transe_p": 2.0, "margin": 12.0}
    yield ("entity scores, one perturbed",
           checks.check_entity_scores(arrays, echo, bundle.support, ents, triples, scores, "t"),
           checks.check_entity_scores(arrays, echo, bundle.support, ents, triples,
                                      [scores[0] + 1e-6] + scores[1:], "t"))

    rng = np.random.default_rng(5)
    tc_scores = np.round(rng.normal(size=40), 1)       # rounded, so ties occur
    labels = np.repeat([1, 0], 20)
    auc, ap = classification_metrics(tc_scores, labels)
    report = {"auc": auc, "auc_pr": ap, "n_classified": 40}
    perturbed = tc_scores.copy()
    perturbed[np.argmax(labels == 0)] += 5.0
    yield ("TC metrics, one score perturbed", checks.check_tc(tc_scores, labels, report),
           checks.check_tc(perturbed, labels, report))

    sides = []
    for _ in range(12):
        s = np.round(rng.normal(size=11), 1)
        truth = int(rng.integers(11))
        sides.append((s, truth, compute_rank(s, truth)))
    mrr, hits = ranking_metrics([r for _, _, r in sides])
    lp_report = {"mrr": mrr, "hits": {str(k): v for k, v in hits.items()}}
    shifted = [(s, t, r + 1.0 if j == 0 else r) for j, (s, t, r) in enumerate(sides)]
    yield "LP ranks, one rank shifted", checks.check_lp(sides, lp_report), checks.check_lp(shifted, lp_report)
    moved = [(s, (t + 1) % len(s), r) for s, t, r in sides]
    yield "LP ranks, truth moved", checks.check_lp(sides, lp_report), checks.check_lp(moved, lp_report)


def main() -> int:
    ok = True
    runs = os.path.join(os.path.dirname(HERE), ".perfbench_runs")
    os.makedirs(runs, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs) as tmp:
        for name, good, bad in cases(tmp):
            passed = not good and bool(bad)
            ok &= passed
            print(f"{'ok  ' if passed else 'FAIL'} {name}: accepts correct output: "
                  f"{not good}; rejects corrupted output: {bool(bad)}")
            for e in good:
                print(f"     unexpected: {e}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
