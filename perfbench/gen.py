"""Seeded synthetic inputs in the raw ``train/`` + ``ind/`` layout.

Each workload's make-up is fixed in ``WORKLOADS``; only the seed varies, so
every seed yields graphs of exactly the stated entity, relation and triple
counts. Training entities are labelled ``e<i>``, inductive ones ``u<i>``,
relations ``r<i>``, so the two entity sets are disjoint by construction.

Heads are drawn uniformly or from a zipf law over a seeded entity order;
tails and relations are uniform. A coverage prefix gives every entity one
edge as head, and every relation one edge in ``train/train.txt``, so the
vocabulary has exactly the stated sizes and no query entity is missing from
the support graph.

    python3 perfbench/gen.py --workload uniform-gnn --seed 1 --out raw
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

import numpy as np

# Pipeline settings every workload shares.
K = 3                           # enclosing-subgraph hops
LAYER_KIND = "att"              # subgraph family: the paper's default layer
EPOCHS = 1                      # subgraph family: training epochs
SLICES = 10                     # distinct per-round slices of the subgraph-family samples


@dataclass(frozen=True)
class GraphSpec:
    entities: int
    triples: int
    heads: str = "uniform"      # "uniform" | "zipf"
    zipf_a: float = 1.6


@dataclass(frozen=True)
class Workload:
    """Input make-up plus the pipeline settings a workload runs with.

    Subgraph-family workloads train and evaluate on seeded samples of the
    training, validation and query triples: round ``i`` of a run takes the
    ``i``-th slice of each sample (cycling after ``SLICES``), so a run
    averages over many more triples than one round holds. A sample holds
    only triples whose enclosing subgraph has a stated number of edges
    (``train_band`` on the training graph, ``query_band`` on the inductive
    one), so the work per item is alike from seed to seed.
    """
    name: str
    relations: int
    train_graph: GraphSpec
    ind_graph: GraphSpec
    valid: int                  # held out of the train graph; extract and stats use it
    test: int
    query: int                  # held out of the inductive graph
    family: str                 # "entity" | "subgraph" (the train/eval model)
    train_sample: int = 0       # subgraph family, per round: positives per epoch
    valid_sample: int = 0       # ... validation triples
    tc_sample: int = 0          # ... TC query triples
    lp_sample: int = 0          # ... LP query triples (the first ones of the TC slice)
    train_band: tuple = (0, 0)  # enclosing-subgraph edges of sampled triples
    query_band: tuple = (0, 0)
    episodes: int = 0           # entity-family meta-task episodes
    lp_negatives: int = 50      # LP negatives per query side


WORKLOADS = {
    w.name: w for w in (
        Workload("large-datapath", relations=200,
                 train_graph=GraphSpec(6_000, 60_000),
                 ind_graph=GraphSpec(2_000, 9_000),
                 valid=200, test=60, query=50, family="entity", episodes=300),
        Workload("uniform-gnn", relations=180,
                 train_graph=GraphSpec(800, 5_200),
                 ind_graph=GraphSpec(400, 2_300),
                 valid=100, test=40, query=360, family="subgraph",
                 train_sample=4, valid_sample=1, tc_sample=8,
                 lp_sample=2, train_band=(80, 100), query_band=(50, 70),
                 episodes=40, lp_negatives=10),
    )
}

# The fault probe runs on this fixed dataset, which never depends on --seed.
PROBE = Workload("probe", relations=4,
                 train_graph=GraphSpec(60, 240), ind_graph=GraphSpec(20, 80),
                 valid=4, test=4, query=5, family="entity")
PROBE_SEED = 20230427


def _head_probs(rng, n, spec: GraphSpec):
    if spec.heads == "uniform":
        return None
    weights = np.arange(1, n + 1, dtype=np.float64) ** -spec.zipf_a
    probs = np.empty(n)
    probs[rng.permutation(n)] = weights / weights.sum()
    return probs


def graph_triples(rng, spec: GraphSpec, relations: int, cover_relations: bool):
    """``spec.triples`` distinct (h, r, t) id triples without self-loops.

    The first ``spec.entities`` rows are the coverage prefix; callers keep
    them in the split that defines the graph.
    """
    n = spec.entities
    if spec.triples < n:
        raise ValueError("need at least one triple per entity")
    ph = np.arange(n)
    pt = (ph + 1 + rng.integers(n - 1, size=n)) % n
    pr = (np.arange(n) % relations if cover_relations
          else rng.integers(relations, size=n))
    prefix = np.column_stack([ph, pr, pt])
    probs = _head_probs(rng, n, spec)
    cand = prefix
    while True:
        m = 2 * (spec.triples - n) + 64
        h = rng.choice(n, size=m, p=probs)
        t = rng.integers(n, size=m)
        r = rng.integers(relations, size=m)
        cand = np.vstack([cand, np.column_stack([h, r, t])[h != t]])
        key = (cand[:, 0] * relations + cand[:, 1]) * n + cand[:, 2]
        _, first = np.unique(key, return_index=True)
        cand = cand[np.sort(first)]
        if len(cand) >= spec.triples:
            return cand[:spec.triples]


def make_splits(w: Workload, seed: int):
    """Labelled triples per split: train, valid, test, support, query."""
    rng = np.random.default_rng((seed, 0x6E4))
    tr = graph_triples(rng, w.train_graph, w.relations, cover_relations=True)
    ind = graph_triples(rng, w.ind_graph, w.relations, cover_relations=False)
    n_tr, n_ind = w.train_graph.entities, w.ind_graph.entities
    held = n_tr + rng.permutation(len(tr) - n_tr)[:w.valid + w.test]
    q = n_ind + rng.permutation(len(ind) - n_ind)[:w.query]
    keep_tr = np.ones(len(tr), bool)
    keep_tr[held] = False
    keep_ind = np.ones(len(ind), bool)
    keep_ind[q] = False

    def lab(rows, prefix):
        return [(f"{prefix}{h}", f"r{r}", f"{prefix}{t}") for h, r, t in rows.tolist()]

    return {"train": lab(tr[keep_tr], "e"),
            "valid": lab(tr[held[:w.valid]], "e"),
            "test": lab(tr[held[w.valid:]], "e"),
            "support": lab(ind[keep_ind], "u"),
            "query": lab(ind[q], "u")}


_FILES = {"train": ("train", "train.txt"), "valid": ("train", "valid.txt"),
          "test": ("train", "test.txt"), "support": ("ind", "train.txt"),
          "query": ("ind", "test.txt")}


def write_raw(splits, root) -> None:
    for name, (sub, fname) in _FILES.items():
        os.makedirs(os.path.join(root, sub), exist_ok=True)
        with open(os.path.join(root, sub, fname), "w", encoding="utf-8") as fh:
            fh.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in splits[name])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    write_raw(make_splits(WORKLOADS[args.workload], args.seed), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
