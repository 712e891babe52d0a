"""Training the subgraph scorer on a synthetic KG and evaluating inductively.

The inductive split reuses the training relations but entirely fresh
entities, so the model can only succeed through structure.

Run: python3 demos/04_train_and_evaluate.py
"""

import numpy as np

from indkg.config import RunConfig
from indkg.evaluate import run_link_prediction, run_triple_classification
from indkg.kgcore import DatasetBundle, Vocab
from indkg.sampling import make_classification_batch
from indkg.training import subgraph_item_scorer, train_subgraph_model


def random_kg(rng, n, n_rel, density):
    out = []
    for h in range(n):
        for t in range(n):
            if h != t and rng.random() < density:
                out.append((h, int(rng.integers(n_rel)), t))
    return np.asarray(out, dtype=np.int64)


rng = np.random.default_rng(7)
train_all = random_kg(rng, 20, 2, 0.2)
rng.shuffle(train_all)
# fresh entity ids 20..31 for the inductive graph
ind_all = random_kg(rng, 12, 2, 0.3) + np.array([20, 0, 20])
rng.shuffle(ind_all)

vocab = Vocab({f"e{i}": i for i in range(32)}, {f"r{i}": i for i in range(2)})
empty = np.empty((0, 3), dtype=np.int64)
bundle = DatasetBundle(vocab,
                       train=train_all[8:], valid=train_all[:8], test=empty,
                       support=ind_all[6:], query=ind_all[:6], ind_valid=empty)
print(f"train {len(bundle.train)}, valid {len(bundle.valid)}, "
      f"support {len(bundle.support)}, query {len(bundle.query)}")

cfg = RunConfig(seed=7, k=2, dim=8, rel_dim=8, num_layers=1, num_bases=2,
                layer_kind="att", lr=0.02, epochs=15, batch_size=8, margin=2.0)
model, records = train_subgraph_model(bundle, cfg)
for rec in records:
    if rec["split"] == "valid":
        print(f"epoch {rec['epoch']:2d}  valid auc {rec['auc']:.3f}  "
              f"auc_pr {rec['auc_pr']:.3f}")

# a scorer maps a whole batch of candidates to one score each
scorer = subgraph_item_scorer(model)
batch = make_classification_batch(bundle.ind_graph, bundle.query[:3], cfg.k,
                                  np.random.default_rng(0))
print("\nscores of 3 query triples and their corruptions:")
for item, label, score in zip(batch.items, batch.labels01, scorer(batch.items)):
    print(f"  {item.sub.target}  label {label}  score {score:7.3f}")

tc = run_triple_classification(scorer, bundle.ind_graph, bundle.query,
                               cfg.k, seed=7)
print("\ntriple classification on unseen entities:")
print(tc.format_table())

lp = run_link_prediction(scorer, bundle.ind_graph, bundle.query, cfg.k,
                         num_neg=10, seed=7)
print("\nlink prediction (truth vs 10 filtered corruptions per side):")
print(lp.format_table())
