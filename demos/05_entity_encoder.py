"""The relation-derived entity encoder on a KG with a planted rule.

Facts follow a cycle over entity types (r_k links type k to type k+1), so
an entity's incident relations identify its type exactly. The encoder
embeds unseen entities as the mean of learned per-(relation, direction)
vectors and should recover the rule on a disjoint entity set.

Run: python3 demos/05_entity_encoder.py
"""

import numpy as np

from indkg.config import RunConfig
from indkg.evaluate import run_link_prediction_triples
from indkg.kgcore import DatasetBundle, Vocab
from indkg.training import entity_triple_scorer, train_entity_encoder_model

T = 6           # number of types / relations
PER_TRAIN = 8   # training entities per type
PER_IND = 3     # unseen entities per type


def cycle_facts(entities_by_type):
    facts = []
    for k in range(T):
        for a in entities_by_type[k]:
            for b in entities_by_type[(k + 1) % T]:
                facts.append((a, k, b))
    return np.asarray(facts, dtype=np.int64)


train_ents = {k: [k + T * i for i in range(PER_TRAIN)] for k in range(T)}
base = T * PER_TRAIN
ind_ents = {k: [base + k + T * i for i in range(PER_IND)] for k in range(T)}
train = cycle_facts(train_ents)
ind = cycle_facts(ind_ents)
rng = np.random.default_rng(0)
rng.shuffle(ind)
query, support = ind[: len(ind) // 5], ind[len(ind) // 5:]

ne = base + T * PER_IND
vocab = Vocab({f"e{i}": i for i in range(ne)}, {f"r{k}": k for k in range(T)})
empty = np.empty((0, 3), dtype=np.int64)
bundle = DatasetBundle(vocab, train, empty, empty, support, query, empty)
print(f"{len(train)} training facts over {base} entities; "
      f"{len(query)} queries over {T * PER_IND} unseen entities")

cfg = RunConfig(seed=7, dim=16, lr=0.01, episodes=200, margin=5.0,
                region_size=60, support_frac=0.8, num_neg=4,
                model_family="entity")
enc, records = train_entity_encoder_model(bundle, cfg)
losses = [r["loss"] for r in records]
print(f"episodic margin loss: first {losses[0]:.3f}, last {losses[-1]:.3f}")

ents = np.unique(np.vstack([support, query])[:, [0, 2]])
scorer = entity_triple_scorer(enc, support, ents)
# one call scores a batch of (h, r, t) triples; an entity without support
# triples has no embedding, so its triples score -inf
h, r, t = (int(x) for x in query[0])
probe = [(h, r, t), (h, (r + 1) % T, t), (ne, r, t)]
print("\na query triple, its relation swapped, and an unseen head:")
for triple, score in zip(probe, scorer(probe)):
    print(f"  score{triple} = {score:.3f}")
report = run_link_prediction_triples(scorer, bundle.ind_graph, query,
                                     num_neg=50, seed=7)
print("\ninductive link prediction with support-derived embeddings:")
print(report.format_table())
