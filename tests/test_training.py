import numpy as np
import pytest

from indkg.config import RunConfig
from indkg.kgcore import DatasetBundle, Vocab, build_graph
from indkg.model import DecoderKind, init_entity_embeddings, init_entity_encoder
from indkg.sampling import MetaTask
from indkg.training import (
    entity_triple_scorer,
    episode_loss,
    subgraph_item_scorer,
    train_entity_encoder_model,
    train_subgraph_model,
)

from helpers import kge_numpy_oracle, planted_type_cycle_kg, random_triples, tape_size


def int_vocab(ne, nr):
    return Vocab({f"e{i}": i for i in range(ne)},
                 {f"r{i}": i for i in range(nr)})


def small_bundle(seed=0, ne=16, nr=2, density=0.25):
    rng = np.random.default_rng(seed)
    triples = np.asarray(random_triples(rng, ne, nr, density), dtype=np.int64)
    rng.shuffle(triples)
    n_valid = max(2, len(triples) // 6)
    empty = np.empty((0, 3), dtype=np.int64)
    return DatasetBundle(int_vocab(ne, nr), triples[n_valid:],
                         triples[:n_valid], empty, triples[n_valid:],
                         triples[:n_valid], empty)


def small_config(**overrides):
    base = dict(seed=3, k=2, dim=8, rel_dim=8, num_layers=1, num_bases=2,
                layer_kind="rgcn", lr=0.01, epochs=4, batch_size=8,
                margin=2.0, patience=50, num_neg=1)
    base.update(overrides)
    return RunConfig(**base)


def strip_wall(records):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]


def test_overfit_probe():
    # negatives are resampled every epoch, so the loss floor is noisy; the
    # model must still drive the hinge down by an order of magnitude
    bundle = small_bundle()
    cfg = small_config(epochs=80, lr=0.02, margin=1.0)
    model, records = train_subgraph_model(bundle, cfg)
    train_losses = [r["loss"] for r in records if r["split"] == "train"]
    assert train_losses[-1] < 0.2 * train_losses[0]
    assert min(train_losses) < 0.06


def test_training_deterministic():
    bundle = small_bundle(1)
    cfg = small_config(epochs=3)
    m1, r1 = train_subgraph_model(bundle, cfg)
    m2, r2 = train_subgraph_model(small_bundle(1), cfg)
    for (n1, t1), (n2, t2) in zip(sorted(m1.tensors().items()),
                                  sorted(m2.tensors().items())):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data)
    assert strip_wall(r1) == strip_wall(r2)


def test_training_seed_changes_result():
    bundle = small_bundle(1)
    m1, _ = train_subgraph_model(bundle, small_config(epochs=2, seed=3))
    m2, _ = train_subgraph_model(small_bundle(1), small_config(epochs=2, seed=4))
    assert not np.array_equal(m1.tensors()["readout_w"].data,
                              m2.tensors()["readout_w"].data)


def test_zero_epochs_returns_init():
    bundle = small_bundle(2)
    model, records = train_subgraph_model(bundle, small_config(epochs=0))
    assert records == []


def test_validation_records_present():
    bundle = small_bundle(3)
    _, records = train_subgraph_model(bundle, small_config(epochs=2))
    valid = [r for r in records if r["split"] == "valid"]
    assert len(valid) == 2
    for r in valid:
        assert 0.0 <= r["auc"] <= 1.0 and 0.0 <= r["auc_pr"] <= 1.0


def test_early_stopping_cuts_run():
    bundle = small_bundle(4)
    # min_delta above 1 makes every check a non-improvement after the first
    cfg = small_config(epochs=30, patience=2, min_delta=2.0)
    _, records = train_subgraph_model(bundle, cfg)
    epochs_run = max(r["epoch"] for r in records) + 1
    assert epochs_run == 3


def test_subgraph_scorer_matches_model():
    bundle = small_bundle(5)
    cfg = small_config(epochs=1)
    model, _ = train_subgraph_model(bundle, cfg)
    from indkg.sampling import NegativeSpec, make_train_instance
    inst = make_train_instance(bundle.train_graph, tuple(bundle.train[0]),
                               cfg.k, NegativeSpec(num_neg=1),
                               np.random.default_rng(0))
    scorer = subgraph_item_scorer(model)
    from indkg.model import subgraph_score
    direct = subgraph_score(model, inst.pos.sub, inst.pos.labels,
                            inst.pos.rel).item()
    assert scorer([inst.pos])[0] == direct


def planted_bundle(rng):
    train, support, query, ne, nr = planted_type_cycle_kg(
        rng, n_types=4, per_type_train=4, per_type_ind=2)
    empty = np.empty((0, 3), dtype=np.int64)
    return DatasetBundle(int_vocab(ne, nr), train, empty, empty,
                         support, query, empty)


def test_entity_encoder_training_reduces_loss():
    bundle = planted_bundle(np.random.default_rng(6))
    cfg = RunConfig(seed=5, dim=8, lr=0.05, episodes=60, margin=2.0,
                    region_size=30, support_frac=0.7, num_neg=2,
                    model_family="entity")
    enc, records = train_entity_encoder_model(bundle, cfg)
    losses = [r["loss"] for r in records]
    assert len(records) > 0
    assert np.mean(losses[-5:]) < np.mean(losses[:5])


def test_entity_encoder_deterministic():
    cfg = RunConfig(seed=5, dim=6, lr=0.05, episodes=10, margin=2.0,
                    region_size=30, support_frac=0.7, model_family="entity")
    e1, r1 = train_entity_encoder_model(planted_bundle(np.random.default_rng(6)), cfg)
    e2, r2 = train_entity_encoder_model(planted_bundle(np.random.default_rng(6)), cfg)
    assert np.array_equal(e1.psi.data, e2.psi.data)
    assert np.array_equal(e1.dec_rel.data, e2.dec_rel.data)
    assert strip_wall(r1) == strip_wall(r2)


def test_entity_scorer_unembeddable_candidate():
    bundle = planted_bundle(np.random.default_rng(7))
    cfg = RunConfig(seed=5, dim=6, episodes=2, region_size=30,
                    support_frac=0.7, model_family="entity")
    enc, _ = train_entity_encoder_model(bundle, cfg)
    ents = np.unique(bundle.support[:, [0, 2]])
    scorer = entity_triple_scorer(enc, bundle.support, ents)
    h, r, t = (int(x) for x in bundle.query[0])
    assert np.isfinite(scorer([(h, r, t)])[0])
    assert scorer([(10_000, r, t)])[0] == float("-inf")


def test_entity_scorer_matches_autodiff_path():
    # the numpy scorer used at eval time must agree with the Tensor-based
    # scoring used in the loss
    bundle = planted_bundle(np.random.default_rng(8))
    cfg = RunConfig(seed=9, dim=6, episodes=2, region_size=30,
                    support_frac=0.7, model_family="entity", decoder="rotate")
    enc, _ = train_entity_encoder_model(bundle, cfg)
    ents = np.unique(bundle.support[:, [0, 2]])
    scorer = entity_triple_scorer(enc, bundle.support, ents)
    local = {int(e): i for i, e in enumerate(ents)}
    emb = init_entity_embeddings(bundle.support, ents, enc.psi)
    from indkg.autodiff import gather_rows, reshape
    from indkg.model import kge_score
    h, r, t = (int(x) for x in bundle.query[0])
    hv = reshape(gather_rows(emb, [local[h]]), (6,))
    tv = reshape(gather_rows(emb, [local[t]]), (6,))
    rv = reshape(gather_rows(enc.dec_rel, [r]), (3,))
    direct = kge_score(enc.decoder, hv, rv, tv).item()
    assert scorer([(h, r, t)])[0] == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("decoder,p", [("transe", 1.0), ("transe", 2.0),
                                       ("transe", 3.0), ("distmult", 2.0),
                                       ("rotate", 2.0)])
def test_entity_scorer_matches_numpy_oracle(decoder, p):
    bundle = planted_bundle(np.random.default_rng(9))
    cfg = RunConfig(seed=4, dim=6, episodes=2, region_size=30, support_frac=0.7,
                    model_family="entity", decoder=decoder, transe_p=p)
    enc, _ = train_entity_encoder_model(bundle, cfg)
    ents = np.unique(bundle.support[:, [0, 2]])[::-1]   # order must not matter
    scorer = entity_triple_scorer(enc, bundle.support, ents)
    missing = int(ents.max()) + 1
    cands = bundle.query.tolist() + [(missing, 0, int(ents[0])),
                                     (int(ents[0]), 1, missing)]
    scores = scorer(cands)
    emb = init_entity_embeddings(bundle.support, ents, enc.psi).data
    local = {int(e): i for i, e in enumerate(ents)}
    for (h, r, t), got in zip(cands, scores):
        if h not in local or t not in local:
            assert got == float("-inf")
            continue
        want = kge_numpy_oracle(enc.decoder, emb[local[h]], enc.dec_rel.data[r],
                                emb[local[t]])
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def region_task(n_query):
    """A meta-task over entities 0..7 whose query holds ``n_query`` triples."""
    triples = np.array([(i, i % 2, (i + 1) % 8) for i in range(8)]
                       + [(i, 1, (i + 3) % 8) for i in range(8)], dtype=np.int64)
    task = MetaTask(np.arange(8), triples[n_query:], triples[:n_query])
    return task, build_graph(triples, 8, 2)


def test_episode_loss_tape_independent_of_query_count():
    enc = init_entity_encoder(2, 6, DecoderKind("rotate"),
                              np.random.default_rng(0))
    cfg = RunConfig(num_neg=2, margin=2.0)
    sizes = set()
    for n_query in (1, 3, 6):
        task, graph = region_task(n_query)
        loss = episode_loss(enc, task, graph, cfg, np.random.default_rng(1))
        sizes.add(tape_size(loss))
    assert len(sizes) == 1, sizes


def test_episode_loss_counts_dropped_negatives(caplog):
    # every (a, 0, b) over the region {0, 1} is known, so no corruption of
    # the query survives the rejection test
    known = np.array([(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)], dtype=np.int64)
    task = MetaTask(np.arange(2), known[1:], known[:1])
    enc = init_entity_encoder(1, 4, DecoderKind("transe"), np.random.default_rng(0))
    with caplog.at_level("WARNING", logger="indkg.training"):
        loss = episode_loss(enc, task, build_graph(known, 2, 1),
                            RunConfig(num_neg=3), np.random.default_rng(2))
    assert loss is None
    warnings = [r.getMessage() for r in caplog.records if r.name == "indkg.training"]
    assert len(warnings) == 1 and "dropped 3 of 3 negatives" in warnings[0]
