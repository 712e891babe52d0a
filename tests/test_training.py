import numpy as np
import pytest

from indkg import training
from indkg.autodiff import concat, relu, tmean
from indkg.config import RunConfig
from indkg.errors import IsolatedEntity
from indkg.kgcore import DatasetBundle, Vocab, build_graph
from indkg.model import (
    Adam,
    DecoderKind,
    build_model,
    gradient_check,
    init_entity_embeddings,
    init_entity_encoder,
    init_model,
    model_settings,
    subgraph_score,
)
from indkg.sampling import RETRY_CAP, MetaTask, make_train_batch, sample_meta_task
from indkg.training import (
    entity_triple_scorer,
    episode_loss,
    subgraph_item_scorer,
    train_entity_encoder_model,
    train_subgraph_model,
)

from helpers import (
    composed_episode_loss,
    kge_numpy_oracle,
    mixed_scored_items,
    planted_type_cycle_kg,
    random_triples,
    tape_size,
)


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
    pos, _ = make_train_batch(bundle.train_graph, bundle.train[:1], cfg.k, 1,
                              [np.random.default_rng(0)])
    scorer = subgraph_item_scorer(model)
    direct = subgraph_score(model, pos.sub, pos.labels, pos.rel).item()
    assert scorer([pos])[0] == direct


def test_item_scorer_chunks_match_per_item(monkeypatch):
    model = init_model(3, 2, dim=8, rel_dim=6, num_layers=2, num_bases=2,
                       layer_kind="att", rng=np.random.default_rng(0))
    items = mixed_scored_items(np.random.default_rng(23))
    budget = max(2 * len(it.sub.edges) for it in items)
    chunks = []
    score_chunk = training.score_subgraphs

    def recorded(m, chunk):
        out = score_chunk(m, chunk)
        chunks.append((sum(2 * len(it.sub.edges) for it in chunk), len(chunk), out))
        return out

    monkeypatch.setattr(training, "MESSAGE_BUDGET", budget)
    monkeypatch.setattr(training, "score_subgraphs", recorded)
    got = subgraph_item_scorer(model)(items)
    want = np.array([subgraph_score(model, it.sub, it.labels, it.rel).item()
                     for it in items])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert len(chunks) > 1 and sum(n for _, n, _ in chunks) == len(items)
    assert all(msgs <= budget for msgs, _, _ in chunks)
    assert not any(out.requires_grad for _, _, out in chunks)   # no tape
    assert subgraph_item_scorer(model)([]).shape == (0,)


@pytest.mark.parametrize("layer_kind", ["rgcn", "att", "comp"])
def test_batched_training_step_matches_per_item_loss(layer_kind, monkeypatch):
    bundle = small_bundle(6)
    cfg = small_config(epochs=1, num_neg=2, batch_size=len(bundle.train),
                       layer_kind=layer_kind)
    grads = []

    class RecordingAdam(training.Adam):
        def step(self):
            grads.append({n: p.grad.copy() for n, p in self.params.items()})
            super().step()

    monkeypatch.setattr(training, "Adam", RecordingAdam)
    train_subgraph_model(bundle, cfg)
    # the same first step, one subgraph_score call per item
    model = init_model(bundle.vocab.num_relations, cfg.k, dim=cfg.dim,
                       rel_dim=cfg.rel_dim, num_layers=cfg.num_layers,
                       num_bases=cfg.num_bases, layer_kind=cfg.layer_kind,
                       comp_op=cfg.comp_op, rng=np.random.default_rng((cfg.seed, 0x1017)))
    hinges = []
    for i, triple in enumerate(bundle.train.tolist()):
        pos, *negs = make_train_batch(bundle.train_graph, [triple], cfg.k,
                                      cfg.num_neg,
                                      [np.random.default_rng((cfg.seed, 0, i))],
                                      cfg.filtered)
        pos_score = subgraph_score(model, pos.sub, pos.labels, pos.rel)
        hinges += [relu(subgraph_score(model, neg.sub, neg.labels, neg.rel)
                        - pos_score + cfg.margin) for neg in negs]
    tmean(concat(hinges)).backward()
    for name, t in model.tensors().items():
        assert np.abs(grads[0][name] - t.grad).max() <= 1e-12 * np.abs(t.grad).max(), name


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


@pytest.mark.parametrize("decoder", ["transe", "distmult", "rotate"])
def test_entity_scorer_lookup_equals_dict_lookup_bitwise(decoder):
    # shuffled entity ids; candidates below, between and above them
    from indkg.autodiff import Tensor, gather_rows
    from indkg.model import kge_score
    bundle = planted_bundle(np.random.default_rng(10))
    cfg = RunConfig(seed=3, dim=6, episodes=2, region_size=30, support_frac=0.7,
                    model_family="entity", decoder=decoder)
    enc, _ = train_entity_encoder_model(bundle, cfg)
    ents = np.random.default_rng(1).permutation(np.unique(bundle.support[:, [0, 2]]))
    ids = range(-1, int(ents.max()) + 3)
    assert len(ids) > len(ents) + 3
    rng = np.random.default_rng(2)
    cands = [(h, int(rng.integers(2)), t) for h in ids for t in ids]
    got = entity_triple_scorer(enc, bundle.support, ents)(cands)

    local = {int(e): i for i, e in enumerate(ents)}
    tri = np.array(cands)
    h, t = (np.array([local.get(e, -1) for e in col]) for col in (tri[:, 0], tri[:, 2]))
    ok = (h >= 0) & (t >= 0)
    emb = Tensor(init_entity_embeddings(bundle.support, ents, enc.psi).data)
    want = np.full(len(tri), -np.inf)
    want[ok] = kge_score(enc.decoder, gather_rows(emb, h[ok]),
                         gather_rows(Tensor(enc.dec_rel.data), tri[ok, 1]),
                         gather_rows(emb, t[ok])).data
    assert 0 < ok.sum() < len(ok)
    assert got.tobytes() == want.tobytes()


def test_repeated_entity_id_is_a_value_error():
    support = np.array([(0, 0, 1), (1, 0, 2)], dtype=np.int64)
    enc = init_entity_encoder(1, 4, DecoderKind("transe"), np.random.default_rng(0))
    for build in (lambda: init_entity_embeddings(support, [0, 1, 2, 1], enc.psi),
                  lambda: entity_triple_scorer(enc, support, [0, 1, 2, 1])):
        with pytest.raises(ValueError, match="entity id 1 listed more than once"):
            build()


def region_task(n_query):
    """A meta-task over entities 0..7 whose query holds ``n_query`` triples."""
    triples = np.array([(i, i % 2, (i + 1) % 8) for i in range(8)]
                       + [(i, 1, (i + 3) % 8) for i in range(8)], dtype=np.int64)
    task = MetaTask(triples[n_query:], triples[:n_query])
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
    task = MetaTask(known[1:], known[:1])
    enc = init_entity_encoder(1, 4, DecoderKind("transe"), np.random.default_rng(0))
    with caplog.at_level("WARNING", logger="indkg.training"):
        loss = episode_loss(enc, task, build_graph(known, 2, 1),
                            RunConfig(num_neg=3), np.random.default_rng(2))
    assert loss is None
    warnings = [r.getMessage() for r in caplog.records if r.name == "indkg.training"]
    assert len(warnings) == 1 and "dropped 3 of 3 negatives" in warnings[0]
    assert f"each of their {RETRY_CAP} draws" in warnings[0]


@pytest.mark.parametrize("decoder", ["transe", "distmult", "rotate"])
def test_episode_loss_equals_dict_lookup_oracle(decoder):
    # the negatives in their draw order, looked up one at a time in a dict,
    # and the queries and negatives scored in two decoder calls
    from indkg.model import kge_score, margin_loss
    from indkg.autodiff import gather_rows
    from indkg.sampling import corrupt_triple
    task, graph = region_task(4)
    enc = init_entity_encoder(2, 6, DecoderKind(decoder), np.random.default_rng(0))
    cfg = RunConfig(num_neg=3, margin=2.0)
    got = episode_loss(enc, task, graph, cfg, np.random.default_rng(5)).item()

    rng = np.random.default_rng(5)
    ents = np.unique(task.support[:, [0, 2]])
    local = {int(e): i for i, e in enumerate(ents)}
    owner, neg_h, neg_t = [], [], []
    for qi, triple in enumerate(task.query.tolist()):
        for _ in range(cfg.num_neg):
            neg = corrupt_triple(triple, graph, rng, entities=ents)
            owner.append(qi)
            neg_h.append(local[neg[0]])
            neg_t.append(local[neg[2]])
    emb = init_entity_embeddings(task.support, ents, enc.psi)
    r_vec = gather_rows(enc.dec_rel, task.query[:, 1])
    pos = kge_score(enc.decoder, gather_rows(emb, [local[h] for h in task.query[:, 0]]),
                    r_vec, gather_rows(emb, [local[t] for t in task.query[:, 2]]))
    neg = kge_score(enc.decoder, gather_rows(emb, neg_h), gather_rows(r_vec, owner),
                    gather_rows(emb, neg_t))
    assert got == margin_loss(gather_rows(pos, owner), neg, cfg.margin).item()


def test_episode_loss_scores_in_one_decoder_call(monkeypatch):
    calls = []
    score = training.kge_score

    def counted(kind, h, r, t, *rows):
        out = score(kind, h, r, t, *rows)
        calls.append(len(out.data))
        return out

    monkeypatch.setattr(training, "kge_score", counted)
    task, graph = region_task(3)
    enc = init_entity_encoder(2, 6, DecoderKind("transe"), np.random.default_rng(0))
    episode_loss(enc, task, graph, RunConfig(num_neg=2), np.random.default_rng(1))
    assert calls == [3 + 3 * 2]
    calls.clear()
    cfg = RunConfig(seed=5, dim=6, episodes=8, region_size=30, support_frac=0.7,
                    model_family="entity", check_per_epoch=1)
    _, records = train_entity_encoder_model(planted_bundle(np.random.default_rng(6)), cfg)
    assert len(calls) == len(records) > 0


@pytest.mark.parametrize("decoder", ["transe", "distmult", "rotate"])
def test_episode_loss_gradient_check(decoder):
    task, graph = region_task(3)
    enc = init_entity_encoder(2, 6, DecoderKind(decoder), np.random.default_rng(2))
    cfg = RunConfig(num_neg=2, margin=2.0)
    err = gradient_check(enc.tensors(),
                         lambda: episode_loss(enc, task, graph, cfg, np.random.default_rng(3)),
                         sample_frac=1.0)
    assert err < 1e-6


@pytest.mark.parametrize("decoder,p", [("transe", 1.0), ("transe", 2.0),
                                       ("transe", 3.0), ("distmult", 2.0),
                                       ("rotate", 2.0)])
def test_episode_loss_tape_size(decoder, p):
    # psi and dec_rel, then one node each for the embeddings, the decoder
    # call and the hinge: the composed ops took 21 (TransE p=2), 18
    # (DistMult) and 43 (RotatE) nodes
    task, graph = region_task(3)
    enc = init_entity_encoder(2, 6, DecoderKind(decoder, p=p), np.random.default_rng(0))
    loss = episode_loss(enc, task, graph, RunConfig(num_neg=2, margin=2.0),
                        np.random.default_rng(1))
    assert tape_size(loss) == 5


def test_entity_scorer_records_no_tape(monkeypatch):
    embedded = []
    embed = training.init_entity_embeddings

    def recorded(triples, ids, psi):
        out = embed(triples, ids, psi)
        embedded.append(out)
        return out

    monkeypatch.setattr(training, "init_entity_embeddings", recorded)
    enc = init_entity_encoder(2, 6, DecoderKind("distmult"), np.random.default_rng(0))
    task, _ = region_task(0)
    scores = entity_triple_scorer(enc, task.support, np.arange(8))(task.support)
    assert np.isfinite(scores).all()
    assert [e.requires_grad for e in embedded] == [False]


def test_episode_loss_query_entity_outside_support():
    triples = np.array([(0, 0, 1), (1, 0, 2)], dtype=np.int64)
    task = MetaTask(triples[:1], triples[1:])
    enc = init_entity_encoder(1, 4, DecoderKind("transe"), np.random.default_rng(0))
    with pytest.raises(IsolatedEntity, match=r"no incident triple: \[2\]"):
        episode_loss(enc, task, build_graph(triples, 3, 1), RunConfig(num_neg=1),
                     np.random.default_rng(0))


@pytest.mark.parametrize("decoder,p", [("transe", 1.0), ("transe", 2.0),
                                       ("transe", 3.0), ("distmult", 2.0),
                                       ("rotate", 2.0)])
def test_fused_episodes_equal_the_composed_chain(decoder, p):
    # 50 episodes of the three fused nodes against the chain of single ops
    # they replace (gather, segment sum, scale, row gathers, the decoder's
    # ops, the hinge's ops): psi, dec_rel and every recorded loss are equal
    # bit for bit for every decoder
    bundle = planted_bundle(np.random.default_rng(6))
    cfg = RunConfig(seed=5, dim=8, lr=0.05, episodes=50, margin=2.0, region_size=30,
                    support_frac=0.7, num_neg=2, model_family="entity",
                    decoder=decoder, transe_p=p, check_per_epoch=1)
    enc, records = train_entity_encoder_model(bundle, cfg)

    oracle = build_model(model_settings(cfg, "entity", bundle.vocab.num_relations),
                         np.random.default_rng((cfg.seed, 0x3317)))
    opt = Adam(oracle.tensors(), lr=cfg.lr)
    losses = []
    for episode in range(cfg.episodes):
        ep_rng = np.random.default_rng((cfg.seed, 0xEA5, episode))
        task = sample_meta_task(bundle.train_graph, cfg.region_size, cfg.support_frac, ep_rng)
        loss = composed_episode_loss(oracle, task, bundle.train_graph, cfg, ep_rng)
        if loss is None:
            continue
        losses.append(loss.item())
        loss.backward()
        opt.step()
    assert [r["loss"] for r in records] == losses and len(losses) > 40
    assert enc.psi.data.tobytes() == oracle.psi.data.tobytes()
    assert enc.dec_rel.data.tobytes() == oracle.dec_rel.data.tobytes()


def test_entity_wall_ms_spans_every_episode_since_the_last_record(monkeypatch):
    # a clock that advances one second per sampled task: a record taken every
    # third episode spans three of them, not the last one alone
    clock = [0.0]
    sample = training.sample_meta_task

    def ticking(*args, **kwargs):
        clock[0] += 1.0
        return sample(*args, **kwargs)

    monkeypatch.setattr(training, "sample_meta_task", ticking)
    monkeypatch.setattr(training.time, "monotonic", lambda: clock[0])
    cfg = RunConfig(seed=5, dim=6, episodes=9, region_size=30, support_frac=0.7,
                    num_neg=2, model_family="entity", check_per_epoch=3)
    _, records = train_entity_encoder_model(planted_bundle(np.random.default_rng(6)), cfg)
    assert [r["epoch"] for r in records] == [2, 5, 8]
    assert [r["wall_ms"] for r in records] == [3000.0, 3000.0, 3000.0]


def discard_bundle():
    """A training graph whose meta-tasks at region_size 13 and support_frac
    0.5 have known fates, and the per-episode replay of the sampler's draws
    that counts them: a start on the triangle 0-1-2 (four relations per
    edge) or its pendant 3 gives a task that moves the pendant triple
    (2, 0, 3) into support exactly when the permutation puts it in the
    query; a start on the star 4 -> 5..17 gives a split whose every query
    triple is moved, so it is rejected; the isolated 18 and 19 give empty
    regions."""
    triangle = sorted([(a, r, b) for a, b in ((0, 1), (1, 2), (2, 0)) for r in range(4)]
                      + [(2, 0, 3)])
    star = [(4, 0, leaf) for leaf in range(5, 18)]
    train = np.array(triangle + star, dtype=np.int64)
    empty = np.empty((0, 3), dtype=np.int64)
    bundle = DatasetBundle(int_vocab(20, 4), train, empty, empty, train[:1], train[:1], empty)

    def replay(rng):
        short = rejected = moved = 0
        while True:
            start = int(rng.integers(20))
            if start >= 18:
                short += 1
                continue
            order = rng.permutation(13)
            if start >= 4:
                rejected += 1
                continue
            moved += triangle.index((2, 0, 3)) in order[6:].tolist()
            return short, rejected, moved
    return bundle, replay


def test_meta_task_discards_are_counted_in_one_warning(caplog):
    bundle, replay = discard_bundle()
    cfg = RunConfig(seed=3, dim=6, episodes=12, region_size=13, support_frac=0.5,
                    num_neg=1, model_family="entity")
    with caplog.at_level("WARNING", logger="indkg.training"):
        train_entity_encoder_model(bundle, cfg)
    counts = np.sum([replay(np.random.default_rng((cfg.seed, 0xEA5, episode)))
                     for episode in range(cfg.episodes)], axis=0)
    short, rejected, moved = counts.tolist()
    assert short > 0 and rejected > 0 and moved > 0
    drawn = cfg.episodes * 7            # 13 - round(0.5 * 13) query triples per task
    warnings = [r.getMessage() for r in caplog.records if r.name == "indkg.training"]
    assert warnings == [
        f"meta-task sampler over 12 episodes: regions with fewer than 13 triples "
        f"{short}, splits rejected for an empty query or support {rejected}, "
        f"query triples moved into support {moved} of {drawn}"]

