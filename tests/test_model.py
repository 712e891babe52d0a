import numpy as np
import pytest

from indkg.autodiff import Tensor, gather_rows
from indkg.config import parse_config
from indkg.errors import (
    IsolatedEntity,
    LengthMismatch,
    MissingFile,
    NonFiniteUpdate,
    ShapeMismatch,
    TruncatedFile,
)
from indkg.kgcore import IndexedGraph
from indkg.model import (
    MODEL_KEYS,
    Adam,
    DecoderKind,
    build_model,
    gradient_check,
    init_entity_embeddings,
    init_entity_encoder,
    init_model,
    kge_score,
    load_checkpoint,
    margin_loss,
    model_settings,
    no_grad_view,
    restore_model,
    save_checkpoint,
    score_subgraphs,
    subgraph_score,
)
from indkg.sampling import ScoredItem
from indkg.subgraph import extract_enclosing_subgraph, label_nodes

from helpers import (
    composed_kge_score,
    composed_margin_loss,
    dense_model_score,
    entity_embeddings_loop_oracle,
    mixed_scored_items,
    random_triples,
    tsum,
)


def vec(*vals):
    return Tensor(np.array(vals, dtype=np.float64), requires_grad=True)


def test_transe_exact_translation():
    kind = DecoderKind("transe", p=2.0)
    s = kge_score(kind, vec(1.0, 2.0), vec(0.5, -1.0), vec(1.5, 1.0))
    assert s.item() == pytest.approx(0.0, abs=1e-12)
    s2 = kge_score(kind, vec(0.0, 0.0), vec(3.0, 4.0), vec(0.0, 0.0))
    assert s2.item() == pytest.approx(-5.0)


def test_transe_p1():
    kind = DecoderKind("transe", p=1.0)
    s = kge_score(kind, vec(0.0, 0.0), vec(3.0, -4.0), vec(0.0, 0.0))
    assert s.item() == pytest.approx(-7.0)


def test_distmult_trilinear():
    kind = DecoderKind("distmult")
    s = kge_score(kind, vec(1.0, 2.0), vec(3.0, 4.0), vec(5.0, 6.0))
    assert s.item() == pytest.approx(1 * 3 * 5 + 2 * 4 * 6)


def test_rotate_identity_rotation():
    # zero phases: score = margin - sum |h - t| over complex components
    kind = DecoderKind("rotate", margin=12.0)
    h = vec(1.0, 2.0, 3.0, 4.0)
    r = vec(0.0, 0.0)
    assert kge_score(kind, h, r, h).item() == pytest.approx(12.0)


def test_rotate_unit_modulus():
    # rotating any unit vector by any phase keeps modulus 1, so the score of
    # h against t = 0 is margin - d/2 regardless of the phase
    rng = np.random.default_rng(0)
    kind = DecoderKind("rotate", margin=5.0)
    for _ in range(10):
        theta = rng.uniform(-np.pi, np.pi, size=3)
        ang = rng.uniform(-np.pi, np.pi, size=3)
        h = Tensor(np.concatenate([np.cos(ang), np.sin(ang)]))
        t = Tensor(np.zeros(6))
        s = kge_score(kind, h, Tensor(theta), t)
        assert s.item() == pytest.approx(5.0 - 3.0, abs=1e-12)


def test_rotate_shape_guard():
    kind = DecoderKind("rotate")
    with pytest.raises(ShapeMismatch):
        kge_score(kind, vec(1.0, 2.0, 3.0), vec(0.0), vec(1.0, 2.0, 3.0))


def test_unknown_decoder_rejected():
    with pytest.raises(ValueError):
        DecoderKind("complex")


def test_decoder_gradients():
    rng = np.random.default_rng(1)
    for kind in (DecoderKind("transe", p=2.0), DecoderKind("transe", p=1.0),
                 DecoderKind("distmult"), DecoderKind("rotate")):
        d = 6
        h = Tensor(rng.normal(size=d), requires_grad=True)
        t = Tensor(rng.normal(size=d), requires_grad=True)
        rw = d // 2 if kind.name == "rotate" else d
        r = Tensor(rng.normal(size=rw), requires_grad=True)
        err = gradient_check({"h": h, "r": r, "t": t},
                             lambda: kge_score(kind, h, r, t),
                             sample_frac=1.0, rng=np.random.default_rng(0))
        assert err < 1e-6, kind.name


DECODERS = [DecoderKind("transe", p=1.0), DecoderKind("transe", p=2.0),
            DecoderKind("transe", p=3.0), DecoderKind("distmult"),
            DecoderKind("rotate")]


def batch_vectors(rng, kind, m, d=6):
    rw = d // 2 if kind.name == "rotate" else d
    return [Tensor(rng.normal(size=(m, w)), requires_grad=True)
            for w in (d, rw, d)]


@pytest.mark.parametrize("kind", DECODERS, ids=lambda k: f"{k.name}-{k.p}")
def test_batched_kge_matches_rows(kind):
    h, r, t = batch_vectors(np.random.default_rng(11), kind, m=9)
    batch = kge_score(kind, h, r, t).data
    assert batch.shape == (9,)
    rows = np.array([kge_score(kind, Tensor(h.data[i]), Tensor(r.data[i]),
                               Tensor(t.data[i])).item() for i in range(9)])
    assert np.all(np.abs(batch - rows) <= 1e-12 * np.abs(rows))


@pytest.mark.parametrize("kind", DECODERS, ids=lambda k: f"{k.name}-{k.p}")
def test_batched_decoder_gradients(kind):
    h, r, t = batch_vectors(np.random.default_rng(12), kind, m=5)
    w = np.random.default_rng(13).normal(size=5)
    err = gradient_check({"h": h, "r": r, "t": t},
                         lambda: tsum(kge_score(kind, h, r, t) * w),
                         sample_frac=1.0, rng=np.random.default_rng(0))
    assert err < 1e-6


def fused_and_composed(fused, composed, leaves, w):
    """Values and leaf gradients of ``tsum(out * w)`` for both builds."""
    out = []
    for build in (fused, composed):
        for t in leaves:
            t.grad = None
        y = build()
        tsum(y * w).backward()
        out.append((y.data.copy(), [t.grad.copy() for t in leaves]))
    return out


@pytest.mark.parametrize("kind", DECODERS, ids=lambda k: f"{k.name}-{k.p}")
def test_fused_decoder_equals_composed_chain(kind):
    # one node reading rows by index (repeated rows, one table for h and t)
    # or whole tensors, against the chain of single ops with row gathers
    rng = np.random.default_rng(21)
    rw = 3 if kind.name == "rotate" else 6
    ent = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    rel = Tensor(rng.normal(size=(3, rw)), requires_grad=True)
    hi, ri, ti = [0, 2, 2, 4, 1, 0, 3], [1, 0, 1, 2, 2, 0, 1], [2, 2, 0, 1, 1, 4, 3]
    w = rng.normal(size=7)
    (got, ggrads), (want, wgrads) = fused_and_composed(
        lambda: kge_score(kind, ent, rel, ent, hi, ri, ti),
        lambda: composed_kge_score(kind, gather_rows(ent, hi), gather_rows(rel, ri),
                                   gather_rows(ent, ti)), [ent, rel], w)
    assert got.tobytes() == want.tobytes()
    for g, wg in zip(ggrads, wgrads):
        assert g.tobytes() == wg.tobytes()
    h, r, t = batch_vectors(rng, kind, m=7)
    (got, ggrads), (want, wgrads) = fused_and_composed(
        lambda: kge_score(kind, h, r, t), lambda: composed_kge_score(kind, h, r, t),
        [h, r, t], w)
    assert got.tobytes() == want.tobytes()
    for g, wg in zip(ggrads, wgrads):       # equal up to the sign of a zero
        assert np.array_equal(g, wg)


def test_fused_margin_loss_equals_composed_chain():
    rng = np.random.default_rng(22)
    scores = Tensor(rng.normal(size=9), requires_grad=True)
    pos_idx, neg_idx = [0, 0, 1, 2, 2, 2], [3, 4, 5, 6, 7, 8]
    (got, ggrads), (want, wgrads) = fused_and_composed(
        lambda: margin_loss(scores, scores, 0.7, pos_idx, neg_idx),
        lambda: composed_margin_loss(gather_rows(scores, pos_idx),
                                     gather_rows(scores, neg_idx), 0.7), [scores], 1.0)
    assert 0 < (want > 0).sum() and got.tobytes() == want.tobytes()
    assert ggrads[0].tobytes() == wgrads[0].tobytes()


def test_margin_loss_values():
    pos = Tensor([2.0, 0.0])
    neg = Tensor([1.0, 1.0])
    # hinges: max(0, 1-2+1) = 0 and max(0, 1-0+1) = 2 -> mean 1
    assert margin_loss(pos, neg, 1.0).item() == pytest.approx(1.0)
    with pytest.raises(LengthMismatch):
        margin_loss(pos, Tensor([1.0]), 1.0)


def scoring_fixture(layer_kind="att", comp_op="sub", seed=0):
    rng = np.random.default_rng(seed)
    triples = random_triples(rng, 18, 3, 0.2)
    g = IndexedGraph(triples, 18, 3)
    target = tuple(g.triples[0])
    sub = extract_enclosing_subgraph(g, target, 2)
    rel_dim = 8 if layer_kind == "comp" else 6
    model = init_model(3, 2, dim=8, rel_dim=rel_dim, num_layers=2, num_bases=2,
                       layer_kind=layer_kind, comp_op=comp_op,
                       rng=np.random.default_rng(seed + 100))
    return model, sub, label_nodes(sub), target


@pytest.mark.parametrize("layer_kind,comp_op", [
    ("rgcn", "sub"), ("att", "sub"),
    ("comp", "sub"), ("comp", "mult"), ("comp", "corr"),
])
def test_full_model_gradient(layer_kind, comp_op):
    model, sub, labels, target = scoring_fixture(layer_kind, comp_op)
    err = gradient_check(
        model.tensors(),
        lambda: subgraph_score(model, sub, labels, target[1]),
        sample_frac=0.25, rng=np.random.default_rng(2))
    assert err < 1e-4


def test_score_depends_on_candidate_relation():
    model, sub, labels, target = scoring_fixture("att")
    s0 = subgraph_score(model, sub, labels, 0).item()
    s1 = subgraph_score(model, sub, labels, 1).item()
    assert s0 != s1


def test_score_label_shape_guard():
    model, sub, labels, target = scoring_fixture("rgcn")
    with pytest.raises(ShapeMismatch):
        subgraph_score(model, sub, labels[:, :-1], 0)


def test_score_rejects_labels_of_another_k():
    # subgraph and labels agree on k = 3, but the model was built for k = 2
    model = scoring_fixture("rgcn")[0]
    rng = np.random.default_rng(0)
    g = IndexedGraph(random_triples(rng, 18, 3, 0.2), 18, 3)
    sub = extract_enclosing_subgraph(g, tuple(g.triples[0]), 3)
    with pytest.raises(ShapeMismatch, match="model's width 8"):
        score_subgraphs(model, [ScoredItem(sub, label_nodes(sub), 0)])


def mixed_model(layer_kind, comp_op="sub", seed=0):
    return init_model(3, 2, dim=8, rel_dim=8 if layer_kind == "comp" else 6,
                      num_layers=2, num_bases=2, layer_kind=layer_kind,
                      comp_op=comp_op, rng=np.random.default_rng(seed))


@pytest.mark.parametrize("layer_kind,comp_op", [
    ("rgcn", "sub"), ("att", "sub"), ("comp", "sub"), ("comp", "corr"),
])
def test_batched_scores_match_per_item(layer_kind, comp_op):
    model = mixed_model(layer_kind, comp_op)
    items = mixed_scored_items(np.random.default_rng(21))
    assert len({it.sub.num_nodes for it in items}) > 3
    assert len(items[-2].sub.edges) == 0                        # edgeless
    assert items[-1].sub.target[0] == items[-1].sub.target[2]   # h == t
    batch = score_subgraphs(model, items)
    assert batch.shape == (len(items),)
    single = np.array([subgraph_score(model, it.sub, it.labels, it.rel).item()
                       for it in items])
    dense = np.array([dense_model_score(model, it.sub, it.labels, it.rel)
                      for it in items])
    scale = np.abs(single).max()
    assert np.abs(batch.data - single).max() <= 1e-12 * scale
    assert np.abs(single - dense).max() <= 1e-12 * scale


@pytest.mark.parametrize("layer_kind,comp_op", [
    pytest.param("rgcn", "sub", id="rgcn"), pytest.param("att", "sub", id="att"),
    pytest.param("comp", "sub", id="comp"), pytest.param("comp", "corr", id="comp-corr"),
])
def test_copies_of_one_subgraph_score_bit_identically_in_a_union(layer_kind, comp_op):
    # a BLAS gemv readout rounds each row by its place in the union, so
    # copies scored apart in the last bits and exact ties broke by noise
    items = mixed_scored_items(np.random.default_rng(21))
    for seed in range(3):
        model = mixed_model(layer_kind, comp_op, seed=seed)
        for scorer in (model, no_grad_view(model)):
            for n in (2, 5, 8, 13):
                for it in items:
                    scores = score_subgraphs(scorer, [it] * n).data
                    assert len(set(scores.tolist())) == 1, (seed, n, it.sub.target)
            # every item at three places of a mixed union
            scores = score_subgraphs(scorer, items * 3).data.reshape(3, len(items))
            assert np.array_equal(scores, np.broadcast_to(scores[0], scores.shape))


def test_att_union_gradients_match_per_item():
    # each item of a union scored against its own relation gets the score
    # and the parameter gradients it gets when scored alone
    model = mixed_model("att", seed=3)
    items = mixed_scored_items(np.random.default_rng(22))
    assert len({it.rel for it in items}) > 1
    params = model.tensors()

    def grads(score, seed=None):
        for t in params.values():
            t.grad = None
        score.backward(seed)
        return {name: np.zeros_like(t.data) if t.grad is None else t.grad
                for name, t in params.items()}

    for g, it in enumerate(items):
        onehot = np.eye(len(items))[g]
        batch = score_subgraphs(model, items)
        in_union = grads(batch, onehot)
        single = subgraph_score(model, it.sub, it.labels, it.rel)
        assert abs(batch.data[g] - single.item()) <= 1e-12 * abs(single.item())
        alone = grads(single)
        for name in params:
            scale = max(np.abs(alone[name]).max(), 1e-300)
            assert np.abs(in_union[name] - alone[name]).max() <= 1e-12 * scale, name
    for t in params.values():
        t.grad = None


def test_adam_first_step_closed_form():
    # with any finite gradient g, the first bias-corrected step is
    # lr * g / (|g| + eps), i.e. almost exactly lr * sign(g)
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam({"w": w}, lr=0.1, eps=1e-8)
    w.grad = np.array([0.5, -3.0])
    opt.step()
    assert np.allclose(w.data, [1.0 - 0.1, -2.0 + 0.1], atol=1e-7)
    assert w.grad is None


def test_adam_converges_on_quadratic():
    w = Tensor(np.array([5.0]), requires_grad=True)
    opt = Adam({"w": w}, lr=0.2)
    for _ in range(300):
        loss = w * w
        loss.backward()
        opt.step()
    assert abs(w.data[0]) < 1e-2


def test_adam_step_equals_textbook_update_bitwise():
    # the update follows the textbook formula's operation order exactly; a
    # tensor without a gradient keeps its values and its moments
    rng = np.random.default_rng(4)
    params = {"a": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
              "b": Tensor(rng.normal(size=5), requires_grad=True),
              "idle": Tensor(rng.normal(size=2), requires_grad=True)}
    lr, b1, b2, eps = 0.03, 0.9, 0.999, 1e-8
    want = {n: t.data.copy() for n, t in params.items()}
    m = {n: np.zeros_like(w) for n, w in want.items()}
    v = {n: np.zeros_like(w) for n, w in want.items()}
    opt = Adam(params, lr=lr)
    for step in range(1, 6):
        grads = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5) * 10.0 ** step}
        for n, g in grads.items():
            params[n].grad = g.copy()
            m[n] = b1 * m[n] + (1 - b1) * g
            v[n] = b2 * v[n] + (1 - b2) * g * g
            want[n] = want[n] - (lr * (m[n] / (1.0 - b1 ** step))
                                 / (np.sqrt(v[n] / (1.0 - b2 ** step)) + eps))
        opt.step()
        for n, t in params.items():
            assert t.data.tobytes() == want[n].tobytes(), (step, n)
            assert t.grad is None
    assert not opt.m["idle"].any() and not opt.v["idle"].any()


def test_adam_nonfinite_update():
    w = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"w": w}, lr=0.1)
    w.grad = np.array([np.nan])
    with pytest.raises(NonFiniteUpdate):
        opt.step()


def test_entity_embeddings_mean_of_incident_rows():
    rng = np.random.default_rng(3)
    psi = Tensor(rng.normal(size=(4, 5)), requires_grad=True)  # 2 relations
    triples = np.array([[0, 0, 1], [1, 1, 0], [0, 1, 2]])
    emb = init_entity_embeddings(triples, np.array([0, 1, 2]), psi)
    # entity 0: head of r0 (row 0), tail of r1 (row 3), head of r1 (row 2)
    expect0 = (psi.data[0] + psi.data[3] + psi.data[2]) / 3.0
    assert np.allclose(emb.data[0], expect0, atol=1e-12)
    # entity 2: tail of r1 only
    assert np.allclose(emb.data[2], psi.data[3], atol=1e-12)


def test_entity_embeddings_isolated():
    psi = Tensor(np.zeros((2, 3)))
    with pytest.raises(IsolatedEntity):
        init_entity_embeddings(np.array([[0, 0, 1]]), np.array([0, 1, 5]), psi)


def test_entity_embeddings_match_loop_oracle():
    rng = np.random.default_rng(5)
    psi = Tensor(rng.normal(size=(8, 5)))        # 4 relations
    for _ in range(20):
        tri = np.column_stack([rng.integers(12, size=30), rng.integers(4, size=30),
                               rng.integers(12, size=30)])
        tri[:3, 2] = tri[:3, 0]                  # self-loops feed one entity twice
        ents = rng.permutation(np.unique(tri[:, [0, 2]]))[:9]   # some ends not asked for
        got = init_entity_embeddings(tri, ents, psi).data
        assert np.array_equal(got, entity_embeddings_loop_oracle(tri, ents, psi).data)
    empty = np.empty((0, 3), dtype=np.int64)
    assert init_entity_embeddings(empty, np.empty(0, dtype=np.int64), psi).shape == (0, 5)


def test_entity_embeddings_gradient_equals_loop_oracle():
    # the one fused node against gather, segment sum and scale
    rng = np.random.default_rng(6)
    psi = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
    tri = np.column_stack([rng.integers(12, size=30), rng.integers(4, size=30),
                           rng.integers(12, size=30)])
    ents = rng.permutation(np.unique(tri[:, [0, 2]]))[:9]
    w = rng.normal(size=(9, 5))
    (got, ggrads), (want, wgrads) = fused_and_composed(
        lambda: init_entity_embeddings(tri, ents, psi),
        lambda: entity_embeddings_loop_oracle(tri, ents, psi), [psi], w)
    assert got.tobytes() == want.tobytes()
    assert ggrads[0].tobytes() == wgrads[0].tobytes()


def test_entity_encoder_gradient():
    rng = np.random.default_rng(4)
    enc = init_entity_encoder(2, 6, DecoderKind("transe"), rng)
    triples = np.array([[0, 0, 1], [1, 1, 2], [2, 0, 0]])

    def loss():
        emb = init_entity_embeddings(triples, np.array([0, 1, 2]), enc.psi)
        from indkg.autodiff import gather_rows, reshape
        h = reshape(gather_rows(emb, [0]), (6,))
        t = reshape(gather_rows(emb, [1]), (6,))
        r = reshape(gather_rows(enc.dec_rel, [0]), (6,))
        return kge_score(enc.decoder, h, r, t)

    err = gradient_check(enc.tensors(), loss, sample_frac=0.5,
                         rng=np.random.default_rng(0))
    assert err < 1e-5


def test_checkpoint_roundtrip(tmp_path):
    model, sub, labels, target = scoring_fixture("att", seed=5)
    path = tmp_path / "model.ikgm"
    cfg = {"layer_kind": "att", "dim": 8, "seed": 5}
    save_checkpoint(path, model.tensors(), cfg)
    cfg2, arrays = load_checkpoint(path)
    assert cfg2 == cfg
    before = subgraph_score(model, sub, labels, target[1]).item()
    for t in model.tensors().values():
        t.data += 1.0
    restore_model(model, arrays)
    after = subgraph_score(model, sub, labels, target[1]).item()
    assert after == before


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        load_checkpoint(tmp_path / "nope.ikgm")


def test_checkpoint_shape_beyond_data_is_truncation(tmp_path):
    from indkg import binio
    from indkg.model import CHECKPOINT_MAGIC
    buf = bytearray(CHECKPOINT_MAGIC)
    binio.write_strings(buf, ["{}", "w"])
    binio.write_u64(buf, 2)
    # 2**64 items: wraps to 0 in int64 arithmetic
    binio.write_array(buf, [2**32, 2**32], "<u8")
    path = tmp_path / "m.ikgm"
    path.write_bytes(bytes(buf) + bytes(16))
    with pytest.raises(TruncatedFile):
        load_checkpoint(path)
    # a string table without the config entry
    path.write_bytes(CHECKPOINT_MAGIC + bytes(8))
    with pytest.raises(TruncatedFile):
        load_checkpoint(path)


def test_checkpoint_former_version_rejected(tmp_path):
    from indkg.errors import VersionMismatch
    path = tmp_path / "m.ikgm"
    path.write_bytes(b"IKGM1" + b"\x02{}\x00")    # the former varint layout
    with pytest.raises(VersionMismatch):
        load_checkpoint(path)


def test_restore_shape_guard(tmp_path):
    model, *_ = scoring_fixture("rgcn", seed=6)
    path = tmp_path / "m.ikgm"
    save_checkpoint(path, model.tensors(), {})
    _, arrays = load_checkpoint(path)
    arrays["readout_w"] = arrays["readout_w"][:-1]
    with pytest.raises(ShapeMismatch):
        restore_model(model, arrays)


@pytest.mark.parametrize("family, flags", [
    ("subgraph", {"layer_kind": "rgcn", "num_bases": 3}),
    ("subgraph", {"layer_kind": "att", "num_layers": 2}),
    ("subgraph", {"layer_kind": "comp", "comp_op": "corr", "rel_dim": 8}),
    ("entity", {"decoder": "transe", "transe_p": 1.0}),
    ("entity", {"decoder": "distmult"}),
    ("entity", {"decoder": "rotate", "margin": 6.0}),
])
def test_build_model_equals_a_direct_init_bitwise(family, flags):
    cfg = parse_config(None, {"seed": 3, "dim": 8, "rel_dim": 6, "k": 2, **flags})
    settings = model_settings(cfg, family, 5)
    assert set(settings) == {*MODEL_KEYS, "model_family", "num_relations"}
    assert settings["model_family"] == family and settings["num_relations"] == 5
    rng_built, rng = np.random.default_rng(9), np.random.default_rng(9)
    built = build_model(settings, rng_built)
    if family == "subgraph":
        direct = init_model(5, cfg.k, dim=cfg.dim, rel_dim=cfg.rel_dim,
                            num_layers=cfg.num_layers, num_bases=cfg.num_bases,
                            layer_kind=cfg.layer_kind, comp_op=cfg.comp_op, rng=rng)
        assert (built.layer_kind, built.comp_op) == (cfg.layer_kind, cfg.comp_op)
    else:
        decoder = DecoderKind(cfg.decoder, p=cfg.transe_p, margin=cfg.margin)
        direct = init_entity_encoder(5, cfg.dim, decoder, rng=rng)
        assert built.decoder == decoder
    got, want = built.tensors(), direct.tensors()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].data.tobytes() == want[name].data.tobytes(), name
    # both drew the same numbers from their rng
    assert rng_built.bit_generator.state == rng.bit_generator.state


LAYER_TENSORS = {"rgcn": ["bases", "coeffs", "self_weight"],
                 "att": ["bases", "coeffs", "self_weight", "att_a"],
                 "comp": ["w_fwd", "w_bwd", "w_self", "w_rel"]}


@pytest.mark.parametrize("layer_kind", list(LAYER_TENSORS))
def test_model_tensor_names_and_order(layer_kind):
    # Adam, gradient_check and the checkpoints read the names in this order
    model, *_ = scoring_fixture(layer_kind)
    want = ["input_proj", "rel_emb", "readout_w"] + [
        f"layer{i}.{name}" for i in range(2) for name in LAYER_TENSORS[layer_kind]]
    assert list(model.tensors()) == want
    view = no_grad_view(model).tensors()
    assert list(view) == want
    for name, t in model.tensors().items():
        assert view[name] is not t and view[name].data is t.data
        assert not view[name].requires_grad, name


@pytest.mark.parametrize("decoder", ["transe", "distmult", "rotate"])
def test_entity_encoder_tensor_names_and_order(decoder):
    enc = init_entity_encoder(3, 4, DecoderKind(decoder))
    assert list(enc.tensors()) == ["psi", "dec_rel"]
