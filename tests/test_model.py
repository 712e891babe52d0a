import numpy as np
import pytest

from indkg.autodiff import Tensor, tsum
from indkg.errors import (
    IsolatedEntity,
    LengthMismatch,
    MissingFile,
    NonFiniteUpdate,
    ShapeMismatch,
    TruncatedFile,
)
from indkg.kgcore import build_graph
from indkg.model import (
    Adam,
    DecoderKind,
    gradient_check,
    init_entity_embeddings,
    init_entity_encoder,
    init_model,
    kge_score,
    load_checkpoint,
    margin_loss,
    restore_model,
    save_checkpoint,
    score_subgraphs,
    subgraph_score,
)
from indkg.subgraph import extract_enclosing_subgraph, label_nodes

from helpers import (
    dense_model_score,
    entity_embeddings_loop_oracle,
    mixed_scored_items,
    random_triples,
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


def test_margin_loss_values():
    pos = [Tensor(2.0), Tensor(0.0)]
    neg = [Tensor(1.0), Tensor(1.0)]
    # hinges: max(0, 1-2+1) = 0 and max(0, 1-0+1) = 2 -> mean 1
    assert margin_loss(pos, neg, 1.0).item() == pytest.approx(1.0)
    with pytest.raises(LengthMismatch):
        margin_loss(pos, neg[:1], 1.0)


def test_margin_loss_counts_scores_not_list_entries():
    with pytest.raises(LengthMismatch):
        margin_loss([Tensor([1.0])], [Tensor([1.0, 2.0])], 1.0)


def scoring_fixture(layer_kind="att", comp_op="sub", seed=0):
    rng = np.random.default_rng(seed)
    triples = random_triples(rng, 18, 3, 0.2)
    g = build_graph(triples, 18, 3)
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
