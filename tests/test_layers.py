import numpy as np
import pytest

from indkg.autodiff import Tensor, tsum
from indkg.errors import ShapeMismatch, UnknownCompositionOp
from indkg.kgcore import build_graph
from indkg.layers import (
    init_basis_layer,
    init_comp_layer,
    rel_att_layer,
    rel_comp_layer,
    rgcn_layer,
)
from indkg.subgraph import Subgraph, extract_enclosing_subgraph

from helpers import dense_att, dense_comp, dense_rgcn, random_triples, tape_size

R = 3  # relations in the fixture graphs
D_IN, D_OUT = 5, 4


def fixture_subgraph(seed, n=20, density=0.2):
    rng = np.random.default_rng(seed)
    triples = random_triples(rng, n, R, density)
    g = build_graph(triples, n, R)
    target = tuple(g.triples[rng.integers(g.num_triples)])
    return extract_enclosing_subgraph(g, target, 2)


def empty_subgraph():
    return Subgraph((0, 0, 1), np.array([0, 1]),
                    np.array([[0, 3], [3, 0]]),
                    np.empty((0, 3), dtype=np.int64), 2, union_size=2)


def test_rgcn_matches_dense_oracle():
    for seed in range(8):
        sub = fixture_subgraph(seed)
        rng = np.random.default_rng(100 + seed)
        P = init_basis_layer(rng, D_IN, D_OUT, R, num_bases=2)
        H = Tensor(rng.normal(size=(sub.num_nodes, D_IN)))
        out = rgcn_layer(sub, H, P)
        assert np.allclose(out.data, dense_rgcn(sub, H.data, P), atol=1e-12)


def test_rgcn_no_activation():
    sub = fixture_subgraph(0)
    rng = np.random.default_rng(0)
    P = init_basis_layer(rng, D_IN, D_OUT, R, num_bases=2)
    H = Tensor(rng.normal(size=(sub.num_nodes, D_IN)))
    out = rgcn_layer(sub, H, P, activation=False)
    assert np.allclose(out.data, dense_rgcn(sub, H.data, P, activation=False),
                       atol=1e-12)
    assert out.data.min() < 0.0  # linear output keeps negative entries


def test_rgcn_isolated_nodes_get_self_term_only():
    sub = empty_subgraph()
    rng = np.random.default_rng(1)
    P = init_basis_layer(rng, D_IN, D_OUT, R, num_bases=2,
                         d_rel=3, attention=True)
    H = Tensor(rng.normal(size=(2, D_IN)))
    self_term = H.data @ P.self_weight.data
    out = rgcn_layer(sub, H, P, activation=False)
    assert np.allclose(out.data, self_term, atol=1e-12)
    rel_emb = Tensor(rng.normal(size=(R, 3)))
    out = rel_att_layer(sub, H, P, rel_emb, 0, activation=False)
    assert np.allclose(out.data, self_term, atol=1e-12)
    C = init_comp_layer(rng, D_IN, D_OUT, R)
    out, _ = rel_comp_layer(sub, H, Tensor(rng.normal(size=(R, D_IN))), C,
                            activation=False)
    assert np.allclose(out.data, H.data @ C.w_self.data, atol=1e-12)


def test_rgcn_shape_mismatch():
    sub = fixture_subgraph(2)
    rng = np.random.default_rng(2)
    P = init_basis_layer(rng, D_IN, D_OUT, R, num_bases=2)
    with pytest.raises(ShapeMismatch):
        rgcn_layer(sub, Tensor(np.zeros((sub.num_nodes, D_IN + 1))), P)


def test_attention_matches_dense_oracle():
    d_rel = 3
    for seed in range(8):
        sub = fixture_subgraph(seed)
        rng = np.random.default_rng(200 + seed)
        P = init_basis_layer(rng, D_IN, D_OUT, R, num_bases=2,
                             d_rel=d_rel, attention=True)
        H = Tensor(rng.normal(size=(sub.num_nodes, D_IN)))
        rel_emb = Tensor(rng.normal(size=(R, d_rel)))
        tgt = sub.target[1]
        out = rel_att_layer(sub, H, P, rel_emb, tgt)
        oracle = dense_att(sub, H.data, P, rel_emb.data, tgt)
        assert np.allclose(out.data, oracle, atol=1e-12)


def test_attention_zero_vector_halves_messages():
    # a = 0 makes every gate sigmoid(0) = 1/2, so the layer output equals
    # the plain convolution with all messages scaled by 0.5
    sub = fixture_subgraph(3)
    rng = np.random.default_rng(3)
    P = init_basis_layer(rng, D_IN, D_OUT, R, num_bases=2,
                         d_rel=3, attention=True)
    P.att_a.data[:] = 0.0
    H = Tensor(rng.normal(size=(sub.num_nodes, D_IN)))
    rel_emb = Tensor(rng.normal(size=(R, 3)))
    att = rel_att_layer(sub, H, P, rel_emb, 0, activation=False)
    plain = rgcn_layer(sub, H, P, activation=False)
    self_term = H.data @ P.self_weight.data
    assert np.allclose(att.data - self_term, 0.5 * (plain.data - self_term),
                       atol=1e-12)


def test_comp_matches_dense_oracle_all_ops():
    for op in ("sub", "mult", "corr"):
        for seed in range(4):
            sub = fixture_subgraph(seed)
            rng = np.random.default_rng(300 + seed)
            P = init_comp_layer(rng, D_IN, D_OUT, R)
            H = Tensor(rng.normal(size=(sub.num_nodes, D_IN)))
            E = Tensor(rng.normal(size=(R, D_IN)))
            out, new_rel = rel_comp_layer(sub, H, E, P, op=op)
            o_out, o_rel = dense_comp(sub, H.data, E.data, P, op)
            assert np.allclose(out.data, o_out, atol=1e-12), (op, seed)
            assert np.allclose(new_rel.data, o_rel, atol=1e-12)


def test_comp_rel_dim_must_match():
    sub = fixture_subgraph(4)
    rng = np.random.default_rng(4)
    P = init_comp_layer(rng, D_IN, D_OUT, R)
    H = Tensor(np.zeros((sub.num_nodes, D_IN)))
    with pytest.raises(ShapeMismatch):
        rel_comp_layer(sub, H, Tensor(np.zeros((R, D_IN + 2))), P)


def test_comp_unknown_op():
    sub = fixture_subgraph(4)
    rng = np.random.default_rng(4)
    P = init_comp_layer(rng, D_IN, D_OUT, R)
    H = Tensor(np.zeros((sub.num_nodes, D_IN)))
    with pytest.raises(UnknownCompositionOp):
        rel_comp_layer(sub, H, Tensor(np.zeros((R, D_IN))), P, op="div")


def permute_subgraph(sub, perm):
    """Relabel local node ids by perm while keeping global ids aligned."""
    inv = np.argsort(perm)
    edges = sub.edges.copy()
    if len(edges):
        edges[:, 0] = inv[edges[:, 0]]
        edges[:, 1] = inv[edges[:, 1]]
    return Subgraph(sub.target, sub.nodes[perm], sub.dist_pairs[perm],
                    edges, sub.k, union_size=sub.union_size)


def test_permutation_equivariance():
    sub = fixture_subgraph(5)
    rng = np.random.default_rng(5)
    P = init_basis_layer(rng, D_IN, D_OUT, R, num_bases=2)
    H = rng.normal(size=(sub.num_nodes, D_IN))
    perm = rng.permutation(sub.num_nodes)
    out = rgcn_layer(sub, Tensor(H), P)
    out_p = rgcn_layer(permute_subgraph(sub, perm), Tensor(H[perm]), P)
    assert np.allclose(out_p.data, out.data[perm], atol=1e-10)


def test_layer_gradients():
    sub = fixture_subgraph(6, n=10)
    rng = np.random.default_rng(6)
    H = Tensor(rng.normal(size=(sub.num_nodes, D_IN)), requires_grad=True)

    from indkg.model import gradient_check
    P = init_basis_layer(rng, D_IN, D_OUT, R, num_bases=2,
                         d_rel=3, attention=True)
    rel_emb = Tensor(rng.normal(size=(R, 3)), requires_grad=True)
    params = P.tensors("l0")
    params["H"] = H
    params["rel_emb"] = rel_emb
    err = gradient_check(
        params,
        lambda: tsum(rel_att_layer(sub, H, P, rel_emb, 0)),
        sample_frac=0.5, rng=np.random.default_rng(0))
    assert err < 1e-6

    C = init_comp_layer(rng, D_IN, D_OUT, R)
    E = Tensor(rng.normal(size=(R, D_IN)), requires_grad=True)
    cparams = C.tensors("c0")
    cparams["H"] = H
    cparams["E"] = E
    err = gradient_check(
        cparams,
        lambda: tsum(rel_comp_layer(sub, H, E, C, op="corr")[0]),
        sample_frac=0.5, rng=np.random.default_rng(1))
    assert err < 1e-6


def chain_subgraph(rels):
    """Path 0 - 2 - 3 - ... - 1 with one edge per entry of ``rels``."""
    n = len(rels) + 1
    order = [0] + list(range(2, n)) + [1]
    edges = np.array([[order[i], order[i + 1], r] for i, r in enumerate(rels)],
                     dtype=np.int64)
    return Subgraph((0, 0, 1), np.arange(n), np.zeros((n, 2), dtype=np.int64),
                    edges, 2, union_size=n)


def test_tape_size_independent_of_slot_count():
    num_rel = 8
    rng = np.random.default_rng(7)
    P = init_basis_layer(rng, D_IN, D_OUT, num_rel, num_bases=2,
                         d_rel=3, attention=True)
    rel_emb = Tensor(rng.normal(size=(num_rel, 3)), requires_grad=True)
    sizes = set()
    for rels in ([0] * 6, [0, 1, 0, 1, 0, 1], list(range(6))):
        sub = chain_subgraph(rels)
        H = Tensor(rng.normal(size=(sub.num_nodes, D_IN)), requires_grad=True)
        sizes.add((tape_size(rgcn_layer(sub, H, P)),
                   tape_size(rel_att_layer(sub, H, P, rel_emb, 0))))
    assert len(sizes) == 1, sizes


def tape_arrays(out):
    """Every array the tape of ``out`` holds: each node's data and each
    array a VJP closure keeps."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node.data
        for parent, vjp in node._parents:
            stack.append(parent)
            for cell in vjp.__closure__ or ():
                held = cell.cell_contents
                if isinstance(held, (np.ndarray, Tensor)):
                    yield held.data if isinstance(held, Tensor) else held


def test_no_message_by_basis_array_on_the_tape():
    # an (m, B, d_out) gather of basis rows per message must not outlive
    # the forward: the tape holds (m, d_out) or (m, B) arrays at most
    sub = fixture_subgraph(1, n=30, density=0.3)
    num_bases = 3
    m = 2 * len(sub.edges)
    assert m > sub.num_nodes
    rng = np.random.default_rng(9)
    P = init_basis_layer(rng, D_IN, D_OUT, R, num_bases=num_bases,
                         d_rel=3, attention=True)
    rel_emb = Tensor(rng.normal(size=(R, 3)), requires_grad=True)
    H = Tensor(rng.normal(size=(sub.num_nodes, D_IN)), requires_grad=True)
    for out in (rgcn_layer(sub, H, P), rel_att_layer(sub, H, P, rel_emb, 0)):
        sizes = [a.size for a in tape_arrays(out)]
        assert max(sizes) < m * num_bases * D_OUT, max(sizes)
        assert m * D_OUT in sizes or m * num_bases in sizes


def star_subgraph(num_leaves, rel=1):
    """Every leaf 2..num_leaves+1 points at node 0 under the same relation."""
    n = num_leaves + 2
    edges = np.array([[leaf, 0, rel] for leaf in range(2, n)], dtype=np.int64)
    return Subgraph((0, 0, 1), np.arange(n), np.zeros((n, 2), dtype=np.int64),
                    edges, 2, union_size=n)


@pytest.mark.parametrize("kind", ["rgcn", "att", "comp"])
def test_identical_messages_are_mean_normalised(kind):
    # N identical messages under one slot must aggregate like a single one
    rng = np.random.default_rng(8)
    h_hub, h_other, h_leaf = rng.normal(size=(3, D_IN))
    if kind == "comp":
        P = init_comp_layer(rng, D_IN, D_IN, R)
    else:
        P = init_basis_layer(rng, D_IN, D_IN, R, num_bases=2,
                             d_rel=3, attention=kind == "att")
    rel_emb = Tensor(rng.normal(size=(R, D_IN if kind == "comp" else 3)))

    def hub_output(num_leaves):
        sub = star_subgraph(num_leaves)
        H = Tensor(np.vstack([h_hub, h_other] + [h_leaf] * num_leaves))
        if kind == "rgcn":
            out = rgcn_layer(sub, H, P, activation=False)
        elif kind == "att":
            out = rel_att_layer(sub, H, P, rel_emb, 0, activation=False)
        else:
            out, _ = rel_comp_layer(sub, H, rel_emb, P, activation=False)
        return out.data[0]

    assert np.allclose(hub_output(5), hub_output(1), atol=1e-12)
