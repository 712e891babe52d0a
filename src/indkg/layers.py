"""Relational graph convolution layers over extracted subgraphs.

All three layers share the same message layout: every stored edge
(src, dst, rel) yields a forward message src -> dst and an inverse message
dst -> src, so information reaches both endpoints of the target pair, and
each message carries a slot index 2 * rel + direction. Every layer averages
the messages a node receives per slot (mean normalisation by 1/c).

The basis-decomposed layers never build a per-slot weight: H @ V_b is
computed once per basis and layer, and one fused op,
``autodiff.basis_message_pass``, mixes the basis outputs of each message's
source row by the coefficients of its slot and scatters the result to its
destination, so one pass covers all messages whatever the number of slots.
Its hand-written VJP re-gathers the basis rows it needs, so no
(messages x bases x d_out) array stays on the tape, and its ``HV`` gradient
scatters in the ``src``-sorted order ``Messages`` precomputes. The
attention logit a . (W h) needs no per-message W h either: it equals
sum_b C[slot, b] * (a . H V_b), an (m, B) mix of per-node basis scores.

A layer takes a Subgraph or a ``Messages``: the message arrays of one
subgraph or of the disjoint union of many, built once by the caller and
shared by every layer of a forward pass. Over a union, nodes of different
subgraphs exchange no message, so each subgraph's rows equal its rows in a
pass of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    basis_message_pass,
    circular_correlation,
    gather_rows,
    matmul,
    mul,
    relu,
    reshape,
    segment_sum,
    sigmoid,
    transpose,
    tsum,
)
from .errors import ShapeMismatch, UnknownCompositionOp

FWD, BWD = 0, 1


@dataclass
class LayerParams:
    d_in: int
    d_out: int
    num_relations: int
    bases: Tensor = None        # (B, d_in * d_out)
    coeffs: Tensor = None       # (2 * num_relations, B)
    self_weight: Tensor = None  # (d_in, d_out)
    att_a: Tensor = None        # (2 * d_out + 2 * d_rel,), attention layer only
    w_fwd: Tensor = None        # composition layer weights, d_rel == d_in
    w_bwd: Tensor = None
    w_self: Tensor = None
    w_rel: Tensor = None

    def tensors(self, prefix: str) -> dict:
        out = {}
        for name in ("bases", "coeffs", "self_weight", "att_a",
                     "w_fwd", "w_bwd", "w_self", "w_rel"):
            t = getattr(self, name)
            if t is not None:
                out[f"{prefix}.{name}"] = t
        return out


def _glorot(rng, *shape):
    scale = np.sqrt(2.0 / sum(shape)) if len(shape) > 1 else 1.0 / np.sqrt(shape[0])
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


def init_basis_layer(rng, d_in, d_out, num_relations, num_bases,
                     d_rel=None, attention=False) -> LayerParams:
    p = LayerParams(d_in, d_out, num_relations)
    p.bases = _glorot(rng, num_bases, d_in * d_out)
    p.coeffs = _glorot(rng, 2 * num_relations, num_bases)
    p.self_weight = _glorot(rng, d_in, d_out)
    if attention:
        p.att_a = _glorot(rng, 2 * d_out + 2 * d_rel)
    return p


def init_comp_layer(rng, d_in, d_out, num_relations) -> LayerParams:
    p = LayerParams(d_in, d_out, num_relations)
    p.w_fwd = _glorot(rng, d_in, d_out)
    p.w_bwd = _glorot(rng, d_in, d_out)
    p.w_self = _glorot(rng, d_in, d_out)
    p.w_rel = _glorot(rng, d_in, d_out)
    return p


class Messages:
    """The bidirectional message list of a subgraph, or of a disjoint union
    of subgraphs, built once and shared by every layer of a forward pass.

    ``edges`` are local (src, dst, rel) rows. Each yields a forward message
    src -> dst and an inverse message dst -> src; ``slot`` is 2 * rel + dir,
    and ``norm`` is 1/c for the c messages its destination receives in that
    slot. Messages are ordered by (dst, slot); ``src_order`` is the stable
    argsort of ``src``, the order in which the ``HV`` gradient of
    ``basis_message_pass`` scatters by source.
    """

    def __init__(self, edges: np.ndarray, num_nodes: int):
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
        self.num_nodes = num_nodes
        src, dst, rel = self.edges.T
        msrc = np.concatenate([src, dst])
        mdst = np.concatenate([dst, src])
        slot = np.concatenate([2 * rel + FWD, 2 * rel + BWD])
        key = mdst * (int(slot.max(initial=0)) + 1) + slot
        order = np.argsort(key, kind="stable")
        _, counts = np.unique(key[order], return_counts=True)
        self.src, self.dst, self.slot = msrc[order], mdst[order], slot[order]
        self.norm = np.repeat(1.0 / counts, counts)
        self.src_order = np.argsort(self.src, kind="stable")


def messages(sub) -> Messages:
    """``sub`` itself when it is a Messages, else the messages of a Subgraph."""
    return sub if isinstance(sub, Messages) else Messages(sub.edges, sub.num_nodes)


def _check_features(ms: Messages, H: Tensor, d_in: int):
    if H.shape != (ms.num_nodes, d_in):
        raise ShapeMismatch(
            f"features {H.shape} do not match ({ms.num_nodes}, {d_in})")


def _basis_outputs(H: Tensor, P: LayerParams) -> Tensor:
    """H @ V_b for every basis b: (n, B, d_out)."""
    B = P.bases.shape[0]
    V = transpose(reshape(P.bases, (B, P.d_in, P.d_out)), (1, 0, 2))
    HV = matmul(H, reshape(V, (P.d_in, B * P.d_out)))
    return reshape(HV, (H.shape[0], B, P.d_out))


def _pass(ms: Messages, HV: Tensor, P: LayerParams, alpha=None) -> Tensor:
    return basis_message_pass(HV, P.coeffs, ms.src, ms.dst, ms.slot, ms.norm,
                              ms.num_nodes, alpha=alpha, src_order=ms.src_order)


def rgcn_layer(sub, H: Tensor, P: LayerParams, activation=True) -> Tensor:
    """Basis-decomposed R-GCN convolution with mean aggregation per slot.

    ``sub`` is a Subgraph or the Messages of one or of a union of them.
    """
    ms = messages(sub)
    _check_features(ms, H, P.d_in)
    out = matmul(H, P.self_weight) + _pass(ms, _basis_outputs(H, P), P)
    return relu(out) if activation else out


def rel_att_layer(sub, H: Tensor, P: LayerParams, rel_emb: Tensor,
                  target_rel, activation=True) -> Tensor:
    """R-GCN convolution with per-edge sigmoid attention.

    Each message from j to i under slot weight W is scaled by
    sigmoid(a . [W h_j ++ W h_i ++ e_rel ++ e_target]). ``target_rel`` is
    one relation id, or one per node when ``sub`` is the Messages of a union
    of subgraphs scored against different relations.
    """
    ms = messages(sub)
    _check_features(ms, H, P.d_in)
    target = np.broadcast_to(np.asarray(target_rel, dtype=np.int64), (ms.num_nodes,))
    HV = _basis_outputs(H, P)
    n, B, d = HV.shape
    d_rel = rel_emb.shape[1]
    a_src, a_dst, a_rel, a_tgt = (
        gather_rows(P.att_a, idx)
        for idx in np.split(np.arange(P.att_a.shape[0]), [d, 2 * d, 2 * d + d_rel]))
    # a . (W h) = sum_b C[slot, b] * (HV_b . a): contract the bases first
    flat = reshape(HV, (n * B, d))
    u_src = reshape(matmul(flat, a_src), (n, B))
    u_dst = reshape(matmul(flat, a_dst), (n, B))
    mix = mul(gather_rows(P.coeffs, ms.slot),
              gather_rows(u_src, ms.src) + gather_rows(u_dst, ms.dst))
    logit = (tsum(mix, axis=1) + gather_rows(matmul(rel_emb, a_rel), ms.slot // 2)
             + gather_rows(matmul(rel_emb, a_tgt), target[ms.dst]))
    out = matmul(H, P.self_weight) + _pass(ms, HV, P, alpha=sigmoid(logit))
    return relu(out) if activation else out


COMP_OPS = ("sub", "mult", "corr")


def _compose(h: Tensor, e: Tensor, op: str) -> Tensor:
    if op == "sub":
        return h - e
    if op == "mult":
        return mul(h, e)
    if op == "corr":
        return circular_correlation(h, e)
    raise UnknownCompositionOp(op)


def rel_comp_layer(sub, H: Tensor, E_rel: Tensor, P: LayerParams,
                   op: str = "sub", activation=True):
    """Composition-based convolution; also transforms the relation table.

    Neighbor features are composed with their relation embedding before the
    per-direction projection; requires d_rel == d_in. ``sub`` is a Subgraph
    or the Messages of one or of a union of them.
    """
    ms = messages(sub)
    _check_features(ms, H, P.d_in)
    if E_rel.shape[1] != P.d_in:
        raise ShapeMismatch("composition layer requires d_rel == d_in")
    if op not in COMP_OPS:
        raise UnknownCompositionOp(op)
    out = matmul(H, P.w_self)
    for direction, W in ((FWD, P.w_fwd), (BWD, P.w_bwd)):
        mask = ms.slot % 2 == direction
        if not mask.any():
            continue
        phi = _compose(gather_rows(H, ms.src[mask]),
                       gather_rows(E_rel, ms.slot[mask] // 2), op)
        msgs = mul(matmul(phi, W), ms.norm[mask][:, None])
        out = out + segment_sum(msgs, ms.dst[mask], ms.num_nodes)
    new_rel = matmul(E_rel, P.w_rel)
    return (relu(out) if activation else out), new_rel
