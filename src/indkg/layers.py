"""Relational graph convolution layers over extracted subgraphs.

All three layers share the same message layout: every stored edge
(src, dst, rel) yields a forward message src -> dst and an inverse message
dst -> src, so information reaches both endpoints of the target pair, and
each message carries a slot index 2 * rel + direction. Every layer averages
the messages a node receives per slot (mean normalisation by 1/c).

The basis-decomposed layers never build a per-slot weight: H @ V_b is
computed once per basis and layer, and each message mixes the basis outputs
of its source row by the coefficients of its slot, so one pass covers all
messages whatever the number of slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    circular_correlation,
    concat,
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
from .subgraph import Subgraph

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


def _message_arrays(sub: Subgraph):
    """Bidirectional message list: (src, dst, slot) plus 1/c normalization.

    c is the number of incoming messages a node receives for one slot.
    """
    if len(sub.edges) == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z, z, np.empty(0, dtype=np.float64)
    src, dst, rel = sub.edges[:, 0], sub.edges[:, 1], sub.edges[:, 2]
    msrc = np.concatenate([src, dst])
    mdst = np.concatenate([dst, src])
    slot = np.concatenate([2 * rel + FWD, 2 * rel + BWD])
    key = mdst * (int(slot.max()) + 1) + slot
    _, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
    return msrc, mdst, slot, 1.0 / counts[inverse]


def _check_features(sub: Subgraph, H: Tensor, d_in: int):
    if H.shape != (sub.num_nodes, d_in):
        raise ShapeMismatch(
            f"features {H.shape} do not match ({sub.num_nodes}, {d_in})")


def _basis_outputs(H: Tensor, P: LayerParams) -> Tensor:
    """H @ V_b for every basis b, side by side: (n, B * d_out)."""
    B = P.bases.shape[0]
    V = transpose(reshape(P.bases, (B, P.d_in, P.d_out)), (1, 0, 2))
    return matmul(H, reshape(V, (P.d_in, B * P.d_out)))


def _mix(HV: Tensor, rows, C: Tensor) -> Tensor:
    """W_slot h for each message: the basis outputs of ``rows`` weighted by C."""
    m, B = C.shape
    per_basis = reshape(gather_rows(HV, rows), (m, B, HV.shape[1] // B))
    return tsum(mul(per_basis, reshape(C, (m, B, 1))), axis=1)


def rgcn_layer(sub: Subgraph, H: Tensor, P: LayerParams, activation=True) -> Tensor:
    """Basis-decomposed R-GCN convolution with mean aggregation per slot."""
    _check_features(sub, H, P.d_in)
    msrc, mdst, slot, norm = _message_arrays(sub)
    msgs = _mix(_basis_outputs(H, P), msrc, gather_rows(P.coeffs, slot))
    out = matmul(H, P.self_weight) + segment_sum(
        mul(msgs, norm[:, None]), mdst, sub.num_nodes)
    return relu(out) if activation else out


def rel_att_layer(sub: Subgraph, H: Tensor, P: LayerParams, rel_emb: Tensor,
                  target_rel: int, activation=True) -> Tensor:
    """R-GCN convolution with per-edge sigmoid attention.

    Each message from j to i under slot weight W is scaled by
    sigmoid(a . [W h_j ++ W h_i ++ e_rel ++ e_target]).
    """
    _check_features(sub, H, P.d_in)
    msrc, mdst, slot, norm = _message_arrays(sub)
    HV = _basis_outputs(H, P)
    C = gather_rows(P.coeffs, slot)
    wh_src = _mix(HV, msrc, C)
    z = concat([wh_src, _mix(HV, mdst, C), gather_rows(rel_emb, slot // 2),
                gather_rows(rel_emb, np.full(len(slot), target_rel, np.int64))],
               axis=1)
    alpha = reshape(sigmoid(matmul(z, P.att_a)), (len(slot), 1))
    out = matmul(H, P.self_weight) + segment_sum(
        mul(mul(wh_src, alpha), norm[:, None]), mdst, sub.num_nodes)
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


def rel_comp_layer(sub: Subgraph, H: Tensor, E_rel: Tensor, P: LayerParams,
                   op: str = "sub", activation=True):
    """Composition-based convolution; also transforms the relation table.

    Neighbor features are composed with their relation embedding before the
    per-direction projection; requires d_rel == d_in.
    """
    _check_features(sub, H, P.d_in)
    if E_rel.shape[1] != P.d_in:
        raise ShapeMismatch("composition layer requires d_rel == d_in")
    if op not in COMP_OPS:
        raise UnknownCompositionOp(op)
    out = matmul(H, P.w_self)
    msrc, mdst, slot, norm = _message_arrays(sub)
    for direction, W in ((FWD, P.w_fwd), (BWD, P.w_bwd)):
        mask = slot % 2 == direction
        if not mask.any():
            continue
        phi = _compose(gather_rows(H, msrc[mask]),
                       gather_rows(E_rel, slot[mask] // 2), op)
        msgs = mul(matmul(phi, W), norm[mask][:, None])
        out = out + segment_sum(msgs, mdst[mask], sub.num_nodes)
    new_rel = matmul(E_rel, P.w_rel)
    return (relu(out) if activation else out), new_rel
