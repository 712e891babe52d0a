"""Relational graph convolution layers over extracted subgraphs.

All three layers share the same message layout: every stored edge
(src, dst, rel) yields a forward message src -> dst and an inverse message
dst -> src, so information reaches both endpoints of the target pair, and
each message carries a slot index 2 * rel + direction. Every layer averages
the messages a node receives per slot (mean normalisation by 1/c).

The basis-decomposed layers (``rgcn_layer``, ``rel_att_layer``) are the
self term plus one autodiff op, ``autodiff.basis_conv``, which mixes at
node level: it computes HV = H @ [V_1 ... V_B] in one product and puts the
messages in one sparse (nodes, nodes * B) matrix A, whose entry at row dst,
column src * B + b is the message's norm times its gate times its slot's
coefficient of basis b. The layer's message sum is A @ HV, one sparse
product whatever the number of slots, and no per-slot weight is built.
The sparsity pattern of A depends on the messages alone: a ``Messages``
builds it once per basis count and caches it, so the layers of a forward
share it and each layer writes only A's values. The attention logit
a . (W h) needs no per-message W h either: it equals
sum_b C[slot, b] * (a . H V_b), an (m, B) mix of per-node basis scores,
taken inside the same op.

Gradients take one route: the op's hand-written VJP returns the gradients
of the features, bases, coefficients, attention vector and relation table
together. A^T @ g is the gradient of HV, which gives the feature and basis
gradients in one node-level product each; one (m, B) array of
g[dst] . HV[src, b] gives the coefficient and gate gradients. The tape
keeps HV, A and (m, B) arrays: no (messages x d_out) or
(messages x bases x d_out) array outlives the forward.

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
    basis_conv,
    circular_correlation,
    concat,
    conv_pattern,
    gather_rows,
    matmul,
    mul,
    relu,
    reshape,
    segment_sum,
    tensor_fields,
)
from .errors import ShapeMismatch, UnknownCompositionOp

FWD, BWD = 0, 1


@dataclass
class LayerParams:
    d_in: int
    d_out: int
    bases: Tensor = None        # (B, d_in * d_out)
    coeffs: Tensor = None       # (2 * num_relations, B)
    self_weight: Tensor = None  # (d_in, d_out)
    att_a: Tensor = None        # (2 * d_out + 2 * d_rel,), attention layer only
    w_fwd: Tensor = None        # composition layer weights, d_rel == d_in
    w_bwd: Tensor = None
    w_self: Tensor = None
    w_rel: Tensor = None

    def tensors(self, prefix: str) -> dict:
        return tensor_fields(self, f"{prefix}.")


def _glorot(rng, *shape):
    scale = np.sqrt(2.0 / sum(shape)) if len(shape) > 1 else 1.0 / np.sqrt(shape[0])
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


def init_basis_layer(rng, d_in, d_out, num_relations, num_bases,
                     d_rel=None, attention=False) -> LayerParams:
    p = LayerParams(d_in, d_out)
    p.bases = _glorot(rng, num_bases, d_in * d_out)
    p.coeffs = _glorot(rng, 2 * num_relations, num_bases)
    p.self_weight = _glorot(rng, d_in, d_out)
    if attention:
        p.att_a = _glorot(rng, 2 * d_out + 2 * d_rel)
    return p


def init_comp_layer(rng, d_in, d_out) -> LayerParams:
    p = LayerParams(d_in, d_out)
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
    slot. Messages are ordered by (dst, slot). ``pattern(B)`` is the sparsity
    pattern ``basis_conv`` builds its message matrix on for B bases, built on
    the first call and cached, so the layers of one forward share it.
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
        self._patterns = {}

    def pattern(self, B: int):
        """``autodiff.conv_pattern`` of these messages for B bases, cached."""
        if B not in self._patterns:
            self._patterns[B] = conv_pattern(self.src, self.dst, self.num_nodes, B)
        return self._patterns[B]


def messages(sub) -> Messages:
    """``sub`` itself when it is a Messages, else the messages of a Subgraph."""
    return sub if isinstance(sub, Messages) else Messages(sub.edges, sub.num_nodes)


def _check_features(ms: Messages, H: Tensor, d_in: int):
    if H.shape != (ms.num_nodes, d_in):
        raise ShapeMismatch(
            f"features {H.shape} do not match ({ms.num_nodes}, {d_in})")


def _basis_layer(sub, H: Tensor, P: LayerParams, activation: bool, **att) -> Tensor:
    """The self term plus one ``basis_conv``; ``att`` holds the attention
    arguments, or nothing for plain R-GCN."""
    ms = messages(sub)
    _check_features(ms, H, P.d_in)
    out = matmul(H, P.self_weight) + basis_conv(
        H, P.bases, P.coeffs, ms.src, ms.dst, ms.slot, ms.norm, ms.num_nodes,
        pattern=ms.pattern(P.bases.shape[0]), **att)
    return relu(out) if activation else out


def rgcn_layer(sub, H: Tensor, P: LayerParams, activation=True) -> Tensor:
    """Basis-decomposed R-GCN convolution with mean aggregation per slot.

    ``sub`` is a Subgraph or the Messages of one or of a union of them.
    """
    return _basis_layer(sub, H, P, activation)


def rel_att_layer(sub, H: Tensor, P: LayerParams, rel_emb: Tensor,
                  target_rel, activation=True) -> Tensor:
    """R-GCN convolution with per-edge sigmoid attention.

    Each message from j to i under slot weight W is scaled by
    sigmoid(a . [W h_j ++ W h_i ++ e_rel ++ e_target]). ``target_rel`` is
    one relation id, or one per node when ``sub`` is the Messages of a union
    of subgraphs scored against different relations.
    """
    return _basis_layer(sub, H, P, activation, att_a=P.att_a, rel_emb=rel_emb,
                        target=target_rel)


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
    phi = _compose(gather_rows(H, ms.src), gather_rows(E_rel, ms.slot // 2), op)
    # the projection is linear, so it runs per node: the normed messages are
    # summed per (dst, direction), row 2 * dst + direction, which reshapes
    # to (n, 2 * d_in) rows [fwd sum, bwd sum] for the stacked [w_fwd; w_bwd]
    summed = segment_sum(mul(phi, ms.norm[:, None]), 2 * ms.dst + ms.slot % 2,
                         2 * ms.num_nodes)
    out = matmul(H, P.w_self) + matmul(reshape(summed, (ms.num_nodes, 2 * P.d_in)),
                                       concat([P.w_fwd, P.w_bwd]))
    new_rel = matmul(E_rel, P.w_rel)
    return (relu(out) if activation else out), new_rel
