"""Model parameters, KGE decoders, subgraph scoring, loss and optimization.

Subgraphs are scored in batches: ``score_subgraphs`` runs one forward pass
over the disjoint union of a list of labelled subgraphs and returns one
score per subgraph, and ``subgraph_score`` is its one-item call.
``no_grad_view`` gives the same model without a tape, for evaluation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import binio
from .autodiff import (
    Tensor,
    concat,
    cos,
    gather_rows,
    matmul,
    mul,
    norm,
    relu,
    reshape,
    segment_sum,
    sin,
    sqrt,
    tmean,
    transpose,
    tsum,
)
from .errors import (
    CorruptHeader,
    IsolatedEntity,
    LengthMismatch,
    MissingFile,
    NonFiniteUpdate,
    ShapeMismatch,
    TruncatedFile,
)
from .layers import (
    Messages,
    init_basis_layer,
    init_comp_layer,
    rel_att_layer,
    rel_comp_layer,
    rgcn_layer,
)
from .sampling import ScoredItem
from .subgraph import Subgraph

CHECKPOINT_MAGIC = b"IKGM2"


# -- decoders ---------------------------------------------------------------

@dataclass(frozen=True)
class DecoderKind:
    """A triple-scoring function family. Higher scores mean more plausible."""
    name: str                 # "transe" | "distmult" | "rotate"
    p: float = 2.0            # norm order for TransE
    margin: float = 12.0      # additive margin for RotatE

    def __post_init__(self):
        if self.name not in ("transe", "distmult", "rotate"):
            raise ValueError(f"unknown decoder {self.name!r}")


def _complex_parts(v: Tensor):
    """Real and imaginary parts: the first and second half of the last axis."""
    lead, d2, n = v.shape[:-1], v.shape[-1] // 2, v.data.ndim - 1
    halves = transpose(reshape(v, lead + (2, d2)), (n,) + tuple(range(n)) + (n + 1,))
    return tuple(reshape(gather_rows(halves, [i]), lead + (d2,)) for i in (0, 1))


def kge_score(kind: DecoderKind, h_vec: Tensor, r_vec: Tensor, t_vec: Tensor) -> Tensor:
    """Score (h, r, t) triples given their vectors, one score per row.

    ``(m, d)`` inputs give ``(m,)`` scores and 1-D vectors give a scalar.
    For RotatE, ``r_vec`` holds phases of width d/2 and entity vectors pair
    the first and second halves of their last axis as real and imaginary
    parts; the rotation therefore has unit modulus by construction.
    """
    if kind.name in ("transe", "distmult"):
        if h_vec.shape != r_vec.shape or h_vec.shape != t_vec.shape:
            raise ShapeMismatch(f"{kind.name} requires equal h, r, t shapes")
        if kind.name == "transe":
            return -norm(h_vec + r_vec - t_vec, kind.p, axis=-1)
        return tsum(mul(mul(h_vec, r_vec), t_vec), axis=-1)
    # rotate
    d = h_vec.shape[-1]
    if (d % 2 != 0 or r_vec.shape != h_vec.shape[:-1] + (d // 2,)
            or t_vec.shape != h_vec.shape):
        raise ShapeMismatch("RotatE requires even entity dim and d/2 phases")
    h_re, h_im = _complex_parts(h_vec)
    t_re, t_im = _complex_parts(t_vec)
    c, s = cos(r_vec), sin(r_vec)
    d_re = mul(h_re, c) - mul(h_im, s) - t_re
    d_im = mul(h_re, s) + mul(h_im, c) - t_im
    modulus = sqrt(mul(d_re, d_re) + mul(d_im, d_im))
    return kind.margin - tsum(modulus, axis=-1)


# -- subgraph-predicting model ----------------------------------------------

@dataclass
class ModelParams:
    """All trainable tensors of the subgraph scoring model."""
    k: int
    dim: int
    rel_dim: int
    num_relations: int
    num_layers: int
    num_bases: int
    layer_kind: str = "att"         # "rgcn" | "att" | "comp"
    comp_op: str = "sub"
    input_proj: Tensor = None       # (2*(k+2), dim)
    layers: list = field(default_factory=list)
    rel_emb: Tensor = None          # (num_relations, rel_dim)
    readout_w: Tensor = None        # (3*dim + rel_dim,)

    def tensors(self) -> dict[str, Tensor]:
        out = {"input_proj": self.input_proj, "rel_emb": self.rel_emb,
               "readout_w": self.readout_w}
        for i, layer in enumerate(self.layers):
            out.update(layer.tensors(f"layer{i}"))
        return out


def init_model(num_relations: int, k: int, dim: int = 32, rel_dim: int = 32,
               num_layers: int = 3, num_bases: int = 4, layer_kind: str = "att",
               comp_op: str = "sub", rng=None) -> ModelParams:
    rng = rng if rng is not None else np.random.default_rng(0)
    if layer_kind == "comp" and rel_dim != dim:
        raise ShapeMismatch("composition layers require rel_dim == dim")
    m = ModelParams(k, dim, rel_dim, num_relations, num_layers, num_bases,
                    layer_kind, comp_op)
    in_dim = 2 * (k + 2)
    scale = np.sqrt(2.0 / (in_dim + dim))
    m.input_proj = Tensor(rng.normal(0, scale, (in_dim, dim)), requires_grad=True)
    for _ in range(num_layers):
        if layer_kind == "comp":
            m.layers.append(init_comp_layer(rng, dim, dim, num_relations))
        else:
            m.layers.append(init_basis_layer(
                rng, dim, dim, num_relations, num_bases,
                d_rel=rel_dim, attention=(layer_kind == "att")))
    m.rel_emb = Tensor(rng.normal(0, 1.0 / np.sqrt(rel_dim),
                                  (num_relations, rel_dim)), requires_grad=True)
    m.readout_w = Tensor(rng.normal(0, 1.0 / np.sqrt(3 * dim + rel_dim),
                                    3 * dim + rel_dim), requires_grad=True)
    return m


def no_grad_view(model: ModelParams) -> ModelParams:
    """The same model over tensors that share its arrays but record no tape.

    Scoring with the view builds no autodiff graph; in-place updates of the
    model's parameters show through it.
    """
    def detach(obj):
        return replace(obj, **{f.name: Tensor(getattr(obj, f.name).data)
                               for f in fields(obj)
                               if isinstance(getattr(obj, f.name), Tensor)})
    return replace(detach(model), layers=[detach(P) for P in model.layers])


def score_subgraphs(model: ModelParams, items) -> Tensor:
    """Score labelled subgraphs against their candidate relations: ``(G,)``
    scores for G ScoredItems from one forward pass over the disjoint union
    of their subgraphs.

    The node ids of each item are offset by the node count of the items
    before it, so one message list covers every item and no message crosses
    two. Node labels are projected to the hidden dimension and run through
    the configured convolution stack; in ``att`` layers each node's messages
    are conditioned on its own item's relation. Item g reads out as
    w . [meanpool_g ++ h_head ++ h_tail ++ e_rel], the mean over its own
    nodes.
    """
    for it in items:
        if it.labels.shape != (it.sub.num_nodes, 2 * (it.sub.k + 2)):
            raise ShapeMismatch(
                f"labels {it.labels.shape} do not match "
                f"({it.sub.num_nodes}, {2 * (it.sub.k + 2)})")
    sizes = np.array([it.sub.num_nodes for it in items], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    edge_counts = [len(it.sub.edges) for it in items]
    edges = np.concatenate([np.reshape(it.sub.edges, (-1, 3)) for it in items])
    edges = edges + np.repeat(offsets, edge_counts)[:, None] * np.array([1, 1, 0])
    ms = Messages(edges, int(sizes.sum()))
    rels = np.array([it.rel for it in items], dtype=np.int64)
    node_item = np.repeat(np.arange(len(items)), sizes)

    H = matmul(Tensor(np.concatenate([it.labels for it in items])), model.input_proj)
    E = model.rel_emb
    for P in model.layers:
        if model.layer_kind == "rgcn":
            H = rgcn_layer(ms, H, P)
        elif model.layer_kind == "att":
            H = rel_att_layer(ms, H, P, model.rel_emb, rels[node_item])
        else:
            H, E = rel_comp_layer(ms, H, E, P, model.comp_op)
    pooled = mul(segment_sum(H, node_item, len(items)), (1.0 / sizes)[:, None])
    heads = offsets + np.array([it.sub.head_local for it in items], dtype=np.int64)
    tails = offsets + np.array([it.sub.tail_local for it in items], dtype=np.int64)
    g = concat([pooled, gather_rows(H, heads), gather_rows(H, tails),
                gather_rows(E, rels)], axis=1)
    return matmul(g, model.readout_w)


def subgraph_score(model: ModelParams, sub: Subgraph, labels: np.ndarray,
                   rel: int) -> Tensor:
    """The scalar score of one labelled subgraph: ``score_subgraphs`` of a
    one-item list."""
    return reshape(score_subgraphs(model, [ScoredItem(sub, labels, int(rel))]), ())


def margin_loss(pos_scores, neg_scores, gamma: float) -> Tensor:
    """Mean hinge over the pairs of two concatenated lists of score tensors."""
    pos = concat(list(pos_scores), axis=0)
    neg = concat(list(neg_scores), axis=0)
    if pos.shape != neg.shape:
        raise LengthMismatch(
            f"{pos.shape[0]} positive vs {neg.shape[0]} negative scores")
    return tmean(relu(neg - pos + gamma))


# -- entity-encoding model --------------------------------------------------

@dataclass
class EntityEncoderParams:
    """Relation-derived entity initializer plus a KGE decoder."""
    dim: int
    num_relations: int
    decoder: DecoderKind
    psi: Tensor = None       # (2 * num_relations, dim); row 2r+dir
    dec_rel: Tensor = None   # (num_relations, dim) or (num_relations, dim/2) phases

    def tensors(self) -> dict[str, Tensor]:
        return {"psi": self.psi, "dec_rel": self.dec_rel}


def init_entity_encoder(num_relations: int, dim: int, decoder: DecoderKind,
                        rng=None) -> EntityEncoderParams:
    rng = rng if rng is not None else np.random.default_rng(0)
    p = EntityEncoderParams(dim, num_relations, decoder)
    p.psi = Tensor(rng.normal(0, 1.0 / np.sqrt(dim), (2 * num_relations, dim)),
                   requires_grad=True)
    rel_width = dim // 2 if decoder.name == "rotate" else dim
    if decoder.name == "rotate":
        p.dec_rel = Tensor(rng.uniform(-np.pi, np.pi, (num_relations, rel_width)),
                           requires_grad=True)
    else:
        p.dec_rel = Tensor(rng.normal(0, 1.0 / np.sqrt(rel_width),
                                      (num_relations, rel_width)),
                           requires_grad=True)
    return p


def init_entity_embeddings(triples: np.ndarray, entity_ids: np.ndarray,
                           psi: Tensor) -> Tensor:
    """Embed entities as the mean of their incident relation/direction rows.

    Each triple (h, r, t) contributes psi[2r] to h and psi[2r+1] to t, so
    unseen entities are representable from relations alone. Raises
    IsolatedEntity for any requested entity with no incident triple.
    """
    entity_ids = np.asarray(entity_ids, dtype=np.int64)
    tri = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    # h and t interleaved per triple: the order of the segment-sum entries
    ends = tri[:, [0, 2]].reshape(-1)
    psi_idx = (2 * tri[:, [1, 1]] + [0, 1]).reshape(-1)
    sorter = np.argsort(entity_ids, kind="stable")
    pos = np.searchsorted(entity_ids, ends, sorter=sorter)
    hit = np.append(entity_ids[sorter], -1)[pos] == ends
    seg_idx = sorter[pos[hit]]
    counts = np.bincount(seg_idx, minlength=len(entity_ids))
    if (counts == 0).any():
        missing = entity_ids[counts == 0][:5].tolist()
        raise IsolatedEntity(f"entities with no incident triple: {missing}")
    # gathered grouped by entity, so the segment sum needs no sorted copy
    order = np.argsort(seg_idx, kind="stable")
    summed = segment_sum(gather_rows(psi, psi_idx[hit][order]), seg_idx[order],
                         len(entity_ids))
    return mul(summed, (1.0 / counts)[:, None])


# -- optimizer --------------------------------------------------------------

class Adam:
    """Standard bias-corrected Adam over a named tensor dict."""

    def __init__(self, params: dict[str, Tensor], lr=1e-3, beta1=0.9,
                 beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.items()}

    def step(self) -> None:
        """Apply one update from the accumulated gradients, then zero them."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            update = (self.lr * (self.m[name] / b1t)
                      / (np.sqrt(self.v[name] / b2t) + self.eps))
            if not np.isfinite(update).all():
                raise NonFiniteUpdate(f"non-finite Adam update for {name}")
            p.data -= update
            p.grad = None


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


# -- verification harness ---------------------------------------------------

def gradient_check(params: dict[str, Tensor], loss_fn, eps: float = 1e-5,
                   sample_frac: float = 0.05, rng=None) -> float:
    """Max relative error between backprop and central differences.

    ``loss_fn`` must rebuild the forward graph from the current parameter
    values and return a scalar Tensor. A random ``sample_frac`` of each
    parameter tensor's entries is probed (at least one per tensor).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    zero_grads(params)
    loss_fn().backward()
    worst = 0.0
    for p in params.values():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        aflat = analytic.reshape(-1)
        n_probe = max(1, int(round(sample_frac * flat.size)))
        for idx in rng.choice(flat.size, size=n_probe, replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_fn().item()
            flat[idx] = orig - eps
            down = loss_fn().item()
            flat[idx] = orig
            numeric = (up - down) / (2 * eps)
            err = abs(aflat[idx] - numeric) / max(1e-6, abs(aflat[idx]) + abs(numeric))
            worst = max(worst, err)
    zero_grads(params)
    return worst


# -- checkpoints ------------------------------------------------------------

def save_checkpoint(path, tensors: dict[str, Tensor], config: dict) -> None:
    """Write the IKGM2 layout: magic, one string table holding the config
    JSON and then the tensor names in sorted order, then for each name a u64
    ``ndim``, the shape as ``"<u8"`` and the data as ``"<f8"``, C order."""
    names = sorted(tensors)
    buf = bytearray(CHECKPOINT_MAGIC)
    binio.write_strings(buf, [json.dumps(config, sort_keys=True), *names])
    for name in names:
        data = tensors[name].data
        binio.write_u64(buf, data.ndim)
        binio.write_array(buf, data.shape, "<u8")
        binio.write_array(buf, data, "<f8")
    with open(path, "wb") as fh:
        fh.write(bytes(buf))


def load_checkpoint(path):
    """Return (config dict, name -> ndarray)."""
    import os
    if not os.path.isfile(path):
        raise MissingFile(str(path))
    with open(path, "rb") as fh:
        data = fh.read()
    rd = binio.Reader(data)
    binio.check_magic(rd, CHECKPOINT_MAGIC)
    header = rd.read_strings()
    if not header:
        raise TruncatedFile("checkpoint string table holds no config")
    tensors = {}
    for name in header[1:]:
        shape = tuple(rd.read_array(rd.read_u64(), "<u8").tolist())
        # math.prod cannot wrap around, so a corrupt shape fails as truncation
        tensors[name] = rd.read_array(math.prod(shape), "<f8").reshape(shape)
    try:
        config = json.loads(header[0])
    except json.JSONDecodeError as exc:
        raise CorruptHeader(f"checkpoint config is not JSON: {exc}") from None
    if not isinstance(config, dict):
        raise CorruptHeader("checkpoint config is not a JSON object")
    return config, tensors


def restore_model(model, arrays: dict[str, np.ndarray]) -> None:
    """Load checkpoint arrays into a model's named tensors, in place."""
    for name, t in model.tensors().items():
        if name not in arrays:
            raise KeyError(f"checkpoint missing tensor {name!r}")
        if arrays[name].shape != t.data.shape:
            raise ShapeMismatch(
                f"tensor {name!r}: checkpoint {arrays[name].shape} vs model {t.data.shape}")
        t.data[...] = arrays[name]
