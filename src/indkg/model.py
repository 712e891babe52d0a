"""Model parameters, KGE decoders, subgraph scoring, loss and optimization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import binio
from .autodiff import (
    Tensor,
    concat,
    cos,
    dot,
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
    tsum,
)
from .errors import (
    IsolatedEntity,
    LengthMismatch,
    MissingFile,
    NonFiniteUpdate,
    ShapeMismatch,
)
from .layers import (
    init_basis_layer,
    init_comp_layer,
    rel_att_layer,
    rel_comp_layer,
    rgcn_layer,
)
from .subgraph import Subgraph

CHECKPOINT_MAGIC = b"IKGM1"


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


def kge_score(kind: DecoderKind, h_vec: Tensor, r_vec: Tensor, t_vec: Tensor) -> Tensor:
    """Score one (h, r, t) triple given its vectors.

    For RotatE, ``r_vec`` holds phases of length d/2 and entity vectors pair
    their first and second halves as real and imaginary parts; the rotation
    therefore has unit modulus by construction.
    """
    if kind.name == "transe":
        if h_vec.shape != r_vec.shape or h_vec.shape != t_vec.shape:
            raise ShapeMismatch("TransE requires equal dimensions")
        return -norm(h_vec + r_vec - t_vec, kind.p)
    if kind.name == "distmult":
        if h_vec.shape != r_vec.shape or h_vec.shape != t_vec.shape:
            raise ShapeMismatch("DistMult requires equal dimensions")
        return tsum(mul(mul(h_vec, r_vec), t_vec))
    # rotate
    d = h_vec.shape[-1]
    if d % 2 != 0 or r_vec.shape[-1] != d // 2 or t_vec.shape != h_vec.shape:
        raise ShapeMismatch("RotatE requires even entity dim and d/2 phases")
    half = np.arange(d // 2)
    h_re, h_im = gather_rows(h_vec, half), gather_rows(h_vec, half + d // 2)
    t_re, t_im = gather_rows(t_vec, half), gather_rows(t_vec, half + d // 2)
    c, s = cos(r_vec), sin(r_vec)
    d_re = mul(h_re, c) - mul(h_im, s) - t_re
    d_im = mul(h_re, s) + mul(h_im, c) - t_im
    modulus = sqrt(mul(d_re, d_re) + mul(d_im, d_im))
    return kind.margin - tsum(modulus)


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


def subgraph_score(model: ModelParams, sub: Subgraph, labels: np.ndarray,
                   rel: int) -> Tensor:
    """Encode a labelled subgraph and score it against a candidate relation.

    Node labels are projected to the hidden dimension, run through the
    configured convolution stack (the candidate relation conditions the
    attention), and read out as w . [meanpool ++ h_head ++ h_tail ++ e_rel].
    """
    if labels.shape != (sub.num_nodes, 2 * (sub.k + 2)):
        raise ShapeMismatch(
            f"labels {labels.shape} do not match ({sub.num_nodes}, {2 * (sub.k + 2)})")
    H = matmul(Tensor(labels), model.input_proj)
    E = model.rel_emb
    for P in model.layers:
        if model.layer_kind == "rgcn":
            H = rgcn_layer(sub, H, P)
        elif model.layer_kind == "att":
            H = rel_att_layer(sub, H, P, model.rel_emb, rel)
        else:
            H, E = rel_comp_layer(sub, H, E, P, model.comp_op)
    pooled = tmean(H, axis=0)
    h_vec = reshape(gather_rows(H, [sub.head_local]), (model.dim,))
    t_vec = reshape(gather_rows(H, [sub.tail_local]), (model.dim,))
    e_rel = reshape(gather_rows(E, [rel]), (model.rel_dim,))
    g = concat([pooled, h_vec, t_vec, e_rel], axis=0)
    return dot(model.readout_w, g)


def margin_loss(pos_scores, neg_scores, gamma: float) -> Tensor:
    """Mean hinge over (positive, negative) score pairs."""
    if len(pos_scores) != len(neg_scores):
        raise LengthMismatch(
            f"{len(pos_scores)} positive vs {len(neg_scores)} negative scores")
    pos = concat(list(pos_scores), axis=0)
    neg = concat(list(neg_scores), axis=0)
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
    local = {int(e): i for i, e in enumerate(entity_ids)}
    tri = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    seg_idx, psi_idx = [], []
    for h, r, t in tri.tolist():
        if h in local:
            seg_idx.append(local[h])
            psi_idx.append(2 * r)
        if t in local:
            seg_idx.append(local[t])
            psi_idx.append(2 * r + 1)
    counts = np.zeros(len(entity_ids), dtype=np.int64)
    np.add.at(counts, seg_idx, 1)
    if (counts == 0).any():
        missing = entity_ids[counts == 0][:5].tolist()
        raise IsolatedEntity(f"entities with no incident triple: {missing}")
    summed = segment_sum(gather_rows(psi, psi_idx), np.asarray(seg_idx), len(entity_ids))
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
    """Write magic, config echo, then named float64 little-endian blobs."""
    buf = bytearray(CHECKPOINT_MAGIC)
    binio.write_string(buf, json.dumps(config, sort_keys=True))
    binio.write_varint(buf, len(tensors))
    for name in sorted(tensors):
        t = tensors[name]
        binio.write_string(buf, name)
        binio.write_varint(buf, t.data.ndim)
        for d in t.data.shape:
            binio.write_varint(buf, d)
        buf += np.ascontiguousarray(t.data, dtype="<f8").tobytes()
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
    config = json.loads(rd.read_string())
    n = rd.read_varint()
    tensors = {}
    for _ in range(n):
        name = rd.read_string()
        ndim = rd.read_varint()
        shape = tuple(rd.read_varint() for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        raw = rd.read_bytes(8 * count)
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
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
