"""Model parameters, KGE decoders, subgraph scoring, loss and optimization.

Subgraphs are scored in batches: ``score_subgraphs`` runs one forward pass
over the disjoint union of a list of labelled subgraphs and returns one
score per subgraph, and ``subgraph_score`` is its one-item call.
``no_grad_view`` gives the same model without a tape, for evaluation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import binio
from .autodiff import (
    Tensor,
    as_tensor,
    concat,
    gather_rows,
    matmul,
    mul,
    node,
    reshape,
    scatter_rows,
    segment_sum,
    shared_vjps,
    tensor_fields,
)
from .config import parse_config
from .errors import (
    ConfigError,
    CorruptHeader,
    IsolatedEntity,
    LengthMismatch,
    MissingFile,
    NonFiniteUpdate,
    ShapeMismatch,
    TruncatedFile,
)
from .kgcore import find_sorted
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


def _rows(v: Tensor, idx):
    """The rows of ``v`` an op reads: ``v.data[idx]``, or all of it."""
    return v.data if idx is None else v.data[idx]


def _rows_vjp(v: Tensor, idx, vjp):
    """The VJP into ``v`` of an op that read ``_rows(v, idx)`` and sends
    ``vjp(g)`` to those rows: scatter-added back by ``idx``, as
    ``gather_rows`` does."""
    if idx is None:
        return vjp
    idx = np.asarray(idx, dtype=np.int64)
    return lambda g: scatter_rows(vjp(g), idx, len(v.data))


def _transe(p: float, H, R, T):
    """``-norm(H + R - T, p)`` over the last axis and its ``(dH, dR, dT)``
    VJP, each step the arithmetic of the composed autodiff ops."""
    y = H + R - T
    if p == 1.0:
        sign = np.sign(y)
        n = np.abs(y).sum(axis=-1)

        def dy(gn):
            return np.expand_dims(gn, -1) * sign
    elif p == 2.0:
        n = np.sqrt((y ** p).sum(axis=-1))

        def dy(gn):
            return np.expand_dims(gn * 0.5 / n, -1) * p * y ** (p - 1.0)
    else:
        a, sign, q = np.abs(y), np.sign(y), 1.0 / p
        s = (a ** p).sum(axis=-1)
        n = s ** q

        def dy(gn):
            return np.expand_dims(gn * q * s ** (q - 1.0), -1) * p * a ** (p - 1.0) * sign

    def grads(g):
        gy = dy(g * -1.0)
        return gy, gy, -gy
    return n * -1.0, grads


def _distmult(H, R, T):
    """``sum(H * R * T)`` over the last axis and its VJP, as ``_transe``."""
    hr = H * R

    def grads(g):
        g3 = np.expand_dims(g, -1)
        ghr = g3 * T
        return ghr * R, ghr * H, g3 * hr
    return (hr * T).sum(axis=-1), grads


def _rotate(margin: float, H, R, T):
    """``margin`` minus the summed moduli of ``H * exp(i R) - T``, halves as
    real and imaginary parts, and its VJP, as ``_transe``."""
    d2 = H.shape[-1] // 2
    h_re, h_im, t_re, t_im = H[..., :d2], H[..., d2:], T[..., :d2], T[..., d2:]
    c, s = np.cos(R), np.sin(R)
    d_re = h_re * c - h_im * s - t_re
    d_im = h_re * s + h_im * c - t_im
    modulus = np.sqrt(d_re * d_re + d_im * d_im)

    def grads(g):
        gsq = np.expand_dims(-g, -1) * 0.5 / modulus
        # each square adds g * d twice, once per operand
        g_re, g_im = gsq * d_re, gsq * d_im
        g_re, g_im = g_re + g_re, g_im + g_im
        gH = np.concatenate([g_re * c + g_im * s, -g_re * s + g_im * c], axis=-1)
        gc, gs = g_re * h_re + g_im * h_im, -g_re * h_im + g_im * h_re
        gR = -gc * np.sin(R) + gs * np.cos(R)
        return gH, gR, np.concatenate([-g_re, -g_im], axis=-1)
    return margin - modulus.sum(axis=-1), grads


def kge_score(kind: DecoderKind, h_vec: Tensor, r_vec: Tensor, t_vec: Tensor,
              h_idx=None, r_idx=None, t_idx=None) -> Tensor:
    """Score (h, r, t) triples, one score per row, as one tape node.

    The h, r and t vectors are the rows ``h_idx``, ``r_idx`` and ``t_idx``
    of ``h_vec``, ``r_vec`` and ``t_vec``, or the whole tensor where no
    index is given; an indexed table gets its rows' gradients scatter-added
    back, and a tensor passed twice gets both. ``(m, d)`` rows give ``(m,)``
    scores and 1-D vectors give a scalar. For RotatE, the r rows hold phases
    of width d/2 and entity vectors pair the first and second halves of
    their last axis as real and imaginary parts; the rotation therefore has
    unit modulus by construction. Scores and gradients are those of the
    decoder composed from single autodiff ops, bit for bit, as every step
    repeats that chain's arithmetic in its order.
    """
    h_vec, r_vec, t_vec = as_tensor(h_vec), as_tensor(r_vec), as_tensor(t_vec)
    H, R, T = _rows(h_vec, h_idx), _rows(r_vec, r_idx), _rows(t_vec, t_idx)
    if kind.name == "rotate":
        d = H.shape[-1]
        if d % 2 != 0 or R.shape != H.shape[:-1] + (d // 2,) or T.shape != H.shape:
            raise ShapeMismatch("RotatE requires even entity dim and d/2 phases")
        out, grads = _rotate(kind.margin, H, R, T)
    elif H.shape != R.shape or H.shape != T.shape:
        raise ShapeMismatch(f"{kind.name} requires equal h, r, t shapes")
    else:
        out, grads = _transe(kind.p, H, R, T) if kind.name == "transe" else _distmult(H, R, T)
    dh, dr, dt = shared_vjps(grads, range(3)).values()
    return node(out, h_vec, _rows_vjp(h_vec, h_idx, dh), r_vec, _rows_vjp(r_vec, r_idx, dr),
                t_vec, _rows_vjp(t_vec, t_idx, dt))


# -- subgraph-predicting model ----------------------------------------------

@dataclass
class ModelParams:
    """All trainable tensors of the subgraph scoring model. Its sizes are
    those of the tensors; a checkpoint's config records the settings."""
    layer_kind: str = "att"         # "rgcn" | "att" | "comp"
    comp_op: str = "sub"
    input_proj: Tensor = None       # (2*(k+2), dim)
    layers: list = field(default_factory=list)
    rel_emb: Tensor = None          # (num_relations, rel_dim)
    readout_w: Tensor = None        # (3*dim + rel_dim,)

    def tensors(self) -> dict[str, Tensor]:
        out = tensor_fields(self)
        for i, layer in enumerate(self.layers):
            out.update(layer.tensors(f"layer{i}"))
        return out


def init_model(num_relations: int, k: int, dim: int = 32, rel_dim: int = 32,
               num_layers: int = 3, num_bases: int = 4, layer_kind: str = "att",
               comp_op: str = "sub", rng=None) -> ModelParams:
    rng = rng if rng is not None else np.random.default_rng(0)
    if layer_kind == "comp" and rel_dim != dim:
        raise ShapeMismatch("composition layers require rel_dim == dim")
    m = ModelParams(layer_kind, comp_op)
    in_dim = 2 * (k + 2)
    scale = np.sqrt(2.0 / (in_dim + dim))
    m.input_proj = Tensor(rng.normal(0, scale, (in_dim, dim)), requires_grad=True)
    for _ in range(num_layers):
        if layer_kind == "comp":
            m.layers.append(init_comp_layer(rng, dim, dim))
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
        return replace(obj, **{name: Tensor(t.data)
                               for name, t in tensor_fields(obj).items()})
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
    width = model.input_proj.shape[0]      # 2 * (k + 2) for the model's k
    for it in items:
        want = (it.sub.num_nodes, 2 * (it.sub.k + 2))
        if it.labels.shape != want or want[1] != width:
            raise ShapeMismatch(f"labels {it.labels.shape} do not match {want} "
                                f"and the model's width {width}")
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


def margin_loss(pos: Tensor, neg: Tensor, gamma: float, pos_idx=None,
                neg_idx=None) -> Tensor:
    """Mean hinge ``relu(neg - pos + gamma)`` over two equal-shape score
    arrays, one pair per position, as one tape node: the entries ``pos_idx``
    of ``pos`` and ``neg_idx`` of ``neg``, or the whole tensor where no index
    is given, as ``kge_score`` reads its rows. Value and gradients are those
    of ``tmean(relu(neg - pos + gamma))`` bit for bit."""
    P, N = _rows(pos, pos_idx), _rows(neg, neg_idx)
    if P.shape != N.shape:
        raise LengthMismatch(f"positive scores of shape {P.shape} vs "
                             f"negative scores of shape {N.shape}")
    hinge = N - P + gamma
    mask = hinge > 0
    inv_n = 1.0 / hinge.size

    def dneg(g):
        return g * inv_n * mask
    return node(np.where(mask, hinge, 0.0).sum() * inv_n,
                pos, _rows_vjp(pos, pos_idx, lambda g: -dneg(g)),
                neg, _rows_vjp(neg, neg_idx, dneg))


# -- entity-encoding model --------------------------------------------------

@dataclass
class EntityEncoderParams:
    """Relation-derived entity initializer plus a KGE decoder."""
    decoder: DecoderKind
    psi: Tensor = None       # (2 * num_relations, dim); row 2r+dir
    dec_rel: Tensor = None   # (num_relations, dim) or (num_relations, dim/2) phases

    def tensors(self) -> dict[str, Tensor]:
        return tensor_fields(self)


def init_entity_encoder(num_relations: int, dim: int, decoder: DecoderKind,
                        rng=None) -> EntityEncoderParams:
    rng = rng if rng is not None else np.random.default_rng(0)
    p = EntityEncoderParams(decoder)
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
    ValueError for an entity id listed more than once and IsolatedEntity
    for any requested entity with no incident triple.
    """
    entity_ids = np.asarray(entity_ids, dtype=np.int64)
    tri = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    # h and t interleaved per triple: the order of the segment-sum entries
    ends = tri[:, [0, 2]].reshape(-1)
    psi_idx = (2 * tri[:, [1, 1]] + [0, 1]).reshape(-1)
    sorter = np.argsort(entity_ids, kind="stable")
    keys = entity_ids[sorter]
    repeated = keys[1:][keys[1:] == keys[:-1]]
    if len(repeated):
        raise ValueError(f"entity id {repeated[0]} listed more than once")
    pos, hit = find_sorted(keys, ends)
    seg_idx = sorter[pos[hit]]
    counts = np.bincount(seg_idx, minlength=len(entity_ids))
    if (counts == 0).any():
        missing = entity_ids[counts == 0][:5].tolist()
        raise IsolatedEntity(f"entities with no incident triple: {missing}")
    pidx, inv = psi_idx[hit], (1.0 / counts)[:, None]
    # one node: gather, segment sum and scale, each backward step in order
    return node(scatter_rows(psi.data[pidx], seg_idx, len(entity_ids)) * inv, psi,
                lambda g: scatter_rows((g * inv)[seg_idx], pidx, len(psi.data)))


# -- the model record -------------------------------------------------------

# the config keys a checkpoint records beside model_family and num_relations
MODEL_KEYS = ("k", "dim", "rel_dim", "num_bases", "num_layers", "layer_kind",
              "comp_op", "decoder", "transe_p", "margin", "seed")


def model_settings(cfg, family: str, num_relations: int) -> dict:
    """The model record: the ``MODEL_KEYS`` of a RunConfig, the model family
    and the relation count. A checkpoint stores it as its config, and
    ``build_model`` builds the model it describes."""
    return {**{key: getattr(cfg, key) for key in MODEL_KEYS},
            "model_family": family, "num_relations": num_relations}


def build_model(settings: dict, rng=None):
    """A freshly initialized model of the record's family: ``ModelParams``
    for ``"subgraph"``, ``EntityEncoderParams`` for ``"entity"``. A record
    that lacks a key, or whose value does not pass ``parse_config``'s type
    and range checks, raises CorruptHeader naming the key."""
    missing = [key for key in ("model_family", "num_relations", *MODEL_KEYS)
               if key not in settings]
    if missing:
        raise CorruptHeader(f"model record lacks {', '.join(missing)}")
    try:
        cfg = parse_config(None, {key: settings[key] for key in ("model_family", *MODEL_KEYS)})
    except ConfigError as exc:
        raise CorruptHeader(f"model record: {exc}") from None
    num_relations = settings["num_relations"]
    if type(num_relations) is not int or num_relations < 1:
        raise CorruptHeader(f"model record: num_relations {num_relations!r} is not an int >= 1")
    if cfg.model_family == "subgraph":
        return init_model(num_relations, cfg.k, dim=cfg.dim, rel_dim=cfg.rel_dim,
                          num_layers=cfg.num_layers, num_bases=cfg.num_bases,
                          layer_kind=cfg.layer_kind, comp_op=cfg.comp_op, rng=rng)
    decoder = DecoderKind(cfg.decoder, p=cfg.transe_p, margin=cfg.margin)
    return init_entity_encoder(num_relations, cfg.dim, decoder, rng=rng)


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
        """Apply one update from the accumulated gradients, then zero them;
        a tensor whose gradient is None is left as it is."""
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
    """Load checkpoint arrays into a model's named tensors, in place. The
    checkpoint names exactly the model's tensors, or it is corrupt."""
    tensors = model.tensors()
    missing, extra = tensors.keys() - arrays.keys(), arrays.keys() - tensors.keys()
    if missing or extra:
        raise CorruptHeader(f"checkpoint tensors differ from the model's: "
                            f"missing {sorted(missing)}, extra {sorted(extra)}")
    for name, t in tensors.items():
        if arrays[name].shape != t.data.shape:
            raise ShapeMismatch(
                f"tensor {name!r}: checkpoint {arrays[name].shape} vs model {t.data.shape}")
        t.data[...] = arrays[name]
