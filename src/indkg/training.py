"""Training loops for the two model families.

Both loops are deterministic functions of (dataset, config, seed): every
stochastic choice draws from an RNG stream derived from the master seed and
the position of the item, so logs and resulting parameters are reproducible
run to run. ``entity_triple_scorer`` and ``subgraph_item_scorer`` turn a
trained model into a batch scorer for ``indkg.evaluate``.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from .config import RunConfig
from .errors import NonFiniteLoss
from .evaluate import (
    MonitorState,
    classification_metrics,
    early_stop_decision,
)
from .kgcore import DatasetBundle
from .model import (
    Adam,
    DecoderKind,
    EntityEncoderParams,
    ModelParams,
    init_entity_embeddings,
    init_entity_encoder,
    init_model,
    kge_score,
    margin_loss,
    subgraph_score,
)
from .autodiff import Tensor, gather_rows
from .sampling import (
    NegativeSpec,
    make_classification_batch,
    make_train_instance,
    sample_meta_task,
)

log = logging.getLogger(__name__)


def _snapshot(params: dict) -> dict:
    return {name: t.data.copy() for name, t in params.items()}


def _restore(params: dict, snap: dict) -> None:
    for name, t in params.items():
        t.data[...] = snap[name]


def _check_finite_loss(value: float, params: dict, context: str) -> None:
    if np.isfinite(value):
        return
    diag = {name: float(np.abs(t.data).max()) for name, t in params.items()}
    log.error("non-finite loss in %s; max-abs per tensor: %s", context, diag)
    raise NonFiniteLoss(f"{context}: loss = {value}")


def _max_nodes(cfg: RunConfig):
    return cfg.max_nodes if cfg.max_nodes > 0 else None


def validation_classification(model: ModelParams, graph, triples, cfg: RunConfig,
                              seed_tag: int):
    """AUC / AUC-PR of the current model on a classification batch."""
    rng = np.random.default_rng((cfg.seed, 0x5EED, seed_tag))
    batch = make_classification_batch(graph, triples, cfg.k, rng,
                                      max_nodes=_max_nodes(cfg))
    return classification_metrics(subgraph_item_scorer(model)(batch.items),
                                  batch.labels01)


def train_subgraph_model(bundle: DatasetBundle, cfg: RunConfig):
    """Margin-loss training of the subgraph scorer with per-epoch validation.

    Returns (model at best validation AUC-PR, list of metric-log dicts).
    """
    rng = np.random.default_rng((cfg.seed, 0x1017))
    model = init_model(bundle.vocab.num_relations, cfg.k, dim=cfg.dim,
                       rel_dim=cfg.rel_dim, num_layers=cfg.num_layers,
                       num_bases=cfg.num_bases, layer_kind=cfg.layer_kind,
                       comp_op=cfg.comp_op, rng=rng)
    params = model.tensors()
    opt = Adam(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
               eps=cfg.adam_eps)
    spec = NegativeSpec(mode="both-uniform", num_neg=cfg.num_neg,
                        filtered=cfg.filtered)
    monitor = MonitorState(patience=cfg.patience, min_delta=cfg.min_delta)
    graph = bundle.train_graph
    triples = bundle.train
    records = []
    best = _snapshot(params)

    for epoch in range(cfg.epochs):
        t0 = time.monotonic()
        epoch_losses = []
        for start in range(0, len(triples), cfg.batch_size):
            batch = triples[start:start + cfg.batch_size]
            pos_scores, neg_scores = [], []
            for bi, triple in enumerate(batch.tolist()):
                item_rng = np.random.default_rng((cfg.seed, epoch, start + bi))
                inst = make_train_instance(graph, triple, cfg.k, spec, item_rng,
                                           max_nodes=_max_nodes(cfg))
                p = subgraph_score(model, inst.pos.sub, inst.pos.labels,
                                   inst.pos.rel)
                for neg in inst.negs:
                    pos_scores.append(p)
                    neg_scores.append(
                        subgraph_score(model, neg.sub, neg.labels, neg.rel))
            loss = margin_loss(pos_scores, neg_scores, cfg.margin)
            _check_finite_loss(loss.item(), params, f"epoch {epoch}")
            epoch_losses.append(loss.item())
            loss.backward()
            opt.step()
        records.append({"epoch": epoch, "split": "train",
                        "loss": float(np.mean(epoch_losses)),
                        "auc": None, "auc_pr": None,
                        "wall_ms": (time.monotonic() - t0) * 1000.0,
                        "seed": cfg.seed})

        if (epoch + 1) % cfg.check_per_epoch == 0 and len(bundle.valid):
            t1 = time.monotonic()
            auc, auc_pr = validation_classification(
                model, graph, bundle.valid, cfg, seed_tag=epoch)
            records.append({"epoch": epoch, "split": "valid", "loss": None,
                            "auc": auc, "auc_pr": auc_pr,
                            "wall_ms": (time.monotonic() - t1) * 1000.0,
                            "seed": cfg.seed})
            monitor, stop, is_best = early_stop_decision(monitor, auc_pr)
            if is_best:
                best = _snapshot(params)
            if stop:
                log.info("early stop at epoch %d (best %.4f at check %d)",
                         epoch, monitor.best_value, monitor.best_epoch)
                break

    if monitor.best_epoch >= 0:
        _restore(params, best)
    return model, records


def episode_loss(enc: EntityEncoderParams, task, graph, cfg: RunConfig, rng):
    """Margin loss of one meta-task: support-derived embeddings score the
    query triples (one decoder call) against per-query corruptions (one
    more). A corruption redrawn 100 times without escaping the known triples
    is dropped; the drops are counted in one warning per episode."""
    ents = np.unique(task.support[:, [0, 2]])
    local = {int(e): i for i, e in enumerate(ents)}
    queries = task.query.tolist()
    owner, neg_h, neg_t = [], [], []
    for qi, (h, r, t) in enumerate(queries):
        # corrupt within the task region so the negative has an embedding
        for _ in range(cfg.num_neg):
            for _attempt in range(100):
                e = int(ents[rng.integers(len(ents))])
                corrupt_head = rng.random() < 0.5
                cand = (e, r, t) if corrupt_head else (h, r, e)
                if cand != (h, r, t) and not graph.contains(*cand):
                    break
            else:
                continue
            owner.append(qi)
            neg_h.append(local[cand[0]])
            neg_t.append(local[cand[2]])
    wanted = cfg.num_neg * len(queries)
    if len(owner) < wanted:
        log.warning("episode dropped %d of %d negatives: each of their 100 "
                    "draws hit a known triple", wanted - len(owner), wanted)
    if not owner:
        return None
    emb = init_entity_embeddings(task.support, ents, enc.psi)
    q_rows = np.array([[local[h], local[t]] for h, _, t in queries], dtype=np.int64)
    r_vec = gather_rows(enc.dec_rel, task.query[:, 1])
    pos = kge_score(enc.decoder, gather_rows(emb, q_rows[:, 0]), r_vec,
                    gather_rows(emb, q_rows[:, 1]))
    neg = kge_score(enc.decoder, gather_rows(emb, neg_h),
                    gather_rows(r_vec, owner), gather_rows(emb, neg_t))
    return margin_loss([gather_rows(pos, owner)], [neg], cfg.margin)


def train_entity_encoder_model(bundle: DatasetBundle, cfg: RunConfig):
    """Episodic training of the relation-derived entity initializer."""
    rng = np.random.default_rng((cfg.seed, 0x3317))
    decoder = DecoderKind(cfg.decoder, p=cfg.transe_p, margin=cfg.margin)
    enc = init_entity_encoder(bundle.vocab.num_relations, cfg.dim, decoder, rng=rng)
    params = enc.tensors()
    opt = Adam(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
               eps=cfg.adam_eps)
    graph = bundle.train_graph
    records = []
    for episode in range(cfg.episodes):
        t0 = time.monotonic()
        ep_rng = np.random.default_rng((cfg.seed, 0xEA5, episode))
        task = sample_meta_task(graph, cfg.region_size, cfg.support_frac, ep_rng)
        loss = episode_loss(enc, task, graph, cfg, ep_rng)
        if loss is None:
            continue
        _check_finite_loss(loss.item(), params, f"episode {episode}")
        loss.backward()
        opt.step()
        if (episode + 1) % cfg.check_per_epoch == 0:
            records.append({"epoch": episode, "split": "train",
                            "loss": loss.item(), "auc": None, "auc_pr": None,
                            "wall_ms": (time.monotonic() - t0) * 1000.0,
                            "seed": cfg.seed})
    return enc, records


def entity_triple_scorer(enc: EntityEncoderParams, support_triples,
                         entity_ids):
    """Scorer over candidate (h, r, t) triples from support-derived embeddings.

    The scorer maps an (m, 3) array-like of triples (one triple counts as
    m = 1) to m scores in one decoder call. A triple whose head or tail is
    not in ``entity_ids`` scores ``-inf``: an unembeddable candidate can
    never win.
    """
    local = {int(e): i for i, e in enumerate(entity_ids)}
    emb = Tensor(init_entity_embeddings(support_triples, entity_ids, enc.psi).data)
    dec_rel = Tensor(enc.dec_rel.data)

    def score(candidates) -> np.ndarray:
        tri = np.asarray(candidates, dtype=np.int64).reshape(-1, 3)
        h, t = (np.array([local.get(e, -1) for e in col.tolist()], dtype=np.int64)
                for col in (tri[:, 0], tri[:, 2]))
        ok = (h >= 0) & (t >= 0)
        out = np.full(len(tri), -np.inf)
        out[ok] = kge_score(enc.decoder, gather_rows(emb, h[ok]),
                            gather_rows(dec_rel, tri[ok, 1]),
                            gather_rows(emb, t[ok])).data
        return out

    return score


def subgraph_item_scorer(model: ModelParams):
    """Scorer over ScoredItems: a float array of one subgraph score per item."""
    def score(items) -> np.ndarray:
        return np.array([subgraph_score(model, it.sub, it.labels, it.rel).item()
                         for it in items], dtype=np.float64)
    return score
