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
from .errors import ExhaustedRetries, NonFiniteLoss
from .evaluate import (
    MonitorState,
    classification_metrics,
    early_stop_decision,
)
from .kgcore import DatasetBundle, find_sorted
from .model import (
    Adam,
    EntityEncoderParams,
    ModelParams,
    build_model,
    init_entity_embeddings,
    kge_score,
    margin_loss,
    model_settings,
    no_grad_view,
    score_subgraphs,
)
from .autodiff import Tensor, single_blas_thread
from .sampling import (
    RETRY_CAP,
    corrupt_triple,
    make_classification_batch,
    make_train_batch,
    sample_meta_task,
)

log = logging.getLogger(__name__)

# Most messages (two per subgraph edge) in one union forward of the subgraph
# scorer: for the default att model, a union of 16,232 messages over 4,415
# nodes peaked at about 11 MB of transient arrays (tracemalloc).
MESSAGE_BUDGET = 1 << 14


def _snapshot(params: dict) -> dict:
    return {name: t.data.copy() for name, t in params.items()}


def _restore(params: dict, snap: dict) -> None:
    for name, t in params.items():
        t.data[...] = snap[name]


def _record(epoch, split, seed, t0, loss=None, auc=None, auc_pr=None) -> dict:
    """One metrics.jsonl line; ``wall_ms`` runs from the ``time.monotonic()``
    reading ``t0`` to now."""
    return {"epoch": epoch, "split": split, "loss": loss, "auc": auc,
            "auc_pr": auc_pr, "wall_ms": (time.monotonic() - t0) * 1000.0,
            "seed": seed}


def _check_finite_loss(value: float, params: dict, context: str) -> None:
    if np.isfinite(value):
        return
    diag = {name: float(np.abs(t.data).max()) for name, t in params.items()}
    log.error("non-finite loss in %s; max-abs per tensor: %s", context, diag)
    raise NonFiniteLoss(f"{context}: loss = {value}")


def validation_classification(model: ModelParams, graph, triples, cfg: RunConfig,
                              seed_tag: int):
    """AUC / AUC-PR of the current model on a classification batch."""
    rng = np.random.default_rng((cfg.seed, 0x5EED, seed_tag))
    batch = make_classification_batch(graph, triples, cfg.k, rng,
                                      max_nodes=cfg.max_nodes)
    return classification_metrics(subgraph_item_scorer(model)(batch.items),
                                  batch.labels01)


@single_blas_thread()
def train_subgraph_model(bundle: DatasetBundle, cfg: RunConfig):
    """Margin-loss training of the subgraph scorer with per-epoch validation,
    with BLAS on one thread.

    Returns (model at best validation AUC-PR, list of metric-log dicts).
    """
    rng = np.random.default_rng((cfg.seed, 0x1017))
    model = build_model(model_settings(cfg, "subgraph", bundle.vocab.num_relations), rng)
    params = model.tensors()
    opt = Adam(params, lr=cfg.lr)
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
            rngs = [np.random.default_rng((cfg.seed, epoch, start + bi))
                    for bi in range(len(batch))]
            items = make_train_batch(graph, batch, cfg.k, cfg.num_neg, rngs,
                                     cfg.filtered, max_nodes=cfg.max_nodes)
            # item i * (1 + num_neg) is a positive, the num_neg after it its negatives
            width = 1 + cfg.num_neg
            pos_idx = np.repeat(np.arange(len(batch)) * width, cfg.num_neg)
            neg_idx = np.flatnonzero(np.arange(len(items)) % width)
            scores = score_subgraphs(model, items)
            loss = margin_loss(scores, scores, cfg.margin, pos_idx, neg_idx)
            _check_finite_loss(loss.item(), params, f"epoch {epoch}")
            epoch_losses.append(loss.item())
            loss.backward()
            opt.step()
        records.append(_record(epoch, "train", cfg.seed, t0,
                               loss=float(np.mean(epoch_losses))))

        if (epoch + 1) % cfg.check_per_epoch == 0 and len(bundle.valid):
            t1 = time.monotonic()
            auc, auc_pr = validation_classification(
                model, graph, bundle.valid, cfg, seed_tag=epoch)
            records.append(_record(epoch, "valid", cfg.seed, t1, auc=auc, auc_pr=auc_pr))
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
    query triples against per-query corruptions. Negatives come from
    ``corrupt_triple`` over the task's entities; one that raises
    ExhaustedRetries is dropped, and the drops are counted in one warning
    per episode. The loss is three tape nodes: the embeddings of the
    entities the score rows read, one decoder call that scores the nq
    queries and then the negatives (score nq + j is negative j, paired with
    its owner query's score), and the hinge."""
    ents = np.unique(np.concatenate([task.support[:, [0, 2]], task.query[:, [0, 2]]]))
    owner, negs = [], []
    for qi, triple in enumerate(task.query.tolist()):
        for _ in range(cfg.num_neg):
            try:
                negs.append(corrupt_triple(triple, graph, rng, entities=ents))
            except ExhaustedRetries:
                continue
            owner.append(qi)
    wanted = cfg.num_neg * len(task.query)
    if len(owner) < wanted:
        log.warning("episode dropped %d of %d negatives: each of their %d "
                    "draws hit a known triple", wanted - len(owner), wanted,
                    RETRY_CAP)
    if not owner:
        return None
    ends = np.concatenate([task.query[:, [0, 2]], np.array(negs, dtype=np.int64)[:, [0, 2]]])
    # a query entity with no support triple makes init_entity_embeddings
    # raise IsolatedEntity
    read, rows = np.unique(ends, return_inverse=True)
    rows = rows.reshape(ends.shape)
    rels = np.concatenate([task.query[:, 1], task.query[owner, 1]])
    emb = init_entity_embeddings(task.support, read, enc.psi)
    scores = kge_score(enc.decoder, emb, enc.dec_rel, emb, rows[:, 0], rels, rows[:, 1])
    nq = len(task.query)
    return margin_loss(scores, scores, cfg.margin, owner, nq + np.arange(len(owner)))


def train_entity_encoder_model(bundle: DatasetBundle, cfg: RunConfig):
    """Episodic training of the relation-derived entity initializer.

    Every ``check_per_epoch``-th episode with a loss writes a record, whose
    ``wall_ms`` spans the episodes since the previous record. What the
    meta-task sampler discarded over the run (short regions, rejected splits
    and query triples moved into support) is counted in one warning."""
    rng = np.random.default_rng((cfg.seed, 0x3317))
    enc = build_model(model_settings(cfg, "entity", bundle.vocab.num_relations), rng)
    params = enc.tensors()
    opt = Adam(params, lr=cfg.lr)
    graph = bundle.train_graph
    records = []
    short = rejected = moved = drawn = 0
    t0 = time.monotonic()
    for episode in range(cfg.episodes):
        ep_rng = np.random.default_rng((cfg.seed, 0xEA5, episode))
        task = sample_meta_task(graph, cfg.region_size, cfg.support_frac, ep_rng)
        short, rejected = short + task.short_regions, rejected + task.rejected_splits
        moved, drawn = moved + task.moved, drawn + task.moved + len(task.query)
        loss = episode_loss(enc, task, graph, cfg, ep_rng)
        if loss is None:
            continue
        _check_finite_loss(loss.item(), params, f"episode {episode}")
        loss.backward()
        opt.step()
        if (episode + 1) % cfg.check_per_epoch == 0:
            records.append(_record(episode, "train", cfg.seed, t0, loss=loss.item()))
            t0 = time.monotonic()
    if short or rejected or moved:
        log.warning("meta-task sampler over %d episodes: regions with fewer than %d "
                    "triples %d, splits rejected for an empty query or support %d, "
                    "query triples moved into support %d of %d", cfg.episodes,
                    cfg.region_size, short, rejected, moved, drawn)
    return enc, records


def entity_triple_scorer(enc: EntityEncoderParams, support_triples,
                         entity_ids):
    """Scorer over candidate (h, r, t) triples from support-derived embeddings.

    The scorer maps an (m, 3) array-like of triples (one triple counts as
    m = 1) to m scores in one decoder call. A triple whose head or tail is
    not in ``entity_ids`` scores ``-inf``: an unembeddable candidate can
    never win. Ids are looked up by one ``find_sorted`` per column over the
    sorted ``entity_ids``.
    """
    ids = np.asarray(entity_ids, dtype=np.int64).reshape(-1)
    order = np.argsort(ids, kind="stable")
    keys = ids[order]
    # detached parameters, as in no_grad_view: scoring records no tape
    emb = init_entity_embeddings(support_triples, entity_ids, Tensor(enc.psi.data))
    dec_rel = Tensor(enc.dec_rel.data)

    def local(col):
        pos, found = find_sorted(keys, col)
        out = np.full(len(col), -1, dtype=np.int64)
        out[found] = order[pos[found]]
        return out

    def score(candidates) -> np.ndarray:
        tri = np.asarray(candidates, dtype=np.int64).reshape(-1, 3)
        h, t = local(tri[:, 0]), local(tri[:, 2])
        ok = (h >= 0) & (t >= 0)
        out = np.full(len(tri), -np.inf)
        out[ok] = kge_score(enc.decoder, emb, dec_rel, emb, h[ok], tri[ok, 1], t[ok]).data
        return out

    return score


def subgraph_item_scorer(model: ModelParams):
    """Scorer over ScoredItems: a float array of one subgraph score per item.

    Consecutive items are scored together by ``score_subgraphs``, in chunks
    of whole subgraphs holding at most ``MESSAGE_BUDGET`` messages (a larger
    subgraph is a chunk of its own), through a no-grad view of the model,
    with BLAS on one thread.
    """
    view = no_grad_view(model)

    @single_blas_thread()
    def score(items) -> np.ndarray:
        items = list(items)
        out = np.empty(len(items), dtype=np.float64)
        start = 0
        while start < len(items):
            stop, msgs = start + 1, 2 * len(items[start].sub.edges)
            while (stop < len(items)
                   and msgs + 2 * len(items[stop].sub.edges) <= MESSAGE_BUDGET):
                msgs += 2 * len(items[stop].sub.edges)
                stop += 1
            out[start:stop] = score_subgraphs(view, items[start:stop]).data
            start = stop
        return out
    return score
