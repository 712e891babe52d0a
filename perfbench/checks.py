"""Output checks computed apart from the program.

Every check returns a list of error strings; an empty list means the output
agrees with the independent computation. The oracles use other algorithms
than the library: scipy shortest paths instead of the library BFS, per-edge
dense message passing instead of the slot-batched layers, explicit pair
counting for AUC and a sort for ranks.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

REL_TOL = 1e-9
METRIC_TOL = 1e-12


def _close(a, b, rel=REL_TOL) -> bool:
    if np.isinf(a) or np.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# -- dataset --------------------------------------------------------------

def check_bundle(bundle, splits) -> list[str]:
    """The reloaded bundle holds exactly the generator's labelled triples per
    split, and training and inductive entities are disjoint."""
    errs = []
    ent, rel = bundle.vocab.id2entity, bundle.vocab.id2relation
    for name, arr in bundle.splits().items():
        got = sorted((ent[h], rel[r], ent[t]) for h, r, t in arr.tolist())
        want = sorted(splits.get(name, []))
        if got != want:
            errs.append(f"bundle split {name}: {len(got)} triples differ from "
                        f"the generator's {len(want)}")
    train_ents = {e for s in ("train", "valid", "test") for h, _, t in splits[s] for e in (h, t)}
    ind_ents = {e for s in ("support", "query") for h, _, t in splits[s] for e in (h, t)}
    if train_ents & ind_ents:
        errs.append(f"{len(train_ents & ind_ents)} entities are both training and inductive")
    return errs


def id_triples(splits, names, vocab) -> np.ndarray:
    """Generator triples of the named splits, mapped through the vocab."""
    e2i, r2i = vocab.entity2id, vocab.relation2id
    rows = [(e2i[h], r2i[r], e2i[t]) for n in names for h, r, t in splits[n]]
    return np.asarray(rows, dtype=np.int64).reshape(-1, 3)


# -- subgraphs ------------------------------------------------------------

def enclosing_oracle(triples, n, target, k):
    """(nodes, dist_pairs, edges, union_size) of the enclosing subgraph.

    Distances are unweighted shortest paths over the undirected adjacency of
    ``triples`` with exactly the target triple removed.
    """
    h, r, t = (int(x) for x in target)
    tri = np.asarray(triples, dtype=np.int64)
    keep = ~((tri[:, 0] == h) & (tri[:, 1] == r) & (tri[:, 2] == t))
    a, b = tri[keep, 0], tri[keep, 2]
    adj = csr_matrix((np.ones(2 * len(a)), (np.concatenate([a, b]), np.concatenate([b, a]))),
                     shape=(n, n))
    d_h, d_t = dijkstra(adj, directed=True, indices=[h, t], unweighted=True, limit=k)
    inside = (d_h <= k) & (d_t <= k) & (d_h + d_t <= k + 1)
    inside[[h, t]] = False
    nodes = np.concatenate([[h] if h == t else [h, t], np.flatnonzero(inside)]).astype(np.int64)
    dist = np.minimum(np.column_stack([d_h[nodes], d_t[nodes]]), k + 1).astype(np.int64)
    union = int(((d_h <= k) | (d_t <= k)).sum())
    local = np.full(n, -1, dtype=np.int64)
    local[nodes] = np.arange(len(nodes))
    both = (local[tri[:, 0]] >= 0) & (local[tri[:, 2]] >= 0) & keep
    e = np.column_stack([local[tri[both, 0]], local[tri[both, 2]], tri[both, 1]])
    edges = np.unique(e, axis=0) if len(e) else np.empty((0, 3), dtype=np.int64)
    return nodes, dist, edges, union


def check_subgraph(sub, triples, n, where="") -> list[str]:
    nodes, dist, edges, union = enclosing_oracle(triples, n, sub.target, sub.k)
    errs = []
    if not np.array_equal(sub.nodes, nodes):
        errs.append(f"{where} {sub.target}: node set differs from the oracle "
                    f"({len(sub.nodes)} vs {len(nodes)} nodes)")
    elif not np.array_equal(sub.dist_pairs, dist):
        errs.append(f"{where} {sub.target}: (d_h, d_t) pairs differ from the oracle")
    if not np.array_equal(np.asarray(sub.edges).reshape(-1, 3), edges):
        errs.append(f"{where} {sub.target}: edge list differs from the oracle "
                    f"({len(sub.edges)} vs {len(edges)} edges)")
    if sub.union_size != union:
        errs.append(f"{where} {sub.target}: union size {sub.union_size} != {union}")
    return errs


def check_store(reader, expected_count, triples, n, sample) -> list[str]:
    errs = []
    if len(reader) != expected_count:
        errs.append(f"store holds {len(reader)} records, split has {expected_count}")
        return errs
    for i in sample:
        errs += check_subgraph(reader.read(i), triples, n, where=f"store record {i}")
    return errs


def sample_indices(count, size=4):
    """A fixed spread of indices into a sequence of ``count`` items."""
    return sorted({int(i) for i in np.linspace(0, count - 1, num=min(size, count))})


# -- subgraph model scores ------------------------------------------------

def _labels(dist, k):
    width = k + 2
    out = np.zeros((len(dist), 2 * width))
    out[np.arange(len(dist)), dist[:, 0]] = 1.0
    out[np.arange(len(dist)), width + dist[:, 1]] = 1.0
    return out


def _messages(edges):
    msgs = []
    for s, d, r in edges.tolist():
        msgs.append((s, d, r, 0))
        msgs.append((d, s, r, 1))
    counts = {}
    for _, d, r, direction in msgs:
        counts[(d, r, direction)] = counts.get((d, r, direction), 0) + 1
    return msgs, counts


def dense_score(arrays, echo, sub, rel) -> float:
    """Per-edge recomputation of the ``att`` subgraph model's score of one item."""
    k = sub.k
    H = _labels(np.asarray(sub.dist_pairs), k) @ arrays["input_proj"]
    E = arrays["rel_emb"]
    msgs, counts = _messages(np.asarray(sub.edges).reshape(-1, 3))
    for i in range(echo["num_layers"]):
        p = lambda name: arrays[f"layer{i}.{name}"]
        out = H @ p("self_weight")
        for s, d, r, direction in msgs:
            W = (p("coeffs")[2 * r + direction] @ p("bases")).reshape(H.shape[1], -1)
            m = H[s] @ W
            z = np.concatenate([m, H[d] @ W, E[r], E[rel]])
            m = m / (1.0 + np.exp(-(z @ p("att_a"))))
            out[d] += m / counts[(d, r, direction)]
        H = np.maximum(out, 0.0)
    tail = 0 if sub.target[0] == sub.target[2] else 1
    g = np.concatenate([H.mean(axis=0), H[0], H[tail], E[rel]])
    return float(g @ arrays["readout_w"])


def check_dense_scores(arrays, echo, items, recorded, triples, n, where) -> list[str]:
    """Each item's subgraph matches the oracle and its recorded score equals
    the dense recomputation."""
    if echo["layer_kind"] != "att":
        return [f"{where}: no dense recomputation of layer kind {echo['layer_kind']!r}"]
    errs = []
    for (sub, rel), score in zip(items, recorded):
        errs += check_subgraph(sub, triples, n, where=where)
        want = dense_score(arrays, echo, sub, rel)
        if not _close(score, want):
            errs.append(f"{where} {sub.target}: score {score!r} != dense {want!r}")
    return errs


# -- entity-family scores -------------------------------------------------

def entity_embeddings(psi, support, ents):
    """Mean of psi[2r] over a node's head edges and psi[2r+1] over tail edges."""
    local = {int(e): i for i, e in enumerate(ents)}
    acc = np.zeros((len(ents), psi.shape[1]))
    cnt = np.zeros(len(ents))
    for h, r, t in np.asarray(support).tolist():
        for e, row in ((h, 2 * r), (t, 2 * r + 1)):
            if e in local:
                acc[local[e]] += psi[row]
                cnt[local[e]] += 1
    return acc / cnt[:, None], local


def kge_numpy(echo, hv, rv, tv) -> float:
    if echo["decoder"] == "transe":
        diff = hv + rv - tv
        return float(-(np.abs(diff) ** echo["transe_p"]).sum() ** (1.0 / echo["transe_p"]))
    if echo["decoder"] == "distmult":
        return float((hv * rv * tv).sum())
    d2 = len(hv) // 2
    hc, tc = hv[:d2] + 1j * hv[d2:], tv[:d2] + 1j * tv[d2:]
    return float(echo["margin"] - np.abs(hc * np.exp(1j * rv) - tc).sum())


def check_entity_scores(arrays, echo, support, ents, triples, recorded, where) -> list[str]:
    emb, local = entity_embeddings(arrays["psi"], support, ents)
    errs = []
    for (h, r, t), score in zip(triples, recorded):
        if h not in local or t not in local:
            want = float("-inf")
        else:
            want = kge_numpy(echo, emb[local[h]], arrays["dec_rel"][r], emb[local[t]])
        if not _close(score, want):
            errs.append(f"{where} {(h, r, t)}: score {score!r} != numpy {want!r}")
    return errs


def check_embeddings(program_emb, psi, support, ents) -> list[str]:
    want, _ = entity_embeddings(psi, support, ents)
    if program_emb.shape != want.shape or not np.allclose(program_emb, want, rtol=REL_TOL, atol=0):
        return ["entity embeddings differ from the numpy recomputation"]
    return []


# -- evaluation metrics ---------------------------------------------------

def auc_pairs(scores, labels01):
    scores, labels01 = np.asarray(scores, float), np.asarray(labels01)
    pos, neg = scores[labels01 == 1], scores[labels01 == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (len(pos) * len(neg)))


def ap_grouped(scores, labels01):
    order = sorted(zip(scores, labels01), key=lambda x: -x[0])
    total = 0.0
    cum_tp = cum = i = 0
    while i < len(order):
        j = i
        while j < len(order) and order[j][0] == order[i][0]:
            j += 1
        tp = sum(l for _, l in order[i:j])
        cum_tp += tp
        cum += j - i
        total += tp * cum_tp / cum
        i = j
    return total / sum(labels01)


def check_tc(scores, labels01, report) -> list[str]:
    errs = []
    auc, ap = auc_pairs(scores, labels01), ap_grouped(scores, labels01)
    if abs(auc - report["auc"]) > METRIC_TOL:
        errs.append(f"TC AUC {report['auc']!r} != pair-count oracle {auc!r}")
    if abs(ap - report["auc_pr"]) > METRIC_TOL:
        errs.append(f"TC AUC-PR {report['auc_pr']!r} != grouped-tie oracle {ap!r}")
    if report["n_classified"] != len(scores):
        errs.append(f"TC classified {report['n_classified']} items, {len(scores)} scored")
    return errs


def rank_by_sort(scores, truth_idx) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    return float(np.mean([p + 1 for p, i in enumerate(order) if scores[i] == scores[truth_idx]]))


def check_lp(sides, report, hits_at=(1, 5, 10)) -> list[str]:
    """``sides``: (scores, truth_idx, rank the program computed) per query side."""
    errs = []
    ranks = []
    for j, (scores, truth, got) in enumerate(sides):
        rank = rank_by_sort(scores, truth)
        if not 1 <= rank <= len(scores):
            errs.append(f"LP side {j}: rank {rank} outside [1, {len(scores)}]")
        if abs(rank - got) > METRIC_TOL:
            errs.append(f"LP side {j}: program rank {got} != sort oracle {rank}")
        ranks.append(rank)
    ranks = np.asarray(ranks)
    if not len(ranks):
        return ["no LP query side was recorded"]
    mrr = float(np.mean(1.0 / ranks))
    if abs(mrr - report["mrr"]) > METRIC_TOL:
        errs.append(f"LP MRR {report['mrr']!r} != oracle {mrr!r}")
    for n in hits_at:
        hit = float(np.mean(ranks <= n))
        if abs(hit - report["hits"][str(n)]) > METRIC_TOL:
            errs.append(f"LP Hit@{n} {report['hits'][str(n)]!r} != oracle {hit!r}")
    return errs
