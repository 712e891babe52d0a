"""Shared generators and independent oracles for the test suite.

The oracles deliberately use different algorithms from the library code
(matrix-power reachability instead of BFS, dense adjacency message passing,
explicit pair counting) so agreement is meaningful.
"""

import numpy as np

from indkg.autodiff import Tensor, as_tensor, mul, node
from indkg.kgcore import IndexedGraph


# -- random graphs ----------------------------------------------------------

def random_triples(rng, n_entities, n_relations, density):
    """Directed multigraph triples without self-loops, density per ordered pair."""
    triples = []
    for h in range(n_entities):
        for t in range(n_entities):
            if h == t:
                continue
            if rng.random() < density:
                triples.append((h, int(rng.integers(n_relations)), t))
    return np.asarray(triples, dtype=np.int64).reshape(-1, 3)


def random_graph(rng, n_entities=20, n_relations=3, density=0.15):
    triples = random_triples(rng, n_entities, n_relations, density)
    return IndexedGraph(triples, n_entities, n_relations), triples


# -- graph index oracle -----------------------------------------------------

def _csr_oracle(src, dst, rel, n):
    """Row pointers and entries of a CSR ordered by (src, dst, rel): one
    multi-key lexsort, row bounds by binary search."""
    order = np.lexsort((rel, dst, src))
    return np.searchsorted(src[order], np.arange(n + 1)), dst[order], rel[order]


def graph_index_oracle(triples, num_entities, num_relations, known=None):
    """What ``IndexedGraph`` builds, by ``np.unique`` over rows and one
    ``np.lexsort`` per edge direction: a dict of its arrays keyed by the
    attribute names, and each entity's out- and in-edge (neighbor, relation)
    arrays. Adjacency row e is e's out-edges followed by its in-edges."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    known = triples if known is None else np.asarray(known, dtype=np.int64).reshape(-1, 3)
    uniq = np.unique(triples, axis=0)
    kn = np.unique(known, axis=0)
    out = {"triples": uniq,
           "known_keys": (kn[:, 0] * num_relations + kn[:, 1]) * num_entities + kn[:, 2]}
    h, r, t = uniq.T
    (out_ptr, out_nbr, out_rel), (in_ptr, in_nbr, in_rel) = (
        _csr_oracle(h, t, r, num_entities), _csr_oracle(t, h, r, num_entities))
    out_edges = [(out_nbr[a:b], out_rel[a:b]) for a, b in zip(out_ptr[:-1], out_ptr[1:])]
    in_edges = [(in_nbr[a:b], in_rel[a:b]) for a, b in zip(in_ptr[:-1], in_ptr[1:])]
    rows = [run for pair in zip(out_edges, in_edges) for run in pair]
    empty = np.empty(0, dtype=np.int64)
    out["indptr"] = out_ptr + in_ptr
    out["out_end"] = out_ptr[1:] + in_ptr[:-1]
    out["nbr"] = np.concatenate([empty] + [nbr for nbr, _ in rows])
    out["rel"] = np.concatenate([empty] + [rel for _, rel in rows])
    return out, out_edges, in_edges


def edge_positions_scan_oracle(graph, triples):
    """``IndexedGraph.edge_positions`` as a scan of the CSR runs: each row's
    one entry (t, r) in the out-run of h and (h, r) in the in-run of t, or
    -1 where the run holds no such entry."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    pos = np.full((len(triples), 2), -1, dtype=np.int64)
    for i, (h, r, t) in enumerate(triples.tolist()):
        runs = ((graph.indptr[h], graph.out_end[h], t), (graph.out_end[t], graph.indptr[t + 1], h))
        for col, (lo, hi, nbr) in enumerate(runs):
            hit = np.flatnonzero((graph.nbr[lo:hi] == nbr) & (graph.rel[lo:hi] == r))
            assert len(hit) <= 1, (h, r, t)
            if len(hit):
                pos[i, col] = lo + hit[0]
    return pos


def tape_size(out):
    """Number of distinct tensors reachable from ``out`` through the tape."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(parent for parent, _ in node._parents)
    return len(seen)


# -- decoder oracle ---------------------------------------------------------

def kge_numpy_oracle(kind, h, r, t):
    """One decoder score in plain numpy: ``np.linalg.norm`` for TransE and
    ``np.hypot`` moduli for RotatE, independent of the autodiff ops."""
    if kind.name == "transe":
        diff = h + r - t
        if kind.p == 1.0:
            return float(-np.abs(diff).sum())
        return float(-np.linalg.norm(diff, ord=kind.p))
    if kind.name == "distmult":
        return float((h * r * t).sum())
    d2 = len(h) // 2
    rot_re = h[:d2] * np.cos(r) - h[d2:] * np.sin(r)
    rot_im = h[:d2] * np.sin(r) + h[d2:] * np.cos(r)
    return float(kind.margin - np.hypot(rot_re - t[:d2], rot_im - t[d2:]).sum())


# -- distance / extraction oracles ------------------------------------------

def masked_adjacency(triples, n, target):
    """Boolean undirected adjacency with exactly the target triple removed."""
    A = np.zeros((n, n), dtype=bool)
    tgt = tuple(int(x) for x in target)
    for h, r, t in np.asarray(triples).tolist():
        if (h, r, t) == tgt:
            continue
        A[h, t] = True
        A[t, h] = True
    return A


def matrix_power_distances(A, source, max_steps):
    """dist[i] = first s <= max_steps with a length-s walk source -> i."""
    n = A.shape[0]
    dist = np.full(n, -1, dtype=np.int64)
    reach = np.zeros(n, dtype=bool)
    reach[source] = True
    dist[source] = 0
    for s in range(1, max_steps + 1):
        reach = A.T @ reach
        newly = reach & (dist < 0)
        dist[newly] = s
    return dist


def enclosing_nodes_oracle(triples, n, target, k):
    """Node set of the enclosing subgraph by walk-length enumeration.

    A node belongs iff it lies on some undirected walk h -> t of length
    <= k + 1 in the graph without the target edge (h, t always included).
    """
    h, _, t = (int(x) for x in target)
    A = masked_adjacency(triples, n, target)
    d_h = matrix_power_distances(A, h, k + 1)
    d_t = matrix_power_distances(A, t, k + 1)
    nodes = {h, t}
    for i in range(n):
        if i in (h, t) or d_h[i] < 0 or d_t[i] < 0:
            continue
        if d_h[i] <= k and d_t[i] <= k and d_h[i] + d_t[i] <= k + 1:
            nodes.add(i)
    return nodes


def enclosing_subgraph_oracle(triples, n, target, k, max_nodes=None):
    """Everything extraction returns, from walk-length distances and the raw
    triple list: (nodes, dist_pairs, edges, union_size) as plain lists.

    Nodes are h (and t when distinct) followed by the interior in ascending
    id; a cap keeps the interior nodes first in (d_h + d_t, id) order.
    Edges are the distinct triples among kept nodes, minus the target, as
    local (src, dst, rel) in ascending order.
    """
    h, r, t = (int(x) for x in target)
    A = masked_adjacency(triples, n, target)
    d_h = matrix_power_distances(A, h, k)
    d_t = matrix_power_distances(A, t, k)
    union_size = sum(1 for i in range(n) if d_h[i] >= 0 or d_t[i] >= 0)
    interior = [i for i in range(n)
                if i not in (h, t) and d_h[i] >= 0 and d_t[i] >= 0
                and d_h[i] + d_t[i] <= k + 1]
    if max_nodes is not None and len(interior) + 2 > max_nodes:
        ranked = sorted(interior, key=lambda i: (d_h[i] + d_t[i], i))
        interior = sorted(ranked[:max(0, max_nodes - 2)])
    nodes = ([h] if h == t else [h, t]) + interior
    dist_pairs = [[int(d[i]) if d[i] >= 0 else k + 1 for d in (d_h, d_t)]
                  for i in nodes]
    local = {g: li for li, g in enumerate(nodes)}
    edges = sorted({(local[a], local[b], rel)
                    for a, rel, b in np.asarray(triples).tolist()
                    if a in local and b in local and (a, rel, b) != (h, r, t)})
    return nodes, dist_pairs, [list(e) for e in edges], union_size


# -- negative-sampling oracles ----------------------------------------------

def corrupt_triple_oracle(known, num_entities, triple, rng, filtered=True,
                          entities=None, retries=1000):
    """Reference for ``corrupt_triple``: per draw, the side (the head when
    ``rng.random() < 0.5``), then an entity position in ``entities``
    (default every id below ``num_entities``). Returns the first candidate
    that is not the input and, when filtered, not in the set ``known``, or
    None after ``retries`` draws."""
    entities = range(num_entities) if entities is None else [int(e) for e in entities]
    h, r, t = triple
    for _ in range(retries):
        corrupt_head = rng.random() < 0.5
        e = entities[int(rng.integers(len(entities)))]
        cand = (e, r, t) if corrupt_head else (h, r, e)
        if cand != (h, r, t) and not (filtered and cand in known):
            return cand
    return None


def corruptions_after_positives_oracle(known, num_entities, positives, rng,
                                      num_neg=1, filtered=True):
    """Reference for the triples of ``make_classification_batch``
    (``num_neg`` 1) and ``make_train_batch`` (one positive): every
    positive in order, then ``num_neg`` ``corrupt_triple_oracle`` draws per
    positive, positive by positive, from the one stream ``rng``."""
    positives = [tuple(int(x) for x in p) for p in positives]
    negatives = [corrupt_triple_oracle(known, num_entities, p, rng, filtered)
                 for p in positives for _ in range(num_neg)]
    return positives + negatives


def corruption_pool_oracle(known, num_entities, triple, direction):
    """Per-entity loop over one side's filtered corruptions; ``known`` is a
    set of (h, r, t) tuples."""
    h, r, t = triple
    pool = []
    for e in range(num_entities):
        cand = (e, r, t) if direction == "head" else (h, r, e)
        if cand != triple and cand not in known:
            pool.append(cand)
    return pool


def corruption_pool_scan_oracle(graph, triple, direction):
    """``sampling._corruption_pool`` as a scan of ``graph.known_keys``: the
    tail side ``(h, r, .)`` is the key range of ``(h, r)``, and the head side
    ``(., r, t)`` every key equal to ``r * E + t`` modulo ``R * E``, whose
    head is ``key // (R * E)``."""
    h, r, t = triple
    ne, nr = graph.num_entities, graph.num_relations
    keys = graph.known_keys
    keep = np.ones(ne, dtype=bool)
    if direction == "tail" and 0 <= h < ne and 0 <= r < nr:
        lo = (h * nr + r) * ne
        keep[keys[(keys >= lo) & (keys < lo + ne)] - lo] = False
    elif direction == "head" and 0 <= t < ne and 0 <= r < nr:
        width = nr * ne
        keep[keys[keys % width == r * ne + t] // width] = False
    truth = t if direction == "tail" else h
    if 0 <= truth < ne:
        keep[truth] = False
    return np.flatnonzero(keep)


def ranking_candidates_oracle(known, num_entities, triple, direction, num_neg, rng):
    """Reference for ``make_ranking_candidates``: ``min(num_neg, len(pool))``
    draws without replacement from the per-entity filtered pool, then the
    truth's position."""
    triple = tuple(int(x) for x in triple)
    pool = corruption_pool_oracle(known, num_entities, triple, direction)
    chosen = [pool[i] for i in rng.choice(len(pool), size=min(num_neg, len(pool)),
                                          replace=False)]
    truth_idx = int(rng.integers(len(chosen) + 1))
    return chosen[:truth_idx] + [triple] + chosen[truth_idx:], truth_idx


# -- meta-task region oracle ------------------------------------------------

def grow_region_loop_oracle(triples, start, region_size):
    """``sampling._grow_region`` over dict adjacency sets built from the
    triple rows: a per-vertex BFS that takes each vertex's out-edges, then
    its in-edges, each in (neighbor, relation) order, and stops once the
    region holds ``region_size`` triples. Returns (visited, sorted triples)."""
    out_adj, in_adj = {}, {}
    for h, r, t in np.asarray(triples).tolist():
        out_adj.setdefault(h, set()).add((t, r))
        in_adj.setdefault(t, set()).add((h, r))
    visited, frontier, region = {start}, [start], set()
    while frontier and len(region) < region_size:
        nxt = []
        for u in frontier:
            for v, r in sorted(out_adj.get(u, ())):
                region.add((u, r, v))
                if v not in visited:
                    visited.add(v)
                    nxt.append(v)
            for v, r in sorted(in_adj.get(u, ())):
                region.add((v, r, u))
                if v not in visited:
                    visited.add(v)
                    nxt.append(v)
            if len(region) >= region_size:
                break
        frontier = nxt
    return visited, sorted(region)


# -- dense message-passing oracles ------------------------------------------

def basis_message_pass_loop_oracle(HV, coeffs, src, dst, slot, norm, num_nodes,
                                   alpha=None):
    """``autodiff.basis_conv`` as a loop over messages and bases, given the
    basis outputs ``HV[:, b] = H @ V_b`` and the gates ``alpha``."""
    out = np.zeros((num_nodes, HV.shape[2]))
    for e in range(len(src)):
        gate = 1.0 if alpha is None else alpha[e]
        for b in range(HV.shape[1]):
            out[dst[e]] += norm[e] * gate * coeffs[slot[e], b] * HV[src[e], b]
    return out


def attention_gate_loop_oracle(H, V, coeffs, att_a, rel_emb, target, src, dst,
                               slot):
    """The gate of each message of ``autodiff.basis_conv``, one at a time:
    sigmoid(a . [W h_src ++ W h_dst ++ e_rel ++ e_target]) with the slot
    weight W built from the ``(B, d_in, d_out)`` bases ``V``."""
    alpha = np.zeros(len(src))
    for e in range(len(src)):
        W = sum(coeffs[slot[e], b] * V[b] for b in range(len(V)))
        z = np.concatenate([H[src[e]] @ W, H[dst[e]] @ W, rel_emb[slot[e] // 2],
                            rel_emb[target[dst[e]]]])
        alpha[e] = 1.0 / (1.0 + np.exp(-(z @ att_a)))
    return alpha


def slot_weight_dense(P, slot):
    return (P.coeffs.data[slot] @ P.bases.data).reshape(P.d_in, P.d_out)


def message_list(sub):
    """(src, dst, rel, dir) including inverse-direction messages."""
    out = []
    for s, d, r in sub.edges.tolist():
        out.append((s, d, r, 0))
        out.append((d, s, r, 1))
    return out


def slot_counts(msgs):
    """Incoming messages per (dst, rel, dir) slot, for mean normalisation."""
    counts = {}
    for s, d, r, direction in msgs:
        counts[(d, r, direction)] = counts.get((d, r, direction), 0) + 1
    return counts


def dense_rgcn(sub, H, P, activation=True):
    out = H @ P.self_weight.data
    msgs = message_list(sub)
    counts = slot_counts(msgs)
    for s, d, r, direction in msgs:
        W = slot_weight_dense(P, 2 * r + direction)
        out[d] += (H[s] @ W) / counts[(d, r, direction)]
    return np.maximum(out, 0.0) if activation else out


def dense_att(sub, H, P, rel_emb, target_rel, activation=True):
    out = H @ P.self_weight.data
    msgs = message_list(sub)
    counts = slot_counts(msgs)
    for s, d, r, direction in msgs:
        W = slot_weight_dense(P, 2 * r + direction)
        z = np.concatenate([H[s] @ W, H[d] @ W, rel_emb[r], rel_emb[target_rel]])
        alpha = 1.0 / (1.0 + np.exp(-(z @ P.att_a.data)))
        out[d] += alpha * (H[s] @ W) / counts[(d, r, direction)]
    return np.maximum(out, 0.0) if activation else out


def corr_oracle(a, b):
    """O(d^2) circular correlation of two vectors."""
    d = len(a)
    out = np.zeros(d)
    for k in range(d):
        for i in range(d):
            out[k] += a[i] * b[(i + k) % d]
    return out


def dense_comp(sub, H, E_rel, P, op, activation=True):
    out = H @ P.w_self.data
    msgs = message_list(sub)
    counts = slot_counts(msgs)
    for s, d, r, direction in msgs:
        e = E_rel[r]
        if op == "sub":
            phi = H[s] - e
        elif op == "mult":
            phi = H[s] * e
        else:
            phi = corr_oracle(H[s], e)
        W = P.w_fwd.data if direction == 0 else P.w_bwd.data
        out[d] += (phi @ W) / counts[(d, r, direction)]
    new_rel = E_rel @ P.w_rel.data
    return (np.maximum(out, 0.0) if activation else out), new_rel


def dense_model_score(model, sub, labels, rel):
    """A subgraph model's score of one item from the dense layer oracles and
    a numpy readout w . [mean ++ h_head ++ h_tail ++ e_rel]."""
    H = labels @ model.input_proj.data
    E = model.rel_emb.data
    for P in model.layers:
        if model.layer_kind == "rgcn":
            H = dense_rgcn(sub, H, P)
        elif model.layer_kind == "att":
            H = dense_att(sub, H, P, model.rel_emb.data, rel)
        else:
            H, E = dense_comp(sub, H, E, P, model.comp_op)
    g = np.concatenate([H.mean(axis=0), H[sub.head_local], H[sub.tail_local], E[rel]])
    return float(g @ model.readout_w.data)


def mixed_scored_items(rng, num_relations=3):
    """ScoredItems for batched scoring: enclosing subgraphs of different
    sizes in a random graph, an edgeless pair and a self-loop target (h == t),
    each with a random candidate relation."""
    from indkg.sampling import ScoredItem
    from indkg.subgraph import Subgraph, extract_enclosing_subgraph, label_nodes
    triples = random_triples(rng, 18, num_relations, 0.2)
    g = IndexedGraph(triples, 18, num_relations)
    subs = [extract_enclosing_subgraph(g, tuple(g.triples[i]), 2)
            for i in rng.choice(g.num_triples, size=5, replace=False)]
    subs.append(Subgraph((0, 0, 1), np.array([0, 1]), np.array([[0, 3], [3, 0]]),
                         np.empty((0, 3), dtype=np.int64), 2, union_size=2))
    subs.append(extract_enclosing_subgraph(g, (3, 1, 3), 2))
    return [ScoredItem(sub, label_nodes(sub), int(rng.integers(num_relations)))
            for sub in subs]


def entity_embeddings_loop_oracle(triples, entity_ids, psi):
    """``model.init_entity_embeddings`` as the per-triple loop it replaced:
    the head entry, then the tail entry, of each triple in turn, summed by
    the same segment sum."""
    from indkg.autodiff import gather_rows, segment_sum
    local = {int(e): i for i, e in enumerate(entity_ids)}
    seg_idx, psi_idx = [], []
    for h, r, t in np.asarray(triples, dtype=np.int64).reshape(-1, 3).tolist():
        if h in local:
            seg_idx.append(local[h])
            psi_idx.append(2 * r)
        if t in local:
            seg_idx.append(local[t])
            psi_idx.append(2 * r + 1)
    counts = np.zeros(len(entity_ids), dtype=np.int64)
    np.add.at(counts, seg_idx, 1)
    summed = segment_sum(gather_rows(psi, psi_idx), np.asarray(seg_idx, dtype=np.int64),
                         len(entity_ids))
    return mul(summed, (1.0 / counts)[:, None])


# -- central differences -----------------------------------------------------

def numeric_grad(f, x, eps=1e-6):
    """The central-difference gradient of the scalar ``f()`` in ``x``."""
    g = np.zeros_like(x.data)
    flat, gflat = x.data.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f().item()
        flat[i] = orig - eps
        down = f().item()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return g


def check(f, *leaves, tol=1e-7):
    """Backward's gradient of the scalar ``f()`` into each leaf equals
    ``numeric_grad`` within ``tol``."""
    for leaf in leaves:
        leaf.grad = None
    out = f()
    out.backward()
    for leaf in leaves:
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        numeric = numeric_grad(f, leaf)
        assert np.allclose(analytic, numeric, atol=tol), (analytic, numeric)


# -- single ops of the composed chain ----------------------------------------
#
# Elementwise ops and reductions, one tape node each through
# ``autodiff.node``, that the package's fused decoders and loss no longer
# need. The composed oracles below are written in them, and the tests sum
# an output to a scalar loss with ``tsum``.

def absolute(a) -> Tensor:
    a = as_tensor(a)
    sign = np.sign(a.data)
    return node(np.abs(a.data), a, lambda g: g * sign)


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    return node(a.data ** p, a, lambda g: g * p * a.data ** (p - 1.0))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    s = np.sqrt(a.data)
    return node(s, a, lambda g: g * 0.5 / s)


def sin(a) -> Tensor:
    a = as_tensor(a)
    return node(np.sin(a.data), a, lambda g: g * np.cos(a.data))


def cos(a) -> Tensor:
    a = as_tensor(a)
    return node(np.cos(a.data), a, lambda g: -g * np.sin(a.data))


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    # backward broadcasts the gradient to a's shape
    return node(a.data.sum(axis=axis), a,
                 lambda g: g if axis is None else np.expand_dims(g, axis))


def tmean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    return node(a.data.transpose(axes), a, lambda g: g.transpose(np.argsort(axes)))


def norm(a, p: float = 2.0, axis=None) -> Tensor:
    """p-norm of a flattened tensor, or of each slice along ``axis``."""
    if p == 1.0:
        return tsum(absolute(a), axis=axis)
    if p == 2.0:
        return sqrt(tsum(power(a, 2.0), axis=axis))
    return power(tsum(power(absolute(a), p), axis=axis), 1.0 / p)


# -- the composed entity episode ---------------------------------------------

def composed_kge_score(kind, h_vec, r_vec, t_vec):
    """The decoders as chains of single autodiff ops, one tape node each,
    which ``model.kge_score`` fuses into one node."""
    from indkg.autodiff import gather_rows, reshape

    def complex_parts(v):
        lead, d2, n = v.shape[:-1], v.shape[-1] // 2, v.data.ndim - 1
        halves = transpose(reshape(v, lead + (2, d2)), (n,) + tuple(range(n)) + (n + 1,))
        return tuple(reshape(gather_rows(halves, [i]), lead + (d2,)) for i in (0, 1))

    if kind.name == "transe":
        return -norm(h_vec + r_vec - t_vec, kind.p, axis=-1)
    if kind.name == "distmult":
        return tsum(mul(mul(h_vec, r_vec), t_vec), axis=-1)
    h_re, h_im = complex_parts(h_vec)
    t_re, t_im = complex_parts(t_vec)
    c, s = cos(r_vec), sin(r_vec)
    d_re = mul(h_re, c) - mul(h_im, s) - t_re
    d_im = mul(h_re, s) + mul(h_im, c) - t_im
    return kind.margin - tsum(sqrt(mul(d_re, d_re) + mul(d_im, d_im)), axis=-1)


def composed_margin_loss(pos, neg, gamma):
    """``model.margin_loss`` as the chain ``tmean(relu(neg - pos + gamma))``."""
    from indkg.autodiff import relu
    return tmean(relu(neg - pos + gamma))


def composed_episode_loss(enc, task, graph, cfg, rng):
    """``training.episode_loss`` as the composed chain it fuses: every
    region entity embedded by gather, segment sum and scale
    (``entity_embeddings_loop_oracle``), one row gather per decoder operand,
    ``composed_kge_score`` and the hinge over gathered scores. The
    negatives are drawn as the library draws them."""
    from indkg.autodiff import gather_rows
    from indkg.errors import ExhaustedRetries
    from indkg.sampling import corrupt_triple
    ents = np.unique(np.concatenate([task.support[:, [0, 2]], task.query[:, [0, 2]]]))
    local = {int(e): i for i, e in enumerate(ents)}
    owner, negs = [], []
    for qi, triple in enumerate(task.query.tolist()):
        for _ in range(cfg.num_neg):
            try:
                negs.append(corrupt_triple(triple, graph, rng, entities=ents))
            except ExhaustedRetries:
                continue
            owner.append(qi)
    if not owner:
        return None
    rows = [(local[h], local[t]) for h, _, t in task.query.tolist() + negs]
    h_rows, t_rows = (np.array([row[i] for row in rows]) for i in (0, 1))
    rels = np.concatenate([task.query[:, 1], task.query[owner, 1]])
    emb = entity_embeddings_loop_oracle(task.support, ents, enc.psi)
    scores = composed_kge_score(enc.decoder, gather_rows(emb, h_rows),
                                gather_rows(enc.dec_rel, rels), gather_rows(emb, t_rows))
    nq = len(task.query)
    return composed_margin_loss(gather_rows(scores, owner),
                                gather_rows(scores, nq + np.arange(len(owner))), cfg.margin)


# -- metric oracles ---------------------------------------------------------

def auc_pair_oracle(scores, labels01):
    scores = np.asarray(scores, dtype=np.float64)
    labels01 = np.asarray(labels01)
    pos = scores[labels01 == 1]
    neg = scores[labels01 == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def ap_grouped_oracle(scores, labels01):
    items = sorted(zip(scores, labels01), key=lambda x: -x[0])
    n_pos = sum(l for _, l in items)
    total = 0.0
    cum_tp = cum = i = 0
    while i < len(items):
        j = i
        tp = 0
        while j < len(items) and items[j][0] == items[i][0]:
            tp += items[j][1]
            j += 1
        cum_tp += tp
        cum += j - i
        total += tp * (cum_tp / cum)
        i = j
    return total / n_pos


def rank_sort_oracle(scores, truth_idx):
    scores = np.asarray(scores, dtype=np.float64)
    s = scores[truth_idx]
    order = np.argsort(-scores, kind="stable")
    positions = [pos + 1 for pos, i in enumerate(order) if scores[i] == s]
    return float(np.mean(positions))


def link_prediction_per_side_oracle(scorer, side, query_triples, num_neg, seed):
    """Reference for the link-prediction loop: every side drawn by
    ``side(triple, direction, rng)`` from the RNG (seed, query index, 0 | 1),
    scored in a scorer call of its own and ranked by sort. Returns the ranks
    in (query, head then tail) order, the negative counts of the sides with
    fewer than ``num_neg``, the MRR and {N: Hit@N} for N in 1, 5 and 10."""
    ranks, short = [], []
    for qi, triple in enumerate(np.asarray(query_triples).reshape(-1, 3).tolist()):
        for si, direction in enumerate(("head", "tail")):
            cands, truth_idx = side(triple, direction,
                                    np.random.default_rng((seed, qi, si)))
            if len(cands) - 1 < num_neg:
                short.append(len(cands) - 1)
            ranks.append(rank_sort_oracle(scorer(cands), truth_idx))
    mrr = sum(1.0 / r for r in ranks) / len(ranks)
    hits = {n: sum(r <= n for r in ranks) / len(ranks) for n in (1, 5, 10)}
    return ranks, short, mrr, hits


# -- random subgraphs for store tests ---------------------------------------

def random_subgraph(rng):
    from indkg.subgraph import Subgraph
    k = int(rng.integers(1, 4))
    n = int(rng.integers(2, 30))
    nodes = rng.choice(10_000, size=n, replace=False).astype(np.int64)
    dist = rng.integers(0, k + 2, size=(n, 2)).astype(np.int64)
    dist[0] = (0, rng.integers(0, k + 2))
    dist[1] = (rng.integers(0, k + 2), 0)
    m = int(rng.integers(0, 4 * n))
    edges = np.column_stack([rng.integers(n, size=m), rng.integers(n, size=m),
                             rng.integers(8, size=m)]).astype(np.int64)
    target = (int(nodes[0]), int(rng.integers(8)), int(nodes[1]))
    return Subgraph(target, nodes, dist, edges.reshape(-1, 3), k,
                    union_size=int(rng.integers(n, 3 * n)))


# -- synthetic datasets ------------------------------------------------------

def build_vocab_loop_oracle(train, *later):
    """(entity2id, relation2id) from one triple at a time: entities by first
    appearance across train and then each later split, relations from train
    only. Returns the label of the first later relation train lacks instead,
    as a string."""
    entity2id, relation2id = {}, {}
    for split_no, split in enumerate((train,) + later):
        for h, r, t in split:
            if r not in relation2id:
                if split_no:
                    return r
                relation2id[r] = len(relation2id)
            for e in (h, t):
                if e not in entity2id:
                    entity2id[e] = len(entity2id)
    return entity2id, relation2id


def parse_triples_oracle(path):
    """The label triples of a TSV file, one line at a time as the file
    object yields them in universal-newline mode: a leading byte-order mark
    is dropped, blank lines are skipped, fields past the third are ignored
    and each field is stripped. A line with fewer than three non-blank
    fields raises MalformedLine with its 1-based number."""
    from indkg.errors import MalformedLine
    triples = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no == 1:
                line = line.removeprefix("\ufeff")
            line = line.removesuffix("\n")
            if not line or line.isspace():
                continue
            triple = tuple(part.strip() for part in line.split("\t")[:3])
            if len(triple) < 3 or "" in triple:
                raise MalformedLine(path, line_no)
            triples.append(triple)
    return triples


# formatting a line-by-line reader must undo; a file with only the first
# four still parses in one pass
ONE_PASS_NOISE = ("crlf", "bom", "no_final_newline", "pad")
PER_LINE_NOISE = ("blank", "extra", "tabs")


def write_noisy_tsv(path, rows, rng, kinds):
    """Write label triples with each formatting kind in ``kinds`` at least
    once: ``crlf`` line endings, a ``bom``, ``blank`` and whitespace-only
    lines, ``extra`` fields, fields padded (``pad``) with spaces or
    U+00A0, tab-only lines (``tabs``) and ``no_final_newline``. Returns the
    kinds written (none for no rows)."""
    if not rows:
        kinds = ()
    lines, ends = [], []
    pick = lambda: set(rng.choice(len(rows), size=int(rng.integers(1, len(rows) + 1))).tolist())
    padded = pick() if "pad" in kinds else set()
    extra = pick() if "extra" in kinds else set()
    crlf = pick() if "crlf" in kinds else set()
    pads = (" ", "\u00a0", "  ", " \u00a0", "\u00a0 ")
    for i, row in enumerate(rows):
        fields = list(row)
        if i in padded:
            j = int(rng.integers(3))
            fields[j] = pads[rng.integers(len(pads))] + fields[j] + pads[rng.integers(len(pads))]
        if i in extra:
            fields += ["x" * int(rng.integers(0, 3))] * int(rng.integers(1, 3))
        for kind, filler in (("blank", ("", "  ", "\u00a0")), ("tabs", ("\t", "\t\t", "\t \t"))):
            if kind in kinds and (i == 0 or rng.random() < 0.1):
                lines.append(filler[rng.integers(len(filler))])
                ends.append("\r\n" if i in crlf else "\n")
        lines.append("\t".join(fields))
        ends.append("\r\n" if i in crlf else "\n")
    if "no_final_newline" in kinds:
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(("\ufeff" if "bom" in kinds else "") + text)
    return set(kinds)


def write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in rows:
            fh.write(f"{h}\t{r}\t{t}\n")


def make_raw_dataset_dir(root, rng, n_train_ents=40, n_ind_ents=16,
                         n_relations=4, density=0.08):
    """Two-directory raw layout with disjoint inductive entities."""
    import os
    os.makedirs(os.path.join(root, "train"), exist_ok=True)
    os.makedirs(os.path.join(root, "ind"), exist_ok=True)

    def labelled(triples, prefix):
        return [(f"{prefix}{h}", f"r{r}", f"{prefix}{t}") for h, r, t in triples]

    train_all = labelled(random_triples(rng, n_train_ents, n_relations, density), "e")
    rng.shuffle(train_all)
    n_valid = max(2, len(train_all) // 10)
    valid, test, train = (train_all[:n_valid],
                          train_all[n_valid:2 * n_valid],
                          train_all[2 * n_valid:])
    ind_all = labelled(random_triples(rng, n_ind_ents, n_relations,
                                      max(density * 2, 0.15)), "u")
    rng.shuffle(ind_all)
    # query triples must only use entities present in support
    n_query = max(2, len(ind_all) // 5)
    support, query = ind_all[n_query:], ind_all[:n_query]
    support_ents = {e for h, _, t in support for e in (h, t)}
    kept = [q for q in query if q[0] in support_ents and q[2] in support_ents]
    moved = [q for q in query if q not in kept]
    support += moved
    query = kept if kept else [support.pop()]
    write_tsv(os.path.join(root, "train", "train.txt"), train)
    write_tsv(os.path.join(root, "train", "valid.txt"), valid)
    write_tsv(os.path.join(root, "train", "test.txt"), test)
    write_tsv(os.path.join(root, "ind", "train.txt"), support)
    write_tsv(os.path.join(root, "ind", "test.txt"), query)
    return root


def planted_type_cycle_kg(rng, n_types=10, per_type_train=10, per_type_ind=4):
    """A compositional KG whose facts follow a cycle over entity types.

    Relation r_k holds exactly between every type-k entity and every
    type-(k+1 mod T) entity, so each type has a unique incident-relation
    signature and a relation-derived entity encoder can identify it.
    Returns (train_triples, support, query, num_entities, num_relations)
    with inductive entities occupying fresh ids after the training ones.
    """
    def complete_facts(type_of):
        ents_by_type = {}
        for e, τ in type_of.items():
            ents_by_type.setdefault(τ, []).append(e)
        facts = []
        for k in range(n_types):
            for a in ents_by_type[k]:
                for b in ents_by_type[(k + 1) % n_types]:
                    facts.append((a, k, b))
        return facts

    n_train = n_types * per_type_train
    train_types = {e: e % n_types for e in range(n_train)}
    train = complete_facts(train_types)

    n_ind = n_types * per_type_ind
    ind_types = {n_train + e: e % n_types for e in range(n_ind)}
    ind = complete_facts(ind_types)
    rng.shuffle(ind)
    n_query = len(ind) // 5
    query, support = ind[:n_query], ind[n_query:]
    support_ents = {e for h, _, t in support for e in (h, t)}
    kept = [q for q in query if q[0] in support_ents and q[2] in support_ents]
    support += [q for q in query if q not in kept]
    return (np.asarray(train, dtype=np.int64),
            np.asarray(support, dtype=np.int64),
            np.asarray(kept, dtype=np.int64),
            n_train + n_ind, n_types)
