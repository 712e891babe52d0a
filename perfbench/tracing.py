"""Spans and counters around calls into the library, installed from outside.

A wrapper replaces a function at every name callers look it up by (each
``indkg`` module attribute bound to it) or a method on its class. Each call
records a span: name, start, end, parent span and optional attributes. Spans
stay in memory; forked extraction workers write theirs to the trace
directory when they exit, and the workload process gathers them at the end.
A target that no longer exists is listed as absent and its metrics are left
out; the workload still runs.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import multiprocessing.util
import os
import resource
import sys
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans = []            # [name, start, end, parent id, attrs]
        self.stack = []            # ids (pid, index) of open spans
        self.fork_parent = None    # open span of the parent at fork time
        self.counts = Counter()
        self.absent = []
        self.active = True

    def _own_process(self):
        if os.getpid() != self.pid:
            # forked worker: keep only its own spans, dump them at exit
            self.fork_parent = self.stack[-1] if self.stack else self.fork_parent
            self.pid, self.spans, self.stack = os.getpid(), [], []
            self.counts = Counter()
            multiprocessing.util.Finalize(None, self.dump, exitpriority=10)

    def wrap(self, name, fn, pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._own_process()
            attrs = pre(args, kwargs) if pre else None
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else tracer.fork_parent, attrs]
            tracer.stack.append((tracer.pid, len(tracer.spans)))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            if post:
                rec[4] = post(args, kwargs, out, attrs)
            return out
        return traced

    def counted(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            if tracer.active:
                tracer._own_process()
                tracer.counts[key] += 1
            return fn(*args, **kwargs)
        return counting

    @contextmanager
    def stage(self, name):
        """Root span of one pipeline stage, opened by the benchmark itself."""
        if not self.active:
            yield
            return
        rec = [name, perf_counter(), 0.0, None, None]
        self.stack.append((self.pid, len(self.spans)))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    @contextmanager
    def paused(self):
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def install(self, targets):
        """``targets``: (module, qualname, span name or None to count, pre, post)."""
        for mod_name, qual, name, pre, post in targets:
            label = name or f"count {qual}"
            try:
                owner = importlib.import_module(mod_name)
                *path, attr = qual.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            wrapper = (self.wrap(name, orig, pre, post) if name
                       else self.counted(qual, orig))
            if path:                      # a method: patch the class
                setattr(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "indkg":
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)

    def dump(self):
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"pid": self.pid, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)

    def gather(self):
        """All spans keyed by (pid, index), and the summed counters."""
        spans = {(self.pid, i): s for i, s in enumerate(self.spans)}
        counts = Counter(self.counts)
        for path in sorted(glob.glob(os.path.join(self.out_dir, "spans-*.json"))):
            with open(path) as fh:
                rec = json.load(fh)
            for i, (name, start, end, parent, attrs) in enumerate(rec["spans"]):
                spans[(rec["pid"], i)] = [name, start, end,
                                          tuple(parent) if parent else None, attrs]
            counts.update(rec["counts"])
        return spans, counts


# -- what is wrapped ------------------------------------------------------

_GRAPH_ENTITIES = weakref.WeakKeyDictionary()


def graph_entities(graph):
    """Entities with an edge in the graph: the set negatives should come from."""
    if graph not in _GRAPH_ENTITIES:
        _GRAPH_ENTITIES[graph] = frozenset(np.unique(graph.triples[:, [0, 2]]).tolist())
    return _GRAPH_ENTITIES[graph]


def _outside(graph, triples):
    ents = graph_entities(graph)
    return sum(1 for h, _, t in triples if h not in ents or t not in ents)


def _extract_post(args, kwargs, sub, _):
    max_nodes = kwargs.get("max_nodes", args[3] if len(args) > 3 else None)
    return {"key": [list(sub.target), sub.k, max_nodes], "nodes": int(sub.num_nodes),
            "edges": int(len(sub.edges)), "union": int(sub.union_size)}


def _corrupt_post(args, kwargs, cand, _):
    return {"outside": _outside(args[1], [cand])}


def _candidates_post(args, kwargs, out, _):
    cands, truth = out
    negs = [c for j, c in enumerate(cands) if j != truth]
    return {"negatives": len(negs), "outside": _outside(args[0], negs)}


def _layer_pre(args, kwargs):
    rel = np.asarray(args[0].edges).reshape(-1, 3)[:, 2]
    return {"messages": 2 * len(rel), "slots": 2 * len(np.unique(rel))}


def _tape_nodes(args, kwargs):
    seen, stack = set(), [args[0]]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(parent for parent, _ in node._parents)
    return {"tape_nodes": len(seen)}


def _encode_post(args, kwargs, out, _):
    return {"bytes": len(out)}


def _persist_post(args, kwargs, out, _):
    return {"bytes": os.path.getsize(args[1])}


def _bfs_post(args, kwargs, out, _):
    return {"visited": len(out)}


def _cpu_pre(args, kwargs):
    return {"cpu0": _cpu_seconds()}


def _cpu_post(args, kwargs, out, attrs):
    return {"cpu": _cpu_seconds() - attrs["cpu0"]}


TARGETS = [
    ("indkg.kgcore", "load_raw_dataset", "kgcore.load_raw", None, None),
    ("indkg.kgcore", "persist_dataset", "kgcore.persist", None, _persist_post),
    ("indkg.kgcore", "load_dataset", "kgcore.load_dataset", None, None),
    ("indkg.kgcore", "IndexedGraph.contains", None, None, None),
    ("indkg.subgraph", "extract_enclosing_subgraph", "subgraph.extract", None, _extract_post),
    ("indkg.subgraph", "bfs_distances", "subgraph.bfs", None, _bfs_post),
    ("indkg.subgraph", "label_nodes", "subgraph.label", None, None),
    ("indkg.store", "encode_record", "store.encode", None, _encode_post),
    ("indkg.store", "decode_record", "store.decode", None, None),
    ("indkg.sampling", "corrupt_triple", "sampling.corrupt", None, _corrupt_post),
    ("indkg.sampling", "make_ranking_candidates", "sampling.candidates", None, _candidates_post),
    ("indkg.sampling", "sample_meta_task", "sampling.meta_task", None, None),
    ("indkg.autodiff", "Tensor.backward", "autodiff.backward", _tape_nodes, None),
    ("indkg.layers", "rel_att_layer", "layers.att", _layer_pre, None),
    ("indkg.model", "subgraph_score", "model.score", None, None),
    ("indkg.model", "Adam.step", "model.adam", None, None),
    ("indkg.model", "kge_score", "model.kge", None, None),
    ("indkg.model", "init_entity_embeddings", "model.entity_embed", None, None),
    ("indkg.training", "validation_classification", "training.validation", None, None),
    ("indkg.training", "episode_loss", "training.episode_loss", None, None),
    ("indkg.evaluate", "run_link_prediction", "evaluate.lp", None, None),
    ("indkg.evaluate", "run_link_prediction_triples", "evaluate.lp", None, None),
    ("indkg.evaluate", "run_triple_classification", "evaluate.tc", None, None),
    ("indkg.evaluate", "classification_metrics", "evaluate.metrics", None, None),
    ("indkg.evaluate", "ranking_metrics", "evaluate.metrics", None, None),
    ("indkg.evaluate", "compute_rank", "evaluate.metrics", None, None),
    ("indkg.cli", "extract_all", "cli.extract_all", _cpu_pre, _cpu_post),
]

STAGES = ("preprocess", "extract", "stats", "meta", "train", "eval_tc", "eval_lp")
LAYERS = ("kgcore", "subgraph", "store", "sampling", "autodiff", "layers",
          "model", "training", "evaluate", "cli")

# per-layer metric -> unit; the order is the order of BENCHMARK.json
UNITS = {
    "kgcore.load_raw_s": "s", "kgcore.persist_s": "s", "kgcore.load_dataset_s": "s",
    "kgcore.load_dataset_calls": "count", "kgcore.bundle_bytes": "B",
    "kgcore.contains_calls": "count",
    "subgraph.extract_calls": "count", "subgraph.extract_distinct": "count",
    "subgraph.extract_s": "s", "subgraph.extract_ms_p50": "ms",
    "subgraph.extract_ms_p99": "ms", "subgraph.bfs_s": "s",
    "subgraph.bfs_visited": "count", "subgraph.kept_ratio": "ratio",
    "subgraph.nodes_p50": "count", "subgraph.nodes_max": "count",
    "subgraph.edges_p50": "count", "subgraph.edges_max": "count",
    "subgraph.label_s": "s",
    "store.encode_us_per_record": "us", "store.decode_us_per_record": "us",
    "store.records": "count", "store.bytes": "B",
    "sampling.corrupt_calls": "count", "sampling.corrupt_s": "s",
    "sampling.candidates_s": "s", "sampling.candidates_ms_p50": "ms",
    "sampling.meta_task_s": "s", "sampling.unfiltered_fallbacks": "count",
    "sampling.eval_negatives": "count",
    "sampling.eval_negatives_outside_graph": "count",
    "sampling.train_negatives_outside_graph": "count",
    "autodiff.backward_s": "s", "autodiff.backward_calls": "count",
    "autodiff.tape_nodes_p50": "count",
    "layers.att_s": "s", "layers.att_calls": "count", "layers.slots_p50": "count",
    "layers.messages_p50": "count",
    "model.score_s": "s", "model.score_calls": "count", "model.adam_s": "s",
    "model.kge_s": "s", "model.kge_calls": "count", "model.entity_embed_s": "s",
    "training.validation_s": "s", "training.episode_loss_s": "s",
    "evaluate.lp_s": "s", "evaluate.tc_s": "s", "evaluate.metrics_s": "s",
    **{f"cli.{s}_s": "s" for s in STAGES},
    "cli.extract_all_s": "s", "cli.extract_cpu_per_wall": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}

# metrics that cannot be measured when the named span is absent
_NEEDS = {
    "kgcore.load_raw": ["kgcore.load_raw_s"],
    "kgcore.persist": ["kgcore.persist_s", "kgcore.bundle_bytes"],
    "kgcore.load_dataset": ["kgcore.load_dataset_s", "kgcore.load_dataset_calls"],
    "count IndexedGraph.contains": ["kgcore.contains_calls"],
    "subgraph.extract": [m for m in UNITS if m.startswith("subgraph.")
                         and not m.startswith(("subgraph.bfs", "subgraph.label", "subgraph.self"))],
    "subgraph.bfs": ["subgraph.bfs_s", "subgraph.bfs_visited"],
    "subgraph.label": ["subgraph.label_s"],
    "store.encode": ["store.encode_us_per_record", "store.records", "store.bytes"],
    "store.decode": ["store.decode_us_per_record"],
    "sampling.corrupt": ["sampling.corrupt_calls", "sampling.corrupt_s",
                         "sampling.train_negatives_outside_graph"],
    "sampling.candidates": ["sampling.candidates_s", "sampling.candidates_ms_p50"],
    "sampling.meta_task": ["sampling.meta_task_s"],
    "autodiff.backward": ["autodiff.backward_s", "autodiff.backward_calls",
                          "autodiff.tape_nodes_p50"],
    "layers.att": ["layers.att_s", "layers.att_calls", "layers.slots_p50",
                   "layers.messages_p50"],
    "model.score": ["model.score_s", "model.score_calls"],
    "model.adam": ["model.adam_s"],
    "model.kge": ["model.kge_s", "model.kge_calls"],
    "model.entity_embed": ["model.entity_embed_s"],
    "training.validation": ["training.validation_s"],
    "training.episode_loss": ["training.episode_loss_s"],
    "evaluate.lp": ["evaluate.lp_s"],
    "evaluate.tc": ["evaluate.tc_s"],
    "evaluate.metrics": ["evaluate.metrics_s"],
    "cli.extract_all": ["cli.extract_all_s", "cli.extract_cpu_per_wall"],
}


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_metrics(spans, counts, rounds, fallbacks, absent):
    """Per-layer metrics per round from the gathered spans and counters."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for sid, (name, start, end, parent, attrs) in spans.items():
        by_name[name].append((start, end, attrs or {}, sid))
        if parent is not None:
            children[parent].append((start, end))

    def root_of(sid):
        while spans[sid][3] is not None and spans[sid][3] in spans:
            sid = spans[sid][3]
        return spans[sid][0]

    staged = {sid: root_of(sid) for sid in spans}

    def total(name):
        return sum(e - s for s, e, _, sid in by_name[name] if staged[sid].startswith("cli.")) / rounds

    def durs(name, scale=1.0):
        return [(e - s) * scale for s, e, _, sid in by_name[name] if staged[sid].startswith("cli.")]

    def calls(name):
        return len(durs(name)) / rounds

    def attr(name, key, stages=None):
        return [a[key] for _, _, a, sid in by_name[name]
                if staged[sid].startswith("cli.") and (stages is None or staged[sid] in stages)]

    def pct(values, q):
        return float(np.percentile(values, q)) if values else 0.0

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    nodes, union = attr("subgraph.extract", "nodes"), attr("subgraph.extract", "union")
    # message-passing calls on subgraphs with at least one edge
    layer_messages = [a for a in attr("layers.att", "messages") if a]
    layer_slots = [a for a in attr("layers.att", "slots") if a]
    evals = ("cli.eval_tc", "cli.eval_lp")
    m = {
        "kgcore.load_raw_s": total("kgcore.load_raw"),
        "kgcore.persist_s": total("kgcore.persist"),
        "kgcore.load_dataset_s": total("kgcore.load_dataset"),
        "kgcore.load_dataset_calls": calls("kgcore.load_dataset"),
        "kgcore.bundle_bytes": float(max(attr("kgcore.persist", "bytes"), default=0)),
        "kgcore.contains_calls": counts.get("IndexedGraph.contains", 0) / rounds,
        "subgraph.extract_calls": calls("subgraph.extract"),
        "subgraph.extract_distinct": float(len({json.dumps(k) for k in attr("subgraph.extract", "key")})),
        "subgraph.extract_s": total("subgraph.extract"),
        "subgraph.extract_ms_p50": pct(durs("subgraph.extract", 1e3), 50),
        "subgraph.extract_ms_p99": pct(durs("subgraph.extract", 1e3), 99),
        "subgraph.bfs_s": total("subgraph.bfs"),
        "subgraph.bfs_visited": sum(attr("subgraph.bfs", "visited")) / rounds,
        "subgraph.kept_ratio": sum(nodes) / sum(union) if sum(union) else 0.0,
        "subgraph.nodes_p50": pct(nodes, 50),
        "subgraph.nodes_max": float(max(nodes, default=0)),
        "subgraph.edges_p50": pct(attr("subgraph.extract", "edges"), 50),
        "subgraph.edges_max": float(max(attr("subgraph.extract", "edges"), default=0)),
        "subgraph.label_s": total("subgraph.label"),
        "store.encode_us_per_record": mean(durs("store.encode", 1e6)),
        "store.decode_us_per_record": mean(durs("store.decode", 1e6)),
        "store.records": calls("store.encode"),
        "store.bytes": sum(attr("store.encode", "bytes")) / rounds,
        "sampling.corrupt_calls": calls("sampling.corrupt"),
        "sampling.corrupt_s": total("sampling.corrupt"),
        "sampling.candidates_s": total("sampling.candidates"),
        "sampling.candidates_ms_p50": pct(durs("sampling.candidates", 1e3), 50),
        "sampling.meta_task_s": total("sampling.meta_task"),
        "sampling.unfiltered_fallbacks": fallbacks / rounds,
        "sampling.eval_negatives": (len(attr("sampling.corrupt", "outside", evals))
                                    + sum(attr("sampling.candidates", "negatives", evals))) / rounds,
        "sampling.eval_negatives_outside_graph": (sum(attr("sampling.corrupt", "outside", evals))
                                                  + sum(attr("sampling.candidates", "outside", evals))) / rounds,
        "sampling.train_negatives_outside_graph": sum(attr("sampling.corrupt", "outside", ("cli.train",))) / rounds,
        "autodiff.backward_s": total("autodiff.backward"),
        "autodiff.backward_calls": calls("autodiff.backward"),
        "autodiff.tape_nodes_p50": pct(attr("autodiff.backward", "tape_nodes"), 50),
        "layers.att_s": total("layers.att"),
        "layers.att_calls": calls("layers.att"),
        "layers.slots_p50": pct(layer_slots, 50),
        "layers.messages_p50": pct(layer_messages, 50),
        "model.score_s": total("model.score"),
        "model.score_calls": calls("model.score"),
        "model.adam_s": total("model.adam"),
        "model.kge_s": total("model.kge"),
        "model.kge_calls": calls("model.kge"),
        "model.entity_embed_s": total("model.entity_embed"),
        "training.validation_s": total("training.validation"),
        "training.episode_loss_s": total("training.episode_loss"),
        "evaluate.lp_s": total("evaluate.lp"),
        "evaluate.tc_s": total("evaluate.tc"),
        "evaluate.metrics_s": total("evaluate.metrics"),
        "cli.extract_all_s": total("cli.extract_all"),
        "cli.extract_cpu_per_wall": (sum(attr("cli.extract_all", "cpu"))
                                     / (total("cli.extract_all") * rounds)
                                     if total("cli.extract_all") else 0.0),
    }
    for stage in STAGES:                   # per run of the stage
        m[f"cli.{stage}_s"] = mean(durs(f"cli.{stage}"))
    self_time = Counter()
    for sid, (name, start, end, parent, _) in spans.items():
        if staged[sid].startswith("cli."):
            self_time[name.split(".")[0]] += (end - start) - _covered(start, end, children[sid])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer] / rounds
    for label in absent:
        for name in _NEEDS.get(label, []):
            m.pop(name, None)
    return m
