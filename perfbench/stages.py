"""One workload in a process of its own: timed rounds, then output checks.

A round runs the fault probe and then the workload's pipeline stages once,
in a fresh output directory, through ``indkg.cli.main`` and the package's
public functions; each stage run is framed by the reference loop of
``speed.py``. An untimed warm-up round comes first, then rounds repeat until
``--seconds`` have passed. Every round attempts the same operations (a
subgraph-family round takes its own slice of the seeded samples). After the
last round the outputs are checked against computations made apart from the
program, and the result is written as JSON for ``run.py``.

    python3 perfbench/stages.py --workload uniform-gnn --seed 1 --seconds 10 \
        --trace 0 --work .perfbench_runs/x
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

THREADS = 2                     # extract workers; the machine it was built on has two cores
STATS_RUNS = 3                  # stats is short, so every round times it thrice
PROBE_NEG = 10


class StageFailed(RuntimeError):
    pass


class Recorder:
    """Keeps what the evaluation and meta-training produce, for the checks.

    It wraps a few names in ``indkg.evaluate`` and ``indkg.training``; each
    wrapper is called once per batch, query side or episode and only appends
    the value it returns.
    """

    def __init__(self):
        self.tc_batches, self.tc_scores = [], []
        self.lp_batches, self.lp_sides = [], []
        self.task_queries = []

    def reset(self):
        for sink in (self.tc_batches, self.tc_scores, self.lp_batches,
                     self.lp_sides, self.task_queries):
            sink.clear()

    def install(self, evaluate, training):
        def keep(module, name, sink, view=lambda args, out: out):
            orig = getattr(module, name)

            def recorded(*args, **kwargs):
                out = orig(*args, **kwargs)
                sink.append(view(args, out))
                return out
            setattr(module, name, recorded)

        keep(evaluate, "make_classification_batch", self.tc_batches)
        keep(evaluate, "make_ranking_batch", self.lp_batches)
        keep(evaluate, "make_ranking_candidates", self.lp_batches)
        keep(evaluate, "compute_rank", self.lp_sides,
             lambda a, out: (np.array(a[0], dtype=np.float64), int(a[1]), out))
        keep(evaluate, "classification_metrics", self.tc_scores,
             lambda a, out: (np.array(a[0], dtype=np.float64), np.array(a[1])))
        keep(training, "sample_meta_task", self.task_queries,
             lambda a, out: len(out.query))


class FallbackCounter(logging.Handler):
    """Counts the unfiltered-pool fallbacks that indkg.sampling logs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "falling back to unfiltered" in record.getMessage():
            self.count += 1


def _strip_ms(value):
    if isinstance(value, dict):
        return {k: _strip_ms(v) for k, v in value.items()
                if not k.endswith("_ms")}
    if isinstance(value, list):
        return [_strip_ms(v) for v in value]
    return value


def output_digest(out_dir) -> str:
    """sha256 over every output file, with *_ms fields stripped from JSON."""
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(out_dir)):
        for fname in sorted(files):
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                data = fh.read()
            if fname.endswith(".jsonl"):
                data = "\n".join(json.dumps(_strip_ms(json.loads(l)), sort_keys=True)
                                 for l in data.decode().splitlines()).encode()
            elif fname.endswith(".json"):
                data = json.dumps(_strip_ms(json.loads(data)), sort_keys=True).encode()
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


class Workload:
    def __init__(self, args, tracer=None):
        import indkg.cli
        import indkg.evaluate
        import indkg.training
        from indkg import kgcore
        self.cli, self.kgcore = indkg.cli, kgcore
        self.w = gen.WORKLOADS[args.workload]
        self.seed = args.seed
        self.raw = os.path.join(args.work, "raw")
        self.out = os.path.join(args.work, "out")
        self.probe_raw = os.path.join(args.work, "probe")
        self.probe_out = os.path.join(args.work, "probe-out")
        self.tracer = tracer
        self.samples = None
        self.round = 0
        self.recorder = Recorder()
        self.recorder.install(indkg.evaluate, indkg.training)
        self.fallbacks = FallbackCounter()
        sampling_log = logging.getLogger("indkg.sampling")
        sampling_log.setLevel(logging.WARNING)
        sampling_log.addHandler(self.fallbacks)
        self.ref = None                 # the last reference-loop time

    # -- stages ----------------------------------------------------------

    def _cli(self, *argv, data=None, out=None, seed=None):
        base = ["--data_root", data or self.raw, "--output_dir", out or self.out,
                "--seed", str(self.seed if seed is None else seed), "--k", str(gen.K)]
        rc = self.cli.main(list(argv) + base)
        if rc != 0:
            raise StageFailed(f"indkg {' '.join(argv)} exited with {rc}")

    def _sample(self, triples, graph, n, band):
        """The first ``n`` triples, in a seeded order, whose enclosing
        subgraph in ``graph`` has between ``band[0]`` and ``band[1]`` edges
        (counted by the shortest-path oracle, not by the program)."""
        order = np.random.default_rng((self.seed, 0x7A1)).permutation(len(triples))
        pick = []
        for i in order:
            edges = checks.enclosing_oracle(graph.triples, graph.num_entities, triples[i], gen.K)[2]
            if band[0] <= len(edges) <= band[1]:
                pick.append(i)
                if len(pick) == n:
                    return triples[np.sort(pick)]
        raise RuntimeError(f"only {len(pick)} of {n} triples have {band[0]}..{band[1]} edges")

    def _choose_samples(self):
        """Seeded samples of the subgraph family, ``gen.SLICES`` rounds'
        worth, chosen once and untimed."""
        w, n = self.w, gen.SLICES
        b = self.kgcore.load_dataset(os.path.join(self.out, "dataset.ikgd"))
        self.samples = {
            "train": self._sample(b.train, b.train_graph, n * w.train_sample, w.train_band),
            "valid": self._sample(b.valid, b.train_graph, n * w.valid_sample, w.train_band),
            "tc": self._sample(b.query, b.ind_graph, n * w.tc_sample, w.query_band)}

    def _round_seed(self):
        """The seed of this round's training and evaluation: the program
        draws negatives from it, so each slice gets negatives of its own."""
        return self.seed * gen.SLICES + self.round % gen.SLICES

    def _slice(self, kind):
        """This round's slice of a sample."""
        size = {"train": self.w.train_sample, "valid": self.w.valid_sample,
                "tc": self.w.tc_sample, "lp": self.w.lp_sample}[kind]
        i = (self.round % gen.SLICES) * {"lp": self.w.tc_sample}.get(kind, size)
        return self.samples["tc" if kind == "lp" else kind][i:i + size]

    def _train_subgraph(self):
        """The subgraph family's train stage on this round's slice of the
        training sample, against the full training graph."""
        from indkg.config import parse_config
        from indkg.kgcore import DatasetBundle
        from indkg.model import save_checkpoint
        from indkg.training import train_subgraph_model
        full = self.kgcore.load_dataset(os.path.join(self.out, "dataset.ikgd"))
        bundle = DatasetBundle(full.vocab, self._slice("train"), self._slice("valid"),
                               full.test, full.support, full.query, full.ind_valid,
                               train_graph=full.train_graph, ind_graph=full.ind_graph)
        cfg = parse_config(None, {"seed": self._round_seed(), "k": gen.K,
                                  "layer_kind": gen.LAYER_KIND, "epochs": gen.EPOCHS,
                                  "output_dir": self.out})
        model, records = train_subgraph_model(bundle, cfg)
        echo = {"model_family": cfg.model_family, "k": cfg.k, "dim": cfg.dim,
                "rel_dim": cfg.rel_dim, "num_bases": cfg.num_bases,
                "num_layers": cfg.num_layers, "layer_kind": cfg.layer_kind,
                "comp_op": cfg.comp_op, "decoder": cfg.decoder,
                "transe_p": cfg.transe_p, "margin": cfg.margin, "seed": cfg.seed,
                "num_relations": full.vocab.num_relations}
        save_checkpoint(os.path.join(self.out, "model.ikgm"), model.tensors(), echo)
        with open(os.path.join(self.out, "metrics.jsonl"), "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def _eval_subgraph(self, task):
        """``indkg eval`` of the subgraph family on this round's query slice."""
        from indkg.evaluate import run_link_prediction, run_triple_classification
        from indkg.training import subgraph_item_scorer
        bundle = self.kgcore.load_dataset(os.path.join(self.out, "dataset.ikgd"))
        _, model = self.cli.load_model_checkpoint(os.path.join(self.out, "model.ikgm"))
        query = self._slice(task)
        scorer = subgraph_item_scorer(model)
        if task == "lp":
            report = run_link_prediction(scorer, bundle.ind_graph, query, gen.K,
                                         self.w.lp_negatives, self._round_seed())
        else:
            report = run_triple_classification(scorer, bundle.ind_graph, query, gen.K,
                                               self._round_seed())
        with open(os.path.join(self.out, "report.json"), "w") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    def _meta(self):
        """Entity-family meta-training beside the subgraph model."""
        meta = os.path.join(self.out, "meta")
        rc = self.cli.main(["train", "--model_family", "entity",
                            "--episodes", str(self.w.episodes), "--output_dir", meta,
                            "--seed", str(self.seed)])
        if rc != 0:
            raise StageFailed(f"indkg train --model_family entity exited with {rc}")

    def plan(self):
        """(stage name, callable) in the order a round runs them."""
        w = self.w
        stages = [("preprocess", lambda: self._cli("preprocess")),
                  ("extract", lambda: self._cli("extract", "--split", "valid",
                                                "--threads", str(THREADS)))]
        stages += [("stats", lambda: self._cli("stats", "--split", "valid"))] * STATS_RUNS
        if w.family == "entity":
            stages += [("train", lambda: self._cli("train", "--model_family", "entity",
                                                   "--episodes", str(w.episodes))),
                       ("eval_tc", lambda: self._cli("eval", "--task", "tc")),
                       ("eval_lp", lambda: self._cli("eval", "--task", "lp", "--num_neg_eval",
                                                     str(w.lp_negatives)))]
        else:
            stages += [("meta", self._meta), ("train", self._train_subgraph),
                       ("eval_tc", lambda: self._eval_subgraph("tc")),
                       ("eval_lp", lambda: self._eval_subgraph("lp"))]
        return stages

    def _between(self, stage):
        """Untimed bookkeeping after a stage."""
        meta = os.path.join(self.out, "meta", "dataset.ikgd")
        if stage == "preprocess" and self.w.family == "subgraph":
            os.makedirs(os.path.dirname(meta))
            os.link(os.path.join(self.out, "dataset.ikgd"), meta)
            if self.samples is None:
                self._choose_samples()
        if stage in ("eval_tc", "eval_lp"):
            os.replace(os.path.join(self.out, "report.json"),
                       os.path.join(self.out, f"report-{stage[5:]}.json"))

    def _timed(self, stage, fn):
        """[wall seconds, reference-loop seconds before, after] of one stage run.

        The reference loop runs between stages, outside every stage's time.
        """
        before = self.ref if self.ref is not None else speed.reference_s()
        with self.tracer.stage(f"cli.{stage}") if self.tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            fn()
            wall = time.perf_counter() - t0
        self.ref = speed.reference_s()
        return [wall, before, self.ref]

    def run_round(self):
        """The fault probe, then every stage once, in order."""
        with self.tracer.paused() if self.tracer else contextlib.nullcontext():
            probe = self.run_probe()
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        self.recorder.reset()
        self.fallbacks.count = 0
        self.ref = None
        times = {}
        for stage, fn in self.plan():
            times.setdefault(stage, []).append(self._timed(stage, fn))
            self._between(stage)
        counts = self.stage_counts()
        self.round += 1
        return {"times": times, "counts": counts, "probe": probe,
                "attempted": sum(counts[s] * len(t) for s, t in times.items()),
                "train_positives": (sum(self.recorder.task_queries)
                                    if self.w.family == "entity" else counts["train"]),
                "fallbacks": self.fallbacks.count, "digest": output_digest(self.out)}

    def stage_counts(self):
        """Operations one run of each stage attempts; fixed by the workload.

        The entity family's train stage counts episodes. Its positive triples
        per episode vary with the seed, so they enter only its training rate.
        """
        w, rec = self.w, self.recorder
        counts = {"preprocess": 1, "extract": w.valid, "stats": w.valid,
                  "eval_tc": sum(len(b.items) for b in rec.tc_batches),
                  "eval_lp": len(rec.lp_sides)}
        if w.family == "entity":
            counts["train"] = len(rec.task_queries)
        else:
            counts["meta"], counts["train"] = len(rec.task_queries), w.train_sample * gen.EPOCHS
        return counts

    # -- the counted fault -------------------------------------------------

    def run_probe(self):
        """The negative-sampling fault, through the same CLI stages the
        workloads run, on the fixed probe dataset.

        The probe preprocesses ``gen.PROBE``, trains the entity family for two
        episodes and runs ``eval --task tc`` and ``--task lp``, all with a
        fixed seed, so its inputs and RNG streams never depend on --seed. An
        LP query side fails when one of its negatives uses an entity with no
        edge in the inductive graph; so does a TC negative.
        """
        shutil.rmtree(self.probe_out, ignore_errors=True)
        run = lambda *argv: self._cli(*argv, data=self.probe_raw, out=self.probe_out,
                                      seed=gen.PROBE_SEED)
        run("preprocess")
        run("train", "--model_family", "entity", "--episodes", "2")
        self.recorder.reset()
        run("eval", "--task", "tc")
        run("eval", "--task", "lp", "--num_neg_eval", str(PROBE_NEG))
        bundle = self.kgcore.load_dataset(os.path.join(self.probe_out, "dataset.ikgd"))
        ents = set(np.unique(bundle.support[:, [0, 2]]).tolist())
        outside = lambda tr: tr[0] not in ents or tr[2] not in ents
        n = len(bundle.query)
        rec = self.recorder
        if len(rec.tc_batches) != 1 or len(rec.lp_batches) != 2 * n:
            raise StageFailed(f"fault probe: {len(rec.tc_batches)} TC batches and "
                              f"{len(rec.lp_batches)} LP sides recorded, 1 and {2 * n} expected")
        negs = [it.sub.target for it, y in zip(rec.tc_batches[0].items,
                                                rec.tc_batches[0].labels01) if y == 0]
        lp_failed = sum(any(outside(c) for j, c in enumerate(cands) if j != truth)
                        for cands, truth in rec.lp_batches)
        return {"lp_sides": 2 * n, "lp_failed": int(lp_failed), "tc_negatives": len(negs),
                "tc_failed": sum(1 for tr in negs if outside(tr))}

    def eval_outside(self):
        """Eval negatives of this round's own inputs that the fault touched."""
        bundle = self.kgcore.load_dataset(os.path.join(self.out, "dataset.ikgd"))
        ents = set(np.unique(bundle.support[:, [0, 2]]).tolist())
        negs = []
        for b in self.recorder.tc_batches:
            negs += [it.sub.target for it, y in zip(b.items, b.labels01) if y == 0]
        for b in self.recorder.lp_batches:
            cands, truth = ((b.candidates, b.truth_idx) if hasattr(b, "candidates") else b)
            negs += [c.sub.target if hasattr(c, "sub") else c
                     for j, c in enumerate(cands) if j != truth]
        bad = sum(1 for h, _, t in negs if h not in ents or t not in ents)
        return {"negatives": len(negs), "outside": bad}

    # -- checks ------------------------------------------------------------

    def check(self):
        """Errors found by the independent checks on the last round's outputs."""
        from indkg import store
        from indkg.autodiff import Tensor
        from indkg.model import init_entity_embeddings, load_checkpoint
        w, rec = self.w, self.recorder
        splits = gen.make_splits(w, self.seed)
        bundle = self.kgcore.load_dataset(os.path.join(self.out, "dataset.ikgd"))
        errs = checks.check_bundle(bundle, splits)
        if errs:
            return errs
        n = bundle.vocab.num_entities
        tri = checks.id_triples(splits, ("train",), bundle.vocab)
        ind_tri = checks.id_triples(splits, ("support",), bundle.vocab)
        reader = store.StoreReader(os.path.join(self.out, "subgraphs-valid.ikgs"))
        expected = bundle.valid
        sample = checks.sample_indices(len(expected))
        errs += checks.check_store(reader, len(expected), tri, n, sample)
        for i in sample:
            if i < len(reader) and reader.read(i).target != tuple(expected[i].tolist()):
                errs.append(f"store record {i} is not split triple {i}")

        with open(os.path.join(self.out, "report-tc.json")) as fh:
            report_tc = json.load(fh)
        with open(os.path.join(self.out, "report-lp.json")) as fh:
            report_lp = json.load(fh)
        if len(rec.tc_scores) != 1 or len(rec.tc_batches) != 1:
            return errs + ["TC evaluation was not recorded exactly once"]
        scores, labels = rec.tc_scores[0]
        errs += checks.check_tc(scores, labels, report_tc)
        errs += checks.check_lp(rec.lp_sides, report_lp)
        n_lp, n_tc = (w.lp_sample, w.tc_sample) if w.family == "subgraph" else (w.query, w.query)
        if len(rec.lp_sides) != 2 * n_lp or len(rec.lp_batches) != 2 * n_lp:
            errs.append(f"{len(rec.lp_sides)} LP sides recorded, {2 * n_lp} expected")
            return errs
        tc_items = rec.tc_batches[0].items
        if len(tc_items) != 2 * n_tc or len(rec.task_queries) != w.episodes:
            errs.append(f"{len(tc_items)} TC items and {len(rec.task_queries)} meta "
                        f"episodes recorded, {2 * n_tc} and {w.episodes} expected")
        echo, arrays = load_checkpoint(os.path.join(self.out, "model.ikgm"))
        if w.family == "subgraph":
            pick = checks.sample_indices(len(tc_items))
            errs += checks.check_dense_scores(
                arrays, echo, [(tc_items[i].sub, tc_items[i].rel) for i in pick],
                [scores[i] for i in pick], ind_tri, n, "TC item")
            lp0, (lp_scores, truth, _) = rec.lp_batches[0], rec.lp_sides[0]
            pick = sorted({truth, 0, len(lp_scores) - 1})
            errs += checks.check_dense_scores(
                arrays, echo, [(lp0.candidates[i].sub, lp0.candidates[i].rel) for i in pick],
                [lp_scores[i] for i in pick], ind_tri, n, "LP candidate")
        else:
            ents = np.unique(np.vstack([bundle.support, bundle.query])[:, [0, 2]])
            emb = init_entity_embeddings(bundle.support, ents, Tensor(arrays["psi"])).data
            errs += checks.check_embeddings(emb, arrays["psi"], bundle.support, ents)
            errs += checks.check_entity_scores(
                arrays, echo, bundle.support, ents, [it.sub.target for it in tc_items],
                scores, "TC item")
            for (cands, _), (side_scores, _, _) in zip(rec.lp_batches, rec.lp_sides):
                errs += checks.check_entity_scores(
                    arrays, echo, bundle.support, ents, cands, side_scores, "LP candidate")
        with open(os.path.join(self.out, "metrics.jsonl")) as fh:
            losses = [json.loads(l)["loss"] for l in fh]
        if not all(np.isfinite(x) for x in losses if x is not None):
            errs.append("non-finite training loss in metrics.jsonl")
        return errs


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)
    os.environ.setdefault("INDKG_LOG", "error")

    tracer = None
    if args.trace:
        import indkg.cli  # noqa: F401  (load every module before wrapping)
        tracer = tracing.Tracer(os.path.join(args.work, "trace"))
        os.makedirs(tracer.out_dir, exist_ok=True)
        tracer.install(tracing.TARGETS)
    result = {"rounds": [], "errors": []}
    try:
        wl = Workload(args, tracer)
        # A first round warms the process up before the window opens and is
        # neither timed nor reported: in it the first training batch alone
        # ran about half as long again as in later rounds (lazy imports, the
        # allocator growing the heap to the size of the autodiff tape).
        with tracer.paused() if tracer else contextlib.nullcontext():
            wl.run_round()
        start = time.perf_counter()
        # stop before a round that would overrun the window by more than a tenth
        while True:
            result["rounds"].append(wl.run_round())
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 1 / len(result["rounds"])) > 1.1 * args.seconds:
                break
        result["peak_rss_mb"] = peak_rss_mb()
        result["eval_outside"] = wl.eval_outside()
        result["errors"] = wl.check()
    except Exception:  # the run must still report what failed
        result["errors"].append(traceback.format_exc())
    if tracer and result["rounds"]:
        spans, counts = tracer.gather()
        result["layers"] = tracing.layer_metrics(
            spans, counts, len(result["rounds"]),
            sum(r["fallbacks"] for r in result["rounds"]), tracer.absent)
        result["absent"] = tracer.absent
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
