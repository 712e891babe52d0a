"""Command-line entry point: preprocess, extract, train, eval, stats.

Every configuration key doubles as a ``--key value`` flag; flags override
the optional ``--config`` file. Exit codes: 0 success, 1 validation error,
2 runtime error. Set ``INDKG_LOG={error,info,debug}`` to control logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
import multiprocessing

import numpy as np

from . import kgcore, store
from .config import RunConfig, key_registry, parse_config
from .errors import ConfigError, IndkgError, MissingFile
from .evaluate import run_link_prediction, run_link_prediction_triples, run_triple_classification
from .model import (DecoderKind, init_entity_encoder, init_model, load_checkpoint,
                    restore_model, save_checkpoint)
from .subgraph import extract_enclosing_subgraph
from .training import (
    _max_nodes,
    entity_triple_scorer,
    subgraph_item_scorer,
    train_entity_encoder_model,
    train_subgraph_model,
)

log = logging.getLogger(__name__)

SUBCOMMANDS = ("preprocess", "extract", "train", "eval", "stats")

# shared state for forked extraction workers
_EXTRACT_CTX = None


def _extract_worker(index: int):
    graph, triples, k, max_nodes = _EXTRACT_CTX
    return extract_enclosing_subgraph(graph, tuple(triples[index]), k,
                                      max_nodes=max_nodes)


def extract_all(graph, triples, k, max_nodes=None, threads: int = 1):
    """Enclosing subgraphs for a triple list, in input order.

    Data-parallel over triples when threads > 1; the result is identical to
    the sequential path because records are committed in input order.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    if threads <= 1 or len(triples) < 2:
        return [extract_enclosing_subgraph(graph, tuple(t), k, max_nodes=max_nodes)
                for t in triples.tolist()]
    global _EXTRACT_CTX
    _EXTRACT_CTX = (graph, triples.tolist(), k, max_nodes)
    try:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=threads, mp_context=ctx) as ex:
            chunk = max(1, len(triples) // (4 * threads))
            return list(ex.map(_extract_worker, range(len(triples)),
                               chunksize=chunk))
    finally:
        _EXTRACT_CTX = None


def _dataset_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.output_dir, "dataset.ikgd")


def cmd_preprocess(cfg: RunConfig) -> int:
    if not cfg.data_root:
        raise MissingFile("data_root is required for preprocess")
    bundle = kgcore.load_raw_dataset(cfg.data_root)
    os.makedirs(cfg.output_dir, exist_ok=True)
    kgcore.persist_dataset(bundle, _dataset_path(cfg))
    log.info("wrote %s (%d entities, %d relations, %d train triples)",
             _dataset_path(cfg), bundle.vocab.num_entities,
             bundle.vocab.num_relations, len(bundle.train))
    return 0


_SPLIT_GRAPH = {"train": "train", "valid": "train", "test": "train",
                "support": "ind", "ind_valid": "ind", "query": "ind"}


def cmd_extract(cfg: RunConfig) -> int:
    bundle = kgcore.load_dataset(_dataset_path(cfg))
    splits = bundle.splits()
    if cfg.split not in splits:
        raise ConfigError(f"unknown split {cfg.split!r}; choose from {sorted(splits)}")
    graph = bundle.train_graph if _SPLIT_GRAPH[cfg.split] == "train" else bundle.ind_graph
    subs = extract_all(graph, splits[cfg.split], cfg.k,
                       max_nodes=_max_nodes(cfg), threads=cfg.threads)
    path = os.path.join(cfg.output_dir, f"subgraphs-{cfg.split}.ikgs")
    with store.StoreWriter(path) as writer:
        for sub in subs:
            writer.write(sub)
    stats = store.collect_stats(store.StoreReader(path))
    print(json.dumps(stats.to_dict(), sort_keys=True))
    return 0


def cmd_train(cfg: RunConfig) -> int:
    bundle = kgcore.load_dataset(_dataset_path(cfg))
    if cfg.model_family == "subgraph":
        model, records = train_subgraph_model(bundle, cfg)
    else:
        model, records = train_entity_encoder_model(bundle, cfg)
    echo = {"model_family": cfg.model_family, "k": cfg.k, "dim": cfg.dim,
            "rel_dim": cfg.rel_dim, "num_bases": cfg.num_bases,
            "num_layers": cfg.num_layers, "layer_kind": cfg.layer_kind,
            "comp_op": cfg.comp_op, "decoder": cfg.decoder,
            "transe_p": cfg.transe_p, "margin": cfg.margin, "seed": cfg.seed,
            "num_relations": bundle.vocab.num_relations}
    os.makedirs(cfg.output_dir, exist_ok=True)
    save_checkpoint(os.path.join(cfg.output_dir, "model.ikgm"),
                    model.tensors(), echo)
    with open(os.path.join(cfg.output_dir, "metrics.jsonl"), "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return 0


def load_model_checkpoint(path):
    """Rebuild a model object of the recorded family from a checkpoint."""
    echo, arrays = load_checkpoint(path)
    decoder = DecoderKind(echo["decoder"], p=echo["transe_p"], margin=echo["margin"])
    if echo["model_family"] == "subgraph":
        model = init_model(echo["num_relations"], echo["k"], dim=echo["dim"],
                           rel_dim=echo["rel_dim"],
                           num_layers=echo["num_layers"],
                           num_bases=echo["num_bases"],
                           layer_kind=echo["layer_kind"],
                           comp_op=echo["comp_op"])
    else:
        model = init_entity_encoder(echo["num_relations"], echo["dim"], decoder)
    restore_model(model, arrays)
    return echo, model


def cmd_eval(cfg: RunConfig) -> int:
    model_path = os.path.join(cfg.output_dir, "model.ikgm")
    if not os.path.isfile(model_path):
        raise MissingFile(f"missing model.ikgm under {cfg.output_dir!r}; run train first")
    bundle = kgcore.load_dataset(_dataset_path(cfg))
    echo, model = load_model_checkpoint(model_path)
    graph = bundle.ind_graph
    if echo["model_family"] == "subgraph":
        scorer = subgraph_item_scorer(model)
        if cfg.task == "lp":
            report = run_link_prediction(scorer, graph, bundle.query, cfg.k,
                                         cfg.num_neg_eval, cfg.seed,
                                         max_nodes=_max_nodes(cfg))
        else:
            report = run_triple_classification(scorer, graph, bundle.query,
                                               cfg.k, cfg.seed,
                                               max_nodes=_max_nodes(cfg))
    else:
        ents = np.unique(np.vstack([bundle.support, bundle.query])[:, [0, 2]])
        score_triples = entity_triple_scorer(model, bundle.support, ents)
        if cfg.task == "lp":
            report = run_link_prediction_triples(score_triples, graph,
                                                 bundle.query,
                                                 cfg.num_neg_eval, cfg.seed)
        else:
            # the candidate subgraphs are extracted only for their targets
            report = run_triple_classification(
                lambda items: score_triples([it.sub.target for it in items]),
                graph, bundle.query, cfg.k, cfg.seed, max_nodes=_max_nodes(cfg))
    with open(os.path.join(cfg.output_dir, "report.json"), "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(report.format_table())
    return 0


def cmd_stats(cfg: RunConfig) -> int:
    path = os.path.join(cfg.output_dir, f"subgraphs-{cfg.split}.ikgs")
    stats = store.collect_stats(store.StoreReader(path))
    print(json.dumps(stats.to_dict(), sort_keys=True))
    return 0


_COMMANDS = {"preprocess": cmd_preprocess, "extract": cmd_extract,
             "train": cmd_train, "eval": cmd_eval, "stats": cmd_stats}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indkg",
        description="Inductive knowledge-graph representation learning pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    registry = key_registry()
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", default=None,
                       help="path to a flat 'key = value' config file")
        if name == "eval":
            p.add_argument("--task", dest="task_flag", choices=("lp", "tc"),
                           default=None, help="evaluation task")
        for key, typ in registry.items():
            if name == "eval" and key == "task":
                continue  # eval exposes --task above with explicit choices
            text = f"config key {key} ({typ.__name__})"
            if key == "threads":
                text += "; worker processes for the extract stage only"
            p.add_argument(f"--{key}", dest=f"cfg_{key}", default=None,
                           metavar=typ.__name__.upper(), help=text)
    return parser


def _setup_logging():
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(
        os.environ.get("INDKG_LOG", "info").lower(), logging.INFO)
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {key: getattr(args, f"cfg_{key}")
                 for key in key_registry()
                 if getattr(args, f"cfg_{key}", None) is not None}
    if getattr(args, "task_flag", None):
        overrides["task"] = args.task_flag
    try:
        cfg = parse_config(args.config, overrides)
    except (ConfigError, MissingFile) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](cfg)
    except (ConfigError, MissingFile) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IndkgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
