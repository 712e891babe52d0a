"""Command-line entry point: preprocess, extract, train, eval, stats.

Every configuration key doubles as a ``--key value`` flag; flags override
the optional ``--config`` file. Exit codes: 0 success, 1 validation error,
2 runtime error. Set ``INDKG_LOG={error,info,debug}`` to control logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

from . import kgcore, store
from .config import RunConfig, key_registry, parse_config
from .errors import ConfigError, IndkgError, MissingFile
from .evaluate import run_link_prediction, run_link_prediction_triples, run_triple_classification
from .model import (build_model, load_checkpoint, model_settings, restore_model,
                    save_checkpoint)
from .subgraph import extract_enclosing_subgraphs
from .training import (
    entity_triple_scorer,
    subgraph_item_scorer,
    train_entity_encoder_model,
    train_subgraph_model,
)

log = logging.getLogger(__name__)

SUBCOMMANDS = ("preprocess", "extract", "train", "eval", "stats")


def extract_all(graph, triples, k, max_nodes: int = 0, threads: int = 1):
    """Enclosing subgraphs for a triple list, in input order.

    The rows are cut into up to ``threads`` spans of consecutive rows, no
    more than there are rows or cores, and each span is one
    ``extract_enclosing_subgraphs`` call on the shared graph: the first on
    the calling thread, the others on a pool of one thread fewer. The
    result does not depend on ``threads``, because extraction is row by row
    and the spans are joined in input order.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    n = max(1, min(threads, len(triples), os.cpu_count() or 1))
    cuts = [len(triples) * i // n for i in range(n + 1)]
    first, *rest = [triples[a:b] for a, b in zip(cuts, cuts[1:])]
    # the first span runs here: a pool thread's allocator arena keeps its
    # span's transient arrays, and one span needs no pool
    with ThreadPoolExecutor(n - 1) if rest else nullcontext() as pool:
        futures = [pool.submit(extract_enclosing_subgraphs, graph, span, k,
                               max_nodes=max_nodes) for span in rest]
        subs = extract_enclosing_subgraphs(graph, first, k, max_nodes=max_nodes)
    return subs + [sub for future in futures for sub in future.result()]


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
    # built here, before extract_all starts its threads, so they share one build
    graph = bundle.train_graph if _SPLIT_GRAPH[cfg.split] == "train" else bundle.ind_graph
    subs = extract_all(graph, splits[cfg.split], cfg.k,
                       max_nodes=cfg.max_nodes, threads=cfg.threads)
    path = os.path.join(cfg.output_dir, f"subgraphs-{cfg.split}.ikgs")
    with store.StoreWriter(path) as writer:
        for sub in subs:
            writer.write(sub)
    stats = store.collect_stats(subs)
    print(json.dumps(stats.to_dict(), sort_keys=True))
    return 0


def cmd_train(cfg: RunConfig) -> int:
    bundle = kgcore.load_dataset(_dataset_path(cfg))
    if cfg.model_family == "subgraph":
        model, records = train_subgraph_model(bundle, cfg)
    else:
        model, records = train_entity_encoder_model(bundle, cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    save_checkpoint(os.path.join(cfg.output_dir, "model.ikgm"), model.tensors(),
                    model_settings(cfg, cfg.model_family, bundle.vocab.num_relations))
    with open(os.path.join(cfg.output_dir, "metrics.jsonl"), "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return 0


def load_model_checkpoint(path):
    """(model record, model): the checkpoint's config and the model it
    describes, rebuilt by ``build_model`` and loaded with its tensors."""
    echo, arrays = load_checkpoint(path)
    model = build_model(echo)
    restore_model(model, arrays)
    return echo, model


def cmd_eval(cfg: RunConfig) -> int:
    model_path = os.path.join(cfg.output_dir, "model.ikgm")
    if not os.path.isfile(model_path):
        raise MissingFile(f"missing model.ikgm under {cfg.output_dir!r}; run train first")
    bundle = kgcore.load_dataset(_dataset_path(cfg))
    echo, model = load_model_checkpoint(model_path)
    # the scored model fixes k; --k sets only what extract writes
    graph, k = bundle.ind_graph, echo["k"]
    if echo["model_family"] == "subgraph":
        scorer = subgraph_item_scorer(model)
        if cfg.task == "lp":
            report = run_link_prediction(scorer, graph, bundle.query, k,
                                         cfg.num_neg_eval, cfg.seed,
                                         max_nodes=cfg.max_nodes)
        else:
            report = run_triple_classification(scorer, graph, bundle.query,
                                               k, cfg.seed,
                                               max_nodes=cfg.max_nodes)
    else:
        # query entities without a support triple cannot be embedded; the
        # scorer gives their triples -inf
        ents = np.unique(bundle.support[:, [0, 2]])
        score_triples = entity_triple_scorer(model, bundle.support, ents)
        if cfg.task == "lp":
            report = run_link_prediction_triples(score_triples, graph,
                                                 bundle.query,
                                                 cfg.num_neg_eval, cfg.seed)
        else:
            # the candidate subgraphs are extracted only for their targets
            report = run_triple_classification(
                lambda items: score_triples([it.sub.target for it in items]),
                graph, bundle.query, k, cfg.seed, max_nodes=cfg.max_nodes)
    # strict JSON has no NaN: a NaN metric is written as null
    out, nan = report.to_dict(), []
    for table, prefix in ((out, ""), (out["hits"], "hit@")):
        for key, value in table.items():
            if isinstance(value, float) and math.isnan(value):
                table[key] = None
                nan.append(prefix + key)
    if nan:
        log.warning("report.json writes the NaN metrics %s as null", ", ".join(nan))
    with open(os.path.join(cfg.output_dir, "report.json"), "w") as fh:
        json.dump(out, fh, sort_keys=True, indent=2, allow_nan=False)
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``indkg`` parser with all five subcommands.

    Only ``command``'s subparser gets its flags (every subparser when None):
    32 flags each, so building all five costs more than a short stage
    such as ``stats`` runs.
    """
    parser = argparse.ArgumentParser(
        prog="indkg",
        description="Inductive knowledge-graph representation learning pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    registry = key_registry()
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} stage")
        if command is not None and name != command:
            continue
        p.add_argument("--config", default=None,
                       help="path to a flat 'key = value' config file")
        for key, typ in registry.items():
            text = f"config key {key} ({typ.__name__})"
            if key == "threads":
                text += "; extract stage only: threads, at most one per row and core"
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no values, so its first positional names the stage
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    overrides = {key: getattr(args, f"cfg_{key}")
                 for key in key_registry()
                 if getattr(args, f"cfg_{key}", None) is not None}
    try:
        return _COMMANDS[args.command](parse_config(args.config, overrides))
    except (ConfigError, MissingFile) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IndkgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
