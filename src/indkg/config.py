"""Run configuration: a flat ``key = value`` text format plus flag overrides.

Grammar: one pair per line, ``#`` starts a comment, blank lines ignored.
Unknown keys are hard errors; every key is also exposed as a command-line
flag and flags win over file values. Seeds are mandatory so every run is
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigTypeError, MissingFile, MissingRequired, UnknownKey


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(s)


@dataclass
class RunConfig:
    # paths
    data_root: str = ""
    output_dir: str = "."
    split: str = "train"
    # subgraph extraction
    k: int = 3
    max_nodes: int = 0              # 0 = unlimited, else >= 2
    # model
    model_family: str = "subgraph"  # "subgraph" | "entity"
    layer_kind: str = "att"         # "rgcn" | "att" | "comp"
    comp_op: str = "sub"
    decoder: str = "transe"
    transe_p: float = 2.0
    margin: float = 10.0
    dim: int = 32
    rel_dim: int = 32
    num_bases: int = 4
    num_layers: int = 3
    # optimization
    lr: float = 1e-3
    batch_size: int = 16
    epochs: int = 50
    episodes: int = 500
    num_neg: int = 1
    num_neg_eval: int = 50
    check_per_epoch: int = 1
    patience: int = 10
    min_delta: float = 0.0
    # meta-task sampling
    support_frac: float = 0.8
    region_size: int = 100
    # run control
    seed: int = None
    threads: int = 1
    task: str = "tc"                # "tc" | "lp"
    filtered: bool = True


_PARSERS = {int: int, float: float, str: str, bool: _parse_bool}


def key_registry() -> dict[str, type]:
    """Config key name -> python type, for parsing and flag generation."""
    out = {}
    for f in fields(RunConfig):
        typ = {"int": int, "float": float, "str": str, "bool": bool}.get(
            f.type if isinstance(f.type, str) else f.type.__name__)
        out[f.name] = typ
    return out


_POSITIVE_KEYS = ("k", "dim", "rel_dim", "num_bases", "num_layers", "lr",
                  "batch_size", "num_neg", "num_neg_eval", "check_per_epoch",
                  "patience", "support_frac", "region_size", "threads",
                  "margin", "transe_p")


def validate(cfg: RunConfig) -> RunConfig:
    if cfg.seed is None:
        raise MissingRequired("seed")
    # a NaN or an infinity passes the positive checks below, and a NaN
    # min_delta would make every early-stopping check fail
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigTypeError(f.name, value, "finite number")
    for key in _POSITIVE_KEYS:
        if getattr(cfg, key) <= 0:
            raise ConfigTypeError(key, getattr(cfg, key), "positive number")
    for key, allowed in (("model_family", ("subgraph", "entity")),
                         ("layer_kind", ("rgcn", "att", "comp")),
                         ("comp_op", ("sub", "mult", "corr")),
                         ("decoder", ("transe", "distmult", "rotate")),
                         ("task", ("tc", "lp"))):
        if getattr(cfg, key) not in allowed:
            raise ConfigTypeError(key, getattr(cfg, key), f"one of {allowed}")
    if not 0.0 < cfg.support_frac < 1.0:
        raise ConfigTypeError("support_frac", cfg.support_frac, "value in (0, 1)")
    if cfg.region_size < 2:     # a meta task splits its region into support and query
        raise ConfigTypeError("region_size", cfg.region_size, "integer >= 2")
    if cfg.max_nodes < 0 or cfg.max_nodes == 1:     # a subgraph keeps its target pair
        raise ConfigTypeError("max_nodes", cfg.max_nodes, "0 (no cap) or integer >= 2")
    return cfg


def _coerce(key: str, value, registry) -> object:
    """A string parsed as the key's type, or a value already typed checked
    against it: an int is a valid float, a bool is not an int."""
    if key not in registry:
        raise UnknownKey(key)
    typ = registry[key]
    if not isinstance(value, str):
        accepted = (int, float) if typ is float else typ
        if not isinstance(value, accepted) or (isinstance(value, bool) and typ is not bool):
            raise ConfigTypeError(key, value, typ.__name__)
        return typ(value)
    try:
        return _PARSERS[typ](value)
    except ValueError:
        raise ConfigTypeError(key, value, typ.__name__) from None


def parse_config(path=None, overrides: dict[str, object] | None = None) -> RunConfig:
    """Build a validated RunConfig from an optional file plus overrides,
    each a string to parse or a value of the key's type."""
    import os
    registry = key_registry()
    values: dict[str, object] = {}
    if path is not None:
        if not os.path.isfile(path):
            raise MissingFile(str(path))
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigTypeError(f"line {line_no}", line, "key = value")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                values[key] = _coerce(key, value, registry)
    for key, value in (overrides or {}).items():
        values[key] = _coerce(key, value, registry)
    return validate(RunConfig(**values))
