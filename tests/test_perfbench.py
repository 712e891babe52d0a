"""The names the benchmark under ``perfbench/`` resolves in ``indkg``, and
its check self-test.

perfbench wraps library functions from outside. A wrapped name that goes
missing does not fail a benchmark run: the tracer lists it as absent and
leaves its metrics out, and a recorder wrapper raises. These tests fail
instead, and so does a traced run whose last line leaves out or spoils a
per-layer metric. They read ``perfbench/`` and change nothing in it.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _resolves(mod_name, qualname) -> bool:
    try:
        owner = importlib.import_module(mod_name)
        for part in qualname.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return True


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_target_resolves():
    tracing = _tracing()
    assert tracing.TARGETS
    missing = [f"{mod}.{qual}" for mod, qual, *_ in tracing.TARGETS
               if not _resolves(mod, qual)]
    assert not missing


ENTITY_PATH_SPANS = ("sampling.meta_task", "training.episode_loss", "model.entity_embed",
                     "model.kge", "model.adam")


def test_entity_path_trace_targets_run_every_episode(monkeypatch):
    """A traced name that an entity episode stops calling still resolves,
    and its metric reads 0 unseen. Each target on the entity path, patched
    where the tracer patches it (the class for a method, else every
    ``indkg`` module attribute bound to the function), runs at least once
    per episode."""
    import numpy as np

    import indkg.cli  # noqa: F401  (load every module before patching)
    from indkg.config import RunConfig
    from indkg.kgcore import DatasetBundle, Vocab
    from indkg.training import train_entity_encoder_model

    from helpers import planted_type_cycle_kg

    targets = [t for t in _tracing().TARGETS if t[2] in ENTITY_PATH_SPANS]
    assert sorted(t[2] for t in targets) == sorted(ENTITY_PATH_SPANS)
    calls = dict.fromkeys(ENTITY_PATH_SPANS, 0)
    for mod_name, qual, span, _, _ in targets:
        owner = importlib.import_module(mod_name)
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        orig = getattr(owner, attr)

        def counted(*args, _orig=orig, _span=span, **kwargs):
            calls[_span] += 1
            return _orig(*args, **kwargs)
        if path:
            monkeypatch.setattr(owner, attr, counted)
            continue
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] == "indkg":
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        monkeypatch.setattr(mod, key, counted)

    train, support, query, ne, nr = planted_type_cycle_kg(
        np.random.default_rng(6), n_types=4, per_type_train=4, per_type_ind=2)
    empty = np.empty((0, 3), dtype=np.int64)
    vocab = Vocab({f"e{i}": i for i in range(ne)}, {f"r{i}": i for i in range(nr)})
    bundle = DatasetBundle(vocab, train, empty, empty, support, query, empty)
    episodes = 12
    cfg = RunConfig(seed=5, dim=6, episodes=episodes, region_size=30, support_frac=0.7,
                    num_neg=2, model_family="entity", check_per_epoch=1)
    _, records = train_entity_encoder_model(bundle, cfg)
    assert len(records) == episodes          # every episode had a loss
    assert all(count >= episodes for count in calls.values()), calls


def test_every_recorded_name_exists():
    """``stages.Recorder.install(evaluate, training)`` replaces
    ``keep(<module>, "<name>", ...)`` for each call in its body."""
    with open(os.path.join(PERFBENCH, "stages.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    recorder = next(n for n in tree.body
                    if isinstance(n, ast.ClassDef) and n.name == "Recorder")
    install = next(n for n in recorder.body
                   if isinstance(n, ast.FunctionDef) and n.name == "install")
    modules = [a.arg for a in install.args.args[1:]]
    kept = [(call.args[0].id, call.args[1].value) for call in ast.walk(install)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "keep"]
    assert modules == ["evaluate", "training"] and len(kept) >= 6
    missing = [f"{mod}.{name}" for mod, name in kept
               if mod not in modules or not _resolves(f"indkg.{mod}", name)]
    assert not missing


def test_checkpoint_record_keys_equal_the_benchmark_copy():
    """``stages.Workload._train_subgraph`` saves a checkpoint with a config
    dict of its own; ``eval`` rebuilds the model from it, so its keys must
    be those of ``model.model_settings``."""
    from indkg.config import parse_config
    from indkg.model import model_settings

    with open(os.path.join(PERFBENCH, "stages.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    train = next(n for n in ast.walk(tree)
                 if isinstance(n, ast.FunctionDef) and n.name == "_train_subgraph")
    save, = [c for c in ast.walk(train) if isinstance(c, ast.Call)
             and getattr(c.func, "id", None) == "save_checkpoint"]
    config = save.args[2]
    if isinstance(config, ast.Name):
        config, = [a.value for a in ast.walk(train) if isinstance(a, ast.Assign)
                   and [getattr(t, "id", None) for t in a.targets] == [config.id]]
    assert isinstance(config, ast.Dict)
    keys = {ast.literal_eval(k) for k in config.keys}
    assert keys == set(model_settings(parse_config(None, {"seed": 1}), "subgraph", 3))


@pytest.mark.parametrize("family", ["subgraph", "entity"])
def test_one_recorded_call_per_ranking_side(monkeypatch, family):
    """``stages.Recorder`` pairs the i-th recorded ``make_ranking_batch`` or
    ``make_ranking_candidates`` result with the i-th ``compute_rank`` call,
    so each runs once per query side, in side order, with the side's own
    scores however the sides are grouped for scoring."""
    import numpy as np

    from indkg import evaluate
    from indkg.kgcore import IndexedGraph

    drawn, ranked = [], []

    def kept(name, sink, view):
        orig = getattr(evaluate, name)

        def recorded(*args, **kwargs):
            out = orig(*args, **kwargs)
            sink.append(view(args, out))
            return out
        monkeypatch.setattr(evaluate, name, recorded)

    size = lambda a, out: len(out.candidates if hasattr(out, "candidates") else out[0])
    kept("make_ranking_batch", drawn, size)
    kept("make_ranking_candidates", drawn, size)
    kept("compute_rank", ranked, lambda a, out: len(a[0]))
    rng = np.random.default_rng(0)
    triples = [(h, int(rng.integers(2)), t) for h in range(12) for t in range(12)
               if h != t and rng.random() < 0.2]
    graph = IndexedGraph(triples, 12, 2)
    score = lambda cands: np.arange(len(cands), dtype=np.float64)
    if family == "subgraph":
        evaluate.run_link_prediction(score, graph, triples[:3], 2, 5, seed=1)
    else:
        evaluate.run_link_prediction_triples(score, graph, triples[:3], 5, seed=1)
    assert len(drawn) == len(ranked) == 6
    assert drawn == ranked


def test_selftest_passes():
    # every output check accepts a correct output and rejects a corrupted one;
    # its temporary files go under the git-ignored .perfbench_runs/
    run = subprocess.run([sys.executable, os.path.join(PERFBENCH, "selftest.py")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr


def _reject_constant(name):
    raise ValueError(f"non-finite metric {name}")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_reports_every_layer_metric(workload):
    # a shared span name losing a target, or a NaN metric, spoils the last
    # line; the run's files go under the git-ignored .perfbench_runs/
    run = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.01", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    lines = [line.strip() for line in run.stdout.strip().splitlines()]
    assert not [line for line in lines if line.startswith("absent:")]
    assert "checks: passed" in lines
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
