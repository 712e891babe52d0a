import json
import logging
import os
import re
from concurrent.futures import Future

import numpy as np
import pytest

from indkg import cli, kgcore
from indkg.autodiff import Tensor
from indkg.cli import build_parser, extract_all, main
from indkg.config import key_registry, parse_config
from indkg.errors import (ConfigTypeError, CorruptHeader, IdOutOfBounds, MissingRequired,
                          UnknownKey)
from indkg.kgcore import IndexedGraph
from indkg.model import (MODEL_KEYS, EntityEncoderParams, ModelParams, build_model,
                         load_checkpoint, model_settings, save_checkpoint)
from indkg.subgraph import extract_enclosing_subgraphs

from helpers import make_raw_dataset_dir, random_triples


def test_parse_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 7\nk = 2  # hop budget\n\ndim = 16\n")
    cfg = parse_config(path)
    assert (cfg.seed, cfg.k, cfg.dim) == (7, 2, 16)
    cfg = parse_config(path, {"dim": "8"})
    assert cfg.dim == 8  # flag wins over file


def test_parse_config_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 7\nwidth = 3\n")
    with pytest.raises(UnknownKey):
        parse_config(path)


def test_parse_config_missing_seed():
    with pytest.raises(MissingRequired):
        parse_config(None, {"k": "2"})


def test_parse_config_bad_type():
    with pytest.raises(ConfigTypeError):
        parse_config(None, {"seed": "7", "k": "two"})
    # a value passed typed is checked against the key's type: an int is a
    # valid float, a bool is not an int
    for key, value in (("dim", None), ("dim", 3.5), ("dim", True), ("seed", None),
                       ("margin", True), ("decoder", 5), ("filtered", 1)):
        with pytest.raises(ConfigTypeError):
            parse_config(None, {"seed": 7, key: value})
    cfg = parse_config(None, {"seed": 7, "dim": 8, "margin": 5, "filtered": False})
    assert (cfg.dim, cfg.margin, cfg.filtered) == (8, 5.0, False)
    assert type(cfg.margin) is float


def test_region_size_below_two_rejected(capsys):
    with pytest.raises(ConfigTypeError):
        parse_config(None, {"seed": "7", "region_size": "1"})
    assert main(["train", "--seed", "7", "--region_size", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value", ["-1", "1"])
def test_max_nodes_below_two_rejected(value, capsys):
    # -1 used to mean "no cap" and 1 to give 2-node subgraphs, both silently
    with pytest.raises(ConfigTypeError):
        parse_config(None, {"seed": "7", "max_nodes": value})
    assert main(["train", "--seed", "7", "--max_nodes", value]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    for ok in ("0", "2"):
        assert parse_config(None, {"seed": "7", "max_nodes": ok}).max_nodes == int(ok)


@pytest.mark.parametrize("key, value", [("seed", "-1"), ("epochs", "-1"),
                                        ("episodes", "-3"), ("min_delta", "-5")])
def test_negative_counts_and_min_delta_rejected(key, value, tmp_path, capsys):
    # a negative seed escaped as numpy's ValueError at the first RNG (and
    # preprocess, which draws none, exited 0); negative epochs or episodes
    # wrote an untrained model; a negative min_delta was accepted
    raw = tmp_path / "raw"
    make_raw_dataset_dir(str(raw), np.random.default_rng(1))
    base = ["--data_root", str(raw), "--output_dir", str(tmp_path / "out"), "--seed", "1"]
    with pytest.raises(ConfigTypeError, match=key):
        parse_config(None, {"seed": "1", key: value})
    for command in ("preprocess", "train"):
        assert main([command] + base + [f"--{key}", value]) == 1
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()
    assert getattr(parse_config(None, {"seed": "1", key: "0"}), key) == 0


FLOAT_KEYS = [key for key, typ in key_registry().items() if typ is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected(key, value, capsys):
    # a NaN passed the positive checks, and a NaN min_delta made every
    # early-stopping check fail, so training kept its last epoch
    for given in (value, float(value)):
        with pytest.raises(ConfigTypeError, match=key):
            parse_config(None, {"seed": "1", key: given})
    assert main(["train", "--seed", "1", f"--{key}={value}"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_parse_config_bad_enum():
    with pytest.raises(ConfigTypeError):
        parse_config(None, {"seed": "7", "layer_kind": "gat"})


def test_every_config_key_is_a_flag():
    parser = build_parser()
    text = parser.format_help()
    for name in ("preprocess", "extract", "train", "eval", "stats"):
        assert name in text
    args = build_parser().parse_args(["train", "--seed", "1"])
    for key in key_registry():
        assert hasattr(args, f"cfg_{key}"), key


def test_flag_values_reach_config():
    parser = build_parser()
    args = parser.parse_args(["train", "--seed", "3", "--epochs", "2",
                              "--layer_kind", "rgcn"])
    assert args.cfg_seed == "3" and args.cfg_epochs == "2"
    # one parser: flags may also stand before the stage name
    args = parser.parse_args(["--seed", "1", "train", "--epochs", "2"])
    assert (args.command, args.cfg_seed, args.cfg_epochs) == ("train", "1", "2")


@pytest.mark.parametrize("command", ["preprocess", "extract", "train", "eval", "stats"])
def test_subcommand_help_lists_every_config_key(command, capsys):
    # one parser serves every stage, so each stage's help lists every flag
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for key in key_registry():
        assert re.search(rf"--{key}\b", text), key


def test_top_level_help_and_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for name in ("preprocess", "extract", "train", "eval", "stats"):
        assert name in text
    for argv in (["bogus", "--seed", "1"], ["--seed", "1", "bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "1"])
    assert exc.value.code == 2
    assert "required: command" in capsys.readouterr().err


def test_bad_task_is_a_validation_error(capsys):
    # --task is a config key like any other, so a bad value is a validation error
    assert main(["eval", "--task", "foo", "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0
    assert re.search(r"--task\b", capsys.readouterr().out)


def test_extract_all_threads_identical(monkeypatch):
    # four cores let up to four spans run, three of them on pool threads
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    rng = np.random.default_rng(0)
    triples = random_triples(rng, 40, 3, 0.12)
    g = IndexedGraph(triples, 40, 3)
    seq = extract_all(g, g.triples, 2, threads=1)
    par = extract_all(g, g.triples, 2, threads=2)
    assert seq == par
    for rows in (0, 1, len(g.triples)):
        want = extract_enclosing_subgraphs(g, g.triples[:rows], 2)
        assert len(want) == rows
        for threads in (1, 2, 3, rows + 1):
            got = extract_all(g, g.triples[:rows], 2, threads=threads)
            assert got == want, (rows, threads)


def test_extract_all_raises_for_a_bad_id_in_a_later_span(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    g = IndexedGraph(random_triples(np.random.default_rng(0), 40, 3, 0.12), 40, 3)
    # the last row, in the second of two spans, names entity 40 of 40
    bad = np.vstack([g.triples, [[0, 0, 40]]])
    with pytest.raises(IdOutOfBounds):
        extract_all(g, bad, 2, threads=2)


@pytest.mark.parametrize("bad", [(0, 3, 1), (0, -1, 1)])
def test_extract_all_raises_for_a_bad_relation_id_in_either_span(monkeypatch, bad):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    g = IndexedGraph(random_triples(np.random.default_rng(0), 40, 3, 0.12), 40, 3)
    for rows in (np.vstack([[bad], g.triples]), np.vstack([g.triples, [bad]])):
        with pytest.raises(IdOutOfBounds):
            extract_all(g, rows, 2, threads=2)


@pytest.mark.parametrize("threads, rows, cores, pools", [
    (1, 9, 8, []), (2, 9, 8, [1]), (3, 9, 2, [1]), (3, 9, None, []),
    (1000, 5, 64, [4]), (8, 1, 8, []), (4, 0, 8, [])])
def test_extract_all_asks_for_one_thread_fewer_than_spans(monkeypatch, threads, rows,
                                                          cores, pools):
    # a stand-in pool records its size and runs each span at submit, so no
    # thread starts however many are asked for
    asked, spans = [], []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args, **kwargs):
            future = Future()
            future.set_result(fn(*args, **kwargs))
            return future

    def extract(graph, span, k, max_nodes=0):
        spans.append(len(span))
        return extract_enclosing_subgraphs(graph, span, k, max_nodes=max_nodes)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(cli, "extract_enclosing_subgraphs", extract)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    g = IndexedGraph(random_triples(np.random.default_rng(0), 40, 3, 0.12), 40, 3)
    got = extract_all(g, g.triples[:rows], 2, threads=threads)
    assert got == extract_enclosing_subgraphs(g, g.triples[:rows], 2)
    # one span per pool thread plus the caller's, each of at least one row
    assert asked == pools
    assert len(spans) == 1 + sum(pools) and sum(spans) == rows
    assert rows == 0 or min(spans) >= 1


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A full preprocess/extract/train/eval run on a small synthetic KG."""
    root = tmp_path_factory.mktemp("pipeline")
    raw = root / "raw"
    make_raw_dataset_dir(str(raw), np.random.default_rng(42))
    out = root / "out"
    base = ["--data_root", str(raw), "--output_dir", str(out), "--seed", "7",
            "--k", "2", "--dim", "8", "--rel_dim", "8", "--num_layers", "1",
            "--num_bases", "2", "--epochs", "2", "--layer_kind", "rgcn"]
    assert main(["preprocess"] + base) == 0
    assert main(["extract", "--split", "query"] + base) == 0
    assert main(["train"] + base) == 0
    assert main(["eval"] + base) == 0
    return out, base


def test_pipeline_artifacts(pipeline_dir):
    out, _ = pipeline_dir
    for name in ("dataset.ikgd", "subgraphs-query.ikgs", "model.ikgm",
                 "metrics.jsonl", "report.json"):
        assert (out / name).is_file(), name


def test_pipeline_metrics_log(pipeline_dir):
    out, _ = pipeline_dir
    records = [json.loads(line) for line in
               (out / "metrics.jsonl").read_text().splitlines()]
    assert len(records) == 4  # 2 epochs x (train + valid)
    assert {r["split"] for r in records} == {"train", "valid"}
    assert all(r["seed"] == 7 for r in records)


def test_pipeline_report(pipeline_dir):
    out, _ = pipeline_dir
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["auc"] <= 1.0
    assert 0.0 <= report["auc_pr"] <= 1.0
    assert report["seed"] == 7


def test_pipeline_eval_lp(pipeline_dir):
    out, base = pipeline_dir
    assert main(["eval", "--task", "lp", "--num_neg_eval", "5"] + base) == 0
    report = json.loads((out / "report.json").read_text())
    assert 0.0 < report["mrr"] <= 1.0
    assert report["n_queries"] > 0


def test_pipeline_stats(pipeline_dir, capsys):
    out, base = pipeline_dir
    assert main(["stats", "--split", "query"] + base) == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["count"] > 0


@pytest.mark.parametrize("split, max_nodes", [("query", "0"), ("valid", "3")])
def test_extract_prints_the_stats_of_its_store(pipeline_dir, capsys, split, max_nodes):
    out, base = pipeline_dir
    assert main(["extract", "--split", split, "--max_nodes", max_nodes] + base) == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    assert main(["stats", "--split", split] + base) == 0
    assert printed == capsys.readouterr().out.strip().splitlines()[-1]
    if max_nodes != "0":
        assert json.loads(printed)["max_nodes"] <= int(max_nodes)


@pytest.mark.parametrize("task", ["tc", "lp"])
def test_eval_reads_k_from_the_checkpoint(pipeline_dir, task):
    # the model was trained with --k 2; eval without --k (default 3) scores
    # it with the k its checkpoint records
    out, base = pipeline_dir
    i = base.index("--k")
    reports = []
    for flags in (base, base[:i] + base[i + 2:]):
        assert main(["eval", "--task", task, "--num_neg_eval", "5"] + flags) == 0
        report = json.loads((out / "report.json").read_text())
        del report["wall_ms"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_eval_before_train_exits_1(tmp_path):
    raw = tmp_path / "raw"
    make_raw_dataset_dir(str(raw), np.random.default_rng(1))
    out = tmp_path / "out"
    base = ["--data_root", str(raw), "--output_dir", str(out), "--seed", "1"]
    assert main(["preprocess"] + base) == 0
    assert main(["eval"] + base) == 1


def test_missing_seed_exits_1(tmp_path):
    assert main(["preprocess", "--data_root", str(tmp_path)]) == 1


def test_stats_missing_store_exits_1(tmp_path):
    assert main(["stats", "--output_dir", str(tmp_path), "--seed", "1"]) == 1


def test_entity_family_pipeline(tmp_path):
    raw = tmp_path / "raw"
    make_raw_dataset_dir(str(raw), np.random.default_rng(5))
    out = tmp_path / "out"
    base = ["--data_root", str(raw), "--output_dir", str(out), "--seed", "2",
            "--model_family", "entity", "--dim", "8", "--episodes", "10",
            "--region_size", "20", "--support_frac", "0.7"]
    assert main(["preprocess"] + base) == 0
    assert main(["train"] + base) == 0
    assert main(["eval", "--task", "lp", "--num_neg_eval", "5"] + base) == 0
    report = json.loads((out / "report.json").read_text())
    assert 0.0 < report["mrr"] <= 1.0


@pytest.mark.parametrize("task", ["tc", "lp"])
def test_entity_eval_query_entity_without_support_triple(tmp_path, task):
    raw = tmp_path / "raw"
    make_raw_dataset_dir(str(raw), np.random.default_rng(5))
    # "w" occurs only in the query split, so it has no support triple
    with open(raw / "ind" / "test.txt", "a", encoding="utf-8") as fh:
        fh.write("u0\tr1\tw\n")
    out = tmp_path / "out"
    base = ["--data_root", str(raw), "--output_dir", str(out), "--seed", "2",
            "--model_family", "entity", "--dim", "8", "--episodes", "2",
            "--region_size", "20", "--support_frac", "0.7"]
    assert main(["preprocess"] + base) == 0
    assert main(["train"] + base) == 0
    assert main(["eval", "--task", task, "--num_neg_eval", "5"] + base) == 0
    assert (out / "report.json").is_file()


def test_each_stage_builds_only_the_graph_it_reads(tmp_path, monkeypatch):
    raw = tmp_path / "raw"
    make_raw_dataset_dir(str(raw), np.random.default_rng(5))
    out = tmp_path / "out"
    base = ["--data_root", str(raw), "--output_dir", str(out), "--seed", "2",
            "--model_family", "entity", "--dim", "8", "--episodes", "2",
            "--region_size", "20", "--support_frac", "0.7"]
    # every build and every extract_all call, from any process, in order
    log_path = tmp_path / "events"
    build_csr, extract = kgcore._build_csr, cli.extract_all

    def note(*fields):
        with open(log_path, "a") as fh:
            fh.write(" ".join(map(str, (os.getpid(),) + fields)) + "\n")

    def counting_build(triples, *args):
        note("build", len(triples))
        return build_csr(triples, *args)

    def noting_extract(*args, **kwargs):
        note("extract_all")
        return extract(*args, **kwargs)
    monkeypatch.setattr(kgcore, "_build_csr", counting_build)
    monkeypatch.setattr(cli, "extract_all", noting_extract)

    def events(*argv):
        log_path.write_text("")
        assert main(list(argv) + base) == 0
        return [line.split()[1:] for line in log_path.read_text().splitlines()]

    assert events("preprocess") == []
    bundle = kgcore.load_dataset(out / "dataset.ikgd")
    n_train, n_ind = str(len(bundle.train)), str(len(bundle.support))
    assert n_train != n_ind
    assert events("extract", "--split", "valid") == [["build", n_train], ["extract_all"]]
    assert events("extract", "--split", "query") == [["build", n_ind], ["extract_all"]]
    assert events("train") == [["build", n_train]]
    for task in ("tc", "lp"):
        assert events("eval", "--task", task, "--num_neg_eval", "5") == [["build", n_ind]]
    # one build, in this process, before extract_all starts its threads
    log_path.write_text("")
    assert main(["extract", "--split", "valid", "--threads", "2"] + base) == 0
    lines = [line.split() for line in log_path.read_text().splitlines()]
    assert lines == [[str(os.getpid()), "build", n_train], [str(os.getpid()), "extract_all"]]


def test_out_of_range_id_in_test_block_fails_eval(tmp_path, capsys):
    # eval builds only the inductive graph, and still rejects a bad test block
    raw = tmp_path / "raw"
    make_raw_dataset_dir(str(raw), np.random.default_rng(5))
    out = tmp_path / "out"
    base = ["--data_root", str(raw), "--output_dir", str(out), "--seed", "2",
            "--model_family", "entity", "--dim", "8", "--episodes", "2",
            "--region_size", "20", "--support_frac", "0.7"]
    assert main(["preprocess"] + base) == 0
    assert main(["train"] + base) == 0
    bundle = kgcore.load_dataset(out / "dataset.ikgd")
    bundle.test = np.array([[bundle.vocab.num_entities, 0, 0]], dtype=np.int64)
    kgcore.persist_dataset(bundle, out / "dataset.ikgd")
    capsys.readouterr()
    assert main(["eval", "--task", "tc"] + base) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("family, flags", [
    ("subgraph", ["--k", "2", "--dim", "8", "--rel_dim", "8", "--num_layers", "1",
                  "--num_bases", "2", "--epochs", "2", "--layer_kind", "comp"]),
    ("entity", ["--dim", "8", "--episodes", "6", "--region_size", "20",
                "--support_frac", "0.7", "--decoder", "rotate"]),
])
def test_train_checkpoint_round_trips_the_model_record(tmp_path, family, flags):
    raw = tmp_path / "raw"
    make_raw_dataset_dir(str(raw), np.random.default_rng(5))
    out = tmp_path / "out"
    base = ["--data_root", str(raw), "--output_dir", str(out), "--seed", "4",
            "--model_family", family] + flags
    assert main(["preprocess"] + base) == 0
    assert main(["train"] + base) == 0
    num_relations = kgcore.load_dataset(out / "dataset.ikgd").vocab.num_relations
    cfg = parse_config(None, dict(zip((f[2:] for f in base[::2]), base[1::2])))
    record, model = cli.load_model_checkpoint(out / "model.ikgm")
    assert record == model_settings(cfg, family, num_relations)
    assert isinstance(model, ModelParams if family == "subgraph" else EntityEncoderParams)
    # the rebuilt model saves back to the same bytes
    save_checkpoint(tmp_path / "again.ikgm", model.tensors(), record)
    assert (tmp_path / "again.ikgm").read_bytes() == (out / "model.ikgm").read_bytes()
    records = [json.loads(line) for line in
               (out / "metrics.jsonl").read_text().splitlines()]
    assert records and {r["split"] for r in records} <= {"train", "valid"}
    assert all(set(r) == {"epoch", "split", "loss", "auc", "auc_pr", "wall_ms", "seed"}
               for r in records)


UNBUILDABLE = [
    pytest.param({"layer_kind": "comp", "rel_dim": 16}, "rel_dim == dim", id="comp-rel_dim"),
    pytest.param({"model_family": "entity", "decoder": "rotate", "dim": 7}, "even dim",
                 id="rotate-odd-dim"),
]


@pytest.mark.parametrize("flags, message", UNBUILDABLE)
def test_unbuildable_model_settings_exit_1_before_the_dataset_loads(tmp_path, capsys,
                                                                   flags, message):
    # both exited 2 once the model was built, after the dataset had loaded
    raw = tmp_path / "raw"
    make_raw_dataset_dir(str(raw), np.random.default_rng(1))
    out = tmp_path / "out"
    base = ["--data_root", str(raw), "--output_dir", str(out), "--seed", "1"]
    assert main(["preprocess"] + base) == 0
    capsys.readouterr()
    argv = [arg for key, value in flags.items() for arg in (f"--{key}", str(value))]
    assert main(["train"] + base + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert sorted(os.listdir(out)) == ["dataset.ikgd"]
    # each setting binds only the family that uses it
    other = "subgraph" if flags.get("model_family") == "entity" else "entity"
    assert parse_config(None, {"seed": 1, **flags, "model_family": other}).model_family == other


@pytest.mark.parametrize("flags, message", UNBUILDABLE)
def test_build_model_rejects_unbuildable_records(flags, message):
    record = {**model_settings(parse_config(None, {"seed": 1}), "subgraph", 3), **flags}
    with pytest.raises(CorruptHeader, match=re.escape(message)):
        build_model(record)


def trained_entity_run(tmp_path):
    raw = tmp_path / "raw"
    make_raw_dataset_dir(str(raw), np.random.default_rng(5))
    out = tmp_path / "out"
    base = ["--data_root", str(raw), "--output_dir", str(out), "--seed", "2",
            "--model_family", "entity", "--dim", "8", "--episodes", "2",
            "--region_size", "20", "--support_frac", "0.7"]
    assert main(["preprocess"] + base) == 0
    assert main(["train"] + base) == 0
    return out, base


MISSING = object()


@pytest.mark.parametrize("key, value, named", [
    pytest.param("dim", MISSING, "dim", id="dim"),
    pytest.param("model_family", MISSING, "model_family", id="model_family"),
    pytest.param("num_relations", MISSING, "num_relations", id="num_relations"),
    pytest.param("psi", MISSING, "psi", id="psi"),
    pytest.param("decoder", "complex", "decoder", id="decoder-complex"),
    pytest.param("layer_kind", "gat", "layer_kind", id="layer_kind-gat"),
    pytest.param("dim", None, "dim", id="dim-null"),
    pytest.param("margin", "x", "margin", id="margin-x"),
    pytest.param("num_relations", None, "num_relations", id="num_relations-null"),
    pytest.param("num_layers", 2, "layer2", id="num_layers-2-of-3"),
])
def test_eval_of_an_incomplete_checkpoint_exits_2(tmp_path, capsys, key, value, named):
    # a record key or a tensor missing, a record value of the wrong type or
    # outside its allowed values, or tensors the rebuilt model does not name
    out, base = trained_entity_run(tmp_path)
    record, arrays = load_checkpoint(out / "model.ikgm")
    if key == "num_layers":
        # the arrays of a 3-layer subgraph model under a 2-layer record
        record["model_family"] = "subgraph"
        assert record["num_layers"] == 3
        arrays = {name: t.data for name, t in build_model(record).tensors().items()}
    if value is MISSING:
        record.pop(key, None)
    else:
        record[key] = value
    save_checkpoint(out / "model.ikgm",
                    {name: Tensor(a) for name, a in arrays.items() if name != key},
                    record)
    capsys.readouterr()
    assert main(["eval"] + base) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("key", [key for key in MODEL_KEYS if key in FLOAT_KEYS])
def test_checkpoint_with_a_non_finite_float_is_corrupt(tmp_path, key, value):
    # JSON carries NaN and Infinity, so a doctored record loads back with them
    cfg = parse_config(None, {"seed": 1, "model_family": "entity", "dim": 4})
    record = model_settings(cfg, "entity", 3)
    tensors = build_model(record).tensors()
    save_checkpoint(tmp_path / "model.ikgm", tensors, {**record, key: value})
    loaded, _ = load_checkpoint(tmp_path / "model.ikgm")
    with pytest.raises(CorruptHeader, match=key):
        build_model(loaded)


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("task, nan", [("tc", ["auc", "auc_pr"]),
                                       ("lp", ["mrr", "hit@1", "hit@5", "hit@10"])])
def test_nan_metrics_are_written_as_null(tmp_path, monkeypatch, caplog, task, nan):
    out, base = trained_entity_run(tmp_path)
    monkeypatch.setattr(cli, "entity_triple_scorer",
                        lambda *args: lambda cands: np.full(len(cands), np.nan))
    with caplog.at_level(logging.WARNING, logger="indkg.cli"):
        assert main(["eval", "--task", task, "--num_neg_eval", "5"] + base) == 0
    report = json.loads((out / "report.json").read_text(), parse_constant=reject_constant)
    flat = {**report, **{f"hit@{n}": v for n, v in report["hits"].items()}}
    assert all(flat[key] is None for key in nan)
    assert [r.getMessage() for r in caplog.records if r.name == "indkg.cli"] == [
        f"report.json writes the NaN metrics {', '.join(nan)} as null"]


def test_preprocess_without_training_triples_exits_2(tmp_path, capsys):
    raw = tmp_path / "raw"
    make_raw_dataset_dir(str(raw), np.random.default_rng(1))
    (raw / "train" / "train.txt").write_text("\n")
    argv = ["preprocess", "--data_root", str(raw), "--output_dir", str(tmp_path / "out"),
            "--seed", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: at least one training triple required" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "dataset.ikgd").exists()


def test_extract_of_an_empty_split_exits_2_and_writes_no_store(tmp_path, capsys):
    # without ind/valid.txt the ind_valid split is empty; extract used to
    # write its store, then fail to aggregate over it
    raw, out = tmp_path / "raw", tmp_path / "out"
    make_raw_dataset_dir(str(raw), np.random.default_rng(1))
    assert not (raw / "ind" / "valid.txt").exists()
    base = ["--data_root", str(raw), "--output_dir", str(out), "--seed", "1"]
    assert main(["preprocess"] + base) == 0
    capsys.readouterr()
    assert main(["extract", "--split", "ind_valid"] + base) == 2
    assert "error: split 'ind_valid' holds no triples" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["dataset.ikgd"]
