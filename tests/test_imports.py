import ast
import os
import subprocess
import sys
from pathlib import Path

import indkg
from indkg import kgcore

SCRIPT = """
import sys
import indkg
from indkg import kgcore
bundle = kgcore.load_dataset(sys.argv[1])
assert bundle.train_graph.num_triples == 1
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_import_and_load_do_not_import_scipy(tmp_path):
    # scipy.stats alone used to be most of the package's import time
    v = kgcore.build_vocab([("a", "r", "b")], support=[("x", "r", "y")])
    enc = lambda raw: kgcore.encode_triples(raw, v)
    bundle = kgcore.DatasetBundle(v, enc([("a", "r", "b")]), enc([]), enc([]),
                                  enc([("x", "r", "y")]), enc([("x", "r", "y")]), enc([]))
    path = tmp_path / "dataset.ikgd"
    kgcore.persist_dataset(bundle, path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(path)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_package_modules_use_every_import():
    # __init__.py imports names only to re-export them
    unused = []
    for path in sorted(Path(indkg.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, unused


def test_package_modules_import_no_private_sibling_names():
    # a name that starts with "_" belongs to its module; a sibling that needs
    # it needs a public name or the value itself
    private = []
    for path in sorted(Path(indkg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "indkg"):
                private += [f"{path.name}:{node.lineno} {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert not private, private


def test_searchsorted_only_in_find_sorted_and_two_range_searches():
    # an exact-match lookup of ids in a sorted array goes through
    # kgcore.find_sorted; the one other search finds a key range, not a
    # matching element
    homes = {("kgcore.py", "find_sorted"), ("sampling.py", "_corruption_pool")}
    calls = set()
    for path in sorted(Path(indkg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            calls |= {(path.name, getattr(top, "name", None))
                      for node in ast.walk(top)
                      if isinstance(node, ast.Call) and "searchsorted" in (
                          getattr(node.func, "attr", None), getattr(node.func, "id", None))}
    assert calls == homes, sorted(calls - homes, key=str)


def test_autodiff_vjps_never_call_broadcast_to():
    # backward broadcasts a VJP result into the parent's fresh gradient, so
    # no VJP (a lambda or a function nested in an op) builds a broadcast copy
    tree = ast.parse((Path(indkg.__file__).parent / "autodiff.py").read_text(encoding="utf-8"))
    vjps = [inner for outer in ast.walk(tree) if isinstance(outer, ast.FunctionDef)
            for inner in ast.walk(outer)
            if inner is not outer and isinstance(inner, (ast.Lambda, ast.FunctionDef))]
    calls = {node.lineno for vjp in vjps for node in ast.walk(vjp)
             if isinstance(node, ast.Call) and "broadcast_to" in (
                 getattr(node.func, "attr", None), getattr(node.func, "id", None))}
    assert vjps and not calls, sorted(calls)


def test_models_are_built_from_a_record_only_in_model_py():
    # the trainers and the checkpoint reader go through model.build_model, so
    # a model setting is read from the record in one place
    builders = {"init_model", "init_entity_encoder", "DecoderKind"}
    calls = []
    for path in sorted(Path(indkg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and builders & {
                      getattr(node.func, "attr", None), getattr(node.func, "id", None)}]
    assert {name for name, _ in calls} == {"model.py"}, calls


def test_tape_nodes_are_built_only_in_node_concat_and_basis_conv():
    # every op of one to three operands, in any module, records its tape
    # entries through autodiff.node; concat and basis_conv have a variable
    # number of parents
    homes = set()
    for path in sorted(Path(indkg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        homes |= {(path.name, getattr(top, "name", None)) for top in tree.body
                  for node in ast.walk(top)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Tensor"
                  and any(kw.arg == "_parents" for kw in node.keywords)}
    assert homes == {("autodiff.py", name) for name in ("node", "concat", "basis_conv")}, homes


def test_package_modules_start_no_process():
    # extraction runs on threads: no module imports multiprocessing or
    # ProcessPoolExecutor, or calls os.fork
    banned = {"multiprocessing", "ProcessPoolExecutor", "fork", "forkpty"}
    found = []
    for path in sorted(Path(indkg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in banned]
    assert not found, found
