"""The names the benchmark under ``perfbench/`` resolves in ``indkg``, and
its check self-test.

perfbench wraps library functions from outside. A wrapped name that goes
missing does not fail a benchmark run: the tracer lists it as absent and
leaves its metrics out, and a recorder wrapper raises. These tests fail
instead. They read ``perfbench/`` and change nothing in it.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _resolves(mod_name, qualname) -> bool:
    try:
        owner = importlib.import_module(mod_name)
        for part in qualname.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{mod}.{qual}" for mod, qual, *_ in tracing.TARGETS
               if not _resolves(mod, qual)]
    assert not missing


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


def test_selftest_passes():
    # every output check accepts a correct output and rejects a corrupted one;
    # its temporary files go under the git-ignored .perfbench_runs/
    run = subprocess.run([sys.executable, os.path.join(PERFBENCH, "selftest.py")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
