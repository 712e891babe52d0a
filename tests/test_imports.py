import os
import subprocess
import sys

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
