"""Time package import plus the first load of a dataset bundle into graphs.

Run in a fresh interpreter so the import is not already done:

    python3 perfbench/setup_probe.py <output_dir>/dataset.ikgd

Prints the seconds taken.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from indkg import kgcore  # noqa: E402

bundle = kgcore.load_dataset(sys.argv[1])
if bundle.train_graph is None or bundle.ind_graph is None:
    raise SystemExit("bundle loaded without graphs")
print(time.perf_counter() - t0)
