"""Driving the five CLI stages end to end on a generated dataset.

The same thing works from a shell with the `indkg` console script; here
the stages are invoked in-process so the demo is a single file.

Run: python3 demos/06_cli_pipeline.py
"""

import os
import tempfile

import numpy as np

from indkg.cli import main

rng = np.random.default_rng(3)


def write_split(path, prefix, n, density):
    rows = []
    for h in range(n):
        for t in range(n):
            if h != t and rng.random() < density:
                rows.append((f"{prefix}{h}", f"r{rng.integers(3)}", f"{prefix}{t}"))
    rng.shuffle(rows)
    with open(path, "w") as fh:
        for h, r, t in rows:
            fh.write(f"{h}\t{r}\t{t}\n")
    return rows


def run_pipeline(root):
    raw = os.path.join(root, "raw")
    out = os.path.join(root, "out")
    os.makedirs(os.path.join(raw, "train"))
    os.makedirs(os.path.join(raw, "ind"))

    train = write_split(os.path.join(raw, "train", "train.txt"), "e", 30, 0.1)
    write_split(os.path.join(raw, "train", "valid.txt"), "e", 0, 0)
    write_split(os.path.join(raw, "train", "test.txt"), "e", 0, 0)
    # carve valid/test out of train so entities stay covered
    with open(os.path.join(raw, "train", "valid.txt"), "w") as fh:
        for h, r, t in train[:6]:
            fh.write(f"{h}\t{r}\t{t}\n")
    with open(os.path.join(raw, "train", "train.txt"), "w") as fh:
        for h, r, t in train[6:]:
            fh.write(f"{h}\t{r}\t{t}\n")
    open(os.path.join(raw, "train", "test.txt"), "w").close()

    support = write_split(os.path.join(raw, "ind", "train.txt"), "u", 14, 0.25)
    sup_ents = {e for h, _, t in support for e in (h, t)}
    # a query fact that also sat in support would be observed while scored
    queries = [q for q in write_split(os.path.join(raw, "ind", "test.txt"), "u", 14, 0.05)
               if q[0] in sup_ents and q[2] in sup_ents and q not in support]
    with open(os.path.join(raw, "ind", "test.txt"), "w") as fh:
        for h, r, t in queries:
            fh.write(f"{h}\t{r}\t{t}\n")

    base = ["--data_root", raw, "--output_dir", out, "--seed", "7", "--k", "2",
            "--dim", "8", "--rel_dim", "8", "--num_layers", "1", "--num_bases", "2",
            "--epochs", "3", "--layer_kind", "rgcn"]

    for stage in (["preprocess"], ["extract", "--split", "query"], ["train"],
                  ["eval", "--task", "tc"], ["stats", "--split", "query"]):
        print(f"\n$ indkg {' '.join(stage)}")
        code = main(stage + base)
        assert code == 0, f"stage {stage[0]} exited {code}"

    print("\nartifacts:")
    for name in sorted(os.listdir(out)):
        print(f"  {name}  ({os.path.getsize(os.path.join(out, name))} bytes)")


with tempfile.TemporaryDirectory() as tmp:
    run_pipeline(tmp)
