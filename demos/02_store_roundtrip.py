"""Persisting extracted subgraphs in the checksummed random-access store.

Run: python3 demos/02_store_roundtrip.py
"""

import json
import os
import tempfile

import numpy as np

from indkg.kgcore import build_graph
from indkg.store import StoreReader, StoreWriter, collect_stats
from indkg.subgraph import extract_enclosing_subgraph

rng = np.random.default_rng(0)
n = 30
triples = []
for h in range(n):
    for t in range(n):
        if h != t and rng.random() < 0.08:
            triples.append((h, int(rng.integers(3)), t))
graph = build_graph(triples, n, 3)

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "subgraphs-train.ikgs")
    with StoreWriter(path) as writer:
        for triple in graph.triples[:50].tolist():
            sub = extract_enclosing_subgraph(graph, tuple(triple), k=2)
            writer.write(sub)
    print(f"wrote 50 subgraphs to {path} ({os.path.getsize(path)} bytes)")

    reader = StoreReader(path)
    print(f"store holds {len(reader)} records; random access is O(1):")
    for i in (0, 17, 49):
        sub = reader.read(i)
        print(f"  record {i}: target {sub.target}, {sub.num_nodes} nodes")

    stats = collect_stats(reader)
    print("\ncorpus statistics:")
    print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
