"""Enclosing-subgraph extraction and double-radius labels on a toy graph.

Run: python3 demos/01_extract_and_label.py
"""

import numpy as np

from indkg.kgcore import IndexedGraph
from indkg.subgraph import bfs_distances, extract_enclosing_subgraph, label_nodes

# a small citation-style graph: 8 entities, 2 relations
triples = [
    (0, 0, 1), (1, 0, 2), (2, 0, 3), (0, 1, 3),
    (3, 0, 4), (4, 1, 5), (2, 1, 6), (6, 0, 3),
]
graph = IndexedGraph(triples, num_entities=8, num_relations=2)
target = (0, 1, 3)  # the link we want to reason about
k = 2

print(f"target triple: {target}, hop budget k = {k}")
d_h = bfs_distances(graph, target[0], k, masked_edge=target)
d_t = bfs_distances(graph, target[2], k, masked_edge=target)
print(f"distances from head (target masked): {d_h}")
print(f"distances from tail (target masked): {d_t}")

sub = extract_enclosing_subgraph(graph, target, k)
print(f"\nenclosing subgraph: {sub.num_nodes} nodes, {len(sub.edges)} edges")
print(f"global node ids: {sub.nodes.tolist()}")
print(f"(d_head, d_tail) per node: {sub.dist_pairs.tolist()}")
print("note: node 5 is two hops from the tail but four from the head,")
print("so the pruning rule d_h + d_t <= k + 1 drops it")

labels = label_nodes(sub)
print(f"\nlabel matrix shape {labels.shape} (width 2 * (k + 2))")
for local, gid in enumerate(sub.nodes.tolist()):
    print(f"  node {gid}: {labels[local].astype(int).tolist()}")
