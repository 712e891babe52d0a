"""Inductive knowledge-graph representation learning.

Framework-free pipeline: dataset indexing, enclosing-subgraph extraction
with distance labelling, negative sampling, relational GNN training with
KGE decoders, and standardized link-prediction / triple-classification
evaluation. Each stage lives in its own module; import names from the
module that defines them, e.g. ``from indkg.kgcore import load_dataset``.
"""

__version__ = "0.1.0"
