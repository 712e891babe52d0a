"""Inductive knowledge-graph representation learning.

Framework-free pipeline: dataset indexing, enclosing-subgraph extraction
with distance labelling, negative sampling, relational GNN training with
KGE decoders, and standardized link-prediction / triple-classification
evaluation.
"""

from .kgcore import (
    DatasetBundle,
    IndexedGraph,
    Vocab,
    build_graph,
    build_vocab,
    encode_triples,
    load_dataset,
    load_raw_dataset,
    load_triples,
    persist_dataset,
)
from .subgraph import (
    CorpusStats,
    Subgraph,
    bfs_distances,
    extract_enclosing_subgraph,
    extract_enclosing_subgraphs,
    label_nodes,
)
from .store import StoreReader, StoreWriter, collect_stats
from .sampling import (
    ClassificationBatch,
    MetaTask,
    RankingBatch,
    corrupt_triple,
    make_classification_batch,
    make_ranking_batch,
    make_train_batch,
    sample_meta_task,
)
from .model import (
    Adam,
    DecoderKind,
    EntityEncoderParams,
    ModelParams,
    gradient_check,
    init_entity_embeddings,
    init_entity_encoder,
    init_model,
    kge_score,
    margin_loss,
    subgraph_score,
)
from .layers import rel_att_layer, rel_comp_layer, rgcn_layer
from .evaluate import (
    MetricsReport,
    MonitorState,
    classification_metrics,
    compute_rank,
    early_stop_decision,
    ranking_metrics,
    run_link_prediction,
    run_link_prediction_triples,
    run_triple_classification,
)
from .config import RunConfig, parse_config

__version__ = "0.1.0"
