"""Task-focused selection of attribute-inferred network models.

Pipeline: event log -> temporal partitions -> similarity networks ->
node-classification and link-prediction evaluation -> stability-based
model selection.
"""

__version__ = "0.1.0"

from .community import CommunityAssignment, louvain, modularity  # noqa: E402
from .data import (DataError, EventLog, LabelRule, PartitionedDataset,  # noqa: E402
                   build_dataset, ingest_events, load_dataset,
                   load_label_rules, save_dataset)
from .graph import (EdgeSet, GraphError, NeighborhoodSpec,  # noqa: E402
                    bfs_neighborhood, egonet, load_edgeset, save_edgeset,
                    split_edges_random)
from .learn import (CoinClassifier, LinearSVM, RandomForest, RFHyper,  # noqa: E402
                    SVMHyper, TrainingSet, train_classifier)
from .selection import (EvaluationRecord, SelectionReport, cross_task,  # noqa: E402
                        kendall_tau, match_mismatch, node_difficulty,
                        selection_stats)
from .similarity import (MEASURES, NetworkModelSpec, knn_graph, sim,  # noqa: E402
                         threshold_graph)
from .synth import PlantSpec, synth_bundle, synth_generate  # noqa: E402
from .tasks import (LeakageAudit, ModelConfig, PredictionBatch,  # noqa: E402
                    Scopes, run_cc, run_lp)
from .experiment import ExperimentConfig, run_experiment  # noqa: E402

__all__ = [
    "__version__",
    "CommunityAssignment", "louvain", "modularity",
    "DataError", "EventLog", "LabelRule", "PartitionedDataset",
    "build_dataset", "ingest_events", "load_dataset", "load_label_rules",
    "save_dataset",
    "EdgeSet", "GraphError", "NeighborhoodSpec", "bfs_neighborhood",
    "egonet", "load_edgeset", "save_edgeset", "split_edges_random",
    "CoinClassifier", "LinearSVM", "RandomForest", "RFHyper", "SVMHyper",
    "TrainingSet", "train_classifier",
    "EvaluationRecord", "SelectionReport", "cross_task", "kendall_tau",
    "match_mismatch", "node_difficulty", "selection_stats",
    "MEASURES", "NetworkModelSpec", "knn_graph", "sim", "threshold_graph",
    "PlantSpec", "synth_bundle", "synth_generate",
    "LeakageAudit", "ModelConfig", "PredictionBatch", "Scopes", "run_cc",
    "run_lp",
    "ExperimentConfig", "run_experiment",
]
