"""Weighted knowledge-graph embeddings for data quality assessment planning.

The package represents dataset contexts, quality rules and quality
dimensions as a weighted triple graph, trains a complex-valued link
predictor on it, and emits weighted assessment plans for new contexts. A
random-walk retrieval baseline is included for comparison.
"""
from .checkpoint import load_checkpoint, save_checkpoint
from .contexts import (
    AssessmentPlan,
    Attribute,
    AttributeType,
    ContextDescriptor,
    DimensionEdge,
    RuleEdge,
    context_from_dict,
    context_to_dict,
    context_to_triples,
    extract_plan,
    plan_from_dict,
    plan_to_dict,
    triples_to_context,
)
from .errors import (
    CheckpointError,
    ContextMismatchError,
    CsvFormatError,
    InputError,
    MalformedContextError,
    NoMatchError,
    QakgeError,
    TrainingDiverged,
    VocabMismatchError,
    ZeroVectorError,
)
from .evaluation import EvalMetrics, aggregate_ranks, evaluate, validation_loss
from .gridsearch import grid_search
from .model import ModelParams, init_model, score_triples
from .node2vec import (
    BaselineConfig,
    NodeEmbeddings,
    baseline_plan,
    embed_graph,
    nearest_context,
)
from .planner import (
    PlanComparison,
    calibrate_weight,
    compare_plans,
    comparison_report,
    fit_calibration,
    generate_plan,
)
from .profiling import infer_attribute_type, profile_dataset
from .synth import GeneratorConfig, build_radiation_scenario, generate_synthetic_graph
from .training import Hyperparams, TrainReport, train
from .triples import (
    TripleGraph,
    Vocabulary,
    WeightedTriple,
    load_triples_csv,
    save_triples_csv,
    split_train_test,
)

__version__ = "0.1.0"

__all__ = [
    "AssessmentPlan",
    "Attribute",
    "AttributeType",
    "BaselineConfig",
    "CheckpointError",
    "ContextDescriptor",
    "ContextMismatchError",
    "CsvFormatError",
    "DimensionEdge",
    "EvalMetrics",
    "GeneratorConfig",
    "Hyperparams",
    "InputError",
    "MalformedContextError",
    "ModelParams",
    "NoMatchError",
    "NodeEmbeddings",
    "PlanComparison",
    "QakgeError",
    "RuleEdge",
    "TrainReport",
    "TrainingDiverged",
    "TripleGraph",
    "Vocabulary",
    "VocabMismatchError",
    "WeightedTriple",
    "ZeroVectorError",
    "aggregate_ranks",
    "baseline_plan",
    "build_radiation_scenario",
    "calibrate_weight",
    "compare_plans",
    "comparison_report",
    "context_from_dict",
    "context_to_dict",
    "context_to_triples",
    "embed_graph",
    "evaluate",
    "extract_plan",
    "fit_calibration",
    "generate_plan",
    "generate_synthetic_graph",
    "grid_search",
    "infer_attribute_type",
    "init_model",
    "load_checkpoint",
    "load_triples_csv",
    "nearest_context",
    "plan_from_dict",
    "plan_to_dict",
    "profile_dataset",
    "save_checkpoint",
    "save_triples_csv",
    "score_triples",
    "split_train_test",
    "train",
    "triples_to_context",
    "validation_loss",
]
