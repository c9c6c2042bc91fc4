"""botclf: a GRU+CNN network-flow classifier for IoT botnet attack detection.

A small two-branch model (1-D convolution + batch normalization on one
branch, a GRU on the other) over 16 selected flow features, trained with
hand-written backpropagation and RMSProp, plus the full per-class and
overall statistics suite for 6-way attack classification.
"""

from .dataio import (CsvSchema, Dataset, FeatureSpec, FlowRecord, LabelMap,
                     DEFAULT_FEATURES, DEFAULT_LABEL_MAP, fit_normalizer,
                     stream_csv, to_dataset)
from .metrics import (BinaryCells, ClassStats, ConfusionMatrix, MetricsReport,
                      OverallStats, accuracy_ci, auci_band, class_stats,
                      cohen_kappa, overall_stats, report, stats_from_cells)
from .network import (Architecture, ModelSummary, NetworkParameters, build,
                      forward, backward, load_weights, param_count,
                      save_weights, summary)
from .training import (EpochStats, GradCheckReport, TrainConfig, cross_entropy,
                       evaluate, fit, gradient_check, rmsprop_step)

__version__ = "0.1.0"

__all__ = [
    "Architecture", "BinaryCells", "ClassStats", "ConfusionMatrix",
    "CsvSchema", "Dataset", "DEFAULT_FEATURES", "DEFAULT_LABEL_MAP",
    "EpochStats", "FeatureSpec", "FlowRecord", "GradCheckReport", "LabelMap",
    "MetricsReport", "ModelSummary", "NetworkParameters", "OverallStats",
    "TrainConfig", "accuracy_ci", "auci_band", "backward", "build",
    "class_stats", "cohen_kappa", "cross_entropy", "evaluate", "fit",
    "fit_normalizer", "forward", "gradient_check", "load_weights",
    "overall_stats", "param_count", "report", "rmsprop_step", "save_weights",
    "stats_from_cells", "stream_csv", "summary", "to_dataset", "__version__",
]
