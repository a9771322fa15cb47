"""Evaluation: metrics, the one ``prepare``/``evaluate`` route, the harness and text reporting."""

from .metrics import (
    RocCurve,
    roc_curve,
    auroc,
    confusion_counts,
    true_positive_rate,
    false_positive_rate,
    precision_recall_f1,
    detection_latency,
)
from .harness import (
    THRESHOLD_QUANTILE,
    EvalRecord,
    ExperimentHarness,
    ExperimentScale,
    PreparedDataset,
    evaluate,
    prepare,
)
from .reporting import format_table, format_named_series, format_percentage

__all__ = [
    "RocCurve",
    "roc_curve",
    "auroc",
    "confusion_counts",
    "true_positive_rate",
    "false_positive_rate",
    "precision_recall_f1",
    "detection_latency",
    "THRESHOLD_QUANTILE",
    "EvalRecord",
    "evaluate",
    "prepare",
    "ExperimentHarness",
    "ExperimentScale",
    "PreparedDataset",
    "format_table",
    "format_named_series",
    "format_percentage",
]
