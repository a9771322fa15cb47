"""Evaluation: metrics, the one ``prepare``/``evaluate`` route, the harness and text reporting."""

from .metrics import (
    RocCurve,
    roc_curve,
    auroc,
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
from .reporting import format_table

__all__ = [
    "RocCurve",
    "roc_curve",
    "auroc",
    "detection_latency",
    "THRESHOLD_QUANTILE",
    "EvalRecord",
    "evaluate",
    "prepare",
    "ExperimentHarness",
    "ExperimentScale",
    "PreparedDataset",
    "format_table",
]
