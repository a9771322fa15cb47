"""Evaluation metrics: ROC curve, AUROC, detection latency.

The paper evaluates effectiveness with ROC curves and the area under them
(AUROC); the scenario leaderboard adds the detection latency of a
threshold.  Implementations here are NumPy-only and handle the degenerate cases
(all-normal or all-anomalous label sets) explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "RocCurve",
    "roc_curve",
    "auroc",
    "detection_latency",
]


@dataclass(frozen=True)
class RocCurve:
    """A receiver operating characteristic curve.

    ``fpr`` must be sorted ascending — :meth:`tpr_at_fpr` interpolates with
    :func:`np.interp`, which silently returns garbage on unsorted abscissae.
    Construction validates the invariant and re-sorts the three arrays
    together (by ``fpr``, then ``tpr``) when it does not hold.
    """

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self) -> None:
        fpr = np.asarray(self.fpr, dtype=np.float64)
        tpr = np.asarray(self.tpr, dtype=np.float64)
        thresholds = np.asarray(self.thresholds, dtype=np.float64)
        if not (fpr.shape == tpr.shape == thresholds.shape):
            raise ValueError(
                f"fpr, tpr and thresholds must align, got {fpr.shape}, "
                f"{tpr.shape}, {thresholds.shape}"
            )
        if fpr.size and np.any(np.diff(fpr) < 0):
            order = np.lexsort((tpr, fpr))
            fpr, tpr, thresholds = fpr[order], tpr[order], thresholds[order]
        object.__setattr__(self, "fpr", fpr)
        object.__setattr__(self, "tpr", tpr)
        object.__setattr__(self, "thresholds", thresholds)

    def area(self) -> float:
        """Area under the curve via the trapezoid rule."""
        return float(np.trapezoid(self.tpr, self.fpr))

    def tpr_at_fpr(self, target_fpr: float) -> float:
        """Interpolated TPR at a given FPR (used to compare curves point-wise)."""
        if not 0.0 <= target_fpr <= 1.0:
            raise ValueError("target_fpr must be in [0, 1]")
        return float(np.interp(target_fpr, self.fpr, self.tpr))


def _validate(labels: Sequence[int], scores: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError(f"labels and scores must align, got {labels.shape} vs {scores.shape}")
    if labels.size == 0:
        raise ValueError("labels must be non-empty")
    unique = set(np.unique(labels).tolist())
    if not unique <= {0, 1}:
        raise ValueError(f"labels must be binary (0/1), found values {sorted(unique)}")
    return labels.astype(np.int64), scores


def roc_curve(labels: Sequence[int], scores: Sequence[float]) -> RocCurve:
    """Compute the ROC curve of anomaly ``scores`` against binary ``labels``.

    Points are produced at every distinct score threshold, plus the (0, 0) and
    (1, 1) endpoints.  When one of the classes is empty the corresponding rate
    is reported as zero everywhere (and :func:`auroc` returns ``nan``).
    """
    labels, scores = _validate(labels, scores)
    positives = int(labels.sum())
    negatives = int(labels.size - positives)

    order = np.argsort(scores)[::-1]
    sorted_labels = labels[order]
    sorted_scores = scores[order]

    cumulative_tp = np.cumsum(sorted_labels)
    cumulative_fp = np.cumsum(1 - sorted_labels)

    # Keep one point per distinct threshold (the last occurrence of each score).
    distinct = np.nonzero(np.diff(sorted_scores, append=-np.inf))[0]
    tp = cumulative_tp[distinct]
    fp = cumulative_fp[distinct]

    tpr = tp / positives if positives > 0 else np.zeros_like(tp, dtype=np.float64)
    fpr = fp / negatives if negatives > 0 else np.zeros_like(fp, dtype=np.float64)

    fpr = np.concatenate([[0.0], fpr, [1.0]])
    tpr = np.concatenate([[0.0], tpr, [1.0]])
    thresholds = np.concatenate([[np.inf], sorted_scores[distinct], [-np.inf]])
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds)


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based midranks of ``scores`` (tied values share their average rank)."""
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    boundaries = np.nonzero(np.diff(sorted_scores))[0]
    starts = np.concatenate([[0], boundaries + 1])
    stops = np.concatenate([boundaries + 1, [scores.size]])
    # A tie group at positions [start, stop) holds ranks start+1..stop,
    # whose average is (start + stop + 1) / 2.
    group_midranks = (starts + stops + 1) / 2.0
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(group_midranks, stops - starts)
    return ranks


def auroc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Area under the ROC curve; ``nan`` when only one class is present.

    Computed rank-based, as the Mann–Whitney U statistic with midranks for
    ties: ``AUC = (R_pos - n_pos (n_pos + 1) / 2) / (n_pos * n_neg)`` where
    ``R_pos`` is the rank sum of the positive class.  This is mathematically
    the trapezoid area under :func:`roc_curve` but is exact under ties —
    ranks are half-integers, so the statistic accumulates without floating-
    point drift and the metric is invariant under any transform that
    preserves the ordering (and tie structure) of the scores.
    """
    labels, scores = _validate(labels, scores)
    positives = int(labels.sum())
    negatives = int(labels.size - positives)
    if positives == 0 or negatives == 0:
        return float("nan")
    ranks = _midranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - positives * (positives + 1) / 2.0) / (positives * negatives)


def detection_latency(labels: Sequence[int], scores: Sequence[float], threshold: float) -> float:
    """Mean segments-to-first-alarm over contiguous anomalous episodes.

    For each maximal run of consecutive ``labels == 1`` segments, the latency
    is the offset of the first segment inside the run whose score exceeds
    ``threshold``; a run with no alarm contributes its full length.  Returns
    ``nan`` when the stream has no anomalous episode.
    """
    labels = np.asarray(labels).astype(int)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must align")
    latencies: List[float] = []
    run_start: Optional[int] = None
    for index in range(len(labels) + 1):
        inside = index < len(labels) and labels[index] == 1
        if inside and run_start is None:
            run_start = index
        elif not inside and run_start is not None:
            run = scores[run_start:index] > threshold
            hits = np.nonzero(run)[0]
            latencies.append(float(hits[0]) if len(hits) else float(index - run_start))
            run_start = None
    if not latencies:
        return float("nan")
    return float(np.mean(latencies))
