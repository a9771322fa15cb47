"""Common interface implemented by every stream anomaly detector.

AOVLIS (CLSTM), its ablations (LSTM-only, CLSTM-S) and the literature
baselines (LTR, VEC, RTFM) all expose the same two-phase API so the
evaluation harness and the benchmarks can treat them uniformly:

* :meth:`StreamAnomalyDetector.fit` — learn the notion of "normal" from the
  training stream's features (only normal segments are used for training, as
  in the paper);
* :meth:`StreamAnomalyDetector.score_stream` — produce one anomaly score per
  scoreable segment of a test stream, together with the indices of those
  segments so the scores can be aligned with ground-truth labels.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..features.pipeline import StreamFeatures

__all__ = ["ScoredStream", "StreamAnomalyDetector"]


@dataclass(frozen=True)
class ScoredStream:
    """Per-segment anomaly scores aligned with their stream indices."""

    segment_indices: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        if len(self.segment_indices) != len(self.scores):
            raise ValueError("segment_indices and scores must have the same length")

    def __len__(self) -> int:
        return len(self.scores)

    def labels_from(self, features: StreamFeatures) -> np.ndarray:
        """Ground-truth labels aligned with these scores."""
        return features.labels[self.segment_indices]


class StreamAnomalyDetector(abc.ABC):
    """Abstract base class of all detectors compared in the evaluation."""

    #: Human-readable method name used in result tables (e.g. "CLSTM", "LTR").
    name: str = "detector"

    @abc.abstractmethod
    def fit(self, features: StreamFeatures) -> "StreamAnomalyDetector":
        """Learn normal behaviour from a training stream's features."""

    @abc.abstractmethod
    def score_stream(self, features: StreamFeatures) -> ScoredStream:
        """Score every scoreable segment of a test stream."""
