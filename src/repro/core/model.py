"""AOVLIS facade: fit and score the paper's detector as one frozen model.

:class:`AOVLIS` ties the pieces together behind a small public API:

* CLSTM training on the normal segments of a training stream;
* REIA scoring and thresholded detection on test streams.

It implements :class:`~repro.core.base.StreamAnomalyDetector`, so the
evaluation harness treats it exactly like the baselines.  The model it fits
stays as fitted: the incremental-update loop of Section IV-D (Fig. 5) runs in
:class:`repro.runtime.Runtime`, the assembled serving system, and nowhere else.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..features.pipeline import StreamFeatures
from ..utils.config import DetectionConfig, TrainingConfig
from .base import ScoredStream, StreamAnomalyDetector
from .clstm import CLSTM, CouplingMode
from .detector import AnomalyDetector, DetectionResult
from .training import CLSTMTrainer, TrainingHistory

__all__ = ["AOVLIS"]


class AOVLIS(StreamAnomalyDetector):
    """Anomaly detection Over social Video LIve Streaming.

    Parameters
    ----------
    sequence_length:
        History length q of the CLSTM input sequences (9 in the paper).
    action_hidden / interaction_hidden:
        Hidden sizes of ``LSTM_I`` and ``LSTM_A``.
    coupling:
        ``"both"`` for the full CLSTM (default), ``"influencer_to_audience"``
        for CLSTM-S, ``"none"`` for two uncoupled LSTMs.
    training / detection:
        Configuration dataclasses; sensible paper defaults are used when
        omitted.
    seed:
        Model initialisation seed.
    """

    name = "CLSTM"

    def __init__(
        self,
        sequence_length: int = 9,
        action_hidden: int = 64,
        interaction_hidden: int = 32,
        coupling: CouplingMode = "both",
        training: TrainingConfig | None = None,
        detection: DetectionConfig | None = None,
        seed: int = 0,
    ) -> None:
        if sequence_length < 1:
            raise ValueError("sequence_length must be positive")
        self.sequence_length = sequence_length
        self.action_hidden = action_hidden
        self.interaction_hidden = interaction_hidden
        self.coupling = coupling
        self.training_config = training if training is not None else TrainingConfig()
        self.detection_config = detection if detection is not None else DetectionConfig()
        self.seed = seed

        self.model: Optional[CLSTM] = None
        self.detector: Optional[AnomalyDetector] = None
        self.history: Optional[TrainingHistory] = None
        if coupling == "influencer_to_audience":
            self.name = "CLSTM-S"

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(self, features: StreamFeatures) -> "AOVLIS":
        """Train the CLSTM on the normal segments of ``features``.

        Anomalous segments (per the simulator's ground truth) are excluded
        from training — the paper trains only on normal data — but their
        reconstruction error is tracked for the epoch-effect analysis.
        """
        self.model = CLSTM(
            action_dim=features.action_dim,
            interaction_dim=features.interaction_dim,
            action_hidden=self.action_hidden,
            interaction_hidden=self.interaction_hidden,
            coupling=self.coupling,
            seed=self.seed,
        )
        batch = features.sequences(self.sequence_length)
        labels = features.sequence_labels(self.sequence_length)
        normal = batch.subset(labels == 0)
        anomalous = batch.subset(labels == 1)
        if len(normal) == 0:
            raise ValueError("training stream contains no normal sequences")
        trainer = CLSTMTrainer(self.model, self.training_config)
        self.history = trainer.fit(normal, anomalous_sequences=anomalous if len(anomalous) else None)

        self.detector = AnomalyDetector(self.model, self.detection_config)
        self.detector.calibrate(normal)
        return self

    # ------------------------------------------------------------------ #
    # Scoring and detection
    # ------------------------------------------------------------------ #
    def score_stream(self, features: StreamFeatures) -> ScoredStream:
        """REIA scores for every scoreable segment of ``features``."""
        result = self.detect(features)
        return ScoredStream(segment_indices=result.segment_indices, scores=result.scores)

    def detect(self, features: StreamFeatures) -> DetectionResult:
        """Full detection result (scores, per-branch errors, decisions)."""
        self._require_fitted()
        batch = features.sequences(self.sequence_length)
        return self.detector.score(batch)

    @property
    def anomaly_threshold(self) -> Optional[float]:
        """The calibrated anomaly threshold T_a (None before fitting)."""
        return self.detector.anomaly_threshold if self.detector is not None else None

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _require_fitted(self) -> None:
        if self.model is None or self.detector is None:
            raise RuntimeError("AOVLIS must be fitted before scoring")
