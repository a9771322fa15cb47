"""Anomaly identification on top of a trained CLSTM.

The detector turns CLSTM predictions into REIA anomaly scores (Eq. 16),
calibrates the anomaly threshold ``T_a`` from the scores of the (normal)
training data, and labels or ranks incoming segments.  It is the exact,
unfiltered scorer, and the only one that is served; the paper's Section V
filter (:class:`repro.optimization.ados.FilteredDetector`, offline) wraps it
and must reach the same thresholded decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..features.sequences import SequenceBatch
from ..utils.config import DetectionConfig
from .clstm import CLSTM
from .scoring import (
    action_reconstruction_error,
    interaction_reconstruction_error,
)

__all__ = ["DetectionResult", "AnomalyDetector"]

#: Quantile of the presumed-normal scores that becomes ``T_a`` — one rule for
#: the fit-time calibration and for every update-time re-calibration.
CALIBRATION_QUANTILE = 0.98


@dataclass(frozen=True)
class DetectionResult:
    """Scores and decisions for a batch of segments.

    Attributes
    ----------
    segment_indices:
        Stream indices of the scored segments.
    scores:
        REIA anomaly scores.
    action_errors / interaction_errors:
        The two components of the score (RE_I and RE_A).
    is_anomaly:
        Boolean decisions under the calibrated threshold (or top-k rule).
    threshold:
        The threshold used for the decisions (NaN when top-k ranking is used).
    """

    segment_indices: np.ndarray
    scores: np.ndarray
    action_errors: np.ndarray
    interaction_errors: np.ndarray
    is_anomaly: np.ndarray
    threshold: float

    def top(self, k: int) -> np.ndarray:
        """Indices (into the stream) of the k highest-scoring segments."""
        if k <= 0:
            raise ValueError("k must be positive")
        order = np.argsort(self.scores)[::-1][:k]
        return self.segment_indices[order]

    def __len__(self) -> int:
        return len(self.scores)


class AnomalyDetector:
    """REIA-based anomaly detector around a trained CLSTM."""

    def __init__(
        self,
        model: CLSTM,
        config: DetectionConfig | None = None,
        *,
        threshold: Optional[float] = None,
    ) -> None:
        self.model = model
        self.config = config if config is not None else DetectionConfig()
        # An explicit construction-time threshold wins over the config's: the
        # registry publishes detectors already bound to their calibrated T_a.
        self.anomaly_threshold: Optional[float] = (
            float(threshold) if threshold is not None else self.config.threshold
        )
        self._calibration_scores: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def score(self, batch: SequenceBatch, precision: Optional[str] = None) -> DetectionResult:
        """Score every sequence in ``batch`` and apply the current threshold."""
        return self.score_arrays(
            batch.action_sequences,
            batch.interaction_sequences,
            batch.action_targets,
            batch.interaction_targets,
            batch.target_indices,
            precision=precision,
        )

    def score_arrays(
        self,
        action_sequences: np.ndarray,
        interaction_sequences: np.ndarray,
        action_targets: np.ndarray,
        interaction_targets: np.ndarray,
        segment_indices: np.ndarray,
        precision: Optional[str] = None,
    ) -> DetectionResult:
        """Score raw sequence arrays in one fused batched forward pass.

        This is the array-level twin of :meth:`score`, used by callers that
        assemble batches themselves (the micro-batching scoring service
        coalesces sequences from many concurrent streams into a single call).
        ``precision`` overrides the model's compute precision for the forward
        (``None`` defers to the model; threshold calibration always pins
        ``"float64"``).
        """
        if len(action_sequences) == 0:
            empty = np.zeros(0)
            return DetectionResult(
                segment_indices=np.zeros(0, dtype=np.int64),
                scores=empty,
                action_errors=empty,
                interaction_errors=empty,
                is_anomaly=np.zeros(0, dtype=bool),
                threshold=self.anomaly_threshold if self.anomaly_threshold is not None else float("nan"),
            )
        predicted_action, predicted_interaction = self.model.predict(
            action_sequences, interaction_sequences, precision=precision
        )
        return self.score_predictions(
            segment_indices,
            action_targets,
            interaction_targets,
            predicted_action,
            predicted_interaction,
        )

    def score_predictions(
        self,
        segment_indices: np.ndarray,
        action_targets: np.ndarray,
        interaction_targets: np.ndarray,
        predicted_action: np.ndarray,
        predicted_interaction: np.ndarray,
    ) -> DetectionResult:
        """Score precomputed model predictions and apply the threshold.

        Single home of the REIA combination (Eq. 16) on the detection path:
        used by :meth:`score_arrays` after its own forward pass, and by the
        serving scheduler, which shares one ``predict_full`` pass between
        scoring and drift detection.
        """
        action_errors = action_reconstruction_error(action_targets, predicted_action)
        interaction_errors = interaction_reconstruction_error(
            interaction_targets, predicted_interaction
        )
        # REIA (Eq. 16) from the errors already in hand — calling reia_score
        # here would recompute both divergences, doubling the dominant cost.
        omega = self.config.omega
        scores = omega * action_errors + (1.0 - omega) * interaction_errors
        return self._decide(segment_indices, scores, action_errors, interaction_errors)

    def score_values(self, batch: SequenceBatch) -> np.ndarray:
        """Convenience: only the REIA scores of ``batch``."""
        return self.score(batch).scores

    # ------------------------------------------------------------------ #
    # Threshold calibration
    # ------------------------------------------------------------------ #
    def calibrate(self, batch: SequenceBatch, quantile: float = CALIBRATION_QUANTILE) -> float:
        """Calibrate the anomaly threshold ``T_a`` from (normal) training data.

        The paper selects the optimal threshold per dataset by sweeping
        ``tau`` in (0, 1); operationally we set it to a high quantile of the
        training scores, which is the standard reconstruction-error practice
        and gives the same detection behaviour on the simulated data.  The
        explicit ``DetectionConfig.threshold`` always wins when provided.
        """
        return self._derive_threshold(batch, quantile, honour_config=True)

    def recalibrate(self, batch: SequenceBatch, quantile: float = CALIBRATION_QUANTILE) -> float:
        """Re-derive ``T_a`` from fresh presumed-normal data.

        This is the online-maintenance twin of :meth:`calibrate`: after an
        incremental model update the old threshold was calibrated against the
        *old* model's score distribution, so the update plane re-scores the
        buffered presumed-normal segments through the updated model and takes
        the same high quantile.  Unlike :meth:`calibrate`, an explicit
        ``DetectionConfig.threshold`` does **not** override the result — the
        caller decides whether a pinned threshold stays authoritative.
        """
        return self._derive_threshold(batch, quantile, honour_config=False)

    def _derive_threshold(
        self, batch: SequenceBatch, quantile: float, honour_config: bool
    ) -> float:
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        # Threshold calibration is always full precision: T_a anchors every
        # downstream decision, so a reduced-precision serving configuration
        # must not perturb it (the float32 accuracy contract is defined
        # *relative to* the float64-calibrated threshold).
        result = self.score(batch, precision="float64")
        if len(result) == 0:
            raise ValueError("cannot calibrate on an empty batch")
        self._calibration_scores = result.scores
        if honour_config and self.config.threshold is not None:
            self.anomaly_threshold = self.config.threshold
        else:
            self.anomaly_threshold = float(np.quantile(result.scores, quantile))
        return self.anomaly_threshold

    @property
    def normal_threshold(self) -> Optional[float]:
        """``T_n = normal_threshold_ratio * T_a`` used by the bound filters."""
        if self.anomaly_threshold is None:
            return None
        return self.config.normal_threshold_ratio * self.anomaly_threshold

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _decide(
        self,
        segment_indices: np.ndarray,
        scores: np.ndarray,
        action_errors: np.ndarray,
        interaction_errors: np.ndarray,
    ) -> DetectionResult:
        if self.config.top_k is not None:
            decisions = np.zeros(len(scores), dtype=bool)
            if len(scores) > 0:
                order = np.argsort(scores)[::-1][: self.config.top_k]
                decisions[order] = True
            threshold = float("nan")
        else:
            threshold = self.anomaly_threshold
            if threshold is None:
                # Without calibration fall back to a robust statistic of the
                # scored batch itself (median + 3 * MAD).
                median = float(np.median(scores))
                mad = float(np.median(np.abs(scores - median)))
                threshold = median + 3.0 * 1.4826 * mad
            decisions = scores > threshold
        return DetectionResult(
            segment_indices=np.asarray(segment_indices, dtype=np.int64),
            scores=scores,
            action_errors=action_errors,
            interaction_errors=interaction_errors,
            is_anomaly=decisions,
            threshold=float(threshold) if threshold is not None else float("nan"),
        )
