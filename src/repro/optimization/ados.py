"""ADaptive Optimisation Strategy (ADOS) for fast anomaly identification.

In the paper's cost model, computing the exact 400-dimensional JS
reconstruction error for every incoming segment is the dominant cost of online
detection (here it is not: see the package docstring).  Section V-B describes
an adaptive filter pipeline (Fig. 7):

1. a *trigger function* computed from the dominant dimension of the true and
   reconstructed action features decides whether the L1-based bounds are worth
   computing for this segment;
2. when they are, ``JS_max < T_n`` declares the segment normal and
   ``JS_min > T_a`` declares it anomalous — both without the exact JS;
3. segments the L1 bounds cannot decide fall through to the ADG group bound:
   ``RE^G_I <= T_n`` declares them normal;
4. only the remaining segments pay for the exact ``RE_I``.

The decision thresholds are derived from the detector's calibrated anomaly
threshold: ``T_a`` is the REIA threshold and ``T_n = 0.7 * T_a`` (paper
Section VI-A).  Because REIA mixes the action error with the (cheap, always
computed exactly) interaction error, the filters bound
``REIA <= omega * bound(RE_I) + (1 - omega) * RE_A`` — so a bound decision is
always consistent with what the exact score would have decided.

Trigger interpretation.  The paper defines ``tFunc(f, f_hat) = |f_i - f_hat_i|``
on the dominant dimension ``i`` and evaluates two thresholds, T1 in
[1.1, 2.0] and T2 in [0, 0.6] (Fig. 12a/b).  Since an absolute difference of
probabilities cannot exceed 1, T1 cannot apply to the same quantity as T2; we
follow the text's intent — use the cheap dominant-dimension comparison to
predict *which* bound can decide the segment and skip the ones that cannot:

* ``difference = |f_i - f_hat_i| <= T2`` → the reconstruction tracks the
  dominant action class, the segment is probably normal, and the *upper*
  bounds (``JS_max``, then ``RE^G_I``) are worth computing because they can
  confirm it without the exact JS;
* ``ratio = max(f_i, f_hat_i) / min(f_i, f_hat_i) >= T1`` → the dominant class
  changed drastically, the segment is probably anomalous, and only the *lower*
  bound ``JS_min`` can decide it cheaply;
* otherwise no bound is likely to be conclusive, so ADOS goes straight to the
  exact computation instead of paying for bounds that will not filter.

This preserves the shape of the T1/T2 sweeps (too-small or too-large values
waste work) while remaining well defined, and every decision remains identical
to the exact detector's decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.detector import AnomalyDetector
from ..core.scoring import (
    action_reconstruction_error,
    interaction_reconstruction_error,
)
from ..features.sequences import SequenceBatch
from ..utils.config import DetectionConfig
from .bounds import adg_upper_bounds, js_upper_bounds_l1

__all__ = ["STAGES", "FilteredDetectionResult", "ADOSFilter", "FilteredDetector"]

#: How a segment's decision was reached; stage codes index this tuple.
STAGES = ("l1_normal", "l1_anomaly", "adg_normal", "exact")
_L1_NORMAL, _L1_ANOMALY, _ADG_NORMAL, _EXACT = range(len(STAGES))


@dataclass(frozen=True)
class FilteredDetectionResult:
    """Result of filtered detection over a batch, one entry per segment."""

    segment_indices: np.ndarray
    decisions: np.ndarray
    """True where the segment is reported as an anomaly."""

    scores: np.ndarray
    """The REIA value: exact where the stage is ``exact``, otherwise the
    bound-based value that justified the decision."""

    stages: np.ndarray
    """Integer codes into :data:`STAGES`."""

    def __len__(self) -> int:
        return len(self.decisions)

    @property
    def anomalies(self) -> np.ndarray:
        return self.segment_indices[self.decisions]

    def stage_counts(self) -> Dict[str, int]:
        """Segments decided at each stage (stages that decided none are omitted)."""
        counts = np.bincount(self.stages, minlength=len(STAGES))
        return {stage: int(count) for stage, count in zip(STAGES, counts) if count}

    def filtering_power(self) -> float:
        """Fraction of segments decided without the exact RE_I computation."""
        if len(self) == 0:
            return 0.0
        return (len(self) - self.exact_computations()) / len(self)

    def exact_computations(self) -> int:
        return int(np.count_nonzero(self.stages == _EXACT))


class ADOSFilter:
    """Adaptive bound selection over a batch of segments.

    Parameters
    ----------
    normal_threshold / anomaly_threshold:
        ``T_n`` and ``T_a`` on the REIA score.
    omega:
        REIA action-branch weight.
    trigger_low (T1) / trigger_high (T2):
        ADOS trigger thresholds (see module docstring).
    adg_subspaces:
        Number of ADG value subspaces.
    sparse_groups:
        ``N_sg``, groups evaluated exactly inside the ADG bound.
    use_l1_bounds / use_adg_bound / adaptive:
        Strategy switches; disabling ``adaptive`` applies the L1 bounds to
        every segment (the naive ``JS_max + JS_min + RE^G_I`` combination the
        paper compares ADOS against), and disabling both bound families
        reproduces the "No Bound" reference.
    """

    def __init__(
        self,
        normal_threshold: float,
        anomaly_threshold: float,
        omega: float = 0.8,
        trigger_low: float = 1.6,
        trigger_high: float = 0.5,
        adg_subspaces: int = 20,
        sparse_groups: int = 10,
        use_l1_bounds: bool = True,
        use_adg_bound: bool = True,
        adaptive: bool = True,
    ) -> None:
        if anomaly_threshold <= 0:
            raise ValueError("anomaly_threshold must be positive")
        if normal_threshold > anomaly_threshold:
            raise ValueError("normal_threshold must not exceed anomaly_threshold")
        if not 0.0 <= omega <= 1.0:
            raise ValueError("omega must be in [0, 1]")
        self.normal_threshold = normal_threshold
        self.anomaly_threshold = anomaly_threshold
        self.omega = omega
        self.trigger_low = trigger_low
        self.trigger_high = trigger_high
        self.adg_subspaces = adg_subspaces
        self.sparse_groups = sparse_groups
        self.use_l1_bounds = use_l1_bounds
        self.use_adg_bound = use_adg_bound
        self.adaptive = adaptive

    _MODE_EXACT, _MODE_UPPER, _MODE_LOWER, _MODE_ALL = 0, 1, 2, 3

    def trigger_modes(self, features: np.ndarray, reconstructions: np.ndarray) -> np.ndarray:
        """The ADOS trigger: predict which bound family can decide each segment.

        Returns an int8 array of mode codes over the ``(N, d)`` batch:
        ``_MODE_UPPER`` (try the normal-confirming upper bounds),
        ``_MODE_LOWER`` (try the anomaly-confirming lower bound) or
        ``_MODE_EXACT`` (no bound is likely to be conclusive).  When
        ``adaptive`` is disabled every row is ``_MODE_ALL``: every bound is
        applied in sequence, which is the naive strategy the paper compares
        ADOS against.
        """
        features = np.asarray(features, dtype=np.float64)
        reconstructions = np.asarray(reconstructions, dtype=np.float64)
        count = features.shape[0]
        if not self.adaptive:
            return np.full(count, self._MODE_ALL, dtype=np.int8)
        rows = np.arange(count)
        dominant = np.argmax(features, axis=1)
        f_values = features[rows, dominant]
        r_values = reconstructions[rows, dominant]
        modes = np.full(count, self._MODE_EXACT, dtype=np.int8)
        upper = np.abs(f_values - r_values) <= self.trigger_high
        smaller = np.maximum(np.minimum(f_values, r_values), 1e-12)
        ratio = np.maximum(f_values, r_values) / smaller
        lower = ~upper & (ratio >= self.trigger_low)
        modes[upper] = self._MODE_UPPER
        modes[lower] = self._MODE_LOWER
        return modes

    def decide_batch(
        self,
        features: np.ndarray,
        reconstructions: np.ndarray,
        interaction_errors: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the ADOS cascade (Fig. 7) over a batch of segments.

        Returns ``(decisions, scores, stages)``, one entry per row (the
        fields of :class:`FilteredDetectionResult`).  The trigger, the L1
        bounds, the ADG group bound
        (:func:`~repro.optimization.bounds.adg_upper_bounds`) and the
        residual exact JS computations are each one NumPy batch operation
        over the rows still undecided.
        """
        features = np.asarray(features, dtype=np.float64)
        reconstructions = np.asarray(reconstructions, dtype=np.float64)
        interaction_parts = (1.0 - self.omega) * np.asarray(interaction_errors, dtype=np.float64)
        count = features.shape[0]

        modes = self.trigger_modes(features, reconstructions)
        try_upper = self.use_l1_bounds & np.isin(modes, (self._MODE_UPPER, self._MODE_ALL))
        try_lower = self.use_l1_bounds & np.isin(
            modes, (self._MODE_UPPER, self._MODE_LOWER, self._MODE_ALL)
        )
        try_adg = self.use_adg_bound & np.isin(modes, (self._MODE_UPPER, self._MODE_ALL))

        decided = np.zeros(count, dtype=bool)
        decisions = np.zeros(count, dtype=bool)
        scores = np.zeros(count, dtype=np.float64)
        stages = np.full(count, _EXACT, dtype=np.int8)

        need_l1 = try_upper | try_lower
        if need_l1.any():
            js_max = np.zeros(count)
            js_max[need_l1] = js_upper_bounds_l1(features[need_l1], reconstructions[need_l1])
            upper_scores = self.omega * js_max + interaction_parts
            normal_hits = try_upper & (upper_scores < self.normal_threshold)
            decided[normal_hits] = True
            stages[normal_hits] = _L1_NORMAL
            scores[normal_hits] = upper_scores[normal_hits]
            # JS_min = 0.125 * L1^2 = 0.5 * JS_max^2
            lower_scores = self.omega * (0.5 * js_max * js_max) + interaction_parts
            anomaly_hits = try_lower & ~decided & (lower_scores > self.anomaly_threshold)
            decided[anomaly_hits] = True
            decisions[anomaly_hits] = True
            stages[anomaly_hits] = _L1_ANOMALY
            scores[anomaly_hits] = lower_scores[anomaly_hits]

        adg_rows = np.nonzero(~decided & try_adg)[0]
        if adg_rows.size:
            re_max = adg_upper_bounds(
                features[adg_rows],
                reconstructions[adg_rows],
                n_subspaces=self.adg_subspaces,
                exact_groups=self.sparse_groups,
            )
            upper_adg = self.omega * re_max + interaction_parts[adg_rows]
            adg_hits = upper_adg <= self.normal_threshold
            hit_rows = adg_rows[adg_hits]
            decided[hit_rows] = True
            stages[hit_rows] = _ADG_NORMAL
            scores[hit_rows] = upper_adg[adg_hits]

        remaining = ~decided
        if remaining.any():
            exact = action_reconstruction_error(features[remaining], reconstructions[remaining])
            exact_scores = self.omega * exact + interaction_parts[remaining]
            scores[remaining] = exact_scores
            decisions[remaining] = exact_scores > self.anomaly_threshold

        return decisions, scores, stages


class FilteredDetector:
    """CLSTM-ADOS: an :class:`AnomalyDetector` accelerated by bound filtering.

    The wrapped detector must already be calibrated (so ``T_a`` and ``T_n``
    exist).  Detection decisions agree with the exact detector's thresholded
    decisions; only the amount of exact JS computation differs.
    """

    def __init__(
        self,
        detector: AnomalyDetector,
        config: Optional[DetectionConfig] = None,
        use_l1_bounds: bool = True,
        use_adg_bound: bool = True,
        adaptive: bool = True,
    ) -> None:
        if detector.anomaly_threshold is None:
            raise ValueError("the wrapped detector must be calibrated first")
        self.detector = detector
        self.config = config if config is not None else detector.config
        if detector.config.top_k is not None or self.config.top_k is not None:
            raise ValueError(
                "DetectionConfig.top_k must be unset: the filter decides each segment "
                "against T_a, and a bound-decided segment has no exact score to rank"
            )
        self.filter = ADOSFilter(
            normal_threshold=detector.normal_threshold,
            anomaly_threshold=detector.anomaly_threshold,
            omega=self.config.omega,
            trigger_low=self.config.trigger_low,
            trigger_high=self.config.trigger_high,
            adg_subspaces=self.config.adg_subspaces,
            sparse_groups=self.config.sparse_groups,
            use_l1_bounds=use_l1_bounds,
            use_adg_bound=use_adg_bound,
            adaptive=adaptive,
        )

    def reconstruct(self, batch: SequenceBatch) -> Tuple[np.ndarray, np.ndarray]:
        """The CLSTM forward every strategy pays before the cascade.

        Returns ``(predicted_action, interaction_errors)``: the reconstruction
        the bounds are taken against and the exact (cheap) ``RE_A``.
        """
        predicted_action, predicted_interaction = self.detector.model.predict(
            batch.action_sequences, batch.interaction_sequences
        )
        return predicted_action, interaction_reconstruction_error(
            batch.interaction_targets, predicted_interaction
        )

    def detect(self, batch: SequenceBatch) -> FilteredDetectionResult:
        """Filtered detection over a sequence batch (an empty one included)."""
        predicted_action, interaction_errors = self.reconstruct(batch)
        decisions, scores, stages = self.filter.decide_batch(
            batch.action_targets, predicted_action, interaction_errors
        )
        return FilteredDetectionResult(batch.target_indices, decisions, scores, stages)
