"""Filtering-power evaluation of the individual bounds and their combinations.

The paper introduces the *filtering power* metric
``fp = filtered segments / total segments`` and compares (Fig. 11a) the power
of ``JS_max``, ``JS_min``, ``RE^G_I``, the L1 pair, the full combination and
ADOS.  This module computes those numbers for a scored batch so the Fig. 11a
benchmark (and the efficiency analysis) can reproduce the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from ..core.detector import AnomalyDetector
from ..features.sequences import SequenceBatch
from .ados import STAGES, FilteredDetector
from .bounds import adg_upper_bounds, js_lower_bounds_l1, js_upper_bounds_l1

__all__ = ["FilteringPowerReport", "filtering_power", "evaluate_filtering_power"]


@dataclass(frozen=True)
class FilteringPowerReport:
    """Filtering power of every strategy over one batch (Fig. 11a)."""

    total_segments: int
    powers: Dict[str, float]

    def __getitem__(self, strategy: str) -> float:
        return self.powers[strategy]

    def as_dict(self) -> Dict[str, float]:
        return dict(self.powers)


def filtering_power(filtered: int, total: int) -> float:
    """``fp = filtered / total`` (0 when the batch is empty)."""
    if total <= 0:
        return 0.0
    if filtered < 0 or filtered > total:
        raise ValueError("filtered must be between 0 and total")
    return filtered / total


def evaluate_filtering_power(
    detector: AnomalyDetector,
    batch: SequenceBatch,
    sparse_groups: Optional[int] = None,
) -> FilteringPowerReport:
    """Measure the filtering power of each bound strategy on ``batch``.

    A segment counts as *filtered* by a strategy when that strategy alone can
    decide it (declare it normal via an upper bound below ``T_n`` or anomalous
    via a lower bound above ``T_a``) without computing the exact JS
    reconstruction error.
    """
    config = detector.config
    if sparse_groups is not None:
        config = replace(config, sparse_groups=sparse_groups)
    filtered = FilteredDetector(detector, config=config)  # refuses an uncalibrated detector
    total = len(batch)
    if total == 0:
        return FilteringPowerReport(total_segments=0, powers={})

    features = batch.action_targets
    reconstructions, interaction_errors = filtered.reconstruct(batch)
    omega = config.omega
    interaction_parts = (1.0 - omega) * interaction_errors

    def reia(action_bounds: np.ndarray) -> np.ndarray:
        return omega * action_bounds + interaction_parts

    upper = reia(js_upper_bounds_l1(features, reconstructions)) < detector.normal_threshold
    lower = reia(js_lower_bounds_l1(features, reconstructions)) > detector.anomaly_threshold
    adg = reia(
        adg_upper_bounds(
            features,
            reconstructions,
            n_subspaces=config.adg_subspaces,
            exact_groups=config.sparse_groups,
        )
    ) <= detector.normal_threshold
    _, _, stages = filtered.filter.decide_batch(features, reconstructions, interaction_errors)
    filters = {
        "JS_max": upper,
        "JS_min": lower,
        "RE_G": adg,
        "JS_max+JS_min": upper | lower,
        "JS_max+JS_min+RE_G": upper | lower | adg,
        "ADOS": stages != STAGES.index("exact"),
    }
    powers = {
        name: filtering_power(int(np.count_nonzero(mask)), total) for name, mask in filters.items()
    }
    return FilteringPowerReport(total_segments=total, powers=powers)
