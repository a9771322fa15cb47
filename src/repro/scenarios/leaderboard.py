"""Leaderboard harness sweeping detector variants across the scenario suite.

:func:`run_scenario_suite` evaluates every requested detector variant on each
scenario through :func:`repro.evaluation.evaluate` — fit on the clean
training stream, score the perturbed test stream — and aggregates three
effectiveness metrics per (scenario, variant) cell:

* **AUROC** — the paper's headline effectiveness metric;
* **TPR@FPR** — the point-wise operating comparison at a fixed false-positive
  budget (default 10%);
* **detection latency** — mean number of segments between the start of a
  contiguous anomalous episode and the first segment whose score exceeds the
  variant's threshold (the one threshold rule, which lives in
  :func:`~repro.evaluation.evaluate`); an undetected episode contributes its
  full length.

Variants are ranked per scenario by AUROC and overall by mean rank; the
result renders as text tables (:meth:`ScenarioLeaderboard.render`) and
serialises to the ``BENCH_scenarios.json`` artifact shape
(:meth:`ScenarioLeaderboard.to_dict`).

The harness also reports, per scenario, the Eq. 17 drift statistic against
its centered alternative (see
:func:`repro.core.update.hidden_set_similarity`): the mean-cosine statistic
saturates near 1.0 on stationary *and* drifted streams, while the centered
statistic stays high only when the post-onset hidden states are consistent
with the training distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.update import hidden_set_similarity
from ..evaluation.harness import ExperimentHarness, ExperimentScale, PreparedDataset, evaluate, prepare
from ..evaluation.reporting import format_table
from ..utils.config import StreamProtocol
from .config import ScenarioConfig, standard_suite
from .generate import ScenarioStreams, generate_scenario

__all__ = [
    "ScenarioCell",
    "DriftComparison",
    "ScenarioLeaderboard",
    "run_scenario_suite",
]


@dataclass(frozen=True)
class ScenarioCell:
    """Metrics of one detector variant on one scenario."""

    scenario: str
    variant: str
    auroc: float
    tpr_at_fpr: float
    detection_latency: float
    anomaly_fraction: float
    rank: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "variant": self.variant,
            "auroc": self.auroc,
            "tpr_at_fpr": self.tpr_at_fpr,
            "detection_latency": self.detection_latency,
            "anomaly_fraction": self.anomaly_fraction,
            "rank": self.rank,
        }


@dataclass(frozen=True)
class DriftComparison:
    """Eq. 17 cosine vs centered drift statistic on one scenario."""

    scenario: str
    cosine: float
    centered: float

    def to_dict(self) -> Dict[str, float | str]:
        return {"scenario": self.scenario, "cosine": self.cosine, "centered": self.centered}


@dataclass(frozen=True)
class ScenarioLeaderboard:
    """Aggregated results of one scenario-suite sweep."""

    fpr_target: float
    cells: Tuple[ScenarioCell, ...]
    overall: Tuple[Tuple[str, float, int], ...]
    """``(variant, mean_rank, wins)`` sorted best-first."""

    drift: Tuple[DriftComparison, ...] = ()

    def scenario_names(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.scenario not in seen:
                seen.append(cell.scenario)
        return tuple(seen)

    def variant_names(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.variant not in seen:
                seen.append(cell.variant)
        return tuple(seen)

    def cell(self, scenario: str, variant: str) -> ScenarioCell:
        for candidate in self.cells:
            if candidate.scenario == scenario and candidate.variant == variant:
                return candidate
        raise KeyError(f"no cell for ({scenario!r}, {variant!r})")

    def to_dict(self) -> Dict[str, object]:
        """The ``BENCH_scenarios.json`` artifact shape."""
        return {
            "fpr_target": self.fpr_target,
            "scenarios": list(self.scenario_names()),
            "variants": list(self.variant_names()),
            "cells": [cell.to_dict() for cell in self.cells],
            "overall": [
                {"variant": variant, "mean_rank": mean_rank, "wins": wins}
                for variant, mean_rank, wins in self.overall
            ],
            "drift": [comparison.to_dict() for comparison in self.drift],
        }

    def render(self) -> str:
        """Text rendering of the per-cell, overall and drift tables."""

        def fmt(value: float, decimals: int = 3) -> str:
            return "n/a" if value != value else f"{value:.{decimals}f}"

        cell_rows = [
            [
                cell.scenario,
                cell.variant,
                fmt(cell.auroc),
                fmt(cell.tpr_at_fpr),
                fmt(cell.detection_latency, 1),
                cell.rank,
            ]
            for cell in self.cells
        ]
        parts = [
            format_table(
                ["scenario", "variant", "auroc", f"tpr@{self.fpr_target:g}", "latency", "rank"],
                cell_rows,
                title="Scenario leaderboard (per-cell metrics)",
            ),
            format_table(
                ["variant", "mean_rank", "wins"],
                [[v, f"{r:.2f}", w] for v, r, w in self.overall],
                title="Overall ranking (mean per-scenario AUROC rank)",
            ),
        ]
        if self.drift:
            parts.append(
                format_table(
                    ["scenario", "cosine (Eq. 17)", "centered"],
                    [[d.scenario, fmt(d.cosine), fmt(d.centered)] for d in self.drift],
                    title="Drift statistic: post-onset buffer vs training hidden states",
                )
            )
        return "\n\n".join(parts)


def _drift_comparison(
    clstm,
    dataset: PreparedDataset,
    streams: ScenarioStreams,
    scale: ExperimentScale,
) -> Optional[DriftComparison]:
    """Cosine vs centered similarity of post-onset states to training states."""
    sequence_length = scale.sequence_length
    test_features = dataset.test
    train_batch = dataset.train.sequences(sequence_length)
    onset_index = int(streams.onset_second)
    latest_start = test_features.num_segments - (sequence_length + 2)
    if latest_start <= 0:
        return None
    tail = test_features.subset(min(onset_index, latest_start), test_features.num_segments)
    tail_batch = tail.sequences(sequence_length)
    if len(train_batch) == 0 or len(tail_batch) == 0:
        return None
    model = clstm.model
    historical = model.hidden_states(
        train_batch.action_sequences, train_batch.interaction_sequences
    )
    incoming = model.hidden_states(
        tail_batch.action_sequences, tail_batch.interaction_sequences
    )
    return DriftComparison(
        scenario=streams.config.name,
        cosine=hidden_set_similarity(historical, incoming, statistic="cosine"),
        centered=hidden_set_similarity(historical, incoming, statistic="centered"),
    )


def run_scenario_suite(
    scenarios: Optional[Sequence[ScenarioConfig]] = None,
    scale: Optional[ExperimentScale] = None,
    variant_names: Optional[Sequence[str]] = None,
    fpr_target: float = 0.1,
    protocol: Optional[StreamProtocol] = None,
) -> ScenarioLeaderboard:
    """Sweep detector variants over the scenario suite and rank them.

    Parameters
    ----------
    scenarios:
        Scenario configurations; defaults to :func:`standard_suite` sized to
        the scale's train/test durations.
    scale:
        Experiment scale (dimensions, durations, epochs); defaults to
        :meth:`ExperimentScale.tiny`.
    variant_names:
        Subset of the detector suite to sweep (default: every variant —
        LTR, VEC, LSTM, RTFM, CLSTM-S, CLSTM).
    fpr_target:
        False-positive budget of the TPR@FPR metric.
    """
    scale = scale if scale is not None else ExperimentScale.tiny()
    protocol = protocol if protocol is not None else StreamProtocol()
    if scenarios is None:
        scenarios = standard_suite(
            train_seconds=scale.train_seconds,
            test_seconds=scale.test_seconds,
            seed=scale.seed,
        )
    if not 0.0 <= fpr_target <= 1.0:
        raise ValueError(f"fpr_target must be in [0, 1], got {fpr_target}")

    harness = ExperimentHarness(scale, protocol)
    cells: List[ScenarioCell] = []
    drift: List[DriftComparison] = []
    for scenario in scenarios:
        streams = generate_scenario(scenario, protocol=protocol)
        dataset = prepare(streams.spec, scale, protocol)
        anomaly_fraction = float(np.mean(dataset.test.labels))

        suite = harness.detector_suite()
        if variant_names is not None:
            suite = {name: suite[name] for name in variant_names}

        scenario_cells: List[ScenarioCell] = []
        for variant_name, detector in suite.items():
            record = evaluate(detector, dataset)
            if record.auroc == record.auroc:
                tpr = record.roc().tpr_at_fpr(fpr_target)
            else:
                tpr = float("nan")
            scenario_cells.append(
                ScenarioCell(
                    scenario=scenario.name,
                    variant=variant_name,
                    auroc=float(record.auroc),
                    tpr_at_fpr=float(tpr),
                    detection_latency=record.latency(),
                    anomaly_fraction=anomaly_fraction,
                )
            )
        scenario_cells = _ranked(scenario_cells)
        cells.extend(scenario_cells)

        clstm = suite.get("CLSTM")
        if clstm is not None:
            comparison = _drift_comparison(clstm, dataset, streams, scale)
            if comparison is not None:
                drift.append(comparison)

    return ScenarioLeaderboard(
        fpr_target=fpr_target,
        cells=tuple(cells),
        overall=_overall_ranking(cells),
        drift=tuple(drift),
    )


def _ranked(cells: List[ScenarioCell]) -> List[ScenarioCell]:
    """Assign per-scenario ranks by AUROC (descending, NaN last)."""

    def sort_key(cell: ScenarioCell) -> Tuple[int, float, str]:
        is_nan = 1 if cell.auroc != cell.auroc else 0
        return (is_nan, -cell.auroc if not is_nan else 0.0, cell.variant)

    ordered = sorted(cells, key=sort_key)
    ranked = {
        id(cell): position + 1 for position, cell in enumerate(ordered)
    }
    return [
        ScenarioCell(
            scenario=cell.scenario,
            variant=cell.variant,
            auroc=cell.auroc,
            tpr_at_fpr=cell.tpr_at_fpr,
            detection_latency=cell.detection_latency,
            anomaly_fraction=cell.anomaly_fraction,
            rank=ranked[id(cell)],
        )
        for cell in cells
    ]


def _overall_ranking(cells: Sequence[ScenarioCell]) -> Tuple[Tuple[str, float, int], ...]:
    """Mean per-scenario rank and number of scenario wins, best first."""
    ranks: Dict[str, List[int]] = {}
    for cell in cells:
        ranks.setdefault(cell.variant, []).append(cell.rank)
    rows = [
        (variant, float(np.mean(variant_ranks)), sum(1 for r in variant_ranks if r == 1))
        for variant, variant_ranks in ranks.items()
    ]
    rows.sort(key=lambda row: (row[1], -row[2], row[0]))
    return tuple(rows)
