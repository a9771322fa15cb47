"""Drive the serving runtime end-to-end with a scenario.

The leaderboard scores detectors offline (fit / score batches); this module
closes the loop with the *online* system instead: a scenario's test stream is
fed segment-by-segment through :meth:`repro.runtime.Runtime.ingest_many`,
with simulated time advanced on an injectable
:class:`~repro.serving.service.ManualClock` so the ``clock_skew`` scenario
can stall and skew the wall clock the micro-batch flush deadlines read.

``heavy_tail`` scenarios additionally fan the segments out across
``fan_in_streams`` concurrent stream ids with Pareto-weighted assignment, so
one hot stream dominates while the rest trickle — the shard-routing shape a
heavy-tailed platform produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..evaluation.harness import ExperimentScale
from ..features.pipeline import FeaturePipeline
from ..runtime import Runtime
from ..serving.service import ManualClock, StreamDetection
from ..streams.datasets import dataset_profile
from ..utils.config import ServingConfig, StreamProtocol
from .config import ScenarioConfig
from .generate import generate_scenario

__all__ = ["RuntimeDriveReport", "drive_runtime"]


@dataclass(frozen=True)
class RuntimeDriveReport:
    """What one scenario drive produced end-to-end."""

    scenario: str
    stream_ids: Tuple[str, ...]
    segments_ingested: int
    detections: Tuple[StreamDetection, ...]
    clock_end: float

    @property
    def num_detections(self) -> int:
        return len(self.detections)

    @property
    def num_flagged(self) -> int:
        return sum(1 for detection in self.detections if detection.is_anomaly)


def _fan_in_assignment(config: ScenarioConfig, num_segments: int) -> List[str]:
    """Deterministic Pareto-weighted stream-id per segment."""
    if config.fan_in_streams <= 1:
        return [config.name] * num_segments
    rng = np.random.default_rng([config.seed, 0xFA41])
    weights = 1.0 + rng.pareto(1.3, size=config.fan_in_streams)
    probabilities = weights / weights.sum()
    choices = rng.choice(config.fan_in_streams, size=num_segments, p=probabilities)
    return [f"{config.name}-{int(choice)}" for choice in choices]


def drive_runtime(
    config: ScenarioConfig,
    scale: Optional[ExperimentScale] = None,
    protocol: Optional[StreamProtocol] = None,
    enable_updates: bool = False,
) -> RuntimeDriveReport:
    """Fit a runtime on the scenario's clean stream and replay its test stream.

    Returns every detection the runtime produced, in production order.  The
    drive advances one simulated second per ingested tick and runs
    :meth:`Runtime.poll` after each, so wall-clock flush deadlines fire the
    way a live deployment's would; ``clock_skew`` scenarios stall the clock
    for ``clock_stall_seconds`` at the perturbation onset and then advance it
    at ``clock_rate`` seconds per tick.
    """
    scale = scale if scale is not None else ExperimentScale.tiny()
    protocol = protocol if protocol is not None else StreamProtocol()
    streams = generate_scenario(config, protocol=protocol)
    profile = dataset_profile(config.base_profile)
    pipeline = FeaturePipeline(
        action_dim=scale.action_dim,
        motion_channels=profile.motion_channels,
        embedding_dim=scale.interaction_embedding_dim,
        protocol=protocol,
        seed=scale.seed,
    )
    train_features = pipeline.extract(streams.train)
    test_features = pipeline.extract(streams.test)

    runtime_config = scale.runtime_config(
        train_features,
        serving=ServingConfig(max_batch_size=4, max_batch_delay_ms=2_000.0),
        enable_updates=enable_updates,
    )
    clock = ManualClock()
    runtime = Runtime.from_config(runtime_config, clock=clock).fit(train_features)

    assignment = _fan_in_assignment(config, test_features.num_segments)
    onset = config.onset_second
    stall_remaining = (
        config.clock_stall_seconds if config.kind == "clock_skew" else 0.0
    )
    detections: List[StreamDetection] = []
    try:
        for index in range(test_features.num_segments):
            detections.extend(
                runtime.ingest_many(
                    [
                        (
                            assignment[index],
                            test_features.action[index],
                            test_features.interaction[index],
                            float(test_features.normalised_interaction[index]),
                        )
                    ]
                )
            )
            if config.kind == "clock_skew" and index >= onset:
                if stall_remaining > 0:
                    # The wall clock is stalled: simulated time stands still,
                    # so no flush deadline can expire during the stall.
                    stall_remaining -= 1.0
                else:
                    clock.advance(config.clock_rate)
            else:
                clock.advance(1.0)
            detections.extend(runtime.poll())
        detections.extend(runtime.drain())
    finally:
        runtime.close()

    seen_ids: List[str] = []
    for stream_id in assignment:
        if stream_id not in seen_ids:
            seen_ids.append(stream_id)
    return RuntimeDriveReport(
        scenario=config.name,
        stream_ids=tuple(seen_ids),
        segments_ingested=test_features.num_segments,
        detections=tuple(detections),
        clock_end=clock(),
    )
