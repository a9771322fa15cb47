"""Shared deterministic workload for the crash-recovery tests.

Both the in-process property tests (``test_durability_recovery.py``) and the
subprocess SIGKILL crash-injection test run exactly this workload: a small
durable runtime fed a fixed, seeded record sequence whose drift loop
publishes at least one new model version.  Determinism is the point — the
uninterrupted run is the oracle every crashed-and-recovered run must match
bitwise.

Run as a script it becomes the crash *victim*::

    python tests/durability_workload.py <durability_root> <records_before_kill>

fits, checkpoints, ingests the first K records and then SIGKILLs itself —
no drain, no close, the WAL segment left open — which is the harshest
process death a record boundary can see.
"""

from __future__ import annotations

import os
import signal
import sys

import numpy as np

from repro import Runtime, RuntimeConfig
from repro.features.pipeline import FeaturePipeline
from repro.streams.generator import SocialStreamGenerator, StreamProfile
from repro.utils.config import (
    DurabilityConfig,
    ExecutorConfig,
    ModelConfig,
    ServingConfig,
    TrainingConfig,
    UpdateConfig,
)

SEQUENCE_LENGTH = 5
NUM_STREAMS = 2
# The two streams land on the two shards, one each, and each shard's drift
# monitor fills its 12-sample buffers from its own stream alone: 30 segments
# (26 scored windows per shard) are what it takes for a publish.
SEGMENTS_PER_STREAM = 30
TOTAL_RECORDS = NUM_STREAMS * SEGMENTS_PER_STREAM

_FEATURES = None


def training_features():
    """Deterministic training features (same profile as conftest's tiny set).

    Cached: the extraction is deterministic, and the feature dims feed both
    the model config and the live record generator.
    """
    global _FEATURES
    if _FEATURES is not None:
        return _FEATURES
    profile = StreamProfile(
        name="DUR",
        motion_channels=8,
        normal_states=3,
        anomaly_rate=0.02,
        anomaly_duration=6.0,
        switch_probability=0.02,
        audience_reactivity=0.4,
        base_comment_rate=2.0,
        burst_gain=8.0,
        reaction_delay=1,
        interactivity=1.0,
        anomaly_visual_shift=0.2,
        distractor_rate=0.02,
    )
    generator = SocialStreamGenerator(profile, seed=11)
    pipeline = FeaturePipeline(
        action_dim=20, motion_channels=8, embedding_dim=6, seed=3
    )
    _FEATURES = pipeline.extract(generator.generate(150.0, name="dur-train"))
    return _FEATURES


def build_config(root, **durability_overrides) -> RuntimeConfig:
    """The deployment description every side of a crash test shares.

    Serial executor: the exhaustive boundary sweeps compare bitwise, so the
    reference (deterministic) execution mode is pinned explicitly.
    """
    durability = dict(
        directory=str(root),
        checkpoint_every_records=10,
        full_every=3,
    )
    durability.update(durability_overrides)
    features = training_features()
    return RuntimeConfig(
        model=ModelConfig(
            action_dim=features.action_dim,
            interaction_dim=features.interaction_dim,
            action_hidden=12,
            interaction_hidden=6,
        ),
        training=TrainingConfig(epochs=2, batch_size=16, checkpoint_every=1, seed=0),
        serving=ServingConfig(max_batch_size=6, num_shards=2),
        # Drift fires readily on the random live features (mean-cosine far
        # from 1), so the oracle run publishes new versions mid-workload —
        # recovery must reproduce those swaps, not just detections.
        update=UpdateConfig(buffer_size=12, drift_threshold=0.9999, update_epochs=1),
        executor=ExecutorConfig(mode="serial"),
        sequence_length=SEQUENCE_LENGTH,
        durability=DurabilityConfig(**durability),
    )


def workload_records():
    """The fixed record sequence: ``(stream_id, action, interaction, level)``.

    Round-robin across streams — the deterministic submission order a replay
    driver would use — with seeded random features.
    """
    features = training_features()
    rng = np.random.default_rng(1234)
    streams = {}
    for index in range(NUM_STREAMS):
        streams[f"cam-{index}"] = (
            rng.random((SEGMENTS_PER_STREAM, features.action_dim)),
            rng.random((SEGMENTS_PER_STREAM, features.interaction_dim)),
            rng.random(SEGMENTS_PER_STREAM),
        )
    records = []
    for position in range(SEGMENTS_PER_STREAM):
        for name, (action, interaction, levels) in streams.items():
            records.append(
                (name, action[position], interaction[position], float(levels[position]))
            )
    return records


def start_runtime(root) -> Runtime:
    """Fit and take the initial (full) store checkpoint."""
    runtime = Runtime.from_config(build_config(root)).fit(training_features())
    runtime.checkpoint()
    return runtime


def run_oracle(root):
    """The uninterrupted run: feed everything, drain, report the outcome."""
    runtime = start_runtime(root)
    for record in workload_records():
        runtime.ingest(*record)
    runtime.drain()
    outcome = snapshot_outcome(runtime)
    runtime.close()
    return outcome


def snapshot_outcome(runtime):
    """Everything the crash-recovery contract compares, bitwise."""
    return {
        "model_version": runtime.model_version,
        "anomaly_threshold": runtime.anomaly_threshold,
        "update_reports": len(runtime.update_reports),
        "detections": {
            f"cam-{index}": [
                (d.segment_index, d.score, d.is_anomaly, d.model_version)
                for d in runtime.detections(f"cam-{index}")
            ]
            for index in range(NUM_STREAMS)
        },
    }


def main(argv) -> int:
    root, kill_after = argv[1], int(argv[2])
    runtime = start_runtime(root)
    for record in workload_records()[:kill_after]:
        runtime.ingest(*record)
    # The harshest death a record boundary can see: no drain, no close, the
    # WAL segment still open.  SIGKILL cannot be caught or cleaned up after.
    os.kill(os.getpid(), signal.SIGKILL)
    return 1  # unreachable


if __name__ == "__main__":
    sys.exit(main(sys.argv))
