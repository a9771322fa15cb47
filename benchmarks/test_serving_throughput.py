"""Serving throughput — micro-batched fused scoring vs the per-segment loop,
and the sharded multi-model runtime vs unrouted per-stream serving.

The seed code served online detection the only way it could: one incoming
segment at a time through the per-timestep autograd forward.  The serving
subsystem (``repro.serving``) replaces that with cross-stream micro-batching
over the fused, tape-free batched forward (``repro.nn.fused``).

Two gates live here:

* ``test_serving_throughput`` replays several concurrent simulated streams
  through a :class:`~repro.serving.ScoringService` and compares
  segments/second against the per-segment reference path (single-sequence
  batches scored through the per-timestep ``Tensor`` forward, i.e. the seed
  behaviour).  The acceptance bar is a ≥5x throughput improvement; locally
  the gap is far larger.
* ``test_sharded_serving_throughput`` runs the multi-model reference
  workload (two platforms, each with its own model, several live streams
  per platform) under a wall-clock flush deadline — the latency budget a
  real deployment must honour.  The reference deployment has no routing
  tier: every stream gets its own scoring service, so batches can only fill
  from one stream's fan-in before the deadline forces a flush.  The
  :class:`~repro.serving.ShardedScoringService` routes all streams of one
  model onto one shard, coalescing them into full micro-batches within the
  *same* deadline.  The gate requires the sharded runtime to score ≥ 2x the
  segments/second of the unrouted deployment.
"""

from __future__ import annotations

import time

import numpy as np

import common
from repro import nn
from repro.core.model import AOVLIS
from repro.core.scoring import reia_score
from repro.serving import (
    ManualClock,
    ModelRegistry,
    ScoringService,
    ShardedScoringService,
    replay_streams,
)
from repro.streams.datasets import dataset_profile
from repro.streams.generator import SocialStreamGenerator
from repro.utils.config import ServingConfig, TrainingConfig, UpdateConfig

SEQUENCE_LENGTH = 9
REFERENCE_SEGMENTS = 120  # per-segment path is slow; extrapolate from a sample
REQUIRED_SPEEDUP = 5.0
SHARDED_REQUIRED_SPEEDUP = 2.0
STREAMS_PER_PLATFORM = 6
MAX_BATCH_DELAY_MS = 100.0
INTERARRIVAL_SECONDS = 0.06  # simulated: one segment per stream per 60 ms


def run_experiment():
    model = common.trained_clstm("INF")
    detector = model.detector
    prepared = common.dataset("INF")
    pipeline = prepared.pipeline

    # Several independent live streams from the same platform profile.
    generator = SocialStreamGenerator(
        dataset_profile("INF"), seed=common.harness().scale.seed
    )
    streams = {
        stream.name: pipeline.extract(stream)
        for stream in generator.generate_many(count=4, duration_seconds=120.0)
    }
    total_segments = sum(f.num_segments - SEQUENCE_LENGTH for f in streams.values())

    # ------------------------------------------------------------------ #
    # Reference: per-segment scoring through the per-timestep tape path.
    # ------------------------------------------------------------------ #
    batch = prepared.test.sequences(SEQUENCE_LENGTH)
    sample = min(REFERENCE_SEGMENTS, len(batch))
    omega = detector.config.omega
    start = time.perf_counter()
    for position in range(sample):
        with nn.no_grad():
            output = detector.model(
                batch.action_sequences[position : position + 1],
                batch.interaction_sequences[position : position + 1],
            )
        reia_score(
            batch.action_targets[position : position + 1],
            output.action_reconstruction.numpy(),
            batch.interaction_targets[position : position + 1],
            output.interaction_reconstruction.numpy(),
            omega=omega,
        )
    per_segment_seconds = (time.perf_counter() - start) / sample
    reference_throughput = 1.0 / per_segment_seconds

    # ------------------------------------------------------------------ #
    # Micro-batched fused serving across concurrent streams.
    # ------------------------------------------------------------------ #
    service = ScoringService(
        detector,
        sequence_length=SEQUENCE_LENGTH,
        max_batch_size=64,
        update_config=UpdateConfig(buffer_size=200, drift_threshold=0.4),
    )
    detections = replay_streams(service, streams)
    serving_throughput = service.stats.throughput()
    speedup = serving_throughput / reference_throughput

    common.table(
        "serving_throughput",
        ["path", "segments/s", "ms/segment"],
        [
            ["per-segment (tape)", f"{reference_throughput:.0f}", f"{per_segment_seconds * 1e3:.3f}"],
            [
                "micro-batched (fused)",
                f"{serving_throughput:.0f}",
                f"{1e3 / serving_throughput:.3f}" if serving_throughput else "inf",
            ],
            ["speed-up", f"{speedup:.1f}x", ""],
        ],
        title=(
            f"Serving throughput — {len(streams)} concurrent streams, "
            f"{total_segments} segments, mean batch {service.stats.mean_batch_size:.1f}"
        ),
    )
    return {
        "detections": len(detections),
        "expected": total_segments,
        "reference_throughput": reference_throughput,
        "serving_throughput": serving_throughput,
        "speedup": speedup,
    }


def test_serving_throughput(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    assert results["detections"] == results["expected"], "every warmed-up segment must be scored"
    assert results["speedup"] >= REQUIRED_SPEEDUP, (
        f"micro-batched serving reached only {results['speedup']:.1f}x over the "
        f"per-segment path (required: {REQUIRED_SPEEDUP}x)"
    )


# --------------------------------------------------------------------- #
# Sharded multi-model runtime vs unrouted per-stream serving
# --------------------------------------------------------------------- #
def _platform_registry(dataset_name: str) -> ModelRegistry:
    """A single-version registry holding ``dataset_name``'s model.

    The INF model is the comparison suite's (cached, shared with the other
    benchmarks); additional platforms get a light direct fit — the gate
    measures serving, not training, and any calibrated model serves.
    """
    if dataset_name == "INF":
        detector = common.trained_clstm(dataset_name).detector
        return ModelRegistry.from_detector(detector)
    prepared = common.dataset(dataset_name)
    scale = common.harness().scale
    model = AOVLIS(
        sequence_length=scale.sequence_length,
        action_hidden=scale.action_hidden,
        interaction_hidden=scale.interaction_hidden,
        training=TrainingConfig(
            epochs=6, batch_size=scale.batch_size, checkpoint_every=3, seed=scale.seed
        ),
    )
    model.fit(prepared.train)
    return ModelRegistry.from_detector(model.detector)


def _platform_streams(dataset_name: str):
    """Concurrent live streams of one platform, keyed ``<dataset>-<i>``."""
    prepared = common.dataset(dataset_name)
    generator = SocialStreamGenerator(
        dataset_profile(dataset_name), seed=common.harness().scale.seed
    )
    return {
        stream.name: prepared.pipeline.extract(stream)
        for stream in generator.generate_many(
            count=STREAMS_PER_PLATFORM, duration_seconds=90.0
        )
    }


def run_sharded_experiment():
    platforms = ("INF", "TWI")
    registries = {name: _platform_registry(name) for name in platforms}
    streams = {}
    for name in platforms:
        streams.update(_platform_streams(name))
    total_segments = sum(f.num_segments - SEQUENCE_LENGTH for f in streams.values())

    # ------------------------------------------------------------------ #
    # Reference: no routing tier — one scoring service per stream, each
    # honouring the same wall-clock deadline.  Fan-in 1 per service means
    # the deadline, not the batch capacity, decides every flush.
    # ------------------------------------------------------------------ #
    clock = ManualClock()
    per_stream = {
        stream_id: ScoringService(
            sequence_length=SEQUENCE_LENGTH,
            max_batch_size=64,
            registry=registries[stream_id.split("-")[0]],
            max_batch_delay_ms=MAX_BATCH_DELAY_MS,
            clock=clock,
        )
        for stream_id in streams
    }
    longest = max(f.num_segments for f in streams.values())
    reference_detections = 0
    for position in range(longest):
        for stream_id, features in streams.items():
            if position >= features.num_segments:
                continue
            reference_detections += len(
                per_stream[stream_id].submit_many(
                    ((stream_id, features.action[position], features.interaction[position]),)
                )
            )
        clock.advance(INTERARRIVAL_SECONDS)
        for service in per_stream.values():
            reference_detections += len(service.poll())
    for service in per_stream.values():
        reference_detections += len(service.flush())
    reference_seconds = sum(s.stats.scoring_seconds for s in per_stream.values())
    reference_batches = sum(s.stats.batches for s in per_stream.values())
    reference_throughput = reference_detections / reference_seconds
    reference_mean_batch = reference_detections / reference_batches

    # ------------------------------------------------------------------ #
    # Sharded runtime: one shard per platform model; all of a platform's
    # streams coalesce into that shard's micro-batches under the same
    # deadline and the same simulated arrival process.
    # ------------------------------------------------------------------ #
    clock = ManualClock()
    sharded = ShardedScoringService(
        [registries[name] for name in platforms],
        config=ServingConfig(max_batch_size=64, max_batch_delay_ms=MAX_BATCH_DELAY_MS),
        sequence_length=SEQUENCE_LENGTH,
        router=lambda stream_id: platforms.index(stream_id.split("-")[0]),
        clock=clock,
    )
    sharded_detections = len(
        replay_streams(
            sharded, streams, clock=clock, interarrival_seconds=INTERARRIVAL_SECONDS
        )
    )
    sharded_seconds = sharded.stats.scoring_seconds
    sharded_throughput = sharded_detections / sharded_seconds
    speedup = sharded_throughput / reference_throughput

    common.table(
        "sharded_serving_throughput",
        ["deployment", "segments/s", "mean batch", "batches"],
        [
            [
                "per-stream services",
                f"{reference_throughput:.0f}",
                f"{reference_mean_batch:.1f}",
                str(reference_batches),
            ],
            [
                f"sharded ({len(platforms)} shards)",
                f"{sharded_throughput:.0f}",
                f"{sharded.stats.mean_batch_size:.1f}",
                str(sharded.stats.batches),
            ],
            ["speed-up", f"{speedup:.1f}x", "", ""],
        ],
        title=(
            f"Sharded serving — {len(platforms)} platform models, "
            f"{len(streams)} streams, {total_segments} segments, "
            f"{MAX_BATCH_DELAY_MS:.0f} ms flush deadline"
        ),
    )
    return {
        "expected": total_segments,
        "reference_detections": reference_detections,
        "sharded_detections": sharded_detections,
        "reference_throughput": reference_throughput,
        "sharded_throughput": sharded_throughput,
        "reference_mean_batch": reference_mean_batch,
        "sharded_mean_batch": sharded.stats.mean_batch_size,
        "speedup": speedup,
    }


def test_sharded_serving_throughput(benchmark):
    results = benchmark.pedantic(run_sharded_experiment, rounds=1, iterations=1)
    assert results["reference_detections"] == results["expected"]
    assert results["sharded_detections"] == results["expected"]
    assert results["sharded_mean_batch"] > results["reference_mean_batch"], (
        "routing by model must raise batch occupancy under the deadline"
    )
    assert results["speedup"] >= SHARDED_REQUIRED_SPEEDUP, (
        f"sharded serving reached only {results['speedup']:.1f}x over unrouted "
        f"per-stream services (required: {SHARDED_REQUIRED_SPEEDUP}x)"
    )
