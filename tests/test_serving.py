"""Tests for the multi-stream micro-batching scoring service (repro.serving)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clstm import CLSTM
from repro.core.detector import AnomalyDetector
from repro.features.pipeline import StreamFeatures
from repro.serving import (
    MicroBatcher,
    ModelRegistry,
    QueueFull,
    ScoreRequest,
    ScoringService,
    ShardedScoringService,
    StreamSession,
    replay_streams,
    validate_interaction_level,
)
from repro.utils.config import DetectionConfig, ServingConfig, UpdateConfig

D1, D2, Q = 14, 5, 4


def make_features(name: str, segments: int, seed: int) -> StreamFeatures:
    rng = np.random.default_rng(seed)
    action = rng.random((segments, D1)) + 1e-3
    action = action / action.sum(axis=1, keepdims=True)
    return StreamFeatures(
        name=name,
        action=action,
        interaction=rng.random((segments, D2)),
        labels=np.zeros(segments, dtype=np.int64),
        normalised_interaction=rng.random(segments),
    )


def make_request(stream_id="s", index=0, seed=0) -> ScoreRequest:
    rng = np.random.default_rng(seed)
    return ScoreRequest(
        stream_id=stream_id,
        segment_index=index,
        action_history=rng.random((Q, D1)),
        interaction_history=rng.random((Q, D2)),
        action_target=rng.random(D1),
        interaction_target=rng.random(D2),
    )


@pytest.fixture(scope="module")
def calibrated_detector() -> AnomalyDetector:
    model = CLSTM(action_dim=D1, interaction_dim=D2, action_hidden=8, interaction_hidden=4, seed=2)
    detector = AnomalyDetector(model, DetectionConfig(omega=0.8, threshold=0.2))
    detector.anomaly_threshold = 0.2
    return detector


class TestMicroBatcher:
    def test_fifo_order_and_batch_limit(self):
        batcher = MicroBatcher(max_batch_size=3)
        for index in range(7):
            batcher.submit(make_request(index=index))
        assert len(batcher) == 7
        assert batcher.ready()
        first = batcher.drain()
        assert [r.segment_index for r in first] == [0, 1, 2]
        assert [r.segment_index for r in batcher.drain()] == [3, 4, 5]
        assert not batcher.ready()  # one leftover below capacity
        assert [r.segment_index for r in batcher.drain()] == [6]
        assert batcher.drain() == []
        assert batcher.submitted == 7
        assert batcher.batches_drained == 3

    def test_assemble_shapes(self):
        requests = [make_request(index=i, seed=i) for i in range(5)]
        windows, a_targets, i_targets, indices = MicroBatcher.assemble(requests)
        # Windows stay segment records (no re-stack); only targets are stacked.
        assert [len(window) for window in windows] == [Q] * 5
        assert all(window is request.window for window, request in zip(windows, requests))
        assert a_targets.shape == (5, D1)
        assert i_targets.shape == (5, D2)
        np.testing.assert_array_equal(indices, np.arange(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_delay_seconds=-1.0)
        with pytest.raises(ValueError):
            MicroBatcher.assemble([])

    def test_deadline_expiry_tracks_the_oldest_request(self):
        batcher = MicroBatcher(max_batch_size=4, max_delay_seconds=0.1)
        assert not batcher.expired(100.0)  # empty queue never expires
        batcher.submit(make_request(index=0), now=1.0)
        batcher.submit(make_request(index=1), now=1.05)
        assert batcher.oldest_arrival() == 1.0
        assert not batcher.expired(1.09)
        assert batcher.expired(1.10)
        batcher.drain()
        assert batcher.oldest_arrival() is None
        # After a drain the deadline restarts from the new queue head.
        batcher.submit(make_request(index=2), now=2.0)
        assert batcher.oldest_arrival() == 2.0
        assert not batcher.expired(2.05)

    def test_unstamped_requests_never_expire(self):
        batcher = MicroBatcher(max_batch_size=4, max_delay_seconds=0.0)
        batcher.submit(make_request())
        assert not batcher.expired(100.0)
        no_deadline = MicroBatcher(max_batch_size=4)
        no_deadline.submit(make_request(), now=0.0)
        assert not no_deadline.expired(100.0)


class TestStreamSession:
    def test_warmup_then_requests(self):
        session = StreamSession("live", sequence_length=Q)
        rng = np.random.default_rng(0)
        features = rng.random((Q + 3, D1))
        interactions = rng.random((Q + 3, D2))
        requests = []
        for position in range(Q + 3):
            request = session.make_request(features[position], interactions[position], 0.5)
            if request is not None:
                requests.append(request)
        # The first q segments only build history; each later one is scored.
        assert [r.segment_index for r in requests] == [Q, Q + 1, Q + 2]
        # The request's history window is exactly the q segments before it.
        np.testing.assert_allclose(requests[-1].action_history, features[2 : 2 + Q])
        np.testing.assert_allclose(requests[-1].action_target, features[Q + 2])


class TestScoringService:
    def test_detections_match_offline_batch_scoring(self, calibrated_detector):
        streams = {f"s{k}": make_features(f"s{k}", 20 + 2 * k, seed=30 + k) for k in range(3)}
        service = ScoringService(calibrated_detector, sequence_length=Q, max_batch_size=8)
        produced = replay_streams(service, streams)
        assert len(produced) == sum(f.num_segments - Q for f in streams.values())
        for stream_id, features in streams.items():
            reference = calibrated_detector.score(features.sequences(Q))
            routed = service.detections(stream_id)
            assert [d.segment_index for d in routed] == reference.segment_indices.tolist()
            np.testing.assert_allclose(
                [d.score for d in routed], reference.scores, atol=1e-10
            )
            assert [d.is_anomaly for d in routed] == reference.is_anomaly.tolist()

    def test_reading_detections_creates_no_state(self, calibrated_detector):
        features = make_features("known", 12, seed=3)
        for service in (
            ScoringService(calibrated_detector, sequence_length=Q, max_batch_size=4),
            ShardedScoringService(
                ModelRegistry.from_detector(calibrated_detector),
                config=ServingConfig(max_batch_size=4, num_shards=2),
                sequence_length=Q,
            ),
        ):
            replay_streams(service, {"known": features})
            before = service.export_state()
            for k in range(50):
                assert service.detections(f"ghost-{k}") == []
            after = service.export_state()
            shards = [after] if "sessions" in after else after["shards"]
            assert [sorted(shard["sessions"]) for shard in shards if shard["sessions"]] == [["known"]]
            assert after.get("routes") == before.get("routes")
            # Known ids read their rows from `start` on.
            rows = service.detections("known")
            assert len(rows) == 12 - Q
            assert service.detections("known", 5) == rows[5:]
            assert service.detections("known", 99) == []

    def test_submit_flushes_only_full_batches(self, calibrated_detector):
        features = make_features("single", 30, seed=1)
        service = ScoringService(calibrated_detector, sequence_length=Q, max_batch_size=64)
        produced = []
        for position in range(features.num_segments):
            produced.extend(
                service.submit(
                    "single", features.action[position], features.interaction[position]
                )
            )
        # 26 pending requests never filled a 64-batch: nothing scored yet.
        assert produced == []
        assert service.stats.batches == 0
        leftovers = service.flush()
        assert len(leftovers) == features.num_segments - Q
        assert service.stats.batches == 1
        assert service.stats.segments_scored == len(leftovers)
        assert service.stats.throughput() > 0

    def test_mean_batch_size_reflects_coalescing(self, calibrated_detector):
        streams = {f"s{k}": make_features(f"s{k}", 24, seed=50 + k) for k in range(4)}
        service = ScoringService(calibrated_detector, sequence_length=Q, max_batch_size=16)
        replay_streams(service, streams)
        # Four concurrent streams coalesce: batches average near capacity.
        assert service.stats.mean_batch_size > 8

    def test_drift_trigger_emitted_and_routed(self, calibrated_detector):
        features = make_features("drifty", 40, seed=9)
        # Seed history with hidden states opposed to anything the model emits:
        # similarity of S_h = -S_n is negative, below any sane threshold.
        batch = features.sequences(Q)
        hidden = calibrated_detector.model.hidden_states(
            batch.action_sequences, batch.interaction_sequences
        )
        received = []
        service = ScoringService(
            calibrated_detector,
            sequence_length=Q,
            max_batch_size=8,
            update_config=UpdateConfig(
                buffer_size=10, drift_threshold=0.4, interaction_threshold=10.0
            ),
            historical_hidden=-hidden,
            on_update_trigger=received.append,
        )
        replay_streams(service, {"drifty": features})
        assert service.update_triggers, "drift should have been detected"
        trigger = service.update_triggers[0]
        assert trigger.similarity <= 0.4
        assert trigger.buffered_segments == 10
        assert trigger.stream_ids == ("drifty",)
        assert received == service.update_triggers

    def test_trigger_stream_ids_typed_deduplicated_and_sorted(self, calibrated_detector):
        # Two streams replayed in reverse-alphabetical dict order, so buffer
        # insertion order is (zeta, alpha, zeta, alpha, ...); the emitted
        # tuple must still be deduplicated and sorted.
        streams = {
            "zeta": make_features("zeta", 30, seed=11),
            "alpha": make_features("alpha", 30, seed=12),
        }
        service = ScoringService(
            calibrated_detector,
            sequence_length=Q,
            max_batch_size=8,
            update_config=UpdateConfig(
                # drift_threshold=1.0: every post-seed buffer triggers.
                buffer_size=6, drift_threshold=1.0, interaction_threshold=10.0
            ),
        )
        replay_streams(service, streams)
        assert service.update_triggers
        for trigger in service.update_triggers:
            assert all(isinstance(stream_id, str) for stream_id in trigger.stream_ids)
            assert trigger.stream_ids == tuple(sorted(set(trigger.stream_ids)))
        assert any(t.stream_ids == ("alpha", "zeta") for t in service.update_triggers)

    def test_first_buffer_seeds_history_without_trigger(self, calibrated_detector):
        features = make_features("fresh", 30, seed=3)
        service = ScoringService(
            calibrated_detector,
            sequence_length=Q,
            max_batch_size=8,
            update_config=UpdateConfig(
                buffer_size=5, drift_threshold=0.999, interaction_threshold=10.0
            ),
        )
        replay_streams(service, {"fresh": features})
        # The very first full buffer became S_h; later identical-distribution
        # buffers keep similarity high, so the near-1.0 threshold may trigger,
        # but the seeding buffer itself must not.
        assert service._historical_hidden is not None
        assert all(t.segment_index >= Q + 5 for t in service.update_triggers)

    def test_history_cap_bounds_memory(self, calibrated_detector):
        features = make_features("capped", 60, seed=4)
        service = ScoringService(
            calibrated_detector,
            sequence_length=Q,
            max_batch_size=8,
            update_config=UpdateConfig(
                buffer_size=5, drift_threshold=-1.0, interaction_threshold=10.0
            ),
            max_history=12,
        )
        replay_streams(service, {"capped": features})
        assert len(service._historical_hidden) <= 12
        # No similarity is <= -1.0: the buffers were checked and none triggered.
        assert not service.update_triggers

    def test_validation(self, calibrated_detector):
        with pytest.raises(ValueError):
            ScoringService(calibrated_detector, sequence_length=0)
        with pytest.raises(ValueError):
            ScoringService(calibrated_detector, max_history=0)
        # Batch-relative decision rules are rejected: detections must not
        # depend on which streams happened to share a micro-batch.
        model = calibrated_detector.model
        uncalibrated = AnomalyDetector(model, DetectionConfig(omega=0.8))
        with pytest.raises(ValueError, match="calibrated"):
            ScoringService(uncalibrated)
        top_k = AnomalyDetector(model, DetectionConfig(omega=0.8, threshold=0.2, top_k=3))
        top_k.anomaly_threshold = 0.2
        with pytest.raises(ValueError, match="top_k"):
            ScoringService(top_k)


class TestInteractionLevelValidation:
    def test_validate_interaction_level_contract(self):
        assert validate_interaction_level(0.25) == 0.25
        assert np.isnan(validate_interaction_level(None))  # explicit unknown
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                validate_interaction_level(bad)

    def test_submit_rejects_non_finite_levels_at_the_boundary(
        self, calibrated_detector
    ):
        """Regression: a NaN level used to slide through and silently disable
        drift tracking for the segment; an inf corrupted the running mean."""
        service = ScoringService(calibrated_detector, sequence_length=Q, max_batch_size=8)
        features = make_features("s", 10, seed=5)
        # None is the explicit opt-in for "unknown" and stays accepted.
        service.submit("s", features.action[0], features.interaction[0], None)
        with pytest.raises(ValueError, match="finite"):
            service.submit(
                "s", features.action[1], features.interaction[1], float("nan")
            )
        with pytest.raises(ValueError, match="finite"):
            service.submit(
                "s", features.action[1], features.interaction[1], float("inf")
            )
        # Nothing reached the queue: the accepted segment is still warming up
        # its session and the rejected ones never got that far.
        assert service.batcher.submitted == 0

    def test_replay_maps_non_finite_feature_levels_to_unknown(
        self, calibrated_detector
    ):
        """Feature extraction can legitimately yield NaN interaction levels
        (empty chat windows); replay must map them to the None opt-in rather
        than trip the ingest validation."""
        from dataclasses import replace

        features = make_features("s", 12, seed=9)
        levels = features.normalised_interaction.copy()
        levels[4] = np.nan
        features = replace(features, normalised_interaction=levels)
        service = ScoringService(calibrated_detector, sequence_length=Q, max_batch_size=8)
        produced = replay_streams(service, {"s": features})
        produced.extend(service.drain())
        assert len(produced) == features.num_segments - Q


class TestBoundedQueue:
    def test_microbatcher_refuses_overflow_without_enqueueing(self):
        batcher = MicroBatcher(max_batch_size=2, max_pending=3)
        for index in range(3):
            batcher.submit(make_request(index=index))
        with pytest.raises(QueueFull, match="3 pending") as excinfo:
            batcher.submit(make_request(index=3))
        assert excinfo.value.max_pending == 3
        assert len(batcher) == 3  # the refused request was shed, not queued
        assert [r.segment_index for r in batcher.drain()] == [0, 1]
        batcher.submit(make_request(index=3))  # room again after a drain
        assert [r.segment_index for r in batcher.drain()] == [2, 3]

    def test_microbatcher_bound_validation(self):
        with pytest.raises(ValueError, match="max_pending"):
            MicroBatcher(max_batch_size=8, max_pending=4)

    def test_scoring_service_plumbs_queue_bound(self, calibrated_detector):
        with pytest.raises(ValueError, match="max_pending"):
            ScoringService(calibrated_detector, max_batch_size=8, max_queue_depth=4)
        service = ScoringService(
            calibrated_detector, sequence_length=Q, max_batch_size=8, max_queue_depth=8
        )
        assert service.batcher.max_pending == 8
