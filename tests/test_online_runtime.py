"""Tests for the online-learning serving runtime.

Covers the versioned model registry (copy-on-write publish, atomic swap,
per-batch snapshot pinning), the in-service update plane (drift trigger →
retrain → merge → re-calibrate → publish), wall-clock flush deadlines, and
the sharded scoring service.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

import repro.serving.service as service_module
from repro.core.clstm import CLSTM
from repro.core.detector import AnomalyDetector
from repro.features.pipeline import StreamFeatures
from repro.serving import (
    ManualClock,
    ModelRegistry,
    ScoreRequest,
    ScoringService,
    ShardedScoringService,
    UpdatePlane,
    UpdateTrigger,
    default_router,
    replay_streams,
)
from repro.utils.config import (
    DetectionConfig,
    ServingConfig,
    TrainingConfig,
    UpdateConfig,
)

D1, D2, Q = 12, 4, 3


def make_model(seed: int = 2) -> CLSTM:
    return CLSTM(action_dim=D1, interaction_dim=D2, action_hidden=8, interaction_hidden=4, seed=seed)


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


def make_requests(count: int, seed: int = 0, stream_id: str = "s") -> list:
    rng = np.random.default_rng(seed)
    requests = []
    for index in range(count):
        action = rng.random((Q + 1, D1)) + 1e-3
        action = action / action.sum(axis=1, keepdims=True)
        interaction = rng.random((Q + 1, D2))
        requests.append(
            ScoreRequest(
                stream_id=stream_id,
                segment_index=index,
                action_history=action[:Q],
                interaction_history=interaction[:Q],
                action_target=action[Q],
                interaction_target=interaction[Q],
                interaction_level=0.1,
            )
        )
    return requests


def update_config(**overrides) -> UpdateConfig:
    base = dict(
        buffer_size=8,
        drift_threshold=0.4,
        interaction_threshold=10.0,
        update_epochs=2,
        merge_weight=0.5,
    )
    base.update(overrides)
    return UpdateConfig(**base)


def fast_training() -> TrainingConfig:
    return TrainingConfig(epochs=2, batch_size=8, checkpoint_every=1, seed=0)


class TestSnapshotAPIs:
    def test_prewarm_and_freshness_lifecycle(self):
        model = make_model()
        assert not model.fused_fresh()  # nothing fused yet
        model.prewarm_fused()
        assert model.fused_fresh()
        # Rebinding parameters (the only write path in the code base)
        # invalidates freshness without touching the cached snapshot arrays.
        model.load_state_dict(model.state_dict())
        assert not model.fused_fresh()

    def test_snapshot_is_independent_and_prewarmed(self):
        model = make_model()
        actions = np.random.default_rng(0).random((3, Q, D1))
        interactions = np.random.default_rng(1).random((3, Q, D2))
        snapshot = model.snapshot()
        assert snapshot.fused_fresh()
        before = snapshot.predict(actions, interactions)
        # Mutate the original: the snapshot must be unaffected.
        other = make_model(seed=99)
        model.load_state_dict(other.state_dict())
        after = snapshot.predict(actions, interactions)
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])
        assert snapshot.fused_fresh()


class TestModelRegistry:
    def test_publish_versions_and_lookup(self):
        registry = ModelRegistry(DetectionConfig(omega=0.8))
        with pytest.raises(LookupError):
            registry.latest()
        first = registry.publish(make_model(seed=1), 0.2)
        second = registry.publish(make_model(seed=2), 0.3, reason="incremental-update")
        assert (first.version, second.version) == (1, 2)
        assert registry.latest() is second
        assert registry.get(1) is first
        assert registry.versions() == [1, 2]
        assert len(registry) == 2
        assert second.reason == "incremental-update"
        with pytest.raises(KeyError):
            registry.get(7)

    def test_publish_is_copy_on_write(self):
        registry = ModelRegistry(DetectionConfig(omega=0.8))
        model = make_model()
        snapshot = registry.publish(model, 0.2)
        assert snapshot.model is not model
        assert snapshot.fused_fresh()
        actions = np.random.default_rng(0).random((2, Q, D1))
        interactions = np.random.default_rng(1).random((2, Q, D2))
        before = snapshot.model.predict(actions, interactions)
        model.load_state_dict(make_model(seed=42).state_dict())
        after = snapshot.model.predict(actions, interactions)
        np.testing.assert_array_equal(before[0], after[0])
        assert snapshot.fused_fresh(), "mutating the source must not stale the snapshot"

    def test_handle_pins_and_counts_swaps(self):
        registry = ModelRegistry(DetectionConfig(omega=0.8))
        registry.publish(make_model(seed=1), 0.2)
        handle = registry.handle()
        assert handle.pinned is None
        assert handle.pin().version == 1
        assert handle.pin().version == 1
        assert handle.swaps_observed == 0
        registry.publish(make_model(seed=2), 0.3)
        assert handle.pinned.version == 1  # swap invisible until the next pin
        assert handle.pin().version == 2
        assert handle.swaps_observed == 1

    def test_handle_version_is_that_of_its_last_pin(self):
        registry = ModelRegistry(DetectionConfig(omega=0.8))
        registry.publish(make_model(seed=1), 0.2)
        handle = registry.handle()
        assert handle.version is None
        handle.pin()
        registry.publish(make_model(seed=2), 0.3)
        assert handle.version == 1
        handle.pin()
        assert handle.version == 2

    def test_max_versions_evicts_oldest_but_keeps_numbering(self):
        registry = ModelRegistry(DetectionConfig(omega=0.8), max_versions=2)
        for seed in range(4):
            registry.publish(make_model(seed=seed), 0.2)
        assert registry.versions() == [3, 4]
        assert registry.latest().version == 4
        with pytest.raises(KeyError, match="evicted"):
            registry.get(1)

    def test_validation(self):
        with pytest.raises(ValueError, match="top_k"):
            ModelRegistry(DetectionConfig(omega=0.8, top_k=3))
        with pytest.raises(ValueError, match="max_versions"):
            ModelRegistry(DetectionConfig(omega=0.8), max_versions=0)
        registry = ModelRegistry(DetectionConfig(omega=0.8))
        with pytest.raises(ValueError, match="finite"):
            registry.publish(make_model(), float("nan"))
        uncalibrated = AnomalyDetector(make_model(), DetectionConfig(omega=0.8))
        with pytest.raises(ValueError, match="calibrated"):
            ModelRegistry.from_detector(uncalibrated)


class TestRegistryRestoreAndEviction:
    def test_retained_always_contains_latest_with_max_versions_one(self):
        """Regression: a checkpoint enumerating the registry mid-update must
        see the just-published latest, even under the tightest eviction."""
        registry = ModelRegistry(DetectionConfig(omega=0.8), max_versions=1)
        for seed in range(3):
            snapshot = registry.publish(make_model(seed=seed), 0.2)
            retained = registry.retained()
            assert [kept.version for kept in retained] == [snapshot.version]
            assert retained[0] is registry.latest()
        assert registry.highest_published == 3

    def test_pinned_evicted_snapshot_stays_usable_but_not_enumerable(self):
        registry = ModelRegistry(DetectionConfig(omega=0.8), max_versions=1)
        registry.publish(make_model(seed=1), 0.2)
        handle = registry.handle()
        pinned = handle.pin()
        registry.publish(make_model(seed=2), 0.3)
        # The reader keeps scoring against its pinned (now evicted) snapshot...
        assert handle.pinned is pinned
        assert pinned.fused_fresh()
        # ...but a checkpoint walking the registry never references it.
        assert [kept.version for kept in registry.retained()] == [2]
        with pytest.raises(KeyError, match="evicted"):
            registry.get(1)

    def test_restore_preserves_version_numbers(self):
        registry = ModelRegistry(DetectionConfig(omega=0.8))
        restored = registry.restore(
            3, make_model(seed=1), 0.2, reason="initial", metadata={"similarity": 0.5}
        )
        assert restored.version == 3
        assert restored.fused_fresh()
        assert registry.latest() is restored
        assert registry.highest_published == 3
        assert registry.restore(7, make_model(seed=2), 0.3).version == 7
        # Future publishes continue after the restored pointer.
        assert registry.publish(make_model(seed=3), 0.4).version == 8

    def test_restore_rejects_non_ascending_versions(self):
        registry = ModelRegistry(DetectionConfig(omega=0.8))
        registry.restore(3, make_model(seed=1), 0.2)
        with pytest.raises(ValueError, match="must exceed"):
            registry.restore(3, make_model(seed=2), 0.3)
        with pytest.raises(ValueError, match="must exceed"):
            registry.restore(2, make_model(seed=2), 0.3)


class TestRecalibrate:
    def test_recalibrate_rederives_threshold_from_data(self):
        model = make_model()
        detector = AnomalyDetector(model, DetectionConfig(omega=0.8))
        features = make_features("cal", 30, seed=5)
        batch = features.sequences(Q)
        detector.calibrate(batch, quantile=0.9)
        first = detector.anomaly_threshold
        recal = detector.recalibrate(batch, quantile=0.5)
        assert recal == detector.anomaly_threshold
        assert recal < first  # median of the same scores sits below the 0.9 quantile
        scores = detector.score(batch).scores
        assert recal == pytest.approx(float(np.quantile(scores, 0.5)))
        with pytest.raises(ValueError):
            detector.recalibrate(batch, quantile=1.5)

    def test_calibration_never_reaches_the_uncalibrated_fallback(self, monkeypatch):
        """Calibration derives ``T_a`` from the scores alone: a decision on
        the uncalibrated detector would compute the median + MAD fallback
        only to throw it away."""
        features = make_features("cal", 30, seed=5)
        batch = features.sequences(Q)
        reference = AnomalyDetector(make_model(), DetectionConfig(omega=0.8))
        scores = reference.score(batch, precision="float64").scores
        # An uncalibrated score() keeps its fallback threshold.
        median = float(np.median(scores))
        fallback = median + 3.0 * 1.4826 * float(np.median(np.abs(scores - median)))
        assert reference.score(batch).threshold == fallback

        decisions = []
        monkeypatch.setattr(
            AnomalyDetector, "_decide", lambda self, *args: decisions.append(args)
        )
        detector = AnomalyDetector(make_model(), DetectionConfig(omega=0.8))
        assert detector.calibrate(batch, quantile=0.9) == float(np.quantile(scores, 0.9))
        assert detector.recalibrate(batch, quantile=0.5) == float(np.quantile(scores, 0.5))
        fresh = AnomalyDetector(make_model(), DetectionConfig(omega=0.8))
        assert fresh.recalibrate(batch, quantile=0.5) == float(np.quantile(scores, 0.5))
        assert decisions == []


class TestUpdatePlane:
    def test_handle_trigger_trains_merges_recalibrates_publishes(self):
        registry = ModelRegistry(DetectionConfig(omega=0.8))
        base = registry.publish(make_model(), 0.2)
        plane = UpdatePlane(
            registry, update_config=update_config(), training_config=fast_training()
        )
        trigger = UpdateTrigger(
            segment_index=40, similarity=0.1, buffered_segments=8, stream_ids=("s",)
        )
        report = plane.handle_trigger(trigger, make_requests(8, seed=3))
        assert report.version == 2 and report.previous_version == 1
        assert registry.latest().version == 2
        assert registry.latest().reason == "incremental-update"
        assert report.samples == 8
        assert report.previous_threshold == pytest.approx(0.2)
        # T_a was re-derived from the merged model's scores, not inherited.
        assert report.threshold == registry.latest().threshold
        assert report.threshold != pytest.approx(0.2)
        # The published model is a genuine merge: parameters moved.
        old_state = base.model.state_dict()
        new_state = registry.latest().model.state_dict()
        assert any(not np.array_equal(old_state[k], new_state[k]) for k in old_state)
        assert registry.latest().fused_fresh()
        assert plane.reports == [report]
        assert plane.total_update_seconds >= report.seconds > 0.0

    def test_report_seconds_cover_sample_assembly(self, monkeypatch):
        """The stopwatch starts with the transaction: stacking the buffered
        windows stalls scoring like the rest of it."""
        registry = ModelRegistry(DetectionConfig(omega=0.8))
        registry.publish(make_model(), 0.2)
        plane = UpdatePlane(
            registry, update_config=update_config(), training_config=fast_training()
        )
        assemble = UpdatePlane.assemble_samples
        assembled_at = []

        def slow_assemble(samples):
            time.sleep(0.05)
            batch = assemble(samples)
            assembled_at.append(time.perf_counter())
            return batch

        monkeypatch.setattr(UpdatePlane, "assemble_samples", staticmethod(slow_assemble))
        trigger = UpdateTrigger(
            segment_index=40, similarity=0.1, buffered_segments=8, stream_ids=("s",)
        )
        report = plane.handle_trigger(trigger, make_requests(8, seed=3))
        after_assembly = time.perf_counter() - assembled_at[0]
        assert report.seconds > after_assembly

    def test_explicit_config_threshold_stays_authoritative(self):
        registry = ModelRegistry(DetectionConfig(omega=0.8, threshold=0.33))
        registry.publish(make_model(), 0.33)
        plane = UpdatePlane(
            registry, update_config=update_config(), training_config=fast_training()
        )
        trigger = UpdateTrigger(
            segment_index=10, similarity=0.0, buffered_segments=8, stream_ids=("s",)
        )
        report = plane.handle_trigger(trigger, make_requests(8, seed=4))
        assert report.threshold == pytest.approx(0.33)

    def test_validation(self):
        registry = ModelRegistry(DetectionConfig(omega=0.8))
        registry.publish(make_model(), 0.2)
        plane = UpdatePlane(registry, update_config=update_config())
        trigger = UpdateTrigger(
            segment_index=0, similarity=0.0, buffered_segments=0, stream_ids=()
        )
        with pytest.raises(ValueError):
            plane.handle_trigger(trigger, [])


def closed_loop_service(plane: bool = True):
    """A drift-primed service wired through a registry (and optionally a plane)."""
    model = make_model()
    registry = ModelRegistry(DetectionConfig(omega=0.8))
    registry.publish(model, 0.2)
    features = make_features("drifty", 60, seed=9)
    batch = features.sequences(Q)
    hidden = model.hidden_states(batch.action_sequences, batch.interaction_sequences)
    config = update_config()
    update_plane = (
        UpdatePlane(registry, update_config=config, training_config=fast_training())
        if plane
        else None
    )
    service = ScoringService(
        sequence_length=Q,
        max_batch_size=8,
        update_config=config,
        # Opposed history: similarity is negative, so the first full buffer
        # is guaranteed to trigger an update.
        historical_hidden=-hidden,
        registry=registry,
        update_plane=update_plane,
    )
    return service, registry, features


class TestClosedLoop:
    def test_drift_trigger_updates_registry_and_later_batches_swap(self):
        service, registry, features = closed_loop_service()
        replay_streams(service, {"drifty": features})
        assert service.update_triggers, "drift should have been detected"
        assert len(registry) >= 2
        reports = service.update_plane.reports
        assert reports and reports[0].version == 2 and reports[0].previous_version == 1

        detections = service.detections("drifty")
        versions = [d.model_version for d in detections]
        first_trigger = service.update_triggers[0]
        # In-flight pinning: the batch that triggered the update (and every
        # batch before it) was scored by version 1 even though the publish
        # happened inside that batch's drift check.
        assert first_trigger.model_version == 1
        trigger_position = next(
            i for i, d in enumerate(detections) if d.segment_index == first_trigger.segment_index
        )
        assert all(v == 1 for v in versions[: trigger_position + 1])
        # The swap is visible from the next batch on.
        assert versions[-1] >= 2
        assert 2 in versions

        # Post-swap detections carry the re-calibrated threshold.
        post = next(d for d in detections if d.model_version == 2)
        assert post.threshold == pytest.approx(registry.get(2).threshold)
        assert post.threshold != pytest.approx(registry.get(1).threshold)

    def test_post_swap_detections_provably_use_the_merged_model(self):
        updated_service, _, features = closed_loop_service(plane=True)
        static_service, _, _ = closed_loop_service(plane=False)
        replay_streams(updated_service, {"drifty": features})
        replay_streams(static_service, {"drifty": features})
        updated = updated_service.detections("drifty")
        static = static_service.detections("drifty")
        assert len(updated) == len(static)
        by_version = {}
        for u, s in zip(updated, static):
            by_version.setdefault(u.model_version, []).append((u, s))
        # Identical scores while both served version 1...
        assert all(u.score == s.score for u, s in by_version[1])
        # ...and different scores once the merged model took over.
        post = by_version[2]
        assert post and any(u.score != s.score for u, s in post)

    def test_closed_loop_is_deterministic_under_fixed_seed(self):
        first_service, first_registry, features = closed_loop_service()
        second_service, second_registry, _ = closed_loop_service()
        replay_streams(first_service, {"drifty": features})
        replay_streams(second_service, {"drifty": features})
        assert first_service.detections("drifty") == second_service.detections("drifty")
        assert first_registry.latest().threshold == second_registry.latest().threshold
        assert [r.version for r in first_service.update_plane.reports] == [
            r.version for r in second_service.update_plane.reports
        ]

    def test_plane_less_state_restored_under_a_plane_skips_the_partial_update(self):
        model = make_model()
        registry = ModelRegistry(DetectionConfig(omega=0.8))
        registry.publish(model, 0.2)
        features = make_features("s", 40, seed=9)
        batch = features.sequences(Q)
        hidden = model.hidden_states(batch.action_sequences, batch.interaction_sequences)
        # drift_threshold=1.0: every drift check (after the seeded history)
        # triggers, so the skip is attributable to the partial sample buffer.
        config = update_config(buffer_size=6, drift_threshold=1.0)

        def build(plane=None):
            return ScoringService(
                sequence_length=Q,
                max_batch_size=1,
                update_config=config,
                historical_hidden=-hidden,
                registry=registry,
                update_plane=plane,
            )

        def feed(service, start, stop):
            for position in range(start, stop):
                service.submit_many(
                    (("s", features.action[position], features.interaction[position], 0.5),)
                )

        service = build()
        feed(service, 0, Q + 3)  # warm up, then buffer 3 presumed-normal segments
        state = service.export_state()
        assert len(state["buffer_hidden"]) == 3 and state["buffer_requests"] is None
        plane = UpdatePlane(registry, update_config=config, training_config=fast_training())
        restored = build(plane)
        restored.restore_state(state)
        feed(restored, Q + 3, Q + 6)  # buffer fills: trigger fires, 3 samples retained
        assert restored.update_triggers
        assert plane.reports == [], "a partial sample buffer must not train an update"
        assert registry.latest().version == 1
        feed(restored, Q + 6, Q + 12)  # next buffer is fully retained: the update runs
        assert plane.reports and plane.reports[0].samples == 6
        assert registry.latest().version == 2

    def test_service_registry_plane_wiring_validation(self):
        service, registry, _ = closed_loop_service(plane=False)
        other = ModelRegistry(DetectionConfig(omega=0.8))
        other.publish(make_model(), 0.2)
        plane = UpdatePlane(other, update_config=update_config())
        with pytest.raises(ValueError, match="same registry"):
            ScoringService(sequence_length=Q, registry=registry, update_plane=plane,
                           update_config=update_config())
        with pytest.raises(ValueError, match="update_config"):
            ScoringService(
                sequence_length=Q,
                registry=registry,
                update_plane=UpdatePlane(registry, update_config=update_config()),
            )
        with pytest.raises(ValueError, match="exactly one"):
            ScoringService(sequence_length=Q)
        with pytest.raises(ValueError, match="exactly one"):
            ScoringService(registry.latest().detector, registry=registry)
        with pytest.raises(ValueError, match="at least one"):
            ScoringService(registry=ModelRegistry(DetectionConfig(omega=0.8)))


def drifted(features: StreamFeatures) -> StreamFeatures:
    """``features`` with a quarter of the action dimensions boosted (the
    ledger's ``drift_update`` regime change, renormalised)."""
    action = features.action.copy()
    action[:, : D1 // 4] += 3.0
    return replace(features, action=action / action.sum(axis=1, keepdims=True))


class TestDriftMonitorVersions:
    """``S_h`` and the presumed-normal buffer hold hidden states of one model
    version: a publish is never read as drift by itself."""

    BUFFER = 64

    @pytest.fixture
    def similarities(self, monkeypatch):
        """Every Eq. 17 comparison the monitor runs, as it runs it."""
        calls = []
        compare = service_module.hidden_set_similarity

        def spy(historical, incoming, *, statistic):
            calls.append(compare(historical, incoming, statistic=statistic))
            return calls[-1]

        monkeypatch.setattr(service_module, "hidden_set_similarity", spy)
        return calls

    def monitored(self):
        """A service whose ``S_h`` is the fit-time hidden states of version 1
        (as ``Runtime.fit`` seeds it), under the ledger's centered statistic."""
        model = make_model()
        registry = ModelRegistry(DetectionConfig(omega=0.8))
        registry.publish(model, 0.2)
        batch = make_features("train", 200, seed=1).sequences(Q)
        config = update_config(buffer_size=self.BUFFER, drift_statistic="centered")
        service = ScoringService(
            sequence_length=Q,
            max_batch_size=8,
            update_config=config,
            historical_hidden=model.hidden_states(
                batch.action_sequences, batch.interaction_sequences
            ),
            registry=registry,
        )
        return service, registry, config

    def publish(self, registry, config):
        """Version 2: a real retrain-and-merge of version 1."""
        trigger = UpdateTrigger(
            segment_index=0, similarity=0.0, buffered_segments=self.BUFFER, stream_ids=("s",)
        )
        UpdatePlane(registry, update_config=config, training_config=fast_training()).handle_trigger(
            trigger, make_requests(self.BUFFER, seed=3)
        )
        assert registry.latest().version == 2

    def test_same_distribution_after_a_publish_does_not_trigger(self, similarities):
        service, registry, config = self.monitored()
        replay_streams(service, {"a": make_features("a", self.BUFFER + Q, seed=2)})
        assert len(similarities) == 1 and not service.update_triggers
        self.publish(registry, config)
        del similarities[:]
        replay_streams(service, {"b": make_features("b", 3 * self.BUFFER + Q, seed=20)})
        # The first version-2 buffer seeds S_h; the two after it compare
        # version-2 states with version-2 states of the same distribution.
        assert len(similarities) == 2
        assert min(similarities) > config.drift_threshold
        assert not service.update_triggers

    def test_drift_after_a_publish_triggers_on_the_first_comparison(self, similarities):
        service, registry, config = self.monitored()
        self.publish(registry, config)
        replay_streams(service, {"a": make_features("a", self.BUFFER + Q, seed=2)})
        assert similarities == [] and not service.update_triggers
        replay_streams(service, {"c": drifted(make_features("c", self.BUFFER + Q, seed=40))})
        (similarity,) = similarities
        (trigger,) = service.update_triggers
        assert trigger.similarity == similarity <= config.drift_threshold
        assert trigger.model_version == 2
        assert trigger.stream_ids == ("c",)

    def test_a_buffer_straddling_a_publish_is_never_compared(self, similarities):
        service, registry, config = self.monitored()
        straddle = self.BUFFER * 5 // 8
        replay_streams(service, {"a": make_features("a", straddle + Q, seed=2)})
        assert len(service.export_state()["buffer_hidden"]) == straddle
        self.publish(registry, config)
        replay_streams(service, {"b": make_features("b", straddle + Q, seed=20)})
        # Old and new rows together would overfill the buffer; the first
        # version-2 batch dropped the version-1 rows and S_h with them.
        assert similarities == [] and not service.update_triggers
        state = service.export_state()
        assert len(state["buffer_hidden"]) == straddle
        assert state["historical_hidden"] is None and state["history_version"] == 2
        assert set(state["buffer_stream_ids"]) == {"b"}

    def test_a_state_without_the_version_binds_to_the_latest(self, similarities):
        """A state exported before the monitor tracked versions restores with
        its history bound to the restored latest version and resumes."""
        service, registry, config = self.monitored()
        self.publish(registry, config)
        replay_streams(service, {"a": make_features("a", self.BUFFER + 20 + Q, seed=2)})
        state = service.export_state()
        assert state["history_version"] == 2 and state["historical_hidden"] is not None
        del state["history_version"]
        restored = ScoringService(
            sequence_length=Q, max_batch_size=8, update_config=config, registry=registry
        )
        restored.restore_state(state)
        assert restored.export_state()["history_version"] == 2
        tail = {"c": drifted(make_features("c", self.BUFFER + Q, seed=40))}
        replay_streams(service, tail)
        del similarities[:]
        replay_streams(restored, tail)
        assert len(similarities) == 1, "the restored history was not compared"
        assert restored.detections("c") == service.detections("c")
        assert restored.update_triggers == service.update_triggers[-1:]


class TestDeadlineFlush:
    def make_service(self, clock, delay_ms=100.0):
        registry = ModelRegistry(DetectionConfig(omega=0.8))
        registry.publish(make_model(), 0.2)
        return ScoringService(
            sequence_length=Q,
            max_batch_size=64,
            registry=registry,
            max_batch_delay_ms=delay_ms,
            clock=clock,
        )

    def feed(self, service, features, count):
        produced = []
        for position in range(count):
            produced.extend(
                service.submit_many(
                    (("s", features.action[position], features.interaction[position]),)
                )
            )
        return produced

    def test_poll_flushes_only_after_deadline(self):
        clock = ManualClock()
        service = self.make_service(clock)
        features = make_features("s", 20, seed=1)
        assert self.feed(service, features, Q + 5) == []
        assert service.poll() == []  # deadline not reached yet
        clock.advance(0.05)
        assert service.poll() == []
        clock.advance(0.06)  # oldest request is now 110 ms old
        flushed = service.poll()
        assert len(flushed) == 5
        assert service.stats.batches == 1
        assert service.poll() == []  # queue drained

    def test_submit_triggers_deadline_flush(self):
        clock = ManualClock()
        service = self.make_service(clock)
        features = make_features("s", 20, seed=2)
        assert self.feed(service, features, Q + 3) == []
        # Advancing time alone changes nothing until an ingest or poll runs;
        # the next submit both ingests and performs the deadline flush.
        clock.advance(0.2)
        detections = service.submit_many(
            (("s", features.action[Q + 3], features.interaction[Q + 3]),)
        )
        assert len(detections) == 4  # 3 queued + the one just submitted
        assert service.stats.batches == 1

    def test_replay_with_manual_clock_bounds_batch_sizes(self):
        clock = ManualClock()
        service = self.make_service(clock, delay_ms=100.0)
        streams = {"a": make_features("a", 30, seed=3), "b": make_features("b", 30, seed=4)}
        replay_streams(
            service, streams, clock=clock, interarrival_seconds=0.06
        )
        # Two streams submit one segment each per 60 ms round; the 100 ms
        # deadline flushes every second round, so batches stay small instead
        # of waiting for 64.
        assert service.stats.batches > 5
        assert service.stats.mean_batch_size <= 4


class TestShardedScoringService:
    def make_registry(self, threshold=0.2, seed=2):
        registry = ModelRegistry(DetectionConfig(omega=0.8))
        registry.publish(make_model(seed=seed), threshold)
        return registry

    def test_default_router_is_stable_and_in_range(self):
        for stream in ("a", "b", "stream-17", "x" * 50):
            index = default_router(stream, 4)
            assert 0 <= index < 4
            assert index == default_router(stream, 4)

    def test_shared_registry_sharding_matches_offline_scoring(self):
        registry = self.make_registry()
        service = ShardedScoringService(
            registry,
            config=ServingConfig(max_batch_size=8, num_shards=3),
            sequence_length=Q,
        )
        streams = {f"s{k}": make_features(f"s{k}", 20 + k, seed=30 + k) for k in range(5)}
        produced = replay_streams(service, streams)
        assert len(produced) == sum(f.num_segments - Q for f in streams.values())
        assert service.stats.segments_scored == len(produced)
        detector = registry.latest().detector
        for stream_id, features in streams.items():
            reference = detector.score(features.sequences(Q))
            routed = service.detections(stream_id)
            assert [d.segment_index for d in routed] == reference.segment_indices.tolist()
            np.testing.assert_allclose([d.score for d in routed], reference.scores, atol=1e-10)
            # Every detection for one stream comes from one shard.
            assert service.shard_of(stream_id) is service.shards[service.shard_index(stream_id)]

    def test_multi_model_shards_serve_their_own_thresholds(self):
        registries = [self.make_registry(threshold=0.15, seed=1),
                      self.make_registry(threshold=0.9, seed=2)]
        service = ShardedScoringService(
            registries,
            config=ServingConfig(max_batch_size=4),
            sequence_length=Q,
            router=lambda stream_id: 0 if stream_id.startswith("inf") else 1,
        )
        streams = {
            "inf-0": make_features("inf-0", 15, seed=1),
            "twi-0": make_features("twi-0", 15, seed=2),
        }
        replay_streams(service, streams)
        assert service.num_shards == 2
        assert {d.threshold for d in service.detections("inf-0")} == {0.15}
        assert {d.threshold for d in service.detections("twi-0")} == {0.9}
        assert service.model_versions() == {0: 1, 1: 1}

    def test_router_validation_and_plane_requirements(self):
        registry = self.make_registry()
        with pytest.raises(ValueError, match="registries"):
            ShardedScoringService([], sequence_length=Q)
        with pytest.raises(ValueError, match="update_config"):
            ShardedScoringService(registry, sequence_length=Q, attach_update_planes=True)
        bad = ShardedScoringService(
            registry, sequence_length=Q, router=lambda stream_id: 7
        )
        with pytest.raises(ValueError, match="shard 7"):
            bad.submit_many((("s", np.zeros(D1), np.zeros(D2)),))

    def test_sharded_closed_loop_updates_only_the_drifting_shard(self):
        registries = [self.make_registry(seed=1), self.make_registry(seed=2)]
        features = make_features("inf-0", 60, seed=9)
        model = registries[0].latest().model
        batch = features.sequences(Q)
        hidden = model.hidden_states(batch.action_sequences, batch.interaction_sequences)
        service = ShardedScoringService(
            registries,
            config=ServingConfig(max_batch_size=8),
            sequence_length=Q,
            update_config=update_config(),
            attach_update_planes=True,
            training_config=fast_training(),
            historical_hidden=-hidden,
            router=lambda stream_id: 0 if stream_id.startswith("inf") else 1,
        )
        # Short enough that shard 1's 8-deep buffer never fills (6 scoreable
        # segments), so its opposed history can never be compared against.
        quiet = make_features("twi-0", Q + 6, seed=3)
        replay_streams(service, {"inf-0": features, "twi-0": quiet})
        # Only shard 0 saw enough drifting traffic to fill its buffer.
        assert service.update_reports
        assert registries[0].latest().version >= 2
        assert registries[1].latest().version == 1
        assert any(d.model_version >= 2 for d in service.detections("inf-0"))
        assert all(d.model_version == 1 for d in service.detections("twi-0"))
