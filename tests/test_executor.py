"""Concurrency and determinism tests for the thread-parallel serving executor.

Covers the acceptance contract of ``repro.serving.executor``:

* stress: several threads ingesting into a parallel-executor runtime while
  model versions publish concurrently — no lost or duplicated detections,
  every detection's ``model_version`` is a version that was current at its
  batch boundary, and the per-stream results match the serial run bitwise;
* determinism regression: ``ParallelExecutor(workers=1)`` is bitwise
  identical to the serial path — detections, version swaps and checkpoint
  archives — on the replayed drift-stream workload;
* service-level parity through same-weights republishes, and runtime
  parity across a checkpoint/restore boundary, of the thread executor with
  the serial path; one workspace per batch shape across model versions;
* :class:`ShardStats` invariants under randomised ingest schedules;
* the ``drain()`` deadline audit (a poll-only driver skips the final
  under-filled batch when the clock never advances; drain must not);
* the background update plane (off-thread retrains, quiesce, failure
  surfacing) and the registry's publish serialisation under threads.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import Runtime, RuntimeConfig
from repro.core.clstm import CLSTM
from repro.core.detector import AnomalyDetector
from repro.nn.fused import clear_thread_workspaces, reset_workspace_stats, workspace_stats
from repro.nn.serialization import load_state
from repro.serving import (
    BackgroundUpdatePlane,
    ManualClock,
    ModelRegistry,
    ParallelExecutor,
    ScoringService,
    SerialExecutor,
    ShardedScoringService,
    UpdatePlane,
    UpdateTrigger,
    build_executor,
)
from repro.streams.generator import SocialStreamGenerator
from repro.utils.config import (
    DetectionConfig,
    ExecutorConfig,
    ModelConfig,
    ServingConfig,
    TrainingConfig,
    UpdateConfig,
)

D1, D2, Q = 14, 5, 4
SEQUENCE_LENGTH = 5


def make_registry(threshold: float = 0.2, seed: int = 2) -> ModelRegistry:
    model = CLSTM(
        action_dim=D1, interaction_dim=D2, action_hidden=8, interaction_hidden=4, seed=seed
    )
    detector = AnomalyDetector(model, DetectionConfig(omega=0.8, threshold=threshold))
    return ModelRegistry.from_detector(detector)


def stream_arrays(seed: int, segments: int):
    rng = np.random.default_rng(seed)
    action = rng.random((segments, D1)) + 1e-3
    action = action / action.sum(axis=1, keepdims=True)
    return action, rng.random((segments, D2))


# --------------------------------------------------------------------- #
# Executor units
# --------------------------------------------------------------------- #
class TestExecutors:
    def test_serial_map_runs_in_order(self):
        order = []
        executor = SerialExecutor()
        results = executor.map([lambda i=i: order.append(i) or i for i in range(5)])
        assert results == list(range(5))
        assert order == list(range(5))
        assert executor.serial and executor.workers == 1

    def test_serial_executor_is_a_context_manager(self):
        with SerialExecutor() as executor:
            assert isinstance(executor, SerialExecutor)
            assert executor.map([lambda: 1, lambda: 2]) == [1, 2]

    def test_parallel_map_merges_in_submission_order(self):
        with ParallelExecutor(workers=3) as executor:
            assert not executor.serial

            def task(index):
                time.sleep(0.002 * (5 - index))  # later tasks finish first
                return index

            results = executor.map([lambda i=i: task(i) for i in range(5)])
        assert results == list(range(5))

    def test_parallel_rejects_bad_worker_counts_and_use_after_close(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)
        executor = ParallelExecutor(workers=1)
        executor.close()
        executor.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            executor.map([lambda: 1])

    def test_executor_config_validation(self):
        with pytest.raises(ValueError, match="ExecutorConfig.mode"):
            ExecutorConfig(mode="sideways")
        with pytest.raises(ValueError, match="ExecutorConfig.workers"):
            ExecutorConfig(workers=0)

    def test_runtime_config_round_trips_executor_section(self):
        config = RuntimeConfig(
            executor=ExecutorConfig(mode="parallel", workers=2, background_updates=True)
        )
        assert RuntimeConfig.from_json(config.to_json()) == config
        with pytest.raises(ValueError, match="ExecutorConfig.mode"):
            RuntimeConfig.from_dict({"executor": {"mode": 3}})

    def test_build_executor_resolves_env_in_auto_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert isinstance(build_executor(ExecutorConfig()), SerialExecutor)
        monkeypatch.setenv("REPRO_EXECUTOR", "parallel")
        executor = build_executor(ExecutorConfig())
        assert isinstance(executor, ParallelExecutor)
        executor.close()
        # An explicit mode always wins over the environment.
        assert isinstance(build_executor(ExecutorConfig(mode="serial")), SerialExecutor)
        monkeypatch.setenv("REPRO_EXECUTOR", "bogus")
        with pytest.raises(ValueError, match="REPRO_EXECUTOR"):
            build_executor(ExecutorConfig())
        # The process pool is gone; its value is refused, naming what is left.
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        with pytest.raises(ValueError, match=r"REPRO_EXECUTOR must be 'serial' or 'parallel'"):
            build_executor(ExecutorConfig())

    def test_executor_config_refuses_the_retired_process_mode(self):
        # Only a loaded document maps "process" onto threads (the RETIRED
        # table); a config built in code must name a mode that exists.
        with pytest.raises(ValueError, match=r"ExecutorConfig\.mode .*'parallel', 'serial'"):
            ExecutorConfig(mode="process")
        with pytest.raises(TypeError, match="start_method"):
            ExecutorConfig(start_method="fork")

    @pytest.mark.parametrize(
        "mode, workers, reported", [("serial", None, "serial"), ("parallel", 2, "thread")]
    )
    def test_executor_stats_report_mode_and_width_only(self, mode, workers, reported):
        service = ShardedScoringService(
            make_registry(),
            config=ServingConfig(max_batch_size=4, num_shards=2),
            sequence_length=Q,
            executor=build_executor(ExecutorConfig(mode=mode, workers=workers)),
        )
        try:
            assert service.executor_stats() == {
                "mode": reported,
                "workers": workers or 1,
            }
        finally:
            service.close()


# --------------------------------------------------------------------- #
# Bitwise parity at the service level, through same-weights republishes
# --------------------------------------------------------------------- #
class TestServiceLevelParity:
    STREAMS = 2
    SEGMENTS = 48
    REPUBLISH_EVERY = 16

    def _run(self, executor):
        """Single-threaded feed with same-weights republishes at fixed points.

        The publish schedule is deterministic, so serial and thread runs pin
        the same versions for the same batches — detections must be *fully*
        equal, model_version included.
        """
        registry = make_registry()
        service = ShardedScoringService(
            registry,
            config=ServingConfig(max_batch_size=8, num_shards=self.STREAMS),
            sequence_length=Q,
            router=lambda stream_id: int(stream_id.rsplit("-", 1)[1]),
            executor=executor,
        )
        base_model = registry.latest().model
        features = {
            f"stream-{index}": stream_arrays(seed=40 + index, segments=self.SEGMENTS)
            for index in range(self.STREAMS)
        }
        try:
            for position in range(self.SEGMENTS):
                if position and position % self.REPUBLISH_EVERY == 0:
                    registry.publish(base_model, registry.latest().threshold)
                for stream_id, (action, interaction) in features.items():
                    service.submit_many(
                        ((stream_id, action[position], interaction[position]),)
                    )
            service.drain()
            detections = {
                stream_id: service.detections(stream_id) for stream_id in features
            }
        finally:
            service.close()
        return registry, detections

    def test_workers1_matches_serial_bitwise_through_republishes(self):
        _, reference = self._run(SerialExecutor())
        registry, detections = self._run(ParallelExecutor(workers=1))
        assert detections == reference  # frozen dataclasses: exact equality
        # Republishes land at positions 16 and 32 on top of the seed version,
        # and the batches scored after each carry the version they pinned.
        assert registry.highest_published == 3
        versions = {d.model_version for rows in detections.values() for d in rows}
        assert versions == {1, 2, 3}

    def test_two_workers_match_serial_on_deterministic_feed(self):
        _, reference = self._run(SerialExecutor())
        _, detections = self._run(ParallelExecutor(workers=2))
        assert detections == reference
        # Every segment past the first window was scored exactly once.
        for rows in detections.values():
            assert [d.segment_index for d in rows] == list(range(Q, self.SEGMENTS))

    def test_scoring_shares_its_workspaces_across_versions(self):
        # A lone ready batch is scored on the calling thread: start its
        # workspace pool cold.
        clear_thread_workspaces()
        reset_workspace_stats()
        registry, _ = self._run(ParallelExecutor(workers=1))
        assert registry.highest_published == 3
        # Three versions were scored, yet scratch was allocated once per
        # batch shape (8 full rows, 4 drained) and reused from then on.
        stats = workspace_stats()
        assert stats["created"] == 2
        assert stats["reused"] > 0


# --------------------------------------------------------------------- #
# Satellite: concurrency stress (threads ingest while versions publish)
# --------------------------------------------------------------------- #
class TestConcurrencyStress:
    STREAMS = 4
    SEGMENTS = 96
    PUBLISHES = 10

    def _build(self, executor):
        registry = make_registry()
        service = ShardedScoringService(
            registry,
            config=ServingConfig(max_batch_size=8, num_shards=self.STREAMS),
            sequence_length=Q,
            # One stream per shard: each shard's batch composition is then
            # its stream's own FIFO, independent of thread interleaving —
            # which is what makes the parallel run comparable to serial.
            router=lambda stream_id: int(stream_id.rsplit("-", 1)[1]),
            executor=executor,
        )
        return registry, service

    def _features(self):
        return {
            f"stream-{index}": stream_arrays(seed=100 + index, segments=self.SEGMENTS)
            for index in range(self.STREAMS)
        }

    def test_threaded_ingest_with_concurrent_publishes_matches_serial(self):
        features = self._features()

        # Serial reference: one thread, streams fed one after the other.
        _, serial_service = self._build(SerialExecutor())
        for stream_id, (action, interaction) in features.items():
            for position in range(self.SEGMENTS):
                serial_service.submit_many(((stream_id, action[position], interaction[position]),))
        serial_service.drain()

        # Parallel run: one ingest thread per stream, plus a publisher that
        # keeps republishing snapshots of the *same* weights and threshold —
        # hot swaps without numeric drift, so results must match serial.
        registry, service = self._build(ParallelExecutor(workers=3))
        base_model = registry.latest().model
        barrier = threading.Barrier(self.STREAMS + 1)
        returned: dict = {stream_id: [] for stream_id in features}
        errors = []

        def ingest(stream_id):
            action, interaction = features[stream_id]
            try:
                barrier.wait()
                for position in range(self.SEGMENTS):
                    returned[stream_id].extend(
                        service.submit_many(((stream_id, action[position], interaction[position]),))
                    )
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        def publish():
            try:
                barrier.wait()
                for _ in range(self.PUBLISHES):
                    registry.publish(base_model, registry.latest().threshold)
                    time.sleep(0.001)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=ingest, args=(stream_id,)) for stream_id in features
        ] + [threading.Thread(target=publish)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        leftovers = service.drain()
        service.close()

        highest = registry.highest_published
        assert highest == 1 + self.PUBLISHES
        total_returned = sum(len(batch) for batch in returned.values()) + len(leftovers)
        expected_per_stream = self.SEGMENTS - Q
        assert total_returned == self.STREAMS * expected_per_stream

        for stream_id in features:
            ours = service.detections(stream_id)
            reference = serial_service.detections(stream_id)
            # No lost or duplicated detections, in stream order.
            assert [d.segment_index for d in ours] == list(
                range(Q, self.SEGMENTS)
            )
            # Every version served was a published version, and versions are
            # non-decreasing along the stream (batches score in FIFO order
            # and pins only ever move forward).
            versions = [d.model_version for d in ours]
            assert all(1 <= v <= highest for v in versions)
            assert versions == sorted(versions)
            # Bitwise-identical results: every published snapshot holds the
            # same weights, so only model_version may differ from serial.
            assert len(ours) == len(reference)
            for theirs, expected in zip(ours, reference):
                assert theirs.stream_id == expected.stream_id
                assert theirs.segment_index == expected.segment_index
                assert theirs.score == expected.score
                assert theirs.action_error == expected.action_error
                assert theirs.interaction_error == expected.interaction_error
                assert theirs.is_anomaly == expected.is_anomaly
                assert theirs.threshold == expected.threshold

    def test_concurrent_registry_publishes_serialise_into_one_lineage(self):
        registry = make_registry()
        base_model = registry.latest().model
        publishers, each = 4, 6
        barrier = threading.Barrier(publishers)

        def publish():
            barrier.wait()
            for _ in range(each):
                registry.publish(base_model, 0.2)

        threads = [threading.Thread(target=publish) for _ in range(publishers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = 1 + publishers * each
        assert registry.highest_published == expected
        assert registry.versions() == list(range(1, expected + 1))
        assert registry.latest().version == expected


# --------------------------------------------------------------------- #
# Satellite: determinism regression (workers=1 vs serial, bitwise)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def runtime_config(tiny_features) -> RuntimeConfig:
    """The tiny closed-loop deployment from tests/test_runtime.py."""
    return RuntimeConfig(
        model=ModelConfig(
            action_dim=tiny_features.action_dim,
            interaction_dim=tiny_features.interaction_dim,
            action_hidden=12,
            interaction_hidden=6,
        ),
        training=TrainingConfig(epochs=2, batch_size=16, checkpoint_every=1, seed=0),
        serving=ServingConfig(max_batch_size=16, num_shards=2),
        update=UpdateConfig(buffer_size=30, drift_threshold=0.9999, update_epochs=2),
        sequence_length=SEQUENCE_LENGTH,
    )


@pytest.fixture(scope="module")
def drifting_streams(tiny_profile, tiny_pipeline):
    """Three live streams whose action distribution rotates halfway through."""
    generator = SocialStreamGenerator(tiny_profile, seed=11)

    def inject_drift(features):
        action = features.action.copy()
        start = features.num_segments // 2
        action[start:] = np.roll(action[start:], action.shape[1] // 4, axis=1)
        return replace(features, action=action)

    return {
        stream.name: inject_drift(tiny_pipeline.extract(stream))
        for stream in generator.generate_many(count=3, duration_seconds=150.0)
    }


def feed(runtime, streams, drain=True, start_fraction=0.0, stop_fraction=1.0):
    """Round-robin a segment range of every stream through ``runtime.ingest``
    (replay order); by default the whole of each stream."""
    detections = []
    ranges = {
        stream_id: (
            int(features.num_segments * start_fraction),
            int(features.num_segments * stop_fraction),
        )
        for stream_id, features in streams.items()
    }
    longest = max(stop for _, stop in ranges.values())
    for position in range(longest):
        for stream_id, features in streams.items():
            start, stop = ranges[stream_id]
            if start <= position < stop:
                detections.extend(
                    runtime.ingest(
                        stream_id,
                        features.action[position],
                        features.interaction[position],
                        float(features.normalised_interaction[position]),
                    )
                )
    if drain:
        detections.extend(runtime.drain())
    return detections


def _archive_contents(directory):
    """Checkpoint contents as (manifest-sans-config, {file: (arrays, meta)})."""
    manifest = json.loads((directory / "runtime.json").read_text(encoding="utf-8"))
    payload = {}
    for path in sorted(directory.glob("*.npz")):
        payload[path.name] = load_state(path)
    return {key: value for key, value in manifest.items() if key != "config"}, payload


class TestDeterminismRegression:
    def test_workers1_is_bitwise_identical_to_serial(
        self, runtime_config, tiny_features, drifting_streams, tmp_path
    ):
        serial = Runtime.from_config(
            replace(runtime_config, executor=ExecutorConfig(mode="serial"))
        ).fit(tiny_features)
        parallel = Runtime.from_config(
            replace(runtime_config, executor=ExecutorConfig(mode="parallel", workers=1))
        ).fit(tiny_features)

        serial_detections = feed(serial, drifting_streams)
        parallel_detections = feed(parallel, drifting_streams)

        # Detections: frozen dataclasses of floats/ints/strs — equality is
        # exact, so this pins scores, errors, thresholds *and* versions.
        assert serial_detections == parallel_detections
        assert serial.update_reports, "drift loop never fired"
        assert len(serial.update_reports) == len(parallel.update_reports)
        for ours, theirs in zip(serial.update_reports, parallel.update_reports):
            assert ours.version == theirs.version
            assert ours.previous_version == theirs.previous_version
            assert ours.trigger == theirs.trigger
            assert ours.samples == theirs.samples
            assert ours.previous_threshold == theirs.previous_threshold
            assert ours.threshold == theirs.threshold
        assert serial.model_version == parallel.model_version

        # Checkpoint archives: identical manifests (minus the executor
        # section of the config, which deliberately differs) and bitwise-
        # identical arrays in every version file and the state archive.
        serial_manifest, serial_files = _archive_contents(
            serial.checkpoint(tmp_path / "serial")
        )
        parallel_manifest, parallel_files = _archive_contents(
            parallel.checkpoint(tmp_path / "parallel")
        )
        assert serial_manifest == parallel_manifest
        assert sorted(serial_files) == sorted(parallel_files)
        for name, (arrays, metadata) in serial_files.items():
            other_arrays, other_metadata = parallel_files[name]
            assert metadata == other_metadata
            assert sorted(arrays) == sorted(other_arrays)
            for key, array in arrays.items():
                other = other_arrays[key]
                assert array.dtype == other.dtype and array.shape == other.shape
                assert array.tobytes() == other.tobytes(), f"{name}:{key} differs"
        serial.close()
        parallel.close()


class TestCheckpointParity:
    def test_parallel_runtime_matches_serial_across_checkpoint_restore(
        self, runtime_config, tiny_features, drifting_streams, tmp_path
    ):
        """A thread-executor runtime fed half the drift workload,
        checkpointed, restored and fed the tail matches the serial runtime's
        uninterrupted run detection-for-detection: scores, thresholds,
        versions and update lineage.
        """
        serial = Runtime.from_config(
            replace(runtime_config, executor=ExecutorConfig(mode="serial"))
        ).fit(tiny_features)
        parallel = Runtime.from_config(
            replace(runtime_config, executor=ExecutorConfig(mode="parallel", workers=2))
        ).fit(tiny_features)
        reference = feed(serial, drifting_streams)

        head = feed(parallel, drifting_streams, drain=False, stop_fraction=0.5)
        restored = Runtime.from_checkpoint(parallel.checkpoint(tmp_path / "ckpt"))
        # The checkpointed config carries the executor section.
        assert restored.executor_stats() == {"mode": "thread", "workers": 2}
        tail = feed(restored, drifting_streams, start_fraction=0.5)

        assert reference == head + tail  # exact dataclass equality
        assert serial.model_version == restored.model_version
        assert serial.anomaly_threshold == restored.anomaly_threshold
        assert restored.update_reports, "restored runtime never updated on the tail"
        serial.close()
        parallel.close()
        restored.close()


# --------------------------------------------------------------------- #
# Satellite: ShardStats invariants under randomised ingest schedules
# --------------------------------------------------------------------- #
class TestShardStatsProperties:
    MAX_BATCH = 6
    SHARDS = 3
    STREAM_IDS = [f"load-{index}" for index in range(7)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_invariants_hold_under_random_schedules(self, seed):
        rng = np.random.default_rng(seed)
        clock = ManualClock()
        registry = make_registry()
        service = ShardedScoringService(
            registry,
            config=ServingConfig(
                max_batch_size=self.MAX_BATCH,
                max_batch_delay_ms=50.0,
                num_shards=self.SHARDS,
            ),
            sequence_length=Q,
            clock=clock,
        )
        submitted = {stream_id: 0 for stream_id in self.STREAM_IDS}
        previous_seconds = [0.0] * self.SHARDS

        def check(after_poll: bool) -> None:
            stats = service.load_stats()
            assert [s.shard_index for s in stats] == list(range(self.SHARDS))
            warmed = sum(max(0, count - Q) for count in submitted.values())
            scored = sum(s.segments_scored for s in stats)
            queued = sum(s.queue_depth for s in stats)
            # Conservation: every warmed-up submission is scored or queued.
            assert scored + queued == warmed
            routed = {stream_id for stream_id, count in submitted.items() if count}
            assert sum(s.streams for s in stats) == len(routed)
            for s in stats:
                # submit/poll flush full batches, so depth stays bounded.
                assert 0 <= s.queue_depth < self.MAX_BATCH
                assert 0.0 <= s.batch_occupancy <= 1.0
                assert s.mean_batch_size <= s.max_batch_size
                if s.batches:
                    assert s.batch_occupancy > 0.0
                    assert s.mean_batch_latency_ms >= 0.0
                else:
                    assert s.segments_scored == 0 and s.scoring_seconds == 0.0
                assert s.scoring_seconds >= previous_seconds[s.shard_index]
                previous_seconds[s.shard_index] = s.scoring_seconds
            if after_poll:
                # poll() leaves no shard with an expired queue head.
                for shard in service.shards:
                    oldest = shard.batcher.oldest_arrival()
                    assert oldest is None or clock.now - oldest < 0.05

        for _ in range(300):
            op = rng.choice(["submit", "advance", "poll"], p=[0.7, 0.2, 0.1])
            if op == "submit":
                stream_id = str(rng.choice(self.STREAM_IDS))
                submitted[stream_id] += 1
                service.submit_many(((stream_id, rng.random(D1), rng.random(D2)),))
            elif op == "advance":
                clock.advance(float(rng.random() * 0.04))
            else:
                service.poll()
            check(after_poll=op == "poll")

        service.drain()
        stats = service.load_stats()
        assert all(s.queue_depth == 0 for s in stats)
        assert sum(s.segments_scored for s in stats) == sum(
            max(0, count - Q) for count in submitted.values()
        )

    def test_reset_stats_zeroes_every_shard_and_keeps_the_detections(self):
        service = ShardedScoringService(
            make_registry(),
            config=ServingConfig(max_batch_size=self.MAX_BATCH, num_shards=self.SHARDS),
            sequence_length=Q,
        )
        for index, stream_id in enumerate(self.STREAM_IDS):
            action, interaction = stream_arrays(index, Q + 3)
            service.submit_many((stream_id, a, i) for a, i in zip(action, interaction))
        service.drain()
        assert sum(s.segments_scored for s in service.load_stats()) == 3 * len(self.STREAM_IDS)
        service.reset_stats()
        for s in service.load_stats():
            assert (s.segments_scored, s.batches, s.scoring_seconds) == (0, 0, 0.0)
        assert sum(len(service.detections(stream_id)) for stream_id in self.STREAM_IDS) == 3 * len(
            self.STREAM_IDS
        )


# --------------------------------------------------------------------- #
# Satellite: drain() flushes deadline work a stalled clock would strand
# --------------------------------------------------------------------- #
class TestDrainDeadlineAudit:
    def _service(self, clock):
        return ScoringService(
            registry=make_registry(),
            sequence_length=Q,
            max_batch_size=8,
            max_batch_delay_ms=100.0,
            clock=clock,
        )

    def test_drain_flushes_final_underfilled_batch_when_clock_never_advances(self):
        clock = ManualClock()
        service = self._service(clock)
        action, interaction = stream_arrays(seed=5, segments=Q + 3)
        for position in range(Q + 3):
            service.submit_many((("audit", action[position], interaction[position]),))
        # The deadline never fires (simulated time is frozen), the batch is
        # under-filled — a poll-only driver would strand these forever.
        assert service.poll() == []
        assert len(service.batcher) == 3
        produced = service.drain()
        assert [d.segment_index for d in produced] == [Q, Q + 1, Q + 2]
        assert len(service.batcher) == 0
        assert service.drain() == []  # idempotent once empty

    def test_drain_flushes_expired_batches_before_fresh_ones(self):
        clock = ManualClock()
        service = self._service(clock)
        action, interaction = stream_arrays(seed=6, segments=Q + 2)
        for position in range(Q + 1):
            service.submit_many((("expired", action[position], interaction[position]),))
        clock.advance(0.2)  # queued request is now past its deadline
        assert service.batcher.expired(clock.now)
        produced = service.drain()
        assert [d.segment_index for d in produced] == [Q]
        # The expired batch was flushed by the deadline loop, exactly as a
        # running service's poll() would have flushed it.
        assert service.stats.batches == 1

    def test_sharded_drain_reaches_every_shard(self):
        clock = ManualClock()
        registry = make_registry()
        service = ShardedScoringService(
            registry,
            config=ServingConfig(max_batch_size=8, max_batch_delay_ms=100.0, num_shards=2),
            sequence_length=Q,
            router=lambda stream_id: int(stream_id.rsplit("-", 1)[1]),
            clock=clock,
        )
        for index in range(2):
            action, interaction = stream_arrays(seed=7 + index, segments=Q + 2)
            for position in range(Q + 2):
                service.submit_many(((f"s-{index}", action[position], interaction[position]),))
        assert service.poll() == []
        produced = service.drain()
        assert len(produced) == 4
        assert all(len(shard.batcher) == 0 for shard in service.shards)


# --------------------------------------------------------------------- #
# Background update plane
# --------------------------------------------------------------------- #
class TestBackgroundUpdatePlane:
    def test_runtime_with_background_updates_closes_the_loop(
        self, runtime_config, tiny_features, drifting_streams, tmp_path
    ):
        config = replace(
            runtime_config,
            executor=ExecutorConfig(mode="parallel", workers=2, background_updates=True),
        )
        runtime = Runtime.from_config(config).fit(tiny_features)
        feed(runtime, drifting_streams, drain=False)
        runtime.drain()  # scores the tail and waits for in-flight retrains
        assert runtime.update_triggers, "drift never triggered"
        assert runtime.update_reports, "no background update landed"
        assert runtime.model_version > 1
        # Retrains were serialised FIFO into one coherent lineage.
        versions = [report.version for report in runtime.update_reports]
        assert versions == sorted(versions)
        # Checkpoint quiesces first and restores cleanly.
        directory = runtime.checkpoint(tmp_path / "ckpt")
        restored = Runtime.from_checkpoint(directory)
        assert restored.model_version == runtime.model_version
        assert restored.anomaly_threshold == runtime.anomaly_threshold
        runtime.close()
        restored.close()

    def test_quiesce_surfaces_background_failures(self):
        registry = make_registry()
        plane = BackgroundUpdatePlane(
            UpdatePlane(registry, update_config=UpdateConfig(buffer_size=4))
        )
        trigger = UpdateTrigger(
            segment_index=9, similarity=0.1, buffered_segments=0, stream_ids=()
        )
        plane.handle_trigger(trigger, [])  # empty buffer: the retrain fails
        with pytest.raises(RuntimeError, match="background update"):
            plane.quiesce()
        plane.quiesce()  # failure list was drained by the raise
        plane.close()
        plane.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            plane.handle_trigger(trigger, [])

    def test_close_surfaces_failures_not_yet_observed(self):
        registry = make_registry()
        plane = BackgroundUpdatePlane(
            UpdatePlane(registry, update_config=UpdateConfig(buffer_size=4))
        )
        trigger = UpdateTrigger(
            segment_index=9, similarity=0.1, buffered_segments=0, stream_ids=()
        )
        plane.handle_trigger(trigger, [])  # empty buffer: the retrain fails
        # Shutting down without a quiesce must not swallow the crash.
        with pytest.raises(RuntimeError, match="background update"):
            plane.close()
        plane.close()  # failure drained; close stays idempotent

    def test_wrapper_delegates_the_plane_surface(self):
        registry = make_registry()
        inner = UpdatePlane(registry, update_config=UpdateConfig(buffer_size=4))
        plane = BackgroundUpdatePlane(inner)
        try:
            assert plane.registry is registry
            assert plane.updates_performed == 0
            assert plane.reports == []
            assert plane.pending_updates == 0
            plane.restore_update_count(3)
            assert plane.updates_performed == 3
            assert inner.updates_performed == 3
        finally:
            plane.close()


class TestDefaultWorkers:
    def test_sizes_pool_from_affinity_mask_not_cpu_count(self, monkeypatch):
        from repro.serving import executor as executor_module

        # A cgroup cpuset grants 3 CPUs on a 64-core host: the pool must
        # follow the affinity mask, not the host count.
        monkeypatch.setattr(
            executor_module.os, "sched_getaffinity", lambda pid: {0, 1, 5}, raising=False
        )
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 64)
        assert executor_module.default_workers() == 3

    def test_falls_back_to_cpu_count_without_affinity_support(self, monkeypatch):
        from repro.serving import executor as executor_module

        def unsupported(pid):
            raise OSError("sched_getaffinity is not supported here")

        monkeypatch.setattr(
            executor_module.os, "sched_getaffinity", unsupported, raising=False
        )
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 5)
        assert executor_module.default_workers() == 5
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: None)
        assert executor_module.default_workers() == 1

    def test_wide_masks_are_capped(self, monkeypatch):
        from repro.serving import executor as executor_module

        monkeypatch.setattr(
            executor_module.os,
            "sched_getaffinity",
            lambda pid: set(range(64)),
            raising=False,
        )
        assert executor_module.default_workers() == executor_module._DEFAULT_WORKER_CAP


class TestBackgroundPlanePause:
    def test_pause_queues_jobs_and_nesting_balances(self):
        plane = BackgroundUpdatePlane(
            UpdatePlane(make_registry(), update_config=UpdateConfig(buffer_size=4))
        )
        trigger = UpdateTrigger(
            segment_index=1, similarity=0.1, buffered_segments=0, stream_ids=()
        )
        plane.pause()
        plane.pause()  # nesting: a checkpoint inside a paused section
        plane.handle_trigger(trigger, [])
        plane.handle_trigger(trigger, [])
        assert plane.pending_updates == 2
        assert [queued for queued, _ in plane.pending_jobs()] == [trigger, trigger]
        plane.resume()  # still paused at depth 1
        time.sleep(0.05)
        assert plane.pending_updates == 2
        plane.resume()  # depth 0: the queued jobs run (and fail: empty buffer)
        with pytest.raises(RuntimeError, match="background update"):
            plane.quiesce()
        with pytest.raises(RuntimeError, match="without a matching pause"):
            plane.resume()
        plane.close()

    def test_close_runs_queued_jobs_instead_of_discarding_them(self):
        """Regression: close() used to drop triggers still in the queue —
        accepted drift evidence silently vanished at shutdown."""
        plane = BackgroundUpdatePlane(
            UpdatePlane(make_registry(), update_config=UpdateConfig(buffer_size=4))
        )
        trigger = UpdateTrigger(
            segment_index=1, similarity=0.1, buffered_segments=0, stream_ids=()
        )
        plane.pause()
        plane.handle_trigger(trigger, [])
        # The queued job *runs* during close (its failure proves it did).
        with pytest.raises(RuntimeError, match="background update"):
            plane.close()
        assert plane.pending_updates == 0
        plane.close()  # idempotent after the failure drained

    def test_synchronous_plane_pause_surface_is_a_no_op(self):
        plane = UpdatePlane(make_registry(), update_config=UpdateConfig(buffer_size=4))
        plane.pause()
        plane.resume()
        assert plane.pending_jobs() == []
