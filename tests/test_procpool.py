"""Process-parallel serving executor tests.

Covers the acceptance contract of ``repro.serving.procpool``:

* configuration and construction (``ExecutorConfig(mode="process")``, the
  ``REPRO_EXECUTOR=process`` environment override, argument validation,
  use-after-close);
* ``map`` submission-order semantics (shared with the thread executor);
* bitwise parity — ``ProcessParallelExecutor(workers=1)`` must equal the
  serial path exactly, at the service level (including snapshot re-exports
  forced by hot republishes) and at the runtime level *across a
  checkpoint/restore boundary*;
* shared-memory hygiene: ``close()`` unlinks every segment, a SIGKILLed
  worker surfaces as :class:`WorkerCrashed` without orphaning segments, the
  finalizer fires on garbage collection, and the module atexit hook cleans
  up an interpreter that never called ``close()``;
* the flush-to-score latency reservoir behind ``ShardStats``
  p50/p95/p99, driven by a :class:`ManualClock`.
"""

from __future__ import annotations

import gc
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import Runtime, RuntimeConfig
from repro.core.clstm import CLSTM
from repro.core.detector import AnomalyDetector
from repro.serving import (
    ManualClock,
    ModelRegistry,
    ProcessParallelExecutor,
    ScoringService,
    SerialExecutor,
    ShardedScoringService,
    WorkerCrashed,
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

REPO_ROOT = Path(__file__).resolve().parent.parent

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)


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


def shm_leftovers(prefix: str):
    """Entries under /dev/shm still carrying an executor's segment prefix."""
    return sorted(name for name in os.listdir("/dev/shm") if name.startswith(prefix))


# --------------------------------------------------------------------- #
# Construction, configuration, map semantics
# --------------------------------------------------------------------- #
class TestProcessExecutorBasics:
    def test_config_accepts_process_mode(self):
        config = ExecutorConfig(mode="process", workers=2, start_method="fork")
        assert RuntimeConfig.from_json(
            RuntimeConfig(executor=config).to_json()
        ).executor == config
        with pytest.raises(ValueError, match="start_method"):
            ExecutorConfig(mode="process", start_method="sideways")

    def test_build_executor_process_mode(self):
        executor = build_executor(ExecutorConfig(mode="process", workers=1))
        try:
            assert isinstance(executor, ProcessParallelExecutor)
            assert not executor.serial
            assert executor.workers == 1
        finally:
            executor.close()

    def test_env_resolves_process_in_auto_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        executor = build_executor(ExecutorConfig())
        try:
            assert isinstance(executor, ProcessParallelExecutor)
        finally:
            executor.close()
        # An explicit mode still wins over the environment.
        assert isinstance(build_executor(ExecutorConfig(mode="serial")), SerialExecutor)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessParallelExecutor(workers=0)
        with pytest.raises(ValueError, match="start_method"):
            ProcessParallelExecutor(workers=1, start_method="sideways")

    def test_map_merges_in_submission_order(self):
        with ProcessParallelExecutor(workers=3) as executor:

            def task(index):
                time.sleep(0.002 * (5 - index))  # later tasks finish first
                return index

            assert executor.map([lambda i=i: task(i) for i in range(5)]) == list(
                range(5)
            )
            assert executor.map([]) == []

    def test_close_is_idempotent_and_map_after_close_raises(self):
        executor = ProcessParallelExecutor(workers=1)
        executor.close()
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.map([lambda: 1])


# --------------------------------------------------------------------- #
# Bitwise parity at the service level (incl. hot republish / re-export)
# --------------------------------------------------------------------- #
class TestServiceLevelParity:
    STREAMS = 2
    SEGMENTS = 48
    REPUBLISH_EVERY = 16

    def _build(self, executor):
        registry = make_registry()
        service = ShardedScoringService(
            registry,
            config=ServingConfig(max_batch_size=8, num_shards=self.STREAMS),
            sequence_length=Q,
            router=lambda stream_id: int(stream_id.rsplit("-", 1)[1]),
            executor=executor,
        )
        return registry, service

    def _run(self, executor):
        """Single-threaded feed with same-weights republishes at fixed points.

        The publish schedule is deterministic, so serial and process runs pin
        the same versions for the same batches — detections must be *fully*
        equal, model_version included.  Each republish bumps the version and
        forces the snapshot plane to export a fresh segment, exercising the
        worker's stale/rebuild path mid-stream.
        """
        registry, service = self._build(executor)
        base_model = registry.latest().model
        features = {
            f"stream-{index}": stream_arrays(seed=40 + index, segments=self.SEGMENTS)
            for index in range(self.STREAMS)
        }
        for position in range(self.SEGMENTS):
            if position and position % self.REPUBLISH_EVERY == 0:
                registry.publish(base_model, registry.latest().threshold)
            for stream_id, (action, interaction) in features.items():
                service.submit_many(((stream_id, action[position], interaction[position]),))
        service.drain()
        detections = {
            stream_id: service.detections(stream_id) for stream_id in features
        }
        return registry, service, detections

    def test_workers1_matches_serial_bitwise_through_republishes(self):
        _, serial_service, reference = self._run(SerialExecutor())
        registry, service, detections = self._run(ProcessParallelExecutor(workers=1))
        try:
            assert detections == reference  # frozen dataclasses: exact equality
            stats = service.executor_stats()
            assert stats["mode"] == "process"
            assert stats["start_method"] in ("fork", "spawn", "forkserver")
            # Republishes land at positions 16 and 32 on top of the seed
            # version; all three versions share the one registry slot.
            assert registry.highest_published == 3
            assert stats["latest_versions"] == {"0": registry.highest_published}
            # Pruning keeps at most the two newest versions per slot.
            assert 1 <= stats["segments"] <= 2
            assert stats["segment_bytes"] > 0
            for worker in stats["worker_processes"]:
                assert worker["alive"]
                assert worker["zero_copy_bytes"] > 0
                assert worker["slots"] == {"0": registry.highest_published}
        finally:
            service.close()
            serial_service.close()

    def test_worker_shares_its_workspaces_across_attached_versions(self):
        registry, service, _ = self._run(ProcessParallelExecutor(workers=1))
        try:
            assert registry.highest_published == 3
            (handle,) = service.executor._handles
            with handle.lock:
                reply = handle.request_locked(("stats",))
            assert reply[0] == "ok"
            # The worker rebuilt its model for each of the three versions, yet
            # allocated scratch once per batch shape (8 full rows, 4 drained).
            assert reply[1]["workspaces"]["created"] == 2
        finally:
            service.close()

    def test_two_workers_match_serial_on_deterministic_feed(self):
        _, serial_service, reference = self._run(SerialExecutor())
        _, service, detections = self._run(ProcessParallelExecutor(workers=2))
        try:
            assert detections == reference
            alive = [
                worker
                for worker in service.executor_stats()["worker_processes"]
                if worker["alive"]
            ]
            assert len(alive) == 2
        finally:
            service.close()
            serial_service.close()


# --------------------------------------------------------------------- #
# Bitwise parity at the runtime level, across checkpoint/restore
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


def feed(runtime, streams, start_fraction=0.0, stop_fraction=1.0, drain=True):
    """Round-robin a segment range of every stream through ``runtime.ingest``."""
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


class TestRuntimeParity:
    @needs_dev_shm
    def test_workers1_bitwise_vs_serial_across_checkpoint_restore(
        self, runtime_config, tiny_features, drifting_streams, tmp_path
    ):
        """The full acceptance gate: a process-mode runtime fed half the
        drift workload, checkpointed, restored and fed the tail must match
        the serial runtime's uninterrupted run detection-for-detection —
        scores, thresholds, versions, update lineage.
        """
        serial = Runtime.from_config(
            replace(runtime_config, executor=ExecutorConfig(mode="serial"))
        ).fit(tiny_features)
        process = Runtime.from_config(
            replace(
                runtime_config, executor=ExecutorConfig(mode="process", workers=1)
            )
        ).fit(tiny_features)
        prefix = process.executor_stats()["segment_prefix"]

        reference = feed(serial, drifting_streams)

        head = feed(process, drifting_streams, stop_fraction=0.5, drain=False)
        directory = process.checkpoint(tmp_path / "ckpt")
        restored = Runtime.from_checkpoint(directory)
        # The checkpointed config carries the executor section: the restored
        # runtime is again process-mode without any caller-side plumbing.
        restored_stats = restored.executor_stats()
        assert restored_stats["mode"] == "process"
        restored_prefix = restored_stats["segment_prefix"]
        tail = feed(restored, drifting_streams, start_fraction=0.5)

        assert reference == head + tail  # exact dataclass equality
        assert serial.model_version == restored.model_version
        assert serial.anomaly_threshold == restored.anomaly_threshold
        assert restored.update_reports, "restored runtime never updated on the tail"

        serial.close()
        process.close()
        restored.close()
        assert shm_leftovers(prefix) == []
        assert shm_leftovers(restored_prefix) == []


# --------------------------------------------------------------------- #
# Shared-memory hygiene: close, crash, finalizer, atexit
# --------------------------------------------------------------------- #
@needs_dev_shm
class TestSharedMemoryCleanup:
    def _scored_service(self, workers: int = 1):
        registry = make_registry()
        service = ShardedScoringService(
            registry,
            config=ServingConfig(max_batch_size=4, num_shards=1),
            sequence_length=Q,
            executor=ProcessParallelExecutor(workers=workers),
        )
        action, interaction = stream_arrays(seed=7, segments=Q + 3)
        for position in range(Q + 3):
            service.submit_many((("live-0", action[position], interaction[position]),))
        detections = service.drain()
        assert detections, "workload never produced a scored batch"
        return service

    def test_close_unlinks_every_segment(self):
        service = self._scored_service()
        prefix = service.executor.segment_prefix
        assert shm_leftovers(prefix), "expected live segments before close"
        service.close()
        assert shm_leftovers(prefix) == []

    def test_sigkilled_worker_surfaces_and_leaks_nothing(self):
        """Killing a worker mid-deployment must raise WorkerCrashed on the
        next batch routed to it — and close() must still leave /dev/shm
        spotless: the parent, not the worker, owns every segment."""
        service = self._scored_service()
        executor = service.executor
        prefix = executor.segment_prefix
        handle = executor._handles[0]
        os.kill(handle.process.pid, signal.SIGKILL)
        handle.process.join(timeout=10.0)
        assert not handle.process.is_alive()

        action, interaction = stream_arrays(seed=8, segments=Q + 1)
        for position in range(Q + 1):
            service.submit_many((("live-1", action[position], interaction[position]),))
        with pytest.raises(WorkerCrashed):
            service.drain()
        service.close()
        assert shm_leftovers(prefix) == []

    def test_finalizer_unlinks_on_garbage_collection(self):
        def build_and_drop() -> str:
            service = self._scored_service()
            return service.executor.segment_prefix

        prefix = build_and_drop()
        for _ in range(3):
            gc.collect()
        assert shm_leftovers(prefix) == []

    def test_atexit_hook_cleans_up_unclosed_interpreter(self):
        """An interpreter that builds an executor and exits without close()
        must leave no trace: the module atexit hook terminates workers and
        unlinks segments.  stderr is asserted empty — resource-tracker
        KeyError spam on exit is a regression this test exists to catch."""
        script = (
            "from repro.serving import ProcessParallelExecutor\n"
            "executor = ProcessParallelExecutor(workers=1)\n"
            "print(executor.segment_prefix, flush=True)\n"
            "# no close(): the atexit hook owns the cleanup\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        prefix = result.stdout.strip()
        assert prefix.startswith("reproshm")
        assert shm_leftovers(prefix) == []


# --------------------------------------------------------------------- #
# Satellite: flush-to-score latency percentiles (ManualClock-driven)
# --------------------------------------------------------------------- #
class TestLatencyPercentiles:
    def _service(self, clock, latency_reservoir: int = 512) -> ScoringService:
        return ScoringService(
            registry=make_registry(),
            sequence_length=Q,
            max_batch_size=64,
            clock=clock,
            latency_reservoir=latency_reservoir,
        )

    def _record(self, service, clock, latencies_ms, seed: int = 5, stream: str = "s"):
        """Queue one segment per latency, advance the clock by exactly that
        much, then flush — each flush records one reservoir sample."""
        segments = Q + len(latencies_ms)
        action, interaction = stream_arrays(seed=seed, segments=segments)
        for position in range(Q):  # warm the session up; nothing enqueues
            service.submit_many(((stream, action[position], interaction[position]),))
        for offset, latency_ms in enumerate(latencies_ms):
            position = Q + offset
            service.submit_many(((stream, action[position], interaction[position]),))
            clock.advance(latency_ms / 1000.0)
            assert service.flush()

    def test_rejects_non_positive_reservoir(self):
        with pytest.raises(ValueError, match="latency_reservoir"):
            self._service(ManualClock(), latency_reservoir=0)
        with pytest.raises(ValueError, match="latency_reservoir"):
            ServingConfig(latency_reservoir=0)

    def test_percentiles_are_zero_before_any_batch(self):
        stats = self._service(ManualClock()).load_stats()
        assert (stats.latency_p50_ms, stats.latency_p95_ms, stats.latency_p99_ms) == (
            0.0,
            0.0,
            0.0,
        )

    def test_percentiles_match_numpy_on_known_latencies(self):
        clock = ManualClock()
        service = self._service(clock)
        latencies = [10.0, 20.0, 30.0, 40.0]
        self._record(service, clock, latencies)
        stats = service.load_stats()
        p50, p95, p99 = np.percentile(latencies, [50.0, 95.0, 99.0])
        assert stats.latency_p50_ms == pytest.approx(float(p50))
        assert stats.latency_p95_ms == pytest.approx(float(p95))
        assert stats.latency_p99_ms == pytest.approx(float(p99))

    def test_reservoir_is_bounded_and_keeps_newest(self):
        clock = ManualClock()
        service = self._service(clock, latency_reservoir=4)
        self._record(service, clock, [10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        stats = service.load_stats()
        # Only the four newest samples survive in the bounded deque.
        p50, p95, p99 = np.percentile([30.0, 40.0, 50.0, 60.0], [50.0, 95.0, 99.0])
        assert stats.latency_p50_ms == pytest.approx(float(p50))
        assert stats.latency_p95_ms == pytest.approx(float(p95))
        assert stats.latency_p99_ms == pytest.approx(float(p99))

    def test_reset_stats_clears_the_reservoir(self):
        clock = ManualClock()
        service = self._service(clock)
        self._record(service, clock, [15.0, 25.0])
        assert service.load_stats().latency_p50_ms > 0.0
        service.reset_stats()
        stats = service.load_stats()
        assert (stats.latency_p50_ms, stats.latency_p95_ms, stats.latency_p99_ms) == (
            0.0,
            0.0,
            0.0,
        )
