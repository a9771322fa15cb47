"""End-to-end tests for the unified ``repro.runtime`` facade.

Covers the acceptance contract of the runtime: declarative JSON config →
``Runtime.from_config`` → the full closed loop (fit → serve → drift update →
version bump), and the crash-recovery story — ``checkpoint()`` /
``Runtime.from_checkpoint()`` resume with bitwise-identical detections and
version swaps on a replayed stream tail.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro import Runtime, RuntimeConfig
from repro.runtime import CHECKPOINT_FORMAT
from repro.serving import ManualClock
from repro.core.detector import AnomalyDetector
from repro.streams.generator import SocialStreamGenerator
from repro.utils.config import (
    DetectionConfig,
    ExecutorConfig,
    ModelConfig,
    ServingConfig,
    TrainingConfig,
    UpdateConfig,
)


SEQUENCE_LENGTH = 5


@pytest.fixture(scope="module")
def runtime_config(tiny_features) -> RuntimeConfig:
    """A small but complete deployment description for the tiny pipeline."""
    return RuntimeConfig(
        model=ModelConfig(
            action_dim=tiny_features.action_dim,
            interaction_dim=tiny_features.interaction_dim,
            action_hidden=12,
            interaction_hidden=6,
        ),
        training=TrainingConfig(epochs=2, batch_size=16, checkpoint_every=1, seed=0),
        serving=ServingConfig(max_batch_size=16, num_shards=2),
        # The simulated streams are near-stationary: Eq. 17's mean-cosine sits
        # ~0.999, so a demonstration threshold just below 1.0 makes the drift
        # loop actually fire (same device as examples/online_learning_runtime).
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
    """Round-robin a segment range of every stream through ``runtime.ingest``.

    Deterministic submission order (the order a replay driver would use), so
    two runtimes fed the same range see identical micro-batch compositions.
    """
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


class TestRuntimeConfig:
    def test_json_round_trip_through_file(self, runtime_config, tmp_path):
        path = tmp_path / "deployment.json"
        path.write_text(runtime_config.to_json(), encoding="utf-8")
        assert RuntimeConfig.from_json(path) == runtime_config

    def test_json_round_trip_through_text(self, runtime_config):
        assert RuntimeConfig.from_json(runtime_config.to_json()) == runtime_config

    def test_nested_section_errors_name_the_field(self):
        with pytest.raises(ValueError, match="TrainingConfig.epochs"):
            RuntimeConfig.from_dict({"training": {"epochs": "many"}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="RuntimeConfig.*unknown field"):
            RuntimeConfig.from_dict({"modle": {}})

    @pytest.mark.parametrize(
        "update, field",
        [({"buffer_size": 0}, "buffer_size"), ({"merge_weight": 1.5}, "merge_weight")],
    )
    def test_manifest_with_unservable_update_section_refused(self, update, field):
        with pytest.raises(ValueError, match=rf"UpdateConfig\.{field}"):
            RuntimeConfig.from_dict({"update": update})

    @pytest.mark.parametrize(
        "detection, field",
        [({"adg_subspaces": 0}, "adg_subspaces"), ({"normal_threshold_ratio": -1.0}, "normal_threshold_ratio")],
    )
    def test_manifest_with_unusable_detection_section_refused(self, detection, field):
        with pytest.raises(ValueError, match=rf"DetectionConfig\.{field}"):
            RuntimeConfig.from_dict({"detection": detection})

    @pytest.mark.parametrize(
        "model, field",
        [({"action_hidden": 0}, "action_hidden"), ({"precision": "float16"}, "precision")],
    )
    def test_manifest_with_unusable_model_section_refused(self, model, field):
        with pytest.raises(ValueError, match=rf"ModelConfig\.{field}"):
            RuntimeConfig.from_dict({"model": model})

    def test_retired_backend_and_delta_keys(self, runtime_config):
        document = runtime_config.to_dict()
        assert "backend" not in document["model"] and "delta" not in document["durability"]
        document["model"]["backend"] = "auto"
        document["durability"]["delta"] = True
        assert RuntimeConfig.from_dict(document) == runtime_config
        document["durability"]["delta"] = False
        assert RuntimeConfig.from_dict(document).durability.full_every == 1
        document["model"]["backend"] = "gpu"
        with pytest.raises(ValueError, match=r"ModelConfig\.backend"):
            RuntimeConfig.from_dict(document)

    def test_coupling_validated(self):
        with pytest.raises(ValueError, match="RuntimeConfig.coupling"):
            RuntimeConfig(coupling="sideways")

    def test_top_k_detection_rejected(self):
        with pytest.raises(ValueError, match="top_k"):
            RuntimeConfig(detection=DetectionConfig(top_k=5))


class TestRuntimeLifecycle:
    def test_unfitted_runtime_guards(self, runtime_config):
        runtime = Runtime.from_config(runtime_config)
        assert not runtime.fitted
        with pytest.raises(RuntimeError, match="not fitted"):
            runtime.ingest("s", np.zeros(3), np.zeros(2))
        with pytest.raises(RuntimeError, match="not fitted"):
            runtime.model_version

    def test_fit_validates_feature_dims(self, runtime_config, tiny_features):
        config = replace(runtime_config, model=replace(runtime_config.model, action_dim=99))
        with pytest.raises(ValueError, match="action_dim"):
            Runtime.from_config(config).fit(tiny_features)

    def test_closed_runtime_rejects_traffic(self, runtime_config, tiny_features):
        runtime = Runtime.from_config(runtime_config).fit(tiny_features)
        runtime.close()
        assert runtime.close() == []  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            runtime.ingest("s", tiny_features.action[0], tiny_features.interaction[0])

    def test_closed_loop_fit_serve_update_version_bump(
        self, runtime_config, tiny_features, drifting_streams
    ):
        """The acceptance loop: fit → serve → drift update → version bump."""
        runtime = Runtime.from_config(runtime_config).fit(tiny_features)
        assert runtime.model_version == 1
        assert runtime.anomaly_threshold == pytest.approx(
            runtime.registry.latest().threshold
        )

        detections = feed(runtime, drifting_streams)
        assert detections, "serving produced no detections"
        assert runtime.update_triggers, "drift never triggered"
        assert runtime.update_reports, "no in-service update completed"
        assert runtime.model_version > 1, "no version bump"
        # Detections are attributable: later versions actually served traffic.
        served_versions = {d.model_version for d in detections}
        assert 1 in served_versions and max(served_versions) > 1
        # Re-calibration happened: the served threshold moved with the update.
        report = runtime.update_reports[0]
        assert report.previous_version == 1
        assert report.samples > 0

    def test_detections_carry_the_batch_columns_as_python_scalars(
        self, runtime_config, tiny_features, drifting_streams, monkeypatch
    ):
        """Detections are built column-wise (``.tolist()``); every field must
        equal — bitwise, and as a Python ``float``/``bool`` — what
        ``float()``/``bool()`` of that row's NumPy scalar gives, across a
        replay whose update plane publishes new versions."""
        batches = []
        score_predictions = AnomalyDetector.score_predictions

        def recording_score_predictions(self, *arrays):
            batches.append(score_predictions(self, *arrays))
            return batches[-1]

        monkeypatch.setattr(AnomalyDetector, "score_predictions", recording_score_predictions)
        # Serial: the batches are recorded in the order their rows are emitted.
        config = replace(runtime_config, executor=ExecutorConfig(mode="serial"))
        runtime = Runtime.from_config(config).fit(tiny_features)
        detections = runtime.replay(drifting_streams)
        assert max(d.model_version for d in detections) > 1, "no publish during the replay"
        assert len(detections) == sum(len(batch.scores) for batch in batches)
        expected = [
            (
                float(batch.scores[row]),
                float(batch.action_errors[row]),
                float(batch.interaction_errors[row]),
                bool(batch.is_anomaly[row]),
                float(batch.threshold),
            )
            for batch in batches
            for row in range(len(batch.scores))
        ]
        emitted = [
            (d.score, d.action_error, d.interaction_error, d.is_anomaly, d.threshold)
            for d in detections
        ]
        assert [[type(value) for value in row] for row in emitted] == [
            [float, float, float, bool, float]
        ] * len(emitted)
        assert emitted == expected
        runtime.close()

    def test_frozen_runtime_never_updates(self, runtime_config, tiny_features, drifting_streams):
        config = replace(runtime_config, enable_updates=False)
        runtime = Runtime.from_config(config).fit(tiny_features)
        feed(runtime, drifting_streams, stop_fraction=0.5)
        assert runtime.update_triggers == []
        assert runtime.update_reports == []
        assert runtime.model_version == 1


class TestCheckpointRestore:
    def test_resume_is_bitwise_identical(
        self, runtime_config, tiny_features, drifting_streams, tmp_path
    ):
        """Checkpoint mid-stream; original and restored runtimes must produce
        bitwise-identical detections *and* identical version swaps on the
        same replayed tail — including updates that happen after the resume.
        """
        original = Runtime.from_config(runtime_config).fit(tiny_features)
        feed(original, drifting_streams, stop_fraction=0.5, drain=False)
        updates_before_checkpoint = len(original.update_reports)
        directory = original.checkpoint(tmp_path / "ckpt")

        restored = Runtime.from_checkpoint(directory)
        assert restored.model_version == original.model_version
        assert restored.anomaly_threshold == original.anomaly_threshold

        tail_original = feed(original, drifting_streams, start_fraction=0.5)
        tail_restored = feed(restored, drifting_streams, start_fraction=0.5)

        assert len(tail_original) == len(tail_restored)
        for ours, theirs in zip(tail_original, tail_restored):
            # StreamDetection is a frozen dataclass of floats/ints/strs:
            # equality is exact — scores, errors, thresholds, versions.
            assert ours == theirs
        # The tail crossed at least one incremental update on both sides and
        # the version lineages stayed in lockstep.
        assert original.model_version == restored.model_version
        assert restored.update_reports, "restored runtime never updated on the tail"
        assert (
            len(original.update_reports)
            == updates_before_checkpoint + len(restored.update_reports)
        )

    def test_manifest_carrying_the_retired_use_fused_key(
        self, runtime_config, tiny_features, drifting_streams, tmp_path
    ):
        """Every manifest written before the tape training mode was retired
        holds ``config.training.use_fused``.  ``true`` (the engine that is now
        the only one) restores and replays bitwise; ``false`` trained on a
        trajectory that no longer exists and is refused by name."""
        original = Runtime.from_config(runtime_config).fit(tiny_features)
        feed(original, drifting_streams, stop_fraction=0.5, drain=False)
        manifest_path = original.checkpoint(tmp_path / "ckpt") / "runtime.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["format"] == CHECKPOINT_FORMAT and "use_fused" not in manifest["config"]["training"]

        manifest["config"]["training"]["use_fused"] = False
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match="use_fused"):
            Runtime.from_checkpoint(manifest_path.parent)

        manifest["config"]["training"]["use_fused"] = True
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        restored = Runtime.from_checkpoint(manifest_path.parent)
        assert restored.config == original.config
        tail_original = feed(original, drifting_streams, start_fraction=0.5)
        assert tail_original == feed(restored, drifting_streams, start_fraction=0.5)
        assert restored.update_reports, "the replayed tail never retrained"

    def test_manifest_carrying_the_retired_adg_groups_key(
        self, runtime_config, tiny_features, tmp_path
    ):
        """Every manifest written before ``DetectionConfig.adg_groups`` was
        deleted holds ``config.detection.adg_groups``; the key was never read,
        so the checkpoint restores to the same configuration and threshold."""
        original = Runtime.from_config(runtime_config).fit(tiny_features)
        manifest_path = original.checkpoint(tmp_path / "ckpt") / "runtime.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert "adg_groups" not in manifest["config"]["detection"]

        manifest["config"]["detection"]["adg_groups"] = 20
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        restored = Runtime.from_checkpoint(manifest_path.parent)
        assert restored.config == original.config
        assert restored.anomaly_threshold == original.anomaly_threshold

    def test_manifest_carrying_the_retired_backend_and_delta_keys(
        self, runtime_config, tiny_features, drifting_streams, tmp_path
    ):
        """Every manifest written before ``ModelConfig.backend`` and
        ``DurabilityConfig.delta`` were deleted holds ``backend: "auto"`` and
        ``delta: true``; both name what is now the only behaviour, so the
        checkpoint restores and replays bitwise.  Any other backend is refused
        by name."""
        original = Runtime.from_config(runtime_config).fit(tiny_features)
        feed(original, drifting_streams, stop_fraction=0.5, drain=False)
        manifest_path = original.checkpoint(tmp_path / "ckpt") / "runtime.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert "backend" not in manifest["config"]["model"]
        assert "delta" not in manifest["config"]["durability"]

        manifest["config"]["model"]["backend"] = "gpu"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match=r"ModelConfig\.backend"):
            Runtime.from_checkpoint(manifest_path.parent)

        manifest["config"]["model"]["backend"] = "auto"
        manifest["config"]["durability"]["delta"] = True
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        restored = Runtime.from_checkpoint(manifest_path.parent)
        assert restored.config == original.config
        tail_original = feed(original, drifting_streams, start_fraction=0.5)
        assert tail_original == feed(restored, drifting_streams, start_fraction=0.5)

    def test_manifest_written_under_the_retired_process_executor(
        self, runtime_config, tiny_features, drifting_streams, tmp_path
    ):
        """Every manifest written under the retired process pool holds
        ``executor.mode: "process"`` and a ``start_method``.  The pool scored
        bitwise equal to the thread executor, so the checkpoint restores onto
        threads and replays bitwise equal to its serial twin."""
        config = replace(runtime_config, executor=ExecutorConfig(mode="serial", workers=1))
        original = Runtime.from_config(config).fit(tiny_features)
        feed(original, drifting_streams, stop_fraction=0.5, drain=False)
        manifest_path = original.checkpoint(tmp_path / "ckpt") / "runtime.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert "start_method" not in manifest["config"]["executor"]

        manifest["config"]["executor"].update(mode="process", start_method="fork")
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        restored = Runtime.from_checkpoint(manifest_path.parent)
        assert restored.config.executor == ExecutorConfig(mode="parallel", workers=1)
        assert replace(restored.config, executor=config.executor) == original.config
        tail_original = feed(original, drifting_streams, start_fraction=0.5)
        assert tail_original == feed(restored, drifting_streams, start_fraction=0.5)
        assert restored.update_reports, "the replayed tail never retrained"
        restored.close()

    def test_checkpoint_round_trips_pending_and_buffers(
        self, runtime_config, tiny_features, drifting_streams, tmp_path
    ):
        """Queued-but-unscored requests survive a checkpoint: the restored
        runtime scores them in the same batches the original would have."""
        original = Runtime.from_config(runtime_config).fit(tiny_features)
        feed(original, drifting_streams, stop_fraction=0.3, drain=False)
        pending = sum(len(shard.batcher) for shard in original.service.shards)
        assert pending > 0, "test needs requests still queued at checkpoint time"
        directory = original.checkpoint(tmp_path / "ckpt")
        restored = Runtime.from_checkpoint(directory)
        assert [d for d in original.drain()] == [d for d in restored.drain()]

    def test_checkpoint_mid_publish_with_max_versions_one(
        self, runtime_config, tiny_features, drifting_streams, tmp_path
    ):
        """Regression: with ``max_versions=1`` an update evicts the previous
        snapshot while the triggering batch is still being scored (its handle
        stays pinned to the evicted version).  A checkpoint taken exactly
        there — inside the trigger callback, mid-publish — must persist only
        retained versions and restore cleanly."""
        config = replace(runtime_config, max_versions=1)
        runtime = Runtime.from_config(config).fit(tiny_features)
        checkpoints = []

        def checkpoint_on_trigger(trigger):
            directory = runtime.checkpoint(tmp_path / f"ckpt_{len(checkpoints)}")
            checkpoints.append((trigger, directory))

        for shard in runtime.service.shards:
            shard.on_update_trigger = checkpoint_on_trigger

        feed(runtime, drifting_streams)
        assert checkpoints, "drift never triggered"
        assert len(runtime.registry) == 1, "max_versions=1 must retain one snapshot"

        trigger, directory = checkpoints[-1]
        restored = Runtime.from_checkpoint(directory)
        # Only the latest version is retained and it is the one being served.
        assert restored.registry.versions() == [restored.model_version]
        assert restored.model_version >= trigger.model_version
        # Version numbering continues, never colliding with evicted numbers.
        restored_version = restored.model_version
        next_version = restored.registry.publish(
            restored.registry.latest().model, restored.anomaly_threshold
        ).version
        assert next_version == restored_version + 1

    def test_checkpoint_inside_trigger_callback_resumes_bitwise(
        self, runtime_config, tiny_features, drifting_streams, tmp_path
    ):
        """The advertised mid-update checkpoint: taken from inside an
        ``on_update_trigger`` callback — after the plane published, with the
        drift transaction complete — it must land on an inter-batch boundary
        and resume bitwise on the remaining traffic."""
        submissions = [
            (stream_id, position)
            for position in range(max(f.num_segments for f in drifting_streams.values()))
            for stream_id, features in drifting_streams.items()
            if position < features.num_segments
        ]

        def submit(runtime, stream_id, position):
            features = drifting_streams[stream_id]
            return runtime.ingest(
                stream_id,
                features.action[position],
                features.interaction[position],
                float(features.normalised_interaction[position]),
            )

        original = Runtime.from_config(runtime_config).fit(tiny_features)
        checkpoint_at = []

        def checkpoint_once(trigger):
            if not checkpoint_at:
                original.checkpoint(tmp_path / "ckpt")
                checkpoint_at.append(True)

        for shard in original.service.shards:
            shard.on_update_trigger = checkpoint_once

        tail_original = []
        tail_index = None
        for index, (stream_id, position) in enumerate(submissions):
            produced = submit(original, stream_id, position)
            if tail_index is None and checkpoint_at:
                # This submission's batch completed (and checkpointed) inside
                # the call above; everything after it is the tail.
                tail_index = index + 1
            elif tail_index is not None:
                tail_original.extend(produced)
        assert tail_index is not None, "drift never triggered"
        tail_original.extend(original.drain())

        restored = Runtime.from_checkpoint(tmp_path / "ckpt")
        tail_restored = []
        for stream_id, position in submissions[tail_index:]:
            tail_restored.extend(submit(restored, stream_id, position))
        tail_restored.extend(restored.drain())

        assert tail_original == tail_restored
        assert original.model_version == restored.model_version

    def test_recheckpoint_to_same_path_swaps_atomically(
        self, runtime_config, tiny_features, drifting_streams, tmp_path
    ):
        """Periodic checkpointing reuses one path: the second write must fully
        replace the first (staging-dir swap), leaving no stale version files
        or helper directories behind."""
        runtime = Runtime.from_config(runtime_config).fit(tiny_features)
        target = tmp_path / "ckpt"
        runtime.checkpoint(target)
        first_files = sorted(p.name for p in target.iterdir())

        feed(runtime, drifting_streams)  # drives updates → more versions
        assert runtime.model_version > 1
        returned = runtime.checkpoint(target)
        assert returned == target
        second_files = sorted(p.name for p in target.iterdir())
        assert second_files != first_files, "second checkpoint must replace the first"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"], (
            "no staging/discarded directories may remain"
        )
        restored = Runtime.from_checkpoint(target)
        assert restored.model_version == runtime.model_version
        assert restored.anomaly_threshold == runtime.anomaly_threshold

    def test_failed_recheckpoint_keeps_the_previous_checkpoint(
        self, runtime_config, tiny_features, drifting_streams, tmp_path, monkeypatch
    ):
        """The failure side of the swap: a write that raises part-way through
        re-checkpointing over ``target`` leaves the previous checkpoint
        restorable and no helper directories next to it."""
        runtime = Runtime.from_config(runtime_config).fit(tiny_features)
        target = tmp_path / "ckpt"
        runtime.checkpoint(target)
        first_version, first_threshold = runtime.model_version, runtime.anomaly_threshold

        feed(runtime, drifting_streams)
        assert runtime.model_version > first_version

        def disk_full(*args, **kwargs):
            raise OSError("simulated disk full")

        # The version files are already staged when the state write fails.
        monkeypatch.setattr("repro.durability.checkpoints.save_state", disk_full)
        with pytest.raises(OSError, match="disk full"):
            runtime.checkpoint(target)
        monkeypatch.undo()

        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"], (
            "no .ckpt.staging or .ckpt.discarded directory may remain"
        )
        restored = Runtime.from_checkpoint(target)
        assert restored.model_version == first_version
        assert restored.anomaly_threshold == first_threshold

    def test_model_property_tracks_published_version(
        self, runtime_config, tiny_features, drifting_streams
    ):
        runtime = Runtime.from_config(runtime_config)
        assert runtime.model is None
        runtime.fit(tiny_features)
        initial = runtime.model
        feed(runtime, drifting_streams)
        assert runtime.update_reports, "drift never triggered"
        assert runtime.model is runtime.registry.latest().model
        assert runtime.model is not initial, "model must track in-service updates"

    def test_from_checkpoint_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no runtime checkpoint"):
            Runtime.from_checkpoint(tmp_path / "nowhere")

    def test_manual_clock_deadline_runtime_round_trips(
        self, runtime_config, tiny_features, drifting_streams, tmp_path
    ):
        """A deadline-driven runtime (ManualClock) checkpoints and resumes."""
        config = replace(
            runtime_config,
            serving=replace(runtime_config.serving, max_batch_delay_ms=40.0),
        )
        clock = ManualClock()
        runtime = Runtime.from_config(config, clock=clock).fit(tiny_features)
        half = {
            sid: features.subset(0, features.num_segments // 2)
            for sid, features in drifting_streams.items()
        }
        runtime.replay(half, interarrival_seconds=0.05, flush=False)
        directory = runtime.checkpoint(tmp_path / "ckpt")

        restored_clock = ManualClock()
        restored = Runtime.from_checkpoint(directory, clock=restored_clock)
        assert restored.model_version == runtime.model_version
        assert restored.drain() == runtime.drain()


class TestPendingUpdateResume:
    def test_queued_background_triggers_survive_checkpoint_bitwise(
        self, runtime_config, tiny_features, drifting_streams, tmp_path
    ):
        """Regression: a checkpoint taken while background retrains are still
        *queued* (triggered but not yet executed) must persist the trigger
        queue.  Historically ``BackgroundUpdatePlane.close()`` discarded it,
        so the restored runtime silently never adapted to the drift it had
        already detected.  Format-2 checkpoints replay the queue: both sides
        execute the same pending retrains and stay bitwise in lockstep."""
        config = replace(
            runtime_config,
            executor=ExecutorConfig(mode="serial", background_updates=True),
            update=UpdateConfig(buffer_size=20, drift_threshold=0.9999, update_epochs=2),
        )
        original = Runtime.from_config(config).fit(tiny_features)
        # Freeze the maintenance thread: triggers queue up instead of running
        # (deterministic stand-in for "the retrain had not finished yet").
        original.service.pause_maintenance()
        feed(original, drifting_streams, stop_fraction=0.6, drain=False)
        feed_detections = original.service.flush()
        assert feed_detections is not None
        pending = original.service.pending_updates
        assert pending >= 1, "test needs a queued trigger at checkpoint time"
        assert not original.update_reports, "no retrain may have run yet"

        directory = original.checkpoint(tmp_path / "ckpt")
        manifest = json.loads((directory / "runtime.json").read_text("utf-8"))
        assert manifest["format"] == CHECKPOINT_FORMAT
        assert manifest["pending_updates"] == pending

        restored = Runtime.from_checkpoint(directory)
        # Let the queued retrains land on both sides, then compare: the
        # replayed queue must produce the same publishes as the original's.
        original.service.resume_maintenance()
        original.service.quiesce()
        restored.service.quiesce()
        assert original.model_version > 1, "queued trigger never landed"
        assert restored.model_version == original.model_version
        assert restored.anomaly_threshold == original.anomaly_threshold
        assert len(restored.update_reports) == len(original.update_reports)

        # Feed the tail with maintenance frozen again so scoring order alone
        # determines the output, and compare detections bitwise.
        original.service.pause_maintenance()
        restored.service.pause_maintenance()
        tail_original = feed(original, drifting_streams, start_fraction=0.6, drain=False)
        tail_restored = feed(restored, drifting_streams, start_fraction=0.6, drain=False)
        tail_original += original.service.flush()
        tail_restored += restored.service.flush()
        assert len(tail_original) == len(tail_restored)
        assert tail_original == tail_restored

        original.service.resume_maintenance()
        restored.service.resume_maintenance()
        original.drain()
        restored.drain()
        assert original.model_version == restored.model_version
        assert len(original.update_reports) == len(restored.update_reports)
        original.close()
        restored.close()
