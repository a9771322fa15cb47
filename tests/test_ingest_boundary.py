"""Tests for the ingest boundary: a tick is validated and copied once, routed
in one pass and enqueued once per shard.

Covers the contracts of :class:`repro.serving.service.Tick` and
``ShardedScoringService.submit_many``: callers may reuse their buffers, a
feature of the wrong width or a tick that would overflow ``max_queue_depth``
is refused whole (before the write-ahead log sees it, so a crash after the
refusal still recovers bitwise), the grouped per-shard enqueue scores exactly
like a per-segment one, ``validate_features`` runs once per tick, and the
``StreamDetection`` API and the WAL bytes are unchanged.

Run as a script it becomes the crash victim of the ``QueueFull`` test::

    python tests/test_ingest_boundary.py <durability_root>

fits, checkpoints, ingests the warm ticks, has the overflowing tick refused,
ingests a few more ticks and SIGKILLs itself.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from durability_workload import training_features
from repro import CLSTM, AnomalyDetector, Runtime, RuntimeConfig
from repro.durability import wal as wal_module
from repro.durability.wal import _encode_record
from repro.server.wire import detection_to_json
from repro.serving import QueueFull, ScoringService, StreamDetection
from repro.serving import service as service_module
from repro.serving.service import ManualClock, Tick
from repro.utils.config import (
    DetectionConfig,
    DurabilityConfig,
    ExecutorConfig,
    ModelConfig,
    ServingConfig,
    TrainingConfig,
    UpdateConfig,
)

SEQUENCE_LENGTH = 5
WARM_TICKS = 8
AFTER_REFUSAL = 3
STREAMS = 4


def build_config(root=None, **serving) -> RuntimeConfig:
    features = training_features()
    return RuntimeConfig(
        model=ModelConfig(
            action_dim=features.action_dim,
            interaction_dim=features.interaction_dim,
            action_hidden=12,
            interaction_hidden=6,
        ),
        training=TrainingConfig(epochs=2, batch_size=16, checkpoint_every=1, seed=0),
        serving=ServingConfig(**{"max_batch_size": 8, "num_shards": 2, **serving}),
        # Drift fires readily on random live features, so the longer runs
        # below publish new versions mid-stream.
        update=UpdateConfig(buffer_size=12, drift_threshold=0.9999, update_epochs=1),
        executor=ExecutorConfig(mode="serial"),
        sequence_length=SEQUENCE_LENGTH,
        durability=DurabilityConfig(directory=str(root) if root is not None else None),
    )


def fit(config) -> Runtime:
    return Runtime.from_config(config).fit(training_features())


def make_ticks(*, streams=STREAMS, ticks=16, seed=5):
    """``ticks`` lists of one ``(stream_id, action, interaction, level)``
    submission per stream, each feature a fresh array."""
    features = training_features()
    rng = np.random.default_rng(seed)
    action = rng.random((ticks, streams, features.action_dim))
    interaction = rng.random((ticks, streams, features.interaction_dim))
    levels = rng.random((ticks, streams))
    return [
        [
            (f"cam-{s}", action[t, s].copy(), interaction[t, s].copy(), float(levels[t, s]))
            for s in range(streams)
        ]
        for t in range(ticks)
    ]


def all_detections(runtime, streams=STREAMS):
    return {f"cam-{s}": runtime.detections(f"cam-{s}") for s in range(streams)}


def session_state(runtime):
    """Every session's position and the identity of its history segments."""
    return {
        stream_id: (session.segments_seen, [id(segment) for segment in session.history])
        for shard in runtime.service.shards
        for stream_id, session in shard.sessions.items()
    }


def overflowing_tick(ticks):
    """Three segments per stream in one tick: more requests than fit."""
    return [submission for tick in ticks for submission in tick]


# ---------------------------------------------------------------------- #
# The boundary copy
# ---------------------------------------------------------------------- #
class TestBufferReuse:
    @pytest.mark.parametrize("variant", ["plain", "durable"])
    def test_refilled_buffers_score_like_fresh_arrays(self, variant, tmp_path):
        """Segments used to alias the caller's arrays: a caller refilling one
        buffer per stream every tick had every queued window projected from
        the latest tick's data.  The tick is now copied at the boundary."""
        ticks = make_ticks(ticks=24)
        root = tmp_path / "dur" if variant == "durable" else None
        fresh = fit(build_config())
        reused = fit(build_config(root))
        if root is not None:
            reused.checkpoint()
        buffers = {
            stream_id: (np.empty_like(action), np.empty_like(interaction))
            for stream_id, action, interaction, _ in ticks[0]
        }
        for tick in ticks:
            fresh.ingest_many(tick)
            refilled = []
            for stream_id, action, interaction, level in tick:
                action_buffer, interaction_buffer = buffers[stream_id]
                np.copyto(action_buffer, action)
                np.copyto(interaction_buffer, interaction)
                refilled.append((stream_id, action_buffer, interaction_buffer, level))
            reused.ingest_many(refilled)
        live = all_detections(reused)
        assert live == all_detections(fresh)
        assert sum(map(len, live.values())) > 0
        if root is not None:
            # The WAL logged what was scored: replaying it from the initial
            # checkpoint reproduces every live detection.
            shutil.copytree(root, tmp_path / "copy")
            recovered = Runtime.recover(tmp_path / "copy")
            assert all_detections(recovered) == live
            assert recovered.drain() == reused.drain()
            recovered.close()
        fresh.close()
        reused.close()


# ---------------------------------------------------------------------- #
# Width refusal
# ---------------------------------------------------------------------- #
class TestWidthRefusal:
    @pytest.mark.parametrize(
        ("field", "config_field"),
        [(1, "ModelConfig.action_dim"), (2, "ModelConfig.interaction_dim")],
    )
    def test_plain_tick_with_a_short_row_is_refused_whole(self, field, config_field):
        """The plain ``ingest_many`` had no width check: a short row was
        queued, and the next batch raised NumPy's shape error, losing every
        other request drained into it."""
        ticks = make_ticks(ticks=16)
        runtime, twin = fit(build_config()), fit(build_config())
        for tick in ticks[:8]:
            runtime.ingest_many(tick)
            twin.ingest_many(tick)
        before = session_state(runtime)
        depths = [shard.queue_depth() for shard in runtime.service.shards]

        bad = [list(submission) for submission in ticks[8]]
        bad[2][field] = bad[2][field][:-1]
        with pytest.raises(ValueError, match=rf"'cam-2'.*{config_field}"):
            runtime.ingest_many(bad)
        assert session_state(runtime) == before
        assert [shard.queue_depth() for shard in runtime.service.shards] == depths

        for tick in ticks[8:]:
            runtime.ingest_many(tick)
            twin.ingest_many(tick)
        runtime.drain()
        twin.drain()
        assert runtime.stats.segments_scored == twin.stats.segments_scored
        assert all_detections(runtime) == all_detections(twin)
        runtime.close()
        twin.close()

    def test_scoring_service_submit_refuses_a_wrong_width(self):
        runtime = fit(build_config(num_shards=1))
        service = ScoringService(registry=runtime.registry, sequence_length=SEQUENCE_LENGTH)
        action, interaction = make_ticks(ticks=1)[0][0][1:3]
        with pytest.raises(ValueError, match=r"'s'.*ModelConfig\.action_dim"):
            service.submit_many((("s", action[:-1], interaction),))
        with pytest.raises(ValueError, match=r"'s'.*ModelConfig\.interaction_dim"):
            service.submit_many((("s", action, np.append(interaction, 0.0)),))
        assert service.sessions == {} and len(service.batcher) == 0
        runtime.close()


# ---------------------------------------------------------------------- #
# A tick that would overflow the queue
# ---------------------------------------------------------------------- #
def _queue_full_victim(root: str) -> None:
    """Fit, checkpoint, warm up, have the overflowing tick refused, ingest
    a few more ticks, then die by SIGKILL (no drain, no close)."""
    ticks = make_ticks(ticks=WARM_TICKS + 3 + AFTER_REFUSAL)
    runtime = fit(build_config(root, num_shards=1, max_queue_depth=8))
    runtime.checkpoint()
    for tick in ticks[:WARM_TICKS]:
        runtime.ingest_many(tick)
    try:
        runtime.ingest_many(overflowing_tick(ticks[WARM_TICKS : WARM_TICKS + 3]))
    except QueueFull:
        pass
    else:  # pragma: no cover - the parent sees the exit code
        sys.exit(3)
    for tick in ticks[WARM_TICKS + 3 :]:
        runtime.ingest_many(tick)
    os.kill(os.getpid(), signal.SIGKILL)


class TestQueueFullTick:
    def test_refused_tick_leaves_sessions_queue_and_wal_untouched(self, tmp_path):
        """A ``QueueFull`` in the middle of a tick used to leave the first
        streams advanced and the whole tick in the WAL — a store whose
        recovery raised ``QueueFull`` again.  The room is now checked for
        every shard before anything is logged or enqueued."""
        ticks = make_ticks(ticks=WARM_TICKS + 3 + AFTER_REFUSAL)
        runtime = fit(build_config(tmp_path / "dur", num_shards=1, max_queue_depth=8))
        twin = fit(build_config(num_shards=1, max_queue_depth=8))
        for tick in ticks[:WARM_TICKS]:
            runtime.ingest_many(tick)
            twin.ingest_many(tick)
        def observed():
            shard = runtime.service.shards[0]
            return session_state(runtime), runtime.durability_stats(), shard.queue_depth()

        before = observed()
        assert before[2] > 0  # the refusal is about room, not an empty queue

        with pytest.raises(QueueFull):
            runtime.ingest_many(overflowing_tick(ticks[WARM_TICKS : WARM_TICKS + 3]))
        assert observed() == before

        for tick in ticks[WARM_TICKS + 3 :]:
            runtime.ingest_many(tick)
            twin.ingest_many(tick)
        runtime.drain()
        twin.drain()
        assert all_detections(runtime) == all_detections(twin)
        runtime.close()
        twin.close()

    def test_sigkill_after_a_refused_tick_recovers_bitwise(self, tmp_path):
        ticks = make_ticks(ticks=WARM_TICKS + 3 + AFTER_REFUSAL)
        oracle = fit(build_config(num_shards=1, max_queue_depth=8))
        for tick in ticks[:WARM_TICKS] + ticks[WARM_TICKS + 3 :]:
            oracle.ingest_many(tick)

        root = tmp_path / "victim"
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(src), env.get("PYTHONPATH", "")) if part
        )
        process = subprocess.run(
            [sys.executable, __file__, str(root)],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert process.returncode == -signal.SIGKILL, (
            f"victim should die by SIGKILL, got rc={process.returncode}\n"
            f"stderr: {process.stderr}"
        )
        recovered = Runtime.recover(root)
        replayed = recovered.durability_stats()["replayed_records"]
        assert replayed == (WARM_TICKS + AFTER_REFUSAL) * STREAMS
        assert all_detections(recovered) == all_detections(oracle)
        assert recovered.drain() == oracle.drain()
        assert all_detections(recovered) == all_detections(oracle)
        recovered.close()
        oracle.close()


# ---------------------------------------------------------------------- #
# One routing pass, one enqueue per shard
# ---------------------------------------------------------------------- #
class TestGroupedEnqueue:
    def test_tick_scores_like_per_segment_enqueue_on_every_shard(self):
        """The grouped path keeps each shard's submission order, so its
        queues, batches and detections — across drift-triggered publishes —
        equal those of enqueuing the tick as one-row ticks, one at a time."""
        streams = 9
        ticks = make_ticks(streams=streams, ticks=40, seed=8)
        grouped = fit(build_config(num_shards=3))
        reference = fit(build_config(num_shards=3))
        assert len({grouped.service.shard_index(f"cam-{s}") for s in range(streams)}) == 3
        for tick in ticks:
            produced = grouped.ingest_many(tick)
            for submission in tick:
                one_row = reference.service.tick((submission,))
                reference.service.shard_of(submission[0]).enqueue(one_row)
            assert produced == reference.service.poll()
            for ours, theirs in zip(grouped.service.shards, reference.service.shards):
                assert [(r.stream_id, r.segment_index) for r in ours.batcher.pending()] == [
                    (r.stream_id, r.segment_index) for r in theirs.batcher.pending()
                ]
                assert ours.stats.batches == theirs.stats.batches
        assert grouped.model_version == reference.model_version >= 2
        assert all_detections(grouped, streams) == all_detections(reference, streams)
        grouped.close()
        reference.close()


# ---------------------------------------------------------------------- #
# One ingest path: a segment is a one-row tick
# ---------------------------------------------------------------------- #
class TestOneIngestPath:
    def test_a_one_segment_ingest_flushes_every_shards_expired_batch(self):
        """A single-segment ingest is a one-row tick, and a tick scores
        every shard holding a full or deadline-expired batch — not only the
        shard the segment went to."""
        clock = ManualClock()
        config = build_config(num_shards=3, max_batch_delay_ms=100.0)
        runtime = Runtime.from_config(config, clock=clock).fit(training_features())
        # The service's own placement pins two new streams to two shards.
        first, second = "cam-0", "cam-1"
        assert runtime.service.shard_index(first) != runtime.service.shard_index(second)
        ticks = make_ticks(streams=1, ticks=SEQUENCE_LENGTH + 2)
        rows = [submission[1:] for (submission,) in ticks]
        for row in rows[:SEQUENCE_LENGTH]:
            assert runtime.ingest(first, *row) == []
            assert runtime.ingest(second, *row) == []
        assert runtime.ingest(second, *rows[SEQUENCE_LENGTH]) == []
        second_shard = runtime.service.shard_of(second)
        assert second_shard.queue_depth() == 1

        clock.advance(0.2)  # past the deadline, and nobody polls
        produced = runtime.ingest(first, *rows[SEQUENCE_LENGTH + 1])
        assert [(d.stream_id, d.segment_index) for d in produced] == [
            (second, SEQUENCE_LENGTH)
        ]
        assert second_shard.queue_depth() == 0
        assert runtime.service.shard_of(first).queue_depth() == 1
        runtime.close()

    def test_a_durable_replay_is_logged_and_recovers(self, tmp_path):
        """``Runtime.replay`` used to submit straight to the service: a
        durable runtime logged none of it, and recovery lost every
        detection.  It now ingests one segment per call."""
        features = training_features()
        streams = {"a": features.subset(0, 30), "b": features.subset(30, 60)}
        root = tmp_path / "dur"
        runtime = fit(build_config(root))
        runtime.checkpoint()
        oracle = fit(build_config())
        live = runtime.replay(streams, flush=False)
        assert live == oracle.replay(streams, flush=False)
        assert runtime.durability_stats()["wal"]["records_appended"] == 60

        shutil.copytree(root, tmp_path / "copy")  # the crash: no close
        recovered = Runtime.recover(tmp_path / "copy")
        assert recovered.durability_stats()["replayed_records"] == 60
        assert recovered.drain() == runtime.drain() == oracle.drain()
        for stream_id in streams:
            assert recovered.detections(stream_id) == oracle.detections(stream_id)
            assert len(oracle.detections(stream_id)) == 30 - SEQUENCE_LENGTH
        assert recovered.model_version == oracle.model_version
        for closing in (recovered, runtime, oracle):
            closing.close()

    def test_a_store_of_legacy_single_ingest_records_recovers(self, tmp_path, monkeypatch):
        """Older builds logged a single ``ingest`` as a kind-1 record; replay
        feeds it as a one-row tick, landing on the uninterrupted run."""
        encode = wal_module._encode_record
        legacy_records = []

        def encode_as_legacy(submissions):
            payload = encode(submissions)
            assert len(submissions) == 1 and payload[0] == 2
            legacy_records.append(payload)
            return b"\x01" + payload[1:]

        submissions = overflowing_tick(make_ticks(ticks=16))
        root = tmp_path / "dur"
        runtime = fit(build_config(root))
        runtime.checkpoint()
        oracle = fit(build_config())
        monkeypatch.setattr(wal_module, "_encode_record", encode_as_legacy)
        for submission in submissions:
            runtime.ingest(*submission)
            oracle.ingest(*submission)
        monkeypatch.undo()
        assert len(legacy_records) == len(submissions)

        shutil.copytree(root, tmp_path / "copy")
        recovered = Runtime.recover(tmp_path / "copy")
        assert recovered.durability_stats()["replayed_records"] == len(submissions)
        assert all_detections(recovered) == all_detections(oracle)
        assert recovered.drain() == oracle.drain()
        assert recovered.model_version == oracle.model_version >= 2
        for closing in (recovered, runtime, oracle):
            closing.close()


# ---------------------------------------------------------------------- #
# Placement: a new stream goes to the shard with the fewest routes
# ---------------------------------------------------------------------- #
def uniform_ticks(ticks, streams=64):
    """One segment of each of ``streams`` streams per tick, named as the
    ledger names them (``cam-00`` … ``cam-63``)."""
    return [
        [(f"cam-{s:02d}", *submission[1:]) for s, submission in enumerate(tick)]
        for tick in make_ticks(streams=streams, ticks=ticks)
    ]


class TestPlacement:
    def test_a_tick_of_new_streams_is_split_evenly(self):
        runtime = fit(build_config(max_batch_size=64))
        (tick,) = uniform_ticks(1)
        runtime.ingest_many(tick)
        placed = [runtime.service.shard_index(stream_id) for stream_id, *_ in tick]
        # Alternating, lowest index first: 32 streams on each shard.
        assert placed == [0, 1] * 32
        runtime.close()

    def test_a_refused_tick_places_nothing(self):
        """A tick refused for want of queue room neither pins nor counts its
        new stream's route, so the stream is placed afresh later."""
        ticks = make_ticks(ticks=WARM_TICKS + 3)
        runtime = fit(build_config(max_queue_depth=8))
        for tick in ticks[:WARM_TICKS]:
            runtime.ingest_many(tick)
        late = ("late", *ticks[0][0][1:])
        with pytest.raises(QueueFull):
            runtime.ingest_many([late, *overflowing_tick(ticks[WARM_TICKS:])])
        # cam-0 … cam-3 hold two routes on each shard.
        assert runtime.service.shard_index("late") == 0
        runtime.close()

    def test_uniform_ticks_return_every_detection_within_one_extra_call(self):
        """Each shard takes half the streams, so a batch of twice that fills
        every second tick and no segment waits for a third."""
        config = replace(
            build_config(max_batch_size=64, max_batch_delay_ms=1000.0), enable_updates=False
        )
        runtime = Runtime.from_config(config, clock=ManualClock()).fit(training_features())
        ticks = uniform_ticks(SEQUENCE_LENGTH + 16)
        returned = 0
        for position, tick in enumerate(ticks):
            produced = runtime.ingest_many(tick)
            assert {position - d.segment_index for d in produced} <= {0, 1}, position
            returned += len(produced)
        # Sixteen ticks of windows are eight full batches on each shard.
        assert returned == 64 * (len(ticks) - SEQUENCE_LENGTH)
        runtime.close()


# ---------------------------------------------------------------------- #
# Validated once
# ---------------------------------------------------------------------- #
class TestValidatedOnce:
    @pytest.mark.parametrize("variant", ["plain", "durable"])
    def test_validate_features_runs_once_per_tick(self, variant, tmp_path, monkeypatch):
        root = tmp_path / "dur" if variant == "durable" else None
        runtime = fit(build_config(root))
        calls = {"features": 0, "level": 0}
        validate_features = service_module.validate_features
        validate_level = service_module.validate_interaction_level

        def count_features(tick):
            calls["features"] += 1
            return validate_features(tick)

        def count_level(level):
            calls["level"] += 1
            return validate_level(level)

        monkeypatch.setattr(service_module, "validate_features", count_features)
        monkeypatch.setattr(service_module, "validate_interaction_level", count_level)
        ticks = make_ticks(ticks=10)
        for tick in ticks:
            runtime.ingest_many(tick)
        assert calls == {"features": len(ticks), "level": 0}
        assert runtime.stats.segments_scored > 0
        runtime.close()

    def test_a_built_tick_is_recognised_by_its_type(self, monkeypatch):
        runtime = fit(build_config())
        tick = runtime.service.tick(make_ticks(ticks=1)[0])
        assert isinstance(tick, Tick) and runtime.service.tick(tick) is tick
        monkeypatch.setattr(
            service_module, "validate_features", lambda tick: pytest.fail("validated twice")
        )
        runtime.service.submit_many(tick)
        runtime.close()

    def test_the_tick_is_a_private_float64_copy(self):
        submissions = make_ticks(ticks=1)[0]
        tick = Tick.from_submissions(submissions, submissions[0][1].size, submissions[0][2].size)
        assert tick.actions.dtype == np.float64 and tick.actions.flags.c_contiguous
        assert tick.actions.shape == (STREAMS, submissions[0][1].size)
        for _, action, interaction, _ in submissions:
            action[:] = -1.0
            interaction[:] = -1.0
        assert (tick.actions >= 0).all() and (tick.interactions >= 0).all()

    def test_non_finite_levels_name_the_stream(self):
        submissions = make_ticks(ticks=1)[0]
        submissions[3] = (*submissions[3][:3], float("inf"))
        dims = (submissions[0][1].size, submissions[0][2].size)
        with pytest.raises(ValueError, match=r"'cam-3': interaction_level must be finite"):
            Tick.from_submissions(submissions, *dims)
        submissions[3] = (*submissions[3][:3], None)
        assert Tick.from_submissions(submissions, *dims).levels[3] is None


# ---------------------------------------------------------------------- #
# Unchanged surfaces
# ---------------------------------------------------------------------- #
def emitted_detection() -> StreamDetection:
    """The last row of one 64-row scored batch."""
    batch = 64
    model = CLSTM(action_dim=6, interaction_dim=3, action_hidden=8, interaction_hidden=4, seed=2)
    detector = AnomalyDetector(model, DetectionConfig(omega=0.8, threshold=0.2))
    detector.anomaly_threshold = 0.2
    service = ScoringService(detector, sequence_length=SEQUENCE_LENGTH, max_batch_size=batch)
    rng = np.random.default_rng(batch)
    names = [f"cam-{s}" for s in range(batch)]
    for _ in range(SEQUENCE_LENGTH + 1):
        produced = service.submit_many(
            [(name, rng.random(6), rng.random(3), float(rng.random())) for name in names]
        )
    assert len(produced) == batch
    return produced[-1]


class TestStreamDetectionApi:
    NAMES = (
        "stream_id",
        "segment_index",
        "score",
        "action_error",
        "interaction_error",
        "is_anomaly",
        "threshold",
        "model_version",
        "precision",
    )
    TYPES = (str, int, float, float, float, bool, float, int, str)

    @pytest.mark.parametrize("source", ["constructed", "emitted"])
    def test_fields_defaults_equality_immutability_and_hash(self, source):
        names = self.NAMES
        if source == "constructed":
            values = ("cam-0", 7, 0.5, 0.25, 0.75, True, 0.4)
            detection = StreamDetection(*values)
            assert tuple(getattr(detection, name) for name in names) == (*values, 1, "float64")
            values = (*values, 1, "float64")
        else:
            detection = emitted_detection()
            values = tuple(getattr(detection, name) for name in names)
        # An emitted row is a value: equal to, and hashing like, a row
        # constructed from the same fields.
        same = StreamDetection(**dict(zip(names, values)))
        assert detection == same and hash(detection) == hash(same)
        assert len({detection, same}) == 1
        assert detection != StreamDetection(*values[:2], values[2] + 0.1, *values[3:])
        assert tuple(type(getattr(detection, name)) for name in names) == self.TYPES
        assert json.loads(json.dumps(detection_to_json(detection)))["score"] == values[2]
        assert repr(detection) == repr(same)
        # Pickles and copies carry the values, not the batch's block: an
        # emitted row of a 64-row batch pickles to the bytes of a one-row one.
        for copied in (
            pickle.loads(pickle.dumps(detection)),
            copy.copy(detection),
            copy.deepcopy(detection),
        ):
            assert copied == detection and hash(copied) == hash(detection)
        assert len(pickle.dumps(detection)) == len(pickle.dumps(same))
        assert len(pickle.dumps(copy.deepcopy(detection))) == len(pickle.dumps(same))
        for name in (*names, "_block", "_row", "extra"):
            with pytest.raises(AttributeError):
                setattr(detection, name, 0)
            with pytest.raises(AttributeError):
                delattr(detection, name)
        assert detection == same


class TestWalBytes:
    def test_a_tick_encodes_like_its_submissions(self):
        """A tick is encoded from its columns; the bytes must be the ones its
        submissions encode to row by row (the format pinned by
        ``test_wal.py::TestRecordCodec::test_golden_bytes``)."""
        submissions = make_ticks(ticks=1)[0]
        submissions[1] = submissions[1][:3]  # unknown level
        submissions[2] = (*submissions[2][:3], 1)  # an int level
        submissions[3] = ("kamera-ü", *submissions[3][1:3], -0.0)
        dims = (submissions[0][1].size, submissions[0][2].size)
        for records in (submissions, submissions[:1], []):
            tick = Tick.from_submissions(records, *dims)
            assert _encode_record(tick) == _encode_record(records)


if __name__ == "__main__":
    _queue_full_victim(sys.argv[1])
