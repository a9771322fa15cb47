"""The durability plane: WAL-backed ingest, auto checkpoints, crash recovery.

An online detector that learns in service has state worth protecting: the
retained model versions, the calibrated threshold ``T_a``, every stream's
rolling window, the drift monitor's buffers.  ``DurabilityConfig`` turns all
of it into a durable deployment with three moving parts:

1. a **write-ahead log** — every ``ingest``/``ingest_many`` call is framed,
   CRC'd and fsynced to a WAL segment *before* it is scored, so an acked
   submission is never lost, even to SIGKILL;
2. an **auto-checkpoint policy** — every K records (and/or U published
   updates, and/or T seconds) the runtime writes a checkpoint into the
   durable store and prunes the WAL behind it.  Checkpoints are *deltas*:
   only model versions absent from the parent are re-serialised, with a
   periodic compaction back to a full checkpoint;
3. **crash recovery** — ``Runtime.recover(root)`` loads the latest
   checkpoint and replays the WAL tail through the scoring service, landing
   bitwise-identical to a process that never crashed.

The same counters feed a dependency-free Prometheus exporter: the HTTP tier
answers ``GET /metrics`` with exposition text any scraper ingests.

Run with::

    python examples/durable_serving.py
"""

from __future__ import annotations

import tempfile
import urllib.request
from pathlib import Path

import numpy as np

from repro import (
    DurabilityConfig,
    ExecutorConfig,
    ModelConfig,
    Runtime,
    RuntimeConfig,
    ServingConfig,
    TrainingConfig,
    UpdateConfig,
)
from repro.features.pipeline import FeaturePipeline
from repro.streams.generator import SocialStreamGenerator, StreamProfile


def training_features():
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
    stream = SocialStreamGenerator(profile, seed=11).generate(180.0, name="dur-train")
    pipeline = FeaturePipeline(action_dim=24, motion_channels=8, embedding_dim=6, seed=3)
    return pipeline.extract(stream)


def build_config(root: Path, features) -> RuntimeConfig:
    return RuntimeConfig(
        model=ModelConfig(
            action_dim=features.action_dim,
            interaction_dim=features.interaction_dim,
            action_hidden=16,
            interaction_hidden=8,
        ),
        training=TrainingConfig(epochs=3, batch_size=16, checkpoint_every=1, seed=0),
        serving=ServingConfig(num_shards=2, max_batch_size=8),
        # A demonstration drift threshold just under 1.0 (see
        # online_learning_runtime.py for why): the random live features below
        # push mean-cosine similarity low enough to publish mid-run, so the
        # delta checkpoints have a new version to persist.
        update=UpdateConfig(buffer_size=16, drift_threshold=0.9999, update_epochs=2),
        executor=ExecutorConfig(mode="serial"),
        sequence_length=5,
        durability=DurabilityConfig(
            directory=str(root),
            wal=True,
            wal_fsync_every=1,  # every acked record is durable
            checkpoint_every_records=40,
            full_every=4,  # compact back to a full every 4th checkpoint
        ),
    )


def live_records(features, *, streams=2, segments=60, seed=99):
    rng = np.random.default_rng(seed)
    feeds = [
        (
            f"cam-{index}",
            rng.random((segments, features.action_dim)),
            rng.random((segments, features.interaction_dim)),
            rng.random(segments),
        )
        for index in range(streams)
    ]
    for position in range(segments):
        for name, action, interaction, levels in feeds:
            yield name, action[position], interaction[position], float(levels[position])


def main() -> None:
    features = training_features()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "durable"

        # -------------------------------------------------------------- #
        # 1. A durable deployment: fit, take the initial full checkpoint.
        # -------------------------------------------------------------- #
        runtime = Runtime.from_config(build_config(root, features)).fit(features)
        runtime.checkpoint()
        print(
            f"Durable runtime up: version {runtime.model_version}, "
            f"T_a = {runtime.anomaly_threshold:.4f}, store at {root.name}/"
        )

        # -------------------------------------------------------------- #
        # 2. Live traffic.  Every record hits the WAL before the scorer;
        #    every 40th record the policy checkpoints and prunes the WAL.
        # -------------------------------------------------------------- #
        records = list(live_records(features))
        half = len(records) // 2
        for record in records[:half]:
            runtime.ingest(*record)
        stats = runtime.durability_stats()
        print(
            f"Ingested {half} records: WAL appended "
            f"{stats['wal']['records_appended']} records "
            f"({stats['wal']['bytes_appended']} bytes, "
            f"{stats['wal']['fsyncs']} fsyncs), "
            f"{stats['policy']['auto_checkpoints']} auto checkpoints, "
            f"latest ckpt-{stats['checkpoints']['latest_id']:06d} "
            f"(delta depth {stats['checkpoints']['delta_chain_depth']})"
        )

        # -------------------------------------------------------------- #
        # 3. Crash.  No drain, no close, the WAL segment left open — the
        #    runtime object is simply abandoned, as SIGKILL would leave it.
        # -------------------------------------------------------------- #
        crashed_version = runtime.model_version
        crashed_detections = {
            name: [(d.segment_index, d.score) for d in runtime.detections(name)]
            for name in ("cam-0", "cam-1")
        }
        del runtime
        print(f"\n-- crash -- (model was at version {crashed_version})")

        # -------------------------------------------------------------- #
        # 4. Recover: latest checkpoint + WAL tail replay, then keep going.
        # -------------------------------------------------------------- #
        recovered = Runtime.recover(root)
        print(
            f"Recovered at version {recovered.model_version}: replayed "
            f"{recovered.durability_stats()['replayed_records']} logged records "
            f"from the WAL tail"
        )
        for name, rows in crashed_detections.items():
            tail = [
                (d.segment_index, d.score) for d in recovered.detections(name)
            ][-3:]
            assert rows[-len(tail):] == tail, f"{name}: replay diverged from pre-crash"
        print("Replayed detections are bitwise-identical to the pre-crash run")
        for record in records[half:]:
            recovered.ingest(*record)
        recovered.drain()
        print(
            f"Finished the stream: version {recovered.model_version}, "
            f"{len(recovered.update_reports)} in-service updates after recovery, "
            f"{recovered.stats.segments_scored} segments scored since restore"
        )

        # -------------------------------------------------------------- #
        # 5. Observability: the same counters as Prometheus exposition.
        # -------------------------------------------------------------- #
        with recovered.serve() as server:
            with urllib.request.urlopen(f"{server.url}/metrics", timeout=30) as response:
                assert response.status == 200
                body = response.read().decode("utf-8")
        wanted = (
            "repro_model_version",
            "repro_wal_records_appended_total",
            "repro_checkpoints_written_total",
        )
        print("\nGET /metrics (excerpt):")
        for line in body.splitlines():
            if line.startswith(wanted):
                print(f"  {line}")
        recovered.close()


if __name__ == "__main__":
    main()
