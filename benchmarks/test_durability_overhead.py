"""Durability overhead — WAL ingest tax and delta-checkpoint compression.

Two gates guard the durability plane's costs (``repro.durability``):

* ``test_wal_ingest_overhead`` — the write-ahead log must not tax the ingest
  path by more than 30%: ``ingest_many`` throughput with the WAL on (one
  framed, CRC'd, fsynced record per tick) must stay ≥ 0.7x of the identical
  runtime without durability.
* ``test_delta_checkpoint_size`` — once the store holds a history of
  published versions, a delta checkpoint written after one more publish must
  serialise < 25% of the bytes an equivalent full (self-contained)
  checkpoint costs at the same state — deltas persist only the model
  versions their parent chain lacks, plus the (small) runtime state.

Both experiments write their numbers to
``benchmarks/results/BENCH_durability.json`` so CI can track the overhead
ratio, the bytes-per-record WAL cost and the delta compression across
commits.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import common
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
NUM_STREAMS = 16
TICKS = 40
WAL_REQUIRED_FRACTION = 0.7  # durable ingest >= 0.7x the plain path
DELTA_MAX_FRACTION = 0.25  # delta bytes < 25% of an equivalent full
WARMUP_PUBLISHES = 6  # versions in the store before the measured delta
PUBLISH_FEED_CAP = 2000  # records; the drift loop publishes far sooner

JSON_NAME = "BENCH_durability.json"


def _merge_json(section: str, payload: dict) -> None:
    """Merge one experiment's numbers into the shared JSON artifact."""
    common.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = common.RESULTS_DIR / JSON_NAME
    document = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    document[section] = payload
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def _training_features():
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
    pipeline = FeaturePipeline(
        action_dim=48, motion_channels=8, embedding_dim=6, seed=3
    )
    return pipeline.extract(stream)


def _base_config(features) -> RuntimeConfig:
    return RuntimeConfig(
        # Serving-scale hidden sizes: the gate measures the WAL tax against
        # realistic per-record scoring work, not against a toy forward pass.
        model=ModelConfig(
            action_dim=features.action_dim,
            interaction_dim=features.interaction_dim,
            action_hidden=128,
            interaction_hidden=64,
        ),
        training=TrainingConfig(epochs=2, batch_size=16, checkpoint_every=1, seed=0),
        serving=ServingConfig(num_shards=2, max_batch_size=NUM_STREAMS),
        update=UpdateConfig(buffer_size=16, drift_threshold=0.9999, update_epochs=2),
        executor=ExecutorConfig(mode="serial"),
        sequence_length=SEQUENCE_LENGTH,
    )


def _ticks(features, *, seed=99, ticks=TICKS):
    """``ticks`` rounds of one segment per stream — the ingest_many shape."""
    rng = np.random.default_rng(seed)
    feeds = [
        (
            f"cam-{index}",
            rng.random((ticks, features.action_dim)),
            rng.random((ticks, features.interaction_dim)),
            rng.random(ticks),
        )
        for index in range(NUM_STREAMS)
    ]
    return [
        [
            (name, action[t], interaction[t], float(levels[t]))
            for name, action, interaction, levels in feeds
        ]
        for t in range(ticks)
    ]


def _directory_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _timed_ingest(runtime, ticks) -> float:
    start = time.perf_counter()
    for tick in ticks:
        runtime.ingest_many(tick)
    runtime.drain()
    return time.perf_counter() - start


# --------------------------------------------------------------------- #
# WAL ingest overhead
# --------------------------------------------------------------------- #
def run_wal_experiment(tmp_path: Path):
    features = _training_features()
    # Updates off: both runs measure pure scoring + (for one of them) the
    # WAL, without retrain noise in the timings.
    config = replace(_base_config(features), enable_updates=False)
    ticks = _ticks(features)
    records = sum(len(tick) for tick in ticks)

    plain = Runtime.from_config(config).fit(features)
    plain_seconds = _timed_ingest(plain, ticks)
    plain.close()

    durable_config = replace(
        config,
        durability=DurabilityConfig(directory=str(tmp_path / "wal-run"), wal=True),
    )
    durable = Runtime.from_config(durable_config).fit(features)
    durable.checkpoint()
    durable_seconds = _timed_ingest(durable, ticks)
    wal_stats = durable.durability_stats()["wal"]
    durable.close()

    ratio = plain_seconds / durable_seconds if durable_seconds else float("inf")
    payload = {
        "records": records,
        "plain_records_per_second": records / plain_seconds,
        "durable_records_per_second": records / durable_seconds,
        "throughput_fraction": ratio,
        "wal_bytes_per_record": wal_stats["bytes_appended"] / records,
        "wal_fsyncs": wal_stats["fsyncs"],
        "required_fraction": WAL_REQUIRED_FRACTION,
    }
    _merge_json("wal_overhead", payload)
    common.write_result(
        "durability_wal_overhead",
        "WAL ingest overhead\n"
        f"  plain   : {payload['plain_records_per_second']:.0f} records/s\n"
        f"  durable : {payload['durable_records_per_second']:.0f} records/s "
        f"({wal_stats['fsyncs']} fsyncs, "
        f"{payload['wal_bytes_per_record']:.0f} B/record)\n"
        f"  fraction: {ratio:.2f}x (gate >= {WAL_REQUIRED_FRACTION}x)",
    )
    return payload


def test_wal_ingest_overhead(tmp_path):
    payload = run_wal_experiment(tmp_path)
    assert payload["throughput_fraction"] >= WAL_REQUIRED_FRACTION, (
        f"WAL-backed ingest reached only "
        f"{payload['throughput_fraction']:.2f}x of plain ingest "
        f"(gate {WAL_REQUIRED_FRACTION}x)"
    )


# --------------------------------------------------------------------- #
# Delta checkpoint compression
# --------------------------------------------------------------------- #
def _feed_until_version(runtime, features, target_version, *, seed):
    """Drive the drift loop until ``model_version`` reaches the target."""
    rng = np.random.default_rng(seed)
    for index in range(PUBLISH_FEED_CAP):
        runtime.ingest(
            f"cam-{index % NUM_STREAMS}",
            rng.random(features.action_dim),
            rng.random(features.interaction_dim),
            float(rng.random()),
        )
        if runtime.model_version >= target_version:
            return
    raise AssertionError(
        f"drift loop never reached version {target_version} "
        f"within {PUBLISH_FEED_CAP} records"
    )


def run_delta_experiment(tmp_path: Path):
    features = _training_features()
    root = tmp_path / "delta-run"
    config = replace(
        _base_config(features),
        durability=DurabilityConfig(
            directory=str(root),
            wal=True,
            full_every=100,  # manual checkpoints below stay deltas
        ),
    )
    runtime = Runtime.from_config(config).fit(features)
    runtime.checkpoint()  # ckpt 1: the full root of the chain

    # Warm the store up with a history of published versions, checkpointed.
    _feed_until_version(runtime, features, 1 + WARMUP_PUBLISHES, seed=7)
    runtime.checkpoint()  # ckpt 2: delta persisting the warm-up versions

    # One more publish, then the measured delta.
    _feed_until_version(runtime, features, 2 + WARMUP_PUBLISHES, seed=8)
    runtime.checkpoint()  # ckpt 3: delta persisting exactly one version
    store_stats = runtime.durability_stats()["checkpoints"]
    delta_dir = root / "checkpoints" / f"ckpt-{store_stats['latest_id']:06d}"
    manifest = json.loads((delta_dir / "runtime.json").read_text())
    assert manifest["kind"] == "delta"

    # An equivalent full at the same state: the explicit-path checkpoint is
    # always self-contained.
    full_dir = runtime.checkpoint(tmp_path / "full-equivalent")
    versions_retained = len(runtime.registry)
    runtime.close()

    delta_bytes = _directory_bytes(delta_dir)
    full_bytes = _directory_bytes(full_dir)
    payload = {
        "versions_retained": versions_retained,
        "delta_bytes": delta_bytes,
        "full_bytes": full_bytes,
        "fraction": delta_bytes / full_bytes,
        "delta_new_versions": sum(
            1 for entry in manifest["versions"] if "source" not in entry
        ),
        "required_fraction": DELTA_MAX_FRACTION,
    }
    _merge_json("delta_checkpoint", payload)
    common.write_result(
        "durability_delta_size",
        "Delta checkpoint compression\n"
        f"  full ({versions_retained} versions): {full_bytes} B\n"
        f"  delta ({payload['delta_new_versions']} new version): {delta_bytes} B\n"
        f"  fraction: {payload['fraction']:.3f} (gate < {DELTA_MAX_FRACTION})",
    )
    return payload


def test_delta_checkpoint_size(tmp_path):
    payload = run_delta_experiment(tmp_path)
    assert payload["delta_new_versions"] == 1
    assert payload["fraction"] < DELTA_MAX_FRACTION, (
        f"delta checkpoint is {payload['fraction']:.2%} of the equivalent "
        f"full (gate < {DELTA_MAX_FRACTION:.0%})"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        run_wal_experiment(Path(tmp))
        run_delta_experiment(Path(tmp))
