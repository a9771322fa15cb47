"""Tests for the durability plane (repro.durability) through the runtime.

Covers the checkpoint policy, the delta-checkpoint store (including the
write-time-loud broken-chain contract), the runtime's durable ingest path
(validate → WAL append → score ordering), auto/delta checkpointing with
compaction and retention, and the Prometheus renderer.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from repro import Runtime, RuntimeConfig
from repro.durability import (
    CheckpointPolicy,
    CheckpointStore,
    DeltaSourceError,
    PrometheusRenderer,
    render_runtime_metrics,
)
from repro.durability.checkpoints import pack_state, unpack_state
from repro.nn.serialization import load_state, save_state
from repro.runtime import CHECKPOINT_FORMAT
from repro.serving import ManualClock
from repro.utils.config import (
    DurabilityConfig,
    ExecutorConfig,
    ModelConfig,
    ServingConfig,
    TrainingConfig,
    UpdateConfig,
)

SEQUENCE_LENGTH = 5


@pytest.fixture(scope="module")
def durable_config(tiny_features) -> RuntimeConfig:
    """A small deployment; tests replace() in a per-test durability root."""
    return RuntimeConfig(
        model=ModelConfig(
            action_dim=tiny_features.action_dim,
            interaction_dim=tiny_features.interaction_dim,
            action_hidden=12,
            interaction_hidden=6,
        ),
        training=TrainingConfig(epochs=2, batch_size=16, checkpoint_every=1, seed=0),
        serving=ServingConfig(max_batch_size=8, num_shards=2),
        update=UpdateConfig(buffer_size=30, drift_threshold=0.9999, update_epochs=2),
        executor=ExecutorConfig(mode="serial"),
        sequence_length=SEQUENCE_LENGTH,
    )


def durable(config, root, **kwargs) -> RuntimeConfig:
    return replace(config, durability=DurabilityConfig(directory=str(root), **kwargs))


def make_streams(config, *, streams=2, segments=30, seed=9):
    model = config.model
    rng = np.random.default_rng(seed)
    out = {}
    for index in range(streams):
        out[f"cam-{index}"] = (
            rng.random((segments, model.action_dim)),
            rng.random((segments, model.interaction_dim)),
            rng.random(segments),
        )
    return out


def feed(runtime, streams, start=0, stop=None):
    count = 0
    longest = max(action.shape[0] for action, _, _ in streams.values())
    for position in range(start, stop if stop is not None else longest):
        for name, (action, interaction, levels) in streams.items():
            if position < action.shape[0]:
                runtime.ingest(
                    name, action[position], interaction[position], float(levels[position])
                )
                count += 1
    return count


# ---------------------------------------------------------------------- #
# CheckpointPolicy
# ---------------------------------------------------------------------- #
class TestCheckpointPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="every_records"):
            CheckpointPolicy(every_records=0)
        with pytest.raises(ValueError, match="every_updates"):
            CheckpointPolicy(every_updates=-1)
        with pytest.raises(ValueError, match="every_seconds"):
            CheckpointPolicy(every_seconds=0.0)

    def test_rule_less_policy_never_fires(self):
        policy = CheckpointPolicy()
        assert not policy.enabled
        policy.note_records(10_000)
        assert not policy.due()

    def test_records_rule(self):
        policy = CheckpointPolicy(every_records=5)
        policy.note_records(4)
        assert not policy.due()
        policy.note_records(1)
        assert policy.due()
        policy.mark()
        assert not policy.due()
        assert policy.checkpoints == 1

    def test_updates_rule(self):
        policy = CheckpointPolicy(every_updates=2)
        policy.note_updates()
        assert not policy.due()
        policy.note_updates()
        assert policy.due()

    def test_seconds_rule_uses_the_injected_clock(self):
        clock = ManualClock()
        policy = CheckpointPolicy(every_seconds=10.0, clock=clock)
        assert not policy.due()
        clock.advance(9.5)
        assert not policy.due()
        clock.advance(0.5)
        assert policy.due()
        policy.mark()
        assert not policy.due()
        assert policy.seconds_since_checkpoint() == 0.0

    def test_stats_shape(self):
        policy = CheckpointPolicy(every_records=3)
        policy.note_records(2)
        assert policy.stats() == {
            "every_records": 3,
            "every_updates": None,
            "every_seconds": None,
            "records_since_checkpoint": 2,
            "updates_since_checkpoint": 0,
            "auto_checkpoints": 0,
        }


# ---------------------------------------------------------------------- #
# DurabilityConfig
# ---------------------------------------------------------------------- #
class TestDurabilityConfig:
    def test_policy_rules_require_a_directory(self):
        with pytest.raises(ValueError, match="require a directory"):
            DurabilityConfig(checkpoint_every_records=10)

    def test_field_validation(self):
        with pytest.raises(ValueError, match="wal_fsync_every"):
            DurabilityConfig(directory="x", wal_fsync_every=-1)
        with pytest.raises(ValueError, match="checkpoint_every_records"):
            DurabilityConfig(directory="x", checkpoint_every_records=0)
        with pytest.raises(ValueError, match="full_every"):
            DurabilityConfig(directory="x", full_every=0)

    def test_round_trips_through_runtime_config_json(self, durable_config, tmp_path):
        config = durable(durable_config, tmp_path / "dur", checkpoint_every_records=7)
        assert RuntimeConfig.from_json(config.to_json()) == config


# ---------------------------------------------------------------------- #
# CheckpointStore bookkeeping
# ---------------------------------------------------------------------- #
class TestCheckpointStore:
    def test_allocate_id_is_monotone_over_existing_directories(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.ensure_layout()
        assert store.allocate_id() == 1
        assert store.allocate_id() == 2
        (store.checkpoints_dir / "ckpt-000007").mkdir()
        assert store.allocate_id() == 8

    def test_latest_skips_manifest_less_directories(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.ensure_layout()
        good = store.directory_for(1)
        good.mkdir()
        (good / "runtime.json").write_text(json.dumps({"kind": "full"}))
        crashed = store.directory_for(2)
        crashed.mkdir()  # no manifest: a crash artefact
        latest = store.latest()
        assert latest is not None and latest.checkpoint_id == 1

    def test_delta_plan_resolves_and_verifies_sources(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.ensure_layout()
        parent_dir = store.directory_for(1)
        parent_dir.mkdir()
        (parent_dir / "version_000001.npz").write_bytes(b"x")
        manifest = {
            "versions": [{"version": 1, "file": "version_000001.npz"}],
        }
        (parent_dir / "runtime.json").write_text(json.dumps(manifest))
        parent = store.latest()
        plan = store.delta_plan(parent, [1, 2])
        assert plan == {1: ("ckpt-000001", "version_000001.npz")}

    def test_delta_plan_fails_loudly_naming_missing_versions(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.ensure_layout()
        parent_dir = store.directory_for(1)
        parent_dir.mkdir()
        manifest = {
            "versions": [
                {"version": 1, "file": "version_000001.npz"},
                {"version": 2, "file": "version_000002.npz"},
            ],
        }
        (parent_dir / "runtime.json").write_text(json.dumps(manifest))
        (parent_dir / "version_000002.npz").write_bytes(b"x")
        with pytest.raises(DeltaSourceError, match="version 1") as info:
            store.delta_plan(store.latest(), [1, 2])
        assert info.value.missing == {1: "ckpt-000001/version_000001.npz"}
        assert "take a full checkpoint instead" in str(info.value)


# ---------------------------------------------------------------------- #
# State codec (checkpoint format 4)
# ---------------------------------------------------------------------- #
def mixed_state():
    grid = np.arange(12, dtype=np.float64).reshape(3, 4) / 3.0
    return {
        "floats": grid,
        "strided": grid[:, ::2],
        "fortran": np.asfortranarray(grid),
        "special": np.array([np.nan, -0.0, np.inf, -np.inf, 5e-324]),
        "ints": np.arange(-3, 4, dtype=np.int64),
        "flags": np.array([True, False, True]),
        "scalar": np.array(2.5),
        "empty": np.zeros((0, 4)),
        "empty_ints": np.zeros(0, dtype=np.int64),
        "nested": [
            {"window": [np.ones(2), np.full(3, 7.0)], "count": 3, "level": None},
            (np.array(1, dtype=np.int64), "tag", 0.5, True),
            [],
        ],
        "numpy_scalars": [np.float64(1.25), np.int64(9)],
    }


def leaves_of(value):
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        return [leaf for key in sorted(value) for leaf in leaves_of(value[key])]
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in leaves_of(item)]
    return []


class TestStateCodec:
    def test_round_trip_keeps_dtype_shape_and_bytes(self, tmp_path):
        state = mixed_state()
        arrays, metadata = pack_state(state)
        # One raw buffer per dtype, however many leaves.
        assert len(arrays) == 3
        assert {array.dtype for array in arrays.values()} == {
            np.dtype(np.float64),
            np.dtype(np.int64),
            np.dtype(bool),
        }
        path = save_state(tmp_path / "state.npz", arrays, metadata=metadata)
        loaded_arrays, loaded_metadata = load_state(path)
        restored = unpack_state(loaded_metadata, loaded_arrays)
        before, after = leaves_of(state), leaves_of(restored)
        assert len(before) == len(after) == 12
        for original, back in zip(before, after):
            assert back.dtype == original.dtype
            assert back.shape == original.shape
            assert back.tobytes() == original.tobytes()
        # Non-array leaves round-trip through JSON (tuples become lists,
        # NumPy scalars become Python numbers).
        assert restored["nested"][0]["count"] == 3 and restored["nested"][0]["level"] is None
        assert restored["nested"][1][1:] == ["tag", 0.5, True] and restored["nested"][2] == []
        assert restored["numpy_scalars"] == [1.25, 9]

    def test_refuses_the_reserved_key_and_unknown_leaves(self):
        with pytest.raises(ValueError, match="reserved"):
            pack_state({"__ndarray__": 1})
        with pytest.raises(TypeError, match="set"):
            pack_state({"bad": {1, 2}})


# ---------------------------------------------------------------------- #
# The runtime's durable ingest + checkpoint path
# ---------------------------------------------------------------------- #
class TestDurableRuntime:
    def test_checkpoint_without_path_requires_durability(
        self, durable_config, tiny_features
    ):
        runtime = Runtime.from_config(durable_config).fit(tiny_features)
        with pytest.raises(RuntimeError, match="durability"):
            runtime.checkpoint()
        runtime.close()

    def test_fresh_fit_over_a_live_store_is_refused(
        self, durable_config, tiny_features, tmp_path
    ):
        config = durable(durable_config, tmp_path / "dur")
        runtime = Runtime.from_config(config).fit(tiny_features)
        runtime.checkpoint()
        runtime.close()
        with pytest.raises(RuntimeError, match="recover"):
            Runtime.from_config(config).fit(tiny_features)

    def test_auto_checkpoints_chain_compact_and_prune(
        self, durable_config, tiny_features, tmp_path
    ):
        config = durable(
            durable_config,
            tmp_path / "dur",
            checkpoint_every_records=10,
            full_every=3,
        )
        runtime = Runtime.from_config(config).fit(tiny_features)
        streams = make_streams(config, segments=25)
        feed(runtime, streams)  # 50 records -> 5 auto checkpoints
        stats = runtime.durability_stats()
        assert stats["policy"]["auto_checkpoints"] == 5
        # Kinds: 1 full, 2 deltas, compaction to full, delta (full_every=3).
        store = CheckpointStore(tmp_path / "dur")
        kinds = {
            checkpoint_id: store.manifest_of(store.directory_for(checkpoint_id))
            for checkpoint_id in store.list_ids()
        }
        # Retention: everything before the latest full fell off the chain.
        assert sorted(kinds) == [4, 5]
        assert kinds[4]["kind"] == "full" and kinds[4]["delta_depth"] == 0
        assert kinds[5]["kind"] == "delta" and kinds[5]["parent"] == "ckpt-000004"
        assert stats["checkpoints"]["written_full"] == 2
        assert stats["checkpoints"]["written_delta"] == 3
        # WAL retention follows: only segments at/after the latest rotation.
        assert stats["wal"]["segments_on_disk"] == 1
        runtime.close()

    def test_delta_checkpoints_persist_only_new_versions(
        self, durable_config, tiny_features, tmp_path
    ):
        config = durable(durable_config, tmp_path / "dur")
        runtime = Runtime.from_config(config).fit(tiny_features)
        runtime.checkpoint()  # full (id 1)
        # Publish two more versions directly (registry-level: deterministic
        # and cheap, no drift traffic needed).
        latest = runtime.registry.latest()
        runtime.registry.publish(latest.model, latest.threshold, reason="test")
        runtime.checkpoint()  # delta (id 2): only version 2's weights
        store = CheckpointStore(tmp_path / "dur")
        delta = store.directory_for(2)
        weight_files = sorted(p.name for p in delta.glob("version_*.npz"))
        assert weight_files == ["version_000002.npz"]
        manifest = store.manifest_of(delta)
        assert manifest["kind"] == "delta"
        by_version = {entry["version"]: entry for entry in manifest["versions"]}
        assert by_version[1]["source"] == "ckpt-000001"
        assert "source" not in by_version[2]
        # Restoring the delta resolves version 1 from the parent directory.
        restored = Runtime.from_checkpoint(delta)
        assert restored.model_version == 2
        assert len(restored.registry) == 2
        restored.close()
        runtime.close()

    def test_broken_chain_compacts_to_full_at_write_time(
        self, durable_config, tiny_features, tmp_path
    ):
        config = durable(durable_config, tmp_path / "dur")
        runtime = Runtime.from_config(config).fit(tiny_features)
        runtime.checkpoint()
        # Sabotage the parent: the full checkpoint's weights disappear
        # (tampering / partial restore of a backup).  The damage is detected
        # at *write* time — before anything lands on disk — and the store
        # checkpoint compacts to a self-contained full instead of wedging
        # every future auto-checkpoint on the same DeltaSourceError.
        store = CheckpointStore(tmp_path / "dur")
        (store.directory_for(1) / "version_000001.npz").unlink()
        with pytest.warns(RuntimeWarning, match="version 1"):
            target = runtime.checkpoint()
        manifest = store.manifest_of(target)
        assert manifest["kind"] == "full"
        assert all("source" not in entry for entry in manifest["versions"])
        runtime.close()
        # The compacted checkpoint restores without touching the broken chain.
        Runtime.recover(tmp_path / "dur").close()

    def test_broken_chain_fails_at_restore_naming_the_file(
        self, durable_config, tiny_features, tmp_path
    ):
        config = durable(durable_config, tmp_path / "dur")
        runtime = Runtime.from_config(config).fit(tiny_features)
        runtime.checkpoint()
        latest = runtime.registry.latest()
        runtime.registry.publish(latest.model, latest.threshold, reason="test")
        delta = runtime.checkpoint()
        runtime.close()
        store = CheckpointStore(tmp_path / "dur")
        (store.directory_for(1) / "version_000001.npz").unlink()
        with pytest.raises(FileNotFoundError, match="version_000001.npz"):
            Runtime.from_checkpoint(delta)

    def test_orphaned_rotation_epoch_survives_recovery(
        self, durable_config, tiny_features, tmp_path, monkeypatch
    ):
        config = durable(durable_config, tmp_path / "dur")
        runtime = Runtime.from_config(config).fit(tiny_features)
        runtime.checkpoint()  # id 1: the latest the store will ever publish
        streams = make_streams(config, segments=4)
        feed(runtime, streams, stop=2)

        # A checkpoint that fails *after* its WAL rotation orphans segment
        # (2, 0): the rotation landed durably but checkpoint 2 never
        # published, so the store's latest stays at 1.  The failure is
        # injected into the one checkpoint writer, which the cut calls only
        # after rotating.
        positions_at_write = []

        def boom(target, *args, **kwargs):
            positions_at_write.append(runtime.durability_stats()["wal"]["position"])
            raise OSError("simulated export failure")

        monkeypatch.setattr("repro.runtime.write_checkpoint", boom)
        with pytest.raises(OSError, match="simulated"):
            runtime.checkpoint()
        monkeypatch.undo()
        assert positions_at_write == [[2, 0]], "the WAL must rotate before the write"
        assert CheckpointStore(tmp_path / "dur").latest().checkpoint_id == 1
        feed(runtime, streams, start=2, stop=4)  # pre-crash records in (2, 0)
        runtime.close()

        recovered = Runtime.recover(tmp_path / "dur")
        # Post-recovery appends must sort *after* the orphan's records (replay
        # order is sorted segment order), so the WAL reopens at the highest
        # epoch on disk — not the restored checkpoint's epoch (1, ...).
        assert recovered.durability_stats()["wal"]["position"] == [2, 1]
        assert recovered.durability_stats()["replayed_records"] == 8
        # The next store checkpoint re-allocates id 2; its rotation must step
        # past the orphaned wal-2-0000 instead of colliding with it.
        recovered.checkpoint()
        assert recovered.durability_stats()["wal"]["position"] == [2, 2]
        recovered.close()
        Runtime.recover(tmp_path / "dur").close()

    def test_invalid_submissions_never_reach_the_wal(
        self, durable_config, tiny_features, tmp_path
    ):
        config = durable(durable_config, tmp_path / "dur")
        runtime = Runtime.from_config(config).fit(tiny_features)
        model = config.model
        good = (
            np.zeros(model.action_dim),
            np.zeros(model.interaction_dim),
        )
        with pytest.raises(ValueError, match="finite"):
            runtime.ingest("cam-0", good[0], good[1], float("inf"))
        with pytest.raises(ValueError, match="action_dim"):
            runtime.ingest("cam-0", np.zeros(model.action_dim + 1), good[1], 0.5)
        with pytest.raises(ValueError, match="interaction_dim"):
            runtime.ingest("cam-0", good[0], np.zeros(model.interaction_dim + 1), 0.5)
        # None of the rejected submissions may have been logged: a logged
        # record that was never scored would replay into divergent state.
        assert runtime.durability_stats()["wal"]["records_appended"] == 0
        runtime.ingest("cam-0", good[0], good[1], 0.5)
        assert runtime.durability_stats()["wal"]["records_appended"] == 1
        runtime.close()

    @pytest.mark.parametrize("variant", ["durable", "plain", "parallel"])
    def test_non_finite_features_refuse_the_whole_call(
        self, durable_config, tiny_features, tmp_path, variant
    ):
        """A NaN feature scores NaN, which never exceeds the threshold: it
        used to read "normal" for every window holding it.  The whole call is
        refused before anything is logged or queued, so the runtime goes on
        exactly as if the call had never been made."""
        config = {
            "durable": durable(durable_config, tmp_path / "dur"),
            "plain": durable_config,
            "parallel": replace(durable_config, executor=ExecutorConfig(mode="parallel", workers=2)),
        }[variant]
        runtime = Runtime.from_config(config).fit(tiny_features)
        twin = Runtime.from_config(replace(config, durability=DurabilityConfig())).fit(
            tiny_features
        )
        streams = make_streams(config, streams=3, segments=12)
        ticks = [
            [
                (name, action[t], interaction[t], float(levels[t]))
                for name, (action, interaction, levels) in streams.items()
            ]
            for t in range(12)
        ]
        for tick in ticks[:6]:
            runtime.ingest_many(tick)
            twin.ingest_many(tick)
        before = runtime.durability_stats()

        bad_tick = [list(submission) for submission in ticks[6]]
        bad_tick[1][1] = bad_tick[1][1].copy()
        bad_tick[1][1][3] = np.nan
        with pytest.raises(ValueError, match=r"'cam-1': action_feature .*non-finite"):
            runtime.ingest_many(bad_tick)
        name, action, interaction, level = ticks[6][2]
        with pytest.raises(ValueError, match=r"'cam-2': interaction_feature .*non-finite"):
            runtime.ingest(name, action, np.full_like(interaction, np.inf), level)
        # Nothing reached the WAL (the durable variant's counters and
        # segment list are unchanged) and nothing was queued.
        assert runtime.durability_stats() == before
        assert runtime.stats.segments_scored == twin.stats.segments_scored

        for tick in ticks[6:]:
            runtime.ingest_many(tick)
            twin.ingest_many(tick)
        runtime.drain()
        twin.drain()
        for name in streams:
            assert runtime.detections(name) == twin.detections(name)
            assert len(runtime.detections(name)) == 12 - SEQUENCE_LENGTH
        runtime.close()
        twin.close()

    def test_time_rule_fires_through_the_injected_clock(
        self, durable_config, tiny_features, tmp_path
    ):
        clock = ManualClock()
        config = durable(
            durable_config, tmp_path / "dur", checkpoint_every_seconds=30.0
        )
        runtime = Runtime.from_config(config, clock=clock).fit(tiny_features)
        streams = make_streams(config, segments=2)
        feed(runtime, streams)
        assert runtime.durability_stats()["policy"]["auto_checkpoints"] == 0
        clock.advance(31.0)
        runtime.poll()  # the heartbeat of the time rule
        assert runtime.durability_stats()["policy"]["auto_checkpoints"] == 1
        runtime.close()

    def test_explicit_path_checkpoint_is_full_and_rotates_the_wal(
        self, durable_config, tiny_features, tmp_path
    ):
        config = durable(durable_config, tmp_path / "dur")
        runtime = Runtime.from_config(config).fit(tiny_features)
        runtime.checkpoint()  # store: full, id 1
        streams = make_streams(config, segments=3)
        feed(runtime, streams)
        target = runtime.checkpoint(tmp_path / "export")
        manifest = json.loads((target / "runtime.json").read_text())
        assert manifest["kind"] == "full"
        assert manifest["format"] == CHECKPOINT_FORMAT
        assert manifest["wal"] == {"checkpoint_id": 2, "sequence": 0}
        # Self-contained: every version's weights are inside the directory.
        assert all("source" not in entry for entry in manifest["versions"])
        restored = Runtime.from_checkpoint(target, replay_wal=False)
        assert restored.model_version == runtime.model_version
        restored.close()
        runtime.close()

    def test_durability_stats_disabled_without_directory(
        self, durable_config, tiny_features
    ):
        runtime = Runtime.from_config(durable_config).fit(tiny_features)
        assert runtime.durability_stats() == {"enabled": False}
        runtime.close()


# ---------------------------------------------------------------------- #
# Prometheus renderer
# ---------------------------------------------------------------------- #
EXPOSITION = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+)$"
)


def parse_exposition(text):
    """Minimal Prometheus text-format 0.0.4 validator/parser.

    Returns ``{family: {"type": t, "samples": [(labels, value)]}}`` and
    asserts the structural rules: every line well-formed, TYPE precedes a
    family's samples, families are not interleaved.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    families = {}
    current = None
    for line in text.splitlines():
        assert EXPOSITION.match(line), f"malformed exposition line: {line!r}"
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, metric_type = line.split(" ", 3)
            assert name not in families, f"family {name} declared twice"
            families[name] = {"type": metric_type, "samples": []}
            current = name
            continue
        name = line.split("{")[0].split(" ")[0]
        assert name == current, f"sample {name} outside its family block"
        sample = line[len(name) :]
        labels = {}
        if sample.startswith("{"):
            body, _, sample = sample[1:].partition("}")
            for pair in body.split(","):
                key, _, value = pair.partition("=")
                labels[key] = value.strip('"')
        families[name]["samples"].append((labels, float(sample.strip())))
    return families


class TestPrometheusRenderer:
    def test_families_render_once_with_samples_grouped(self):
        out = PrometheusRenderer()
        out.add("a_total", 1, metric_type="counter", help="A.")
        out.add("b", 2.5, help="B.")
        out.add("a_total", 3, metric_type="counter", labels={"shard": 1})
        families = parse_exposition(out.render())
        assert families["repro_a_total"]["type"] == "counter"
        assert families["repro_a_total"]["samples"] == [({}, 1.0), ({"shard": "1"}, 3.0)]
        assert families["repro_b"]["samples"] == [({}, 2.5)]

    def test_type_conflicts_and_unknown_types_raise(self):
        out = PrometheusRenderer()
        out.add("a", 1, metric_type="counter")
        with pytest.raises(ValueError, match="re-added"):
            out.add("a", 2, metric_type="gauge")
        with pytest.raises(ValueError, match="unknown Prometheus"):
            out.add("b", 1, metric_type="histogram")

    def test_label_values_are_escaped(self):
        out = PrometheusRenderer()
        out.add("a", 1, labels={"tenant": 'we"ird\nname\\x'})
        line = [l for l in out.render().splitlines() if not l.startswith("#")][0]
        assert line == 'repro_a{tenant="we\\"ird\\nname\\\\x"} 1'

    def test_value_formatting(self):
        out = PrometheusRenderer(namespace="")
        out.add("a", float("nan"))
        out.add("b", float("inf"))
        out.add("c", True)
        out.add("d", 7.0)
        out.add("e", 0.125)
        lines = [l for l in out.render().splitlines() if not l.startswith("#")]
        assert lines == ["a NaN", "b +Inf", "c 1", "d 7", "e 0.125"]

    def test_runtime_metrics_parse_and_agree_with_library_counters(
        self, durable_config, tiny_features, tmp_path
    ):
        config = durable(durable_config, tmp_path / "dur", checkpoint_every_records=20)
        runtime = Runtime.from_config(config).fit(tiny_features)
        streams = make_streams(config, segments=15)
        feed(runtime, streams)
        families = parse_exposition(render_runtime_metrics(runtime).render())
        assert families["repro_model_version"]["samples"] == [
            ({}, float(runtime.model_version))
        ]
        assert families["repro_segments_scored_total"]["samples"] == [
            ({}, float(runtime.stats.segments_scored))
        ]
        per_shard = {
            labels["shard"]: value
            for labels, value in families["repro_shard_queue_depth"]["samples"]
        }
        for shard in runtime.load_stats():
            assert per_shard[str(shard.shard_index)] == float(shard.queue_depth)
        durability = runtime.durability_stats()
        assert families["repro_wal_records_appended_total"]["samples"] == [
            ({}, float(durability["wal"]["records_appended"]))
        ]
        kinds = {
            labels["kind"]: value
            for labels, value in families["repro_checkpoints_written_total"]["samples"]
        }
        assert kinds["full"] == float(durability["checkpoints"]["written_full"])
        assert kinds["delta"] == float(durability["checkpoints"]["written_delta"])
        assert families["repro_auto_checkpoints_total"]["samples"] == [
            ({}, float(durability["policy"]["auto_checkpoints"]))
        ]
        runtime.close()

    def test_one_scrape_takes_one_load_sample(self, durable_config, tiny_features, monkeypatch):
        """Each ``load_stats()`` takes every shard's scoring lock, so a scrape
        samples once; the shard count comes from ``rebalance_stats()``."""
        runtime = Runtime.from_config(durable_config).fit(tiny_features)
        samples = []
        sample = runtime.load_stats
        monkeypatch.setattr(runtime, "load_stats", lambda: samples.append(1) or sample())
        families = parse_exposition(render_runtime_metrics(runtime).render())
        assert len(samples) == 1
        assert families["repro_shards"]["samples"] == [({}, float(len(runtime.service.shards)))]
        runtime.close()
