"""Rebalancer tests: load-aware routing, deterministic split/merge.

Covers the acceptance contract of ``repro.serving.rebalance``:

* :class:`ShardingConfig` validation and config round-trips;
* new-stream diversion away from hot shards — and *only* new streams:
  a pinned route never moves except through an explicit merge handoff;
* deterministic split under sustained backlog and merge after idle
  rounds, with session continuity across the handoff (windows and
  detection history travel, segment indices stay gapless);
* the default placement (fewest pinned routes) across a split and a
  merge: a split shard takes new streams until the counts are level, a
  retired one never takes any;
* the determinism property: identical :class:`ManualClock` schedules and
  identical seeded load produce identical decision logs and route tables;
* checkpoint round-trip of a split topology through
  :class:`~repro.runtime.Runtime` (the restored runtime rebuilds the
  grown shard count and replays the tail bitwise).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import Runtime, RuntimeConfig
from repro.core.clstm import CLSTM
from repro.core.detector import AnomalyDetector
from repro.features.sequences import build_sequences
from repro.serving import (
    ManualClock,
    ModelRegistry,
    ParallelExecutor,
    Rebalancer,
    SerialExecutor,
    ShardedScoringService,
)
from repro.streams.generator import SocialStreamGenerator
from repro.utils.config import (
    DetectionConfig,
    ModelConfig,
    ServingConfig,
    ShardingConfig,
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


def build_service(
    sharding: ShardingConfig,
    clock,
    num_shards: int = 2,
    max_batch_size: int = 64,
    router=None,
    max_batch_delay_ms=None,
    executor=None,
):
    """A sharded service whose queues can actually accumulate.

    ``max_batch_size`` is large relative to the feeds below, so submissions
    queue instead of flushing — giving the rebalancer a real depth signal.
    """
    rebalancer = Rebalancer(sharding, clock=clock)
    service = ShardedScoringService(
        make_registry(),
        config=ServingConfig(
            max_batch_size=max_batch_size,
            max_batch_delay_ms=max_batch_delay_ms,
            num_shards=num_shards,
        ),
        sequence_length=Q,
        router=router,
        clock=clock,
        rebalancer=rebalancer,
        executor=executor,
    )
    return service, rebalancer


def pile_up(service, stream_id: str, depth: int, seed: int):
    """Warm ``stream_id`` up and leave ``depth`` requests queued on its shard."""
    action, interaction = stream_arrays(seed=seed, segments=Q + depth)
    for position in range(Q + depth):
        service.submit_many(((stream_id, action[position], interaction[position]),))


# --------------------------------------------------------------------- #
# Config validation
# --------------------------------------------------------------------- #
class TestShardingConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hot_queue_factor": 0.5},
            {"min_hot_depth": 0},
            {"split_queue_depth": 0},
            {"max_shards": 0},
            {"merge_idle_rounds": 0},
        ],
    )
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError, match="ShardingConfig"):
            ShardingConfig(**kwargs)

    def test_round_trips_through_runtime_config(self):
        config = RuntimeConfig(
            sharding=ShardingConfig(
                rebalance=True, split_queue_depth=6, merge_idle_rounds=3
            )
        )
        assert RuntimeConfig.from_json(config.to_json()) == config
        # Default config keeps the rebalancer off entirely.
        assert RuntimeConfig().sharding.rebalance is False

    def test_bind_rejects_multi_registry_deployments(self):
        registries = [make_registry(seed=2), make_registry(seed=3)]
        with pytest.raises(ValueError, match="share one registry"):
            ShardedScoringService(
                registries,
                config=ServingConfig(max_batch_size=8, num_shards=2),
                sequence_length=Q,
                rebalancer=Rebalancer(ShardingConfig(rebalance=True)),
            )


# --------------------------------------------------------------------- #
# New-stream diversion (and the never-move-a-pinned-route rule)
# --------------------------------------------------------------------- #
class TestHotShardDiversion:
    def test_new_stream_diverted_off_hot_shard(self):
        clock = ManualClock(start=100.0)
        service, rebalancer = build_service(
            ShardingConfig(rebalance=True, min_hot_depth=4),
            clock,
            router=lambda stream_id: 0,  # the router proposes shard 0 for everyone
        )
        pile_up(service, "hot-A", depth=8, seed=1)
        assert service.shards[0].queue_depth() == 8

        assert service.shard_index("new-B") == 1
        decision = rebalancer.decisions[-1]
        assert decision.kind == "route"
        assert decision.stream_id == "new-B"
        assert (decision.source, decision.target) == (0, 1)
        assert decision.at == 100.0  # stamped by the injected clock
        # The hot stream itself is pinned and stays put.
        assert service.shard_index("hot-A") == 0
        # The diverted route is pinned too: still shard 1 after the load clears.
        service.drain()
        assert service.shard_index("new-B") == 1

    def test_no_diversion_below_min_hot_depth(self):
        clock = ManualClock()
        service, rebalancer = build_service(
            ShardingConfig(rebalance=True, min_hot_depth=8),
            clock,
            router=lambda stream_id: 0,
        )
        pile_up(service, "warm-A", depth=3, seed=1)
        assert service.shard_index("new-B") == 0
        assert rebalancer.decisions == []

    def test_disabled_rebalance_is_pure_passthrough(self):
        clock = ManualClock()
        service, rebalancer = build_service(
            ShardingConfig(rebalance=False), clock, router=lambda stream_id: 0
        )
        pile_up(service, "hot-A", depth=16, seed=1)
        assert service.shard_index("new-B") == 0
        assert rebalancer.decisions == []
        assert service.rebalance_stats()["enabled"] is False


# --------------------------------------------------------------------- #
# Split / merge topology changes
# --------------------------------------------------------------------- #
class TestSplitMerge:
    SHARDING = ShardingConfig(
        rebalance=True,
        min_hot_depth=2,
        split_queue_depth=6,
        merge_idle_rounds=2,
        max_shards=4,
    )

    def test_backlog_splits_then_idle_merges_with_session_continuity(self):
        clock = ManualClock()
        # The router proposes shard 2 for "fresh-B" and "late-C" — a shard
        # that only exists after the split, and is retired by the merge below.
        proposals = {"hot-A": 0, "fresh-B": 2, "late-C": 2}
        service, rebalancer = build_service(
            self.SHARDING, clock, router=lambda stream_id: proposals.get(stream_id, 0)
        )
        pile_up(service, "hot-A", depth=8, seed=1)

        service.poll()  # depth 8 >= split_queue_depth 6: one split
        assert service.num_shards == 3
        split = rebalancer.decisions[-1]
        assert split.kind == "split"
        assert (split.source, split.target) == (0, 2)
        # The split shard is live: a stream routed to it goes straight in.
        assert service.shard_index("fresh-B") == 2

        # Score some history for the stream living on the split shard.
        action, interaction = stream_arrays(seed=9, segments=Q + 9)
        for position in range(Q + 5):
            service.submit_many((("fresh-B", action[position], interaction[position]),))
        service.drain()
        scored_before = service.detections("fresh-B")
        assert scored_before, "split shard never scored its stream"

        # Queued work on the split shard resets its idle counter...
        service.submit_many((("fresh-B", action[Q + 5], interaction[Q + 5]),))
        service.poll()
        assert not service.retired_shards
        service.drain()
        scored_before = service.detections("fresh-B")
        # ...and two consecutive idle rounds then retire it.
        service.poll()
        assert service.num_shards == 3 and not service.retired_shards
        service.poll()
        merge = rebalancer.decisions[-1]
        assert merge.kind == "merge"
        assert merge.source == 2
        assert service.retired_shards == frozenset({2})
        target = merge.target
        assert service.shard_index("fresh-B") == target

        # Continuity across the handoff: the rolling window travelled, so
        # feeding the tail yields gapless segment indices and the history
        # (including pre-merge detections) is served from the survivor.
        for position in range(Q + 6, Q + 9):
            service.submit_many((("fresh-B", action[position], interaction[position]),))
        service.drain()
        detections = service.detections("fresh-B")
        assert [d.segment_index for d in detections] == list(range(Q, Q + 9))
        assert detections[: len(scored_before)] == scored_before

        # A retired shard is never routed to again: the router proposes the
        # retired shard 2 for "late-C", which is diverted to a live one.
        assert service.shard_index("late-C") != 2
        diverted = rebalancer.decisions[-1]
        assert diverted.kind == "route" and "retired" in diverted.reason
        stats = service.rebalance_stats()
        assert stats["enabled"] is True
        assert stats["retired_shards"] == [2]
        assert stats["shards"] == 3
        assert stats["decisions"] == len(rebalancer.decisions)
        assert [d["kind"] for d in stats["recent"]] == [
            d.kind for d in rebalancer.decisions[-20:]
        ]

    def test_max_shards_caps_splitting(self):
        clock = ManualClock()
        service, rebalancer = build_service(
            replace(self.SHARDING, max_shards=2, merge_idle_rounds=None),
            clock,
            router=lambda stream_id: 0,
        )
        pile_up(service, "hot-A", depth=10, seed=1)
        service.poll()
        assert service.num_shards == 2
        assert all(d.kind != "split" for d in rebalancer.decisions)

    def test_a_split_shard_scores_alike_under_the_thread_executor(self):
        """A shard split off mid-stream joins the thread executor's fan-out
        with no hook on the executor: its detections match the serial run."""

        def run(executor):
            clock = ManualClock()
            service, rebalancer = build_service(
                replace(self.SHARDING, max_shards=3, merge_idle_rounds=None),
                clock,
                router=lambda stream_id: 2 if stream_id == "fresh-B" else 0,
                max_batch_delay_ms=100.0,
                executor=executor,
            )
            try:
                pile_up(service, "hot-A", depth=8, seed=1)
                service.poll()
                assert [d.kind for d in rebalancer.decisions] == ["split"]
                hot = stream_arrays(seed=5, segments=Q + 4)
                fresh = stream_arrays(seed=9, segments=Q + 4)
                for position in range(Q + 4):
                    service.submit_many(
                        (
                            ("hot-A", hot[0][position], hot[1][position]),
                            ("fresh-B", fresh[0][position], fresh[1][position]),
                        )
                    )
                # Both queues pass their deadline: one poll fans the expired
                # batches of shards 0 and 2 out across the executor at once.
                clock.advance(1.0)
                service.poll()
                return {name: service.detections(name) for name in ("hot-A", "fresh-B")}
            finally:
                service.close()

        reference = run(SerialExecutor())
        assert [len(rows) for rows in reference.values()] == [8 + Q + 4, 4]
        assert run(ParallelExecutor(workers=2)) == reference

    def test_split_after_a_publish_keeps_the_seed_bound_to_its_version(self):
        """The fit-time ``S_h`` seed holds version-1 hidden states: a shard
        split off under version 2 drops it instead of comparing it."""
        clock = ManualClock()
        registry = make_registry()
        batch = build_sequences(*stream_arrays(seed=3, segments=20), Q)
        seed = registry.latest().model.hidden_states(
            batch.action_sequences, batch.interaction_sequences
        )
        service = ShardedScoringService(
            registry,
            config=ServingConfig(max_batch_size=64, num_shards=2),
            sequence_length=Q,
            # drift_threshold=1.0: any comparison the split shard ran would trigger.
            update_config=UpdateConfig(
                buffer_size=4, drift_threshold=1.0, interaction_threshold=10.0
            ),
            historical_hidden=seed,
            router=lambda stream_id: 2 if stream_id == "fresh-B" else 0,
            clock=clock,
            rebalancer=Rebalancer(self.SHARDING, clock=clock),
        )
        registry.publish(registry.latest().model, 0.3)
        pile_up(service, "hot-A", depth=8, seed=1)
        service.poll()
        assert service.num_shards == 3
        state = service.shards[2].export_state()
        assert state["history_version"] == 1
        assert np.array_equal(state["historical_hidden"], seed)
        action, interaction = stream_arrays(seed=9, segments=Q + 4)
        for position in range(Q + 4):
            service.submit_many((("fresh-B", action[position], interaction[position], 0.5),))
        service.drain()
        assert len(service.detections("fresh-B")) == 4
        # The first full version-2 buffer seeded S_h instead of being compared.
        assert service.shards[2].update_triggers == []
        state = service.shards[2].export_state()
        assert state["history_version"] == 2 and len(state["historical_hidden"]) == 4
        assert state["buffer_hidden"] == []


# --------------------------------------------------------------------- #
# The default placement (fewest pinned routes) under a changing topology
# --------------------------------------------------------------------- #
class TestPlacementUnderTopology:
    def test_a_retired_shard_never_receives_a_new_route(self):
        clock = ManualClock()
        service, rebalancer = build_service(TestSplitMerge.SHARDING, clock)
        pile_up(service, "hot-A", depth=8, seed=1)
        service.poll()  # split: shard 2, with no routes
        assert [service.shard_index(name) for name in ("B", "C")] == [1, 2]
        service.drain()
        service.poll()
        service.poll()  # idle twice: shard 2 merges into shard 0
        assert service.retired_shards == frozenset({2})
        assert [d.kind for d in rebalancer.decisions] == ["split", "merge"]
        assert service.shard_index("C") == 0

        # The handoff moved C's route to shard 0's count: (2, 1).
        placed = [service.shard_index(f"new-{k}") for k in range(5)]
        assert placed == [1, 0, 1, 0, 1]
        # The placement never proposed the retired shard, so nothing had to
        # be diverted off it.
        assert [d.kind for d in rebalancer.decisions] == ["split", "merge"]

    def test_a_split_shard_takes_new_streams_until_the_counts_are_level(self):
        clock = ManualClock()
        service, rebalancer = build_service(
            replace(TestSplitMerge.SHARDING, merge_idle_rounds=None), clock
        )
        assert [service.shard_index(name) for name in "abcd"] == [0, 1, 0, 1]
        pile_up(service, "a", depth=8, seed=1)
        service.poll()
        assert service.num_shards == 3
        service.drain()  # no hot shard left to divert from
        placed = [service.shard_index(name) for name in "efghi"]
        assert placed == [2, 2, 0, 1, 2]
        assert [d.kind for d in rebalancer.decisions] == ["split"]


# --------------------------------------------------------------------- #
# The determinism property
# --------------------------------------------------------------------- #
class TestDeterminismProperty:
    """Same ManualClock schedule + same seeded load => same decisions."""

    STREAMS = 6
    SHARDING = ShardingConfig(
        rebalance=True,
        min_hot_depth=3,
        split_queue_depth=5,
        merge_idle_rounds=2,
        max_shards=5,
    )

    def _run(self, seed: int):
        """One randomised-but-seeded session: bursts, polls, drains."""
        rng = np.random.default_rng(seed)
        clock = ManualClock()
        service, rebalancer = build_service(
            self.SHARDING, clock, router=lambda stream_id: 0
        )
        features = {
            f"s{seed}-{index}": stream_arrays(
                seed=200 + index, segments=Q + 12
            )
            for index in range(self.STREAMS)
        }
        first_routes = {}
        for round_index in range(8):
            clock.advance(float(rng.uniform(0.01, 0.5)))
            burst = rng.integers(1, 5)
            for stream_id, (action, interaction) in features.items():
                for position in range(
                    round_index * burst % (Q + 8), round_index * burst % (Q + 8) + 2
                ):
                    service.submit_many(
                        ((stream_id, action[position], interaction[position]),)
                    )
                first_routes.setdefault(stream_id, service.shard_index(stream_id))
            service.poll()
            if rng.random() < 0.4:
                service.drain()
        service.drain()
        service.poll()  # give idle merges a final chance
        return service, rebalancer, first_routes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_schedules_reproduce_decisions_and_routes(self, seed):
        service_a, rebalancer_a, _ = self._run(seed)
        service_b, rebalancer_b, _ = self._run(seed)
        assert [d.to_dict() for d in rebalancer_a.decisions] == [
            d.to_dict() for d in rebalancer_b.decisions
        ]
        assert service_a._routes == service_b._routes
        assert service_a.retired_shards == service_b.retired_shards
        assert service_a.num_shards == service_b.num_shards

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pinned_routes_only_move_through_merges(self, seed):
        service, _, first_routes = self._run(seed)
        retired = service.retired_shards
        for stream_id, first in first_routes.items():
            final = service.shard_index(stream_id)
            if final != first:
                # The only legal way a pinned route changes is its shard
                # being merged away.
                assert first in retired, (stream_id, first, final)


# --------------------------------------------------------------------- #
# Checkpoint round-trip of a split topology
# --------------------------------------------------------------------- #
class TestCheckpointRoundTrip:
    @pytest.fixture(scope="class")
    def runtime_config(self, tiny_features) -> RuntimeConfig:
        return RuntimeConfig(
            model=ModelConfig(
                action_dim=tiny_features.action_dim,
                interaction_dim=tiny_features.interaction_dim,
                action_hidden=12,
                interaction_hidden=6,
            ),
            training=TrainingConfig(
                epochs=2, batch_size=16, checkpoint_every=1, seed=0
            ),
            # One base shard and a roomy batch so backlog can build; merges
            # stay off because idle-round counters are process state and a
            # restore would reset them (the split topology itself is durable).
            serving=ServingConfig(max_batch_size=32, num_shards=1),
            update=UpdateConfig(
                buffer_size=30, drift_threshold=0.9999, update_epochs=2
            ),
            sharding=ShardingConfig(
                rebalance=True, min_hot_depth=2, split_queue_depth=4, max_shards=3
            ),
            sequence_length=SEQUENCE_LENGTH,
        )

    @pytest.fixture(scope="class")
    def drifting_streams(self, tiny_profile, tiny_pipeline):
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

    def test_split_topology_survives_checkpoint_restore(
        self, runtime_config, tiny_features, drifting_streams, tmp_path
    ):
        runtime = Runtime.from_config(runtime_config).fit(tiny_features)
        halves = {
            stream_id: features.num_segments // 2
            for stream_id, features in drifting_streams.items()
        }
        head = []
        for position in range(max(halves.values())):
            for stream_id, features in drifting_streams.items():
                if position < halves[stream_id]:
                    head.extend(
                        runtime.ingest(
                            stream_id,
                            features.action[position],
                            features.interaction[position],
                            float(features.normalised_interaction[position]),
                        )
                    )
            head.extend(runtime.poll())
        assert runtime.service.num_shards > 1, "backlog never triggered a split"
        split_shards = runtime.service.num_shards
        routes_before = dict(runtime.service._routes)

        directory = runtime.checkpoint(tmp_path / "ckpt")
        restored = Runtime.from_checkpoint(directory)
        assert restored.service.num_shards == split_shards
        assert dict(restored.service._routes) == routes_before
        assert restored.rebalance_stats()["enabled"] is True

        # Both sides replay the identical tail: the grown topology and the
        # pinned routes make the runs deterministic, so detections match
        # exactly (frozen dataclasses — scores, thresholds, versions).
        def tail(target):
            produced = []
            for position in range(
                min(halves.values()),
                max(f.num_segments for f in drifting_streams.values()),
            ):
                for stream_id, features in drifting_streams.items():
                    if halves[stream_id] <= position < features.num_segments:
                        produced.extend(
                            target.ingest(
                                stream_id,
                                features.action[position],
                                features.interaction[position],
                                float(features.normalised_interaction[position]),
                            )
                        )
            produced.extend(target.drain())
            return produced

        assert tail(runtime) == tail(restored)
        assert runtime.service.num_shards == restored.service.num_shards
        runtime.close()
        restored.close()
