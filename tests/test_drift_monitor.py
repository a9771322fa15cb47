"""Offline tests of Fig. 5's drift monitor (:class:`DriftMonitor`).

Synthetic hidden rows and plain :class:`ScoreRequest` objects: no model, no
registry, no service.  The Eq. 17 comparison is looked up where the service
module imports it, so a test can pin the similarity it returns.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.serving.service as service_module
from repro.core.clstm import CLSTM
from repro.features.pipeline import StreamFeatures
from repro.serving import ModelRegistry, ScoreRequest, ScoringService, replay_streams
from repro.serving.service import DriftMonitor
from repro.utils.config import DetectionConfig, UpdateConfig

H = 4  # hidden width


def config(**overrides) -> UpdateConfig:
    base = dict(buffer_size=4, drift_threshold=0.4, interaction_threshold=1.0)
    base.update(overrides)
    return UpdateConfig(**base)


def requests(levels, stream_id="s", start=0) -> list:
    """One request per level; the windows are one-segment placeholders."""
    return [
        ScoreRequest(
            stream_id=stream_id,
            segment_index=start + offset,
            action_history=np.full((1, 2), float(start + offset)),
            interaction_history=np.zeros((1, 1)),
            action_target=np.zeros(2),
            interaction_target=np.zeros(1),
            interaction_level=level,
        )
        for offset, level in enumerate(levels)
    ]


def rows(direction: int, count: int, seed: int = 0) -> np.ndarray:
    """``count`` hidden rows near unit axis ``direction``."""
    rng = np.random.default_rng(seed)
    hidden = rng.normal(0.0, 0.01, size=(count, H))
    hidden[:, direction] += 1.0
    return hidden


@pytest.fixture
def pinned(monkeypatch):
    """Make every Eq. 17 comparison return ``pinned.value``."""

    class Pinned:
        value = 0.0
        calls = 0

        def __call__(self, historical, incoming, *, statistic):
            Pinned.calls += 1
            return Pinned.value

    monkeypatch.setattr(service_module, "hidden_set_similarity", Pinned())
    return Pinned


class TestDriftMonitor:
    def test_first_full_buffer_seeds_history_without_a_trigger(self):
        monitor = DriftMonitor(config(), history_version=1)
        seed = rows(0, 4)
        assert monitor.observe(requests([0.5] * 4), seed, 1) == []
        state = monitor.state()
        np.testing.assert_array_equal(state["historical_hidden"], seed)
        assert state["buffer_hidden"] == [] and state["buffer_stream_ids"] == []

    def test_a_trigger_fires_at_similarity_equal_to_the_threshold(self, pinned):
        monitor = DriftMonitor(config(), history_version=3, historical_hidden=rows(0, 4))
        pinned.value = 0.4
        batch = requests([0.5] * 2, "b") + requests([0.5] * 2, "a", start=2)
        ((trigger, samples),) = monitor.observe(batch, rows(1, 4), 3)
        assert trigger.similarity == 0.4 and trigger.buffered_segments == 4
        assert trigger.segment_index == 3  # the row that filled the buffer
        assert trigger.stream_ids == ("a", "b") and trigger.model_version == 3
        assert samples is None  # nothing retained without retain_samples
        pinned.value = 0.41
        assert monitor.observe(requests([0.5] * 4), rows(1, 4), 3) == []
        assert pinned.calls == 2

    def test_drift_between_opposed_sets_triggers(self):
        monitor = DriftMonitor(config(), history_version=1, historical_hidden=rows(0, 4))
        assert monitor.observe(requests([0.5] * 4), rows(0, 4, seed=1), 1) == []
        ((trigger, _),) = monitor.observe(requests([0.5] * 4), -rows(0, 4, seed=2), 1)
        assert trigger.similarity < 0.0

    def test_history_absorbs_every_buffer_up_to_max_history(self, pinned):
        seed, first, second = rows(0, 4), rows(1, 4, seed=1), rows(2, 4, seed=2)
        monitor = DriftMonitor(config(), history_version=1, historical_hidden=seed, max_history=6)
        pinned.value = 1.0  # no trigger: absorption happens either way
        assert monitor.observe(requests([0.5] * 4), first, 1) == []
        np.testing.assert_array_equal(
            monitor.state()["historical_hidden"], np.concatenate([seed, first])[-6:]
        )
        pinned.value = 0.0  # a trigger absorbs its buffer too
        assert len(monitor.observe(requests([0.5] * 4), second, 1)) == 1
        np.testing.assert_array_equal(
            monitor.state()["historical_hidden"], np.concatenate([first, second])[-6:]
        )
        with pytest.raises(ValueError, match="max_history"):
            DriftMonitor(config(), history_version=1, max_history=0)

    def test_the_seed_keeps_only_its_last_max_history_rows(self, pinned):
        seed = rows(0, 5)
        monitor = DriftMonitor(config(), history_version=1, historical_hidden=seed, max_history=3)
        # Before any buffer fills, S_h already holds the cap, not the seed.
        np.testing.assert_array_equal(monitor.state()["historical_hidden"], seed[-3:])
        monitor.observe(requests([0.5] * 3), rows(1, 3), 1)
        assert pinned.calls == 0 and len(monitor.state()["historical_hidden"]) == 3

    def test_a_version_change_drops_history_and_buffer(self, pinned):
        monitor = DriftMonitor(config(), history_version=1, historical_hidden=rows(0, 4))
        monitor.observe(requests([0.5] * 3, "old"), rows(0, 3), 1)
        assert len(monitor.state()["buffer_hidden"]) == 3
        assert monitor.observe(requests([0.5] * 2, "new"), rows(1, 2), 2) == []
        state = monitor.state()
        assert state["historical_hidden"] is None and state["history_version"] == 2
        assert state["buffer_stream_ids"] == ["new", "new"]
        # The next full buffer seeds version 2's history; nothing is compared.
        monitor.observe(requests([0.5] * 2, "new"), rows(1, 2), 2)
        assert pinned.calls == 0 and len(monitor.state()["historical_hidden"]) == 4

    def test_samples_are_the_buffered_requests_only_when_all_were_retained(self, pinned):
        batch = requests([0.5, 2.0, 0.5, 0.5, 0.5])  # 2.0 >= T: not buffered
        monitor = DriftMonitor(
            config(), history_version=1, historical_hidden=rows(0, 4), retain_samples=True
        )
        ((_, samples),) = monitor.observe(batch, rows(1, 5), 1)
        assert samples == tuple(batch[i] for i in (0, 2, 3, 4))
        # A state that kept no samples, continued by a monitor that keeps them:
        # the part-full buffer yields a trigger without a fragment of samples.
        plain = DriftMonitor(config(), history_version=1, historical_hidden=rows(0, 4))
        plain.observe(requests([0.5] * 3), rows(1, 3), 1)
        assert plain.state()["buffer_requests"] is None
        monitor.load_state(plain.state(), latest_version=1)
        ((_, samples),) = monitor.observe(requests([0.5], start=3), rows(1, 1), 1)
        assert samples is None
        ((_, samples),) = monitor.observe(requests([0.5] * 4, start=4), rows(1, 4), 1)
        assert len(samples) == 4

    def test_state_round_trip_continues_to_identical_triggers(self):
        rng = np.random.default_rng(5)
        batches = [
            (requests(rng.random(3), f"s{k % 2}", start=3 * k), rng.normal(size=(3, H)))
            for k in range(12)
        ]
        drifty = config(interaction_threshold=None, drift_threshold=0.9, buffer_size=3)
        first = DriftMonitor(drifty, history_version=1, retain_samples=True)
        for batch, hidden in batches[:5]:
            first.observe(batch, hidden, 1)
        second = DriftMonitor(drifty, history_version=7, retain_samples=True)
        second.load_state(first.state(), latest_version=7)
        assert second.state()["history_version"] == 1
        fired = [[], []]
        for batch, hidden in batches[5:]:
            for out, monitor in zip(fired, (first, second)):
                out.extend(monitor.observe(batch, hidden, 1))
        assert fired[0], "the tail must fire for the comparison to mean anything"
        assert [t for t, _ in fired[0]] == [t for t, _ in fired[1]]
        assert [
            [r.segment_index for r in samples] for _, samples in fired[0]
        ] == [[r.segment_index for r in samples] for _, samples in fired[1]]

    def test_a_state_without_a_version_binds_to_the_latest(self):
        monitor = DriftMonitor(config(), history_version=1, historical_hidden=rows(0, 4))
        state = monitor.state()
        del state["history_version"]
        restored = DriftMonitor(config(), history_version=1)
        restored.load_state(state, latest_version=5)
        assert restored.state()["history_version"] == 5

    def test_no_config_observes_nothing_and_keeps_its_seed(self):
        seed = rows(0, 4)
        monitor = DriftMonitor(None, history_version=1, historical_hidden=seed)
        assert monitor.observe(requests([0.5] * 8), rows(1, 8), 2) == []
        state = monitor.state()
        np.testing.assert_array_equal(state["historical_hidden"], seed)
        assert state["level_count"] == 0 and state["history_version"] == 1


class TestInteractionThreshold:
    """``T`` with no configured threshold: the mean of every level observed
    before the current micro-batch, frozen for the batch."""

    def buffered(self, batches) -> int:
        monitor = DriftMonitor(
            config(interaction_threshold=None, buffer_size=100), history_version=1
        )
        start = 0
        for levels in batches:
            monitor.observe(requests(levels, start=start), rows(0, len(levels)), 1)
            start += len(levels)
        return len(monitor.state()["buffer_hidden"])

    def test_batch_boundaries_decide_what_is_buffered(self):
        # One batch: T is +inf for both rows (nothing observed before it).
        assert self.buffered([[0.0, 1.0]]) == 2
        # Two batches: the second row meets T = mean([0.0]) = 0.0.
        assert self.buffered([[0.0], [1.0]]) == 1

    def test_nan_levels_are_not_observed(self):
        monitor = DriftMonitor(config(interaction_threshold=None), history_version=1)
        monitor.observe(requests([float("nan"), 0.25, 0.75]), rows(0, 3), 1)
        state = monitor.state()
        assert state["level_count"] == 2 and state["level_sum"] == 1.0
        assert len(state["buffer_hidden"]) == 2


def test_scoring_service_export_state_keys():
    model = CLSTM(action_dim=6, interaction_dim=2, action_hidden=4, interaction_hidden=H, seed=0)
    registry = ModelRegistry(DetectionConfig(omega=0.8))
    registry.publish(model, 0.2)
    service = ScoringService(sequence_length=2, registry=registry, update_config=config())
    rng = np.random.default_rng(0)
    action = rng.random((8, 6)) + 1e-3
    replay_streams(
        service,
        {
            "s": StreamFeatures(
                name="s",
                action=action / action.sum(axis=1, keepdims=True),
                interaction=rng.random((8, 2)),
                labels=np.zeros(8, dtype=np.int64),
                normalised_interaction=rng.random(8),
            )
        },
    )
    assert set(service.export_state()) == {
        "sessions",
        "historical_hidden",
        "history_version",
        "buffer_hidden",
        "buffer_stream_ids",
        "buffer_requests",
        "level_sum",
        "level_count",
        "pending",
    }
