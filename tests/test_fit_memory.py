"""Fit memory: buffers sized by a batch, not by the data set.

A forward over more than :data:`~repro.nn.fused.FORWARD_BLOCK` windows
(calibration, recalibration, the drift seed's hidden states) runs block by
block in the one workspace a serving batch uses, and
:class:`~repro.core.training.CLSTMTrainer` lays its training set out once,
feature-major, with every BPTT cache of a fit viewing one set of buffers.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import repro.core.training as training_module
from repro import Runtime, RuntimeConfig, StreamFeatures
from repro.core.clstm import CLSTM
from repro.core.detector import AnomalyDetector
from repro.core.training import CLSTMTrainer
from repro.features.sequences import build_sequences
from repro.nn import fused
from repro.nn.backprop import BPTTCache, TrainingArena
from repro.serving import ModelRegistry, ScoreRequest, UpdatePlane, UpdateTrigger
from repro.utils.config import (
    DetectionConfig,
    ModelConfig,
    TrainingConfig,
    UpdateConfig,
)

Q = 9
BLOCK = fused.FORWARD_BLOCK


def _features(rng, segments, d1, d2):
    action = rng.random((segments, d1)) + 1e-3
    return action / action.sum(axis=1, keepdims=True), rng.random((segments, d2))


def _pool_batches():
    """The batch size of every workspace in the calling thread's pool."""
    return sorted(batch for pool in fused._thread_pool.geometries.values() for batch, _ in pool)


@pytest.fixture
def fresh_pool():
    fused.clear_thread_workspaces()
    yield
    fused.clear_thread_workspaces()


@pytest.mark.usefixtures("fresh_pool")
class TestPoolHoldsNoDataSetWorkspace:
    """After each whole-data-set forward the pool holds the block, not N."""

    def test_runtime_fit(self):
        rng = np.random.default_rng(1)
        action, interaction = _features(rng, 3 * BLOCK + Q + 7, 10, 4)
        config = RuntimeConfig(
            model=ModelConfig(action_dim=10, interaction_dim=4, action_hidden=6, interaction_hidden=3),
            training=TrainingConfig(epochs=1, batch_size=32, seed=0),
            sequence_length=Q,
        )
        features = StreamFeatures(
            name="train",
            action=action,
            interaction=interaction,
            labels=np.zeros(len(action), dtype=np.int64),
            normalised_interaction=rng.random(len(action)),
        )
        Runtime.from_config(config).fit(features).close()
        # Calibration and the drift seed's hidden states ran over 3·64 + 7
        # windows; both borrowed the one block workspace.
        assert _pool_batches() == [BLOCK]

    def test_detector_calibrate(self):
        rng = np.random.default_rng(2)
        batch = build_sequences(*_features(rng, 2 * BLOCK + Q + 1, 10, 4), Q)
        model = CLSTM(action_dim=10, interaction_dim=4, action_hidden=6, interaction_hidden=3, seed=1)
        AnomalyDetector(model, DetectionConfig()).calibrate(batch)
        assert _pool_batches() == [BLOCK]

    def test_update_plane_handle_trigger(self):
        registry = ModelRegistry(DetectionConfig(omega=0.8))
        registry.publish(
            CLSTM(action_dim=10, interaction_dim=4, action_hidden=6, interaction_hidden=3, seed=2), 0.2
        )
        count = BLOCK + 30
        plane = UpdatePlane(
            registry,
            update_config=UpdateConfig(buffer_size=count, update_epochs=1),
            training_config=TrainingConfig(epochs=1, batch_size=32, seed=0),
        )
        rng = np.random.default_rng(3)
        action, interaction = _features(rng, count + Q, 10, 4)
        samples = [
            ScoreRequest(
                stream_id="s",
                segment_index=index + Q,
                action_history=action[index : index + Q],
                interaction_history=interaction[index : index + Q],
                action_target=action[index + Q],
                interaction_target=interaction[index + Q],
                interaction_level=0.1,
            )
            for index in range(count)
        ]
        trigger = UpdateTrigger(
            segment_index=count, similarity=0.0, buffered_segments=count, stream_ids=("s",)
        )
        plane.handle_trigger(trigger, samples)
        assert registry.latest().version == 2
        # The recalibration over the 94-sample buffer ran in blocks.
        assert _pool_batches() == [BLOCK]


class TestTrainerLayout:
    D1, D2, HIDDEN = 200, 8, (8, 4)
    CONFIG = TrainingConfig(epochs=2, batch_size=32, checkpoint_every=1, seed=0)

    def _batch(self, count, q):
        rng = np.random.default_rng(5)
        return build_sequences(*_features(rng, count + q, self.D1, self.D2), q)

    def _model(self):
        h1, h2 = self.HIDDEN
        return CLSTM(
            action_dim=self.D1, interaction_dim=self.D2, action_hidden=h1, interaction_hidden=h2, seed=1
        )

    def test_peak_is_one_feature_major_copy_plus_batch_scratch(self):
        # Windows (24 MB) large against everything a fit sizes by a batch.
        batch = self._batch(count=600, q=24)
        count, q = len(batch), batch.sequence_length
        config = replace(self.CONFIG, epochs=1)
        validation = int(round(count * config.validation_fraction))
        train = count - validation
        tail = train % config.batch_size
        width = self.D1 + self.D2
        # The one copy: every window and target, feature-major, in float64.
        laid_out = count * (q + 1) * width * 8
        # Fixed scratch: the BPTT buffers of the fit's three cache shapes
        # (one shared set, each buffer as large as its largest shape) ...
        shapes = [(config.batch_size, True), (tail, True), (validation, False)]
        sizes = {}
        for size, keep in shapes:
            for name, shape in BPTTCache.shapes(sum(self.HIDDEN), q, size, keep).items():
                sizes[name] = max(sizes.get(name, 0), int(np.prod(shape)))
        bptt = 8 * sum(sizes.values())
        # ... the two mini-batch gather buffers (full and tail batch) ...
        minibatch = (config.batch_size + tail) * (q + 1) * width * 8
        # ... plus the validation loss's temporaries (≈ 12 arrays of
        # validation × d1; 16 allowed) and 256 KiB for the arena, Adam's
        # moments, the best checkpoint and Python objects.
        allowance = 16 * validation * self.D1 * 8 + (256 << 10)
        bound = laid_out + bptt + minibatch + allowance
        # Even a batch-major copy of the training part alone, held while it
        # is laid out, would not fit under it.
        assert bound < laid_out + train * q * width * 8

        trainer = CLSTMTrainer(self._model(), config)
        tracemalloc.start()
        try:
            trainer.fit(batch, curves=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    def test_weights_match_the_subset_layout_with_private_caches(self, monkeypatch):
        batch = self._batch(count=150, q=9)
        fitted = self._model()
        CLSTMTrainer(fitted, self.CONFIG).fit(batch)

        class SubsetFirst(training_module._ArenaSet):
            """The earlier layout: a batch-major subset, then feature-major."""

            def __init__(self, source, indices=None):
                super().__init__(source if indices is None else source.subset(indices))

        def private_cache(arena, time_steps, size, keep):
            """The earlier caches: every shape owns its buffers."""
            key = (time_steps, size, keep)
            if key not in arena._caches:
                own = {
                    name: np.zeros(int(np.prod(shape)))
                    for name, shape in BPTTCache.shapes(arena.total, time_steps, size, keep).items()
                }
                arena._caches[key] = BPTTCache(arena.total, time_steps, size, keep, own)
            return arena._caches[key]

        monkeypatch.setattr(training_module, "_ArenaSet", SubsetFirst)
        monkeypatch.setattr(TrainingArena, "_cache", private_cache)
        reference = self._model()
        CLSTMTrainer(reference, self.CONFIG).fit(batch)
        for (name, got), (_, want) in zip(fitted.named_parameters(), reference.named_parameters()):
            assert got.data.tobytes() == want.data.tobytes(), name

    def test_training_windows_are_read_only_views(self):
        rng = np.random.default_rng(6)
        action, interaction = _features(rng, 30, 5, 3)
        batch = build_sequences(action, interaction, 4)
        assert np.shares_memory(batch.action_sequences, action)
        assert not batch.action_sequences.flags.writeable
        np.testing.assert_array_equal(batch.action_sequences[2], action[2:6])
        np.testing.assert_array_equal(batch.interaction_sequences[-1], interaction[-5:-1])
