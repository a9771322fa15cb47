"""Fit memory: buffers sized by a batch, not by the data set.

A forward over more than :data:`~repro.nn.fused.FORWARD_BLOCK` windows
(calibration, recalibration, the drift seed's hidden states) runs block by
block in the one workspace a serving batch uses, and
:class:`~repro.core.training.CLSTMTrainer` lays its training set out once,
feature-major, with every BPTT cache of a fit viewing one set of buffers.
Each way a runtime starts (``Runtime.fit``, ``Runtime.from_checkpoint``)
ends by handing the C heap's free pages back to the OS, once.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.core.training as training_module
import repro.runtime as runtime_module
from repro import Runtime, RuntimeConfig, StreamFeatures
from repro.core.clstm import CLSTM
from repro.core.detector import AnomalyDetector
from repro.core.training import CLSTMTrainer
from repro.features.sequences import build_sequences
from repro.nn import Adam, fused
from repro.nn.backprop import BPTTCache, TrainingArena
from repro.serving import ModelRegistry, ScoreRequest, UpdatePlane, UpdateTrigger
from repro.utils.config import (
    DetectionConfig,
    DurabilityConfig,
    ExecutorConfig,
    ModelConfig,
    ServingConfig,
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

    def _batch(self, count, q, d1=D1, d2=D2):
        rng = np.random.default_rng(5)
        return build_sequences(*_features(rng, count + q, d1, d2), q)

    def _model(self, d1=D1, d2=D2, hidden=HIDDEN):
        h1, h2 = hidden
        return CLSTM(
            action_dim=d1, interaction_dim=d2, action_hidden=h1, interaction_hidden=h2, seed=1
        )

    @staticmethod
    def _data_parts(config, batch, hidden):
        """``(validation, train, laid_out, bptt, minibatch)`` bytes of a fit on ``batch``."""
        count, q = batch.action_sequences.shape[:2]
        validation = int(round(count * config.validation_fraction))
        train = count - validation
        tail = train % config.batch_size
        width = batch.action_sequences.shape[2] + batch.interaction_sequences.shape[2]
        # The one copy: every window and target, feature-major, in float64.
        laid_out = count * (q + 1) * width * 8
        # Fixed scratch: the BPTT buffers of the fit's three cache shapes
        # (one shared set, each buffer as large as its largest shape) ...
        shapes = [(config.batch_size, True), (tail, True), (validation, False)]
        sizes = {}
        for size, keep in shapes:
            for name, shape in BPTTCache.shapes(sum(hidden), q, size, keep).items():
                sizes[name] = max(sizes.get(name, 0), int(np.prod(shape)))
        bptt = 8 * sum(sizes.values())
        # ... and the two mini-batch gather buffers (full and tail batch).
        minibatch = (config.batch_size + tail) * (q + 1) * width * 8
        return validation, train, laid_out, bptt, minibatch

    def test_peak_is_one_feature_major_copy_plus_batch_scratch(self):
        # Windows (24 MB) large against everything a fit sizes by a batch.
        batch = self._batch(count=600, q=24)
        q, width = batch.action_sequences.shape[1], self.D1 + self.D2
        config = replace(self.CONFIG, epochs=1)
        validation, train, laid_out, bptt, minibatch = self._data_parts(config, batch, self.HIDDEN)
        # Beside those, the value-only validation loss's temporaries (all the
        # rest measures ≈ 7 arrays of validation × d1; 9 allowed) and
        # 256 KiB for the arena, Adam's moments, the best checkpoint and
        # Python objects.
        allowance = 9 * validation * self.D1 * 8 + (256 << 10)
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

    def test_a_fit_holds_each_parameter_sized_buffer_once(self):
        # Many parameters (≈ 145k, 1.2 MB a set) on few windows, so the
        # parameter-sized buffers dominate the peak.
        d1, d2, hidden = 64, 8, (128, 32)
        batch = self._batch(count=40, q=5, d1=d1, d2=d2)
        config = TrainingConfig(epochs=3, batch_size=8, checkpoint_every=1, seed=0)
        validation, _, laid_out, bptt, minibatch = self._data_parts(config, batch, hidden)
        model = self._model(d1, d2, hidden)
        params = sum(parameter.data.size for parameter in model.parameters())
        # Five sets: the arena's values and gradients, Adam's two moments and
        # the one best checkpoint; plus Adam's fixed scratch block.
        sets = 5 * params * 8 + 2 * min(Adam.CHUNK, params) * 8
        # The value-only loss holds ≈ 5 arrays of validation × d1; 512 KiB
        # covers a step's own temporaries and Python objects (≈ 200 KiB
        # measured).
        loss = 6 * validation * d1 * 8
        bound = laid_out + bptt + minibatch + loss + sets + (512 << 10)
        # Eight sets (Adam's two full-size scratch buffers, a second
        # checkpoint while one replaces the other) would not fit under it.
        assert bound < laid_out + bptt + minibatch + 8 * params * 8

        trainer = CLSTMTrainer(model, config)
        tracemalloc.start()
        try:
            history = trainer.fit(batch, curves=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A later epoch improved on the first: the checkpoint buffer was reused.
        assert history.best_epoch > 1
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


# ---------------------------------------------------------------------- #
# The heap release at the end of each start path
# ---------------------------------------------------------------------- #
_FIT_RSS_PROBE = r"""
import json, sys, tracemalloc
import numpy as np
import repro.runtime as runtime_module
from repro import Runtime, RuntimeConfig, StreamFeatures
from repro.utils.config import ExecutorConfig, ModelConfig, TrainingConfig

def vm_rss():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) << 10

if sys.argv[1] == "stubbed":
    runtime_module._MALLOC_TRIM = None
# Freeing one 16 MB array raises glibc's dynamic mmap threshold to its size,
# as in any process that has run a while: the fit's arrays then come from
# the heap, which glibc keeps after they are freed.
np.ones(2 << 20)
# BLAS touches its per-thread buffers on the first GEMM; not the fit's.
np.ones((256, 256)) @ np.ones((256, 256))
segments, d1, d2 = 400, 200, 16
rng = np.random.default_rng(0)
action = rng.random((segments, d1)) + 1e-3
features = StreamFeatures(
    name="train",
    action=action / action.sum(axis=1, keepdims=True),
    interaction=rng.random((segments, d2)),
    labels=np.zeros(segments, dtype=np.int64),
    normalised_interaction=rng.random(segments),
)
config = RuntimeConfig(
    model=ModelConfig(action_dim=d1, interaction_dim=d2, action_hidden=64, interaction_hidden=16),
    training=TrainingConfig(epochs=2, batch_size=32, checkpoint_every=1, seed=0),
    executor=ExecutorConfig(mode="serial"),
    sequence_length=9,
)
tracemalloc.start()
before, traced = vm_rss(), tracemalloc.get_traced_memory()[0]
runtime = Runtime.from_config(config).fit(features)
print(json.dumps({
    "growth": vm_rss() - before,
    "live": tracemalloc.get_traced_memory()[0] - traced,
    "tracemalloc": tracemalloc.get_tracemalloc_memory(),
}))
"""

MB = 1 << 20


def _probe_fit_rss(mode: str) -> dict:
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(part for part in (str(src), env.get("PYTHONPATH", "")) if part)
    done = subprocess.run(
        [sys.executable, "-c", _FIT_RSS_PROBE, mode],
        capture_output=True, text=True, timeout=300, env=env, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.skipif(runtime_module._MALLOC_TRIM is None, reason="the C library has no malloc_trim")
def test_a_fit_leaves_resident_only_what_it_keeps():
    """A fresh process fits a 200/16/64/16 runtime on 400 segments.

    Measured on a 2-core x86-64 glibc box: VmRSS grew 5.4–5.8 MB over the
    fit against 4.6 MB of live ``tracemalloc`` bytes plus 0.5 MB of
    tracemalloc's own tables; with the release stubbed out it grew 19.2–19.6
    MB, the ≈ 14 MB the fit freed but glibc kept.
    """
    trimmed, stubbed = (_probe_fit_rss(mode) for mode in ("trimmed", "stubbed"))
    kept = trimmed["live"] + trimmed["tracemalloc"]
    assert trimmed["growth"] <= kept + 3 * MB, trimmed
    assert stubbed["growth"] >= trimmed["growth"] + 8 * MB, (trimmed, stubbed)


class _CountingTrim:
    """``malloc_trim`` (where the C library has it) that records its calls."""

    def __init__(self) -> None:
        self.calls = 0
        self.real = runtime_module._MALLOC_TRIM

    def __call__(self, pad: int) -> int:
        assert pad == 0
        self.calls += 1
        return 0 if self.real is None else self.real(pad)


class TestHeapReleaseAtStart:
    @pytest.fixture
    def config(self, tiny_features, tmp_path):
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
            durability=DurabilityConfig(directory=str(tmp_path / "store")),
            sequence_length=5,
        )

    @staticmethod
    def _feed(runtime, streams, start, stop):
        for position in range(start, stop):
            for name, (action, interaction, levels) in streams.items():
                runtime.ingest(name, action[position], interaction[position], float(levels[position]))

    def _start_serve_crash_recover(self, config, features, calls=lambda: None):
        """Fit, serve (drift updates included), checkpoint, serve on into the
        WAL, crash, recover and serve on: ``calls()`` after each of the four
        stages, and every detection of the run."""
        rng = np.random.default_rng(9)
        model = config.model
        streams = {
            f"cam-{index}": (
                rng.random((60, model.action_dim)),
                rng.random((60, model.interaction_dim)),
                rng.random(60),
            )
            for index in range(2)
        }
        runtime = Runtime.from_config(config).fit(features)
        counts = [calls()]
        self._feed(runtime, streams, 0, 40)
        runtime.checkpoint()
        self._feed(runtime, streams, 40, 50)
        assert runtime.model_version > 1, "no drift update while serving"
        counts.append(calls())
        served = {name: runtime.detections(name) for name in streams}
        runtime.close()

        recovered = Runtime.recover(config.durability.directory)
        counts.append(calls())
        self._feed(recovered, streams, 50, 60)
        recovered.drain()
        counts.append(calls())
        detections = [served, {name: recovered.detections(name) for name in streams}]
        recovered.close()
        return counts, detections

    def test_once_per_start_path_and_the_same_without_it(self, config, tiny_features, tmp_path, monkeypatch):
        trim = _CountingTrim()
        monkeypatch.setattr(runtime_module, "_MALLOC_TRIM", trim)
        counts, reference = self._start_serve_crash_recover(config, tiny_features, lambda: trim.calls)
        # fit: 1; 50 ticks of serving, updates and a checkpoint: none;
        # recover (from_checkpoint and its WAL replay): 1; serving: none.
        assert counts == [1, 1, 2, 2]

        # Where the C library has no malloc_trim the release is skipped, and
        # nothing a runtime computes depends on it.
        monkeypatch.setattr(runtime_module, "_MALLOC_TRIM", None)
        stubbed = replace(config, durability=DurabilityConfig(directory=str(tmp_path / "stubbed")))
        _, detections = self._start_serve_crash_recover(stubbed, tiny_features)
        assert detections == reference
        assert all(rows for part in detections for rows in part.values())
