"""Workspace-pool tests: zero steady-state allocations, reuse counters,
float32 tolerance against the float64 oracle, and the snapshot-prewarm
concatenate regression.

The fused kernels keep all per-batch scratch in a per-``(batch, time)``
:class:`~repro.nn.fused.Workspace` from the calling thread's pool, which
every model of the same geometry shares, so
steady-state serving (same batch geometry every flush) performs **no large
allocations per batch** — only the O(B·H) output copies that must escape.
"""

from __future__ import annotations

import gc
import sys
import threading

import numpy as np
import pytest

import repro.nn.fused as fused_module
from repro.core.clstm import CLSTM
from repro.nn.backend import FLOAT32_ATOL, FLOAT32_RTOL, FLOAT32_SCORE_ATOL
from repro.nn.fused import (
    MAX_WORKSPACE_GEOMETRIES,
    MAX_WORKSPACES_PER_GEOMETRY,
    Segment,
    Workspace,
    clear_thread_workspaces,
    coupled_pair_forward_fused,
    fused_cache_fresh,
    reset_workspace_stats,
    workspace_stats,
)
from repro.nn.recurrent import CoupledLSTMCell
from repro.serving import ModelRegistry, ScoreRequest, UpdatePlane, UpdateTrigger
from repro.serving.service import ScoringService
from repro.core.detector import AnomalyDetector
from repro.utils.config import DetectionConfig, TrainingConfig, UpdateConfig


class _CountingNamespace:
    """NumPy proxy that counts the allocating calls the kernels may make.

    Installed as the kernel module's ``np`` global, so every NumPy call the
    kernels make goes through it and only the allocating ones are counted.
    """

    def __init__(self):
        self.allocations = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def _count(self, factory):
        def wrapper(*args, **kwargs):
            self.allocations += 1
            return factory(*args, **kwargs)

        return wrapper

    @property
    def empty(self):
        return self._count(np.empty)

    @property
    def zeros(self):
        return self._count(np.zeros)

    @property
    def concatenate(self):
        return self._count(np.concatenate)


def _pair(rng_seed=3):
    influencer = CoupledLSTMCell(6, 5, 4, rng=np.random.default_rng(rng_seed))
    audience = CoupledLSTMCell(3, 4, 5, rng=np.random.default_rng(rng_seed + 1))
    return influencer, audience


def _batches(rng, count, batch, time):
    return [
        (rng.standard_normal((batch, time, 6)), rng.standard_normal((batch, time, 3)))
        for _ in range(count)
    ]


class TestZeroAllocationSteadyState:
    def test_steady_state_serving_makes_no_large_allocations(self, monkeypatch):
        influencer, audience = _pair()
        rng = np.random.default_rng(0)
        batches = _batches(rng, 6, batch=8, time=9)

        counting = _CountingNamespace()
        monkeypatch.setattr(fused_module, "np", counting)

        # Warm-up: builds the fused weights and the workspace for this
        # (batch, time) geometry.
        coupled_pair_forward_fused(influencer, audience, *batches[0])
        counting.allocations = 0

        outputs = [
            coupled_pair_forward_fused(influencer, audience, actions, interactions)
            for actions, interactions in batches[1:]
        ]
        assert counting.allocations == 0
        # The outputs still escape as fresh, caller-owned arrays.
        assert outputs[0][0] is not outputs[1][0]
        assert not np.shares_memory(outputs[0][0], outputs[1][0])

    def test_per_step_hiddens_still_allocate_when_requested(self, monkeypatch):
        influencer, audience = _pair()
        rng = np.random.default_rng(1)
        actions = rng.standard_normal((4, 7, 6))
        interactions = rng.standard_normal((4, 7, 3))
        counting = _CountingNamespace()
        monkeypatch.setattr(fused_module, "np", counting)
        coupled_pair_forward_fused(influencer, audience, actions, interactions)
        counting.allocations = 0
        coupled_pair_forward_fused(
            influencer, audience, actions, interactions, return_all_hidden=True
        )
        # Exactly the two escaping (batch, time, H) stacks, nothing else.
        assert counting.allocations == 2


@pytest.fixture
def fresh_pool():
    """An empty workspace pool on this thread: the counters below count from
    a cold start, not from whatever earlier tests of the same geometry left."""
    clear_thread_workspaces()
    yield
    clear_thread_workspaces()


@pytest.mark.usefixtures("fresh_pool")
class TestWorkspaceCounters:
    def test_workspace_reused_across_same_shape_batches(self):
        influencer, audience = _pair(rng_seed=11)
        rng = np.random.default_rng(2)
        batches = _batches(rng, 5, batch=4, time=6)
        reset_workspace_stats()
        for actions, interactions in batches:
            coupled_pair_forward_fused(influencer, audience, actions, interactions)
        stats = workspace_stats()
        assert stats["created"] == 1
        assert stats["reused"] == len(batches) - 1
        assert stats["evicted"] == 0

    def test_workspace_pool_evicts_least_recently_used(self):
        influencer, audience = _pair(rng_seed=13)
        rng = np.random.default_rng(3)
        reset_workspace_stats()
        # One more distinct geometry than the pool holds.
        for batch in range(1, MAX_WORKSPACES_PER_GEOMETRY + 2):
            actions = rng.standard_normal((batch, 4, 6))
            interactions = rng.standard_normal((batch, 4, 3))
            coupled_pair_forward_fused(influencer, audience, actions, interactions)
        stats = workspace_stats()
        assert stats["created"] == MAX_WORKSPACES_PER_GEOMETRY + 1
        assert stats["evicted"] == 1

    def test_weight_rebind_keeps_workspaces_but_invalidates_weights(self):
        # Workspace buffers hold no weight content, so a parameter rebind
        # (an optimiser step) must invalidate the fused-weight cache but can
        # keep the scratch buffers.
        influencer, audience = _pair(rng_seed=17)
        rng = np.random.default_rng(4)
        actions = rng.standard_normal((3, 5, 6))
        interactions = rng.standard_normal((3, 5, 3))
        coupled_pair_forward_fused(influencer, audience, actions, interactions)
        assert fused_cache_fresh(influencer)
        for parameter in influencer.parameters():
            parameter.data = parameter.data.copy()
        assert not fused_cache_fresh(influencer)
        reset_workspace_stats()
        coupled_pair_forward_fused(influencer, audience, actions, interactions)
        assert workspace_stats()["reused"] == 1  # scratch survived the rebind


def _live_workspaces():
    """``(count, bytes)`` of every :class:`Workspace` alive in the process."""
    gc.collect()
    live = [obj for obj in gc.get_objects() if isinstance(obj, Workspace)]
    buffers = ("hidden", "cell", "scratch", "gates", "pre", "x_proj")
    return len(live), sum(getattr(ws, name).nbytes for ws in live for name in buffers)


def _clstm(seed, action_hidden=8):
    return CLSTM(
        action_dim=10, interaction_dim=4, action_hidden=action_hidden,
        interaction_hidden=5, seed=seed,
    )


def _windows(action, interaction):
    """Fresh :class:`Segment` windows (no cached projections) over
    ``(B, q, d)`` feature arrays."""
    return [
        [Segment(a, i) for a, i in zip(actions, interactions)]
        for actions, interactions in zip(action, interaction)
    ]


def _update_samples(rng, count, q=4):
    samples = []
    for index in range(count):
        action = rng.random((q + 1, 10)) + 1e-3
        action /= action.sum(axis=1, keepdims=True)
        interaction = rng.random((q + 1, 4))
        samples.append(
            ScoreRequest(
                stream_id="s",
                segment_index=index,
                action_history=action[:q],
                interaction_history=interaction[:q],
                action_target=action[q],
                interaction_target=interaction[q],
                interaction_level=0.1,
            )
        )
    return samples


@pytest.mark.usefixtures("fresh_pool")
class TestProcessWidePool:
    """One pool per thread, shared by every model of a geometry."""

    def test_publishing_past_max_versions_keeps_scratch_constant(self):
        registry = ModelRegistry(DetectionConfig(omega=0.8), max_versions=3)
        registry.publish(_clstm(seed=2), 0.2)
        plane = UpdatePlane(
            registry,
            update_config=UpdateConfig(buffer_size=8, update_epochs=1),
            training_config=TrainingConfig(epochs=1, batch_size=8, seed=0),
        )
        trigger = UpdateTrigger(
            segment_index=0, similarity=0.0, buffered_segments=8, stream_ids=("s",)
        )
        rng = np.random.default_rng(21)
        windows = _windows(rng.random((6, 4, 10)), rng.random((6, 4, 4)))
        live = []
        for _ in range(6):
            # Publish (its recalibration forward borrows one shape), then
            # serve a batch on the new version (the serving shape).
            plane.handle_trigger(trigger, _update_samples(rng, 8))
            registry.latest().model.predict_full(windows)
            live.append(_live_workspaces())
        assert len(registry) == 3 and registry.latest().version == 7
        assert live == [live[0]] * len(live)

    def test_versions_served_alternately_match_each_served_alone(self):
        registry = ModelRegistry(DetectionConfig(omega=0.8))
        first = registry.publish(_clstm(seed=2), 0.2).model
        second = registry.publish(_clstm(seed=5), 0.2).model
        rng = np.random.default_rng(22)
        features = [(rng.random((8, 5, 10)), rng.random((8, 5, 4))) for _ in range(4)]

        def alone(model):
            return [model.predict_full(_windows(*batch)) for batch in features]

        expected = {id(first): alone(first), id(second): alone(second)}
        reset_workspace_stats()
        for position, batch in enumerate(features):
            windows = _windows(*batch)  # shared: each version re-projects
            got_first = first.predict_full(windows)
            got_second = second.predict_full(windows)
            for model, got in ((first, got_first), (second, got_second)):
                want = expected[id(model)][position]
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        # Both versions ran in the one workspace their shape already had.
        assert workspace_stats()["created"] == 0

    def test_each_geometry_keeps_its_own_shapes(self):
        small, large = _clstm(seed=3), _clstm(seed=4, action_hidden=12)
        rng = np.random.default_rng(23)
        batches = [
            (rng.random((batch, 3, 10)), rng.random((batch, 3, 4)))
            for batch in range(1, MAX_WORKSPACES_PER_GEOMETRY + 1)
        ]
        for model in (small, large):
            for batch in batches:
                model.predict(*batch)
        reset_workspace_stats()
        for model in (small, large):
            for batch in batches:
                model.predict(*batch)
        assert workspace_stats() == {
            "created": 0, "reused": 2 * len(batches), "evicted": 0,
        }

    def test_geometries_are_lru_bounded(self):
        models = [
            _clstm(seed=5, action_hidden=hidden)
            for hidden in range(2, MAX_WORKSPACE_GEOMETRIES + 3)
        ]
        rng = np.random.default_rng(24)
        batch = (rng.random((2, 3, 10)), rng.random((2, 3, 4)))
        reset_workspace_stats()
        for model in models:
            model.predict(*batch)
        assert workspace_stats()["evicted"] == 1
        models[0].predict(*batch)  # the least recently used went first
        assert workspace_stats()["created"] == len(models) + 1

    def test_concurrent_threads_never_share_a_workspace(self):
        models = (_clstm(seed=6), _clstm(seed=7))  # two versions, one geometry
        rng = np.random.default_rng(25)
        batches = [(rng.random((3, 4, 10)), rng.random((3, 4, 4))) for _ in range(3)]
        expected = [[a.tobytes() for a in m.predict(*b)] for m in models for b in batches]
        threads, rounds = 4, 10  # more threads than the runner's cores
        results = {}

        def work(index):
            results[index] = [
                [[a.tobytes() for a in m.predict(*b)] for m in models for b in batches]
                for _ in range(rounds)
            ]

        reset_workspace_stats()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert all(results[i] == [expected] * rounds for i in range(threads))
        # One workspace per thread, and no counter update lost.
        calls = threads * rounds * len(expected)
        assert workspace_stats() == {"created": threads, "reused": calls - threads, "evicted": 0}


class TestFloat32ModelPath:
    def _model(self):
        return CLSTM(
            action_dim=12,
            interaction_dim=5,
            action_hidden=8,
            interaction_hidden=6,
            seed=7,
        )

    def test_predictions_within_pinned_tolerance(self):
        model = self._model()
        rng = np.random.default_rng(5)
        actions = rng.standard_normal((6, 9, 12))
        interactions = rng.standard_normal((6, 9, 5))
        i64, a64 = model.predict(actions, interactions, precision="float64")
        i32, a32 = model.predict(actions, interactions, precision="float32")
        assert i32.dtype == np.float32
        assert a32.dtype == np.float32
        np.testing.assert_allclose(i32, i64, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)
        np.testing.assert_allclose(a32, a64, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)

    def test_scores_within_score_tolerance_and_threshold_pinned(self):
        model = self._model()
        rng = np.random.default_rng(6)
        actions = rng.standard_normal((8, 9, 12))
        interactions = rng.standard_normal((8, 9, 5))
        action_targets = np.abs(rng.standard_normal((8, 12)))
        action_targets /= action_targets.sum(axis=1, keepdims=True)
        interaction_targets = rng.standard_normal((8, 5))
        indices = np.arange(8)
        detector = AnomalyDetector(model)
        r64 = detector.score_arrays(
            actions, interactions, action_targets, interaction_targets, indices,
            precision="float64",
        )
        r32 = detector.score_arrays(
            actions, interactions, action_targets, interaction_targets, indices,
            precision="float32",
        )
        # Scores are always float64 (true features are float64) but reflect
        # the reduced-precision forward — within the pinned score tolerance.
        assert r32.scores.dtype == np.float64
        np.testing.assert_allclose(r32.scores, r64.scores, atol=FLOAT32_SCORE_ATOL)

    def test_float32_model_stamps_detections(self):
        config_model = CLSTM(
            action_dim=12,
            interaction_dim=5,
            action_hidden=8,
            interaction_hidden=6,
            seed=7,
            precision="float32",
        )
        detector = AnomalyDetector(config_model, threshold=10.0)
        service = ScoringService(detector, sequence_length=3, max_batch_size=2)
        rng = np.random.default_rng(7)
        detections = []
        for _ in range(6):
            detections.extend(
                service.submit_many((("s", rng.standard_normal(12), rng.standard_normal(5)),))
            )
        detections.extend(service.flush())
        assert detections
        assert all(d.precision == "float32" for d in detections)

    def test_float64_detections_default_precision(self):
        detector = AnomalyDetector(self._model(), threshold=10.0)
        service = ScoringService(detector, sequence_length=3, max_batch_size=2)
        rng = np.random.default_rng(8)
        detections = []
        for _ in range(6):
            detections.extend(
                service.submit_many((("s", rng.standard_normal(12), rng.standard_normal(5)),))
            )
        detections.extend(service.flush())
        assert detections
        assert all(d.precision == "float64" for d in detections)


class TestPrewarmConcatenateRegression:
    def test_snapshot_does_not_rebuild_fused_weights(self, monkeypatch):
        model = CLSTM(
            action_dim=10,
            interaction_dim=4,
            action_hidden=6,
            interaction_hidden=5,
            seed=9,
        )
        model.prewarm_fused()
        calls = {"count": 0}
        real_stack = fused_module._stack_gates

        def counting_stack(*args, **kwargs):
            calls["count"] += 1
            return real_stack(*args, **kwargs)

        monkeypatch.setattr(fused_module, "_stack_gates", counting_stack)
        # Repeated publishes of an unchanged model transplant the cached
        # stacked weights instead of re-concatenating them.
        for _ in range(3):
            copy = model.snapshot()
            assert fused_cache_fresh(copy.lstm_influencer)
            assert fused_cache_fresh(copy.lstm_audience)
        assert calls["count"] == 0

    def test_snapshot_outputs_match_source(self):
        model = CLSTM(
            action_dim=10,
            interaction_dim=4,
            action_hidden=6,
            interaction_hidden=5,
            seed=10,
        )
        rng = np.random.default_rng(11)
        actions = rng.standard_normal((3, 5, 10))
        interactions = rng.standard_normal((3, 5, 4))
        expected = model.predict(actions, interactions)
        copy = model.snapshot()
        got = copy.predict(actions, interactions)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    def test_training_step_invalidates_then_rebuilds_once(self):
        model = CLSTM(
            action_dim=10,
            interaction_dim=4,
            action_hidden=6,
            interaction_hidden=5,
            seed=12,
        )
        rng = np.random.default_rng(13)
        actions = rng.standard_normal((4, 5, 10))
        interactions = rng.standard_normal((4, 5, 4))
        targets_a = np.abs(rng.standard_normal((4, 10)))
        targets_a /= targets_a.sum(axis=1, keepdims=True)
        targets_i = rng.standard_normal((4, 4))
        model.prewarm_fused()
        assert fused_cache_fresh(model.lstm_influencer)
        from repro.nn import Adam

        optimizer = Adam(model.parameters())
        model.fused_training_step(actions, interactions, targets_a, targets_i, omega=0.8)
        optimizer.step()
        assert not fused_cache_fresh(model.lstm_influencer)
        model.prewarm_fused()
        assert fused_cache_fresh(model.lstm_influencer)
