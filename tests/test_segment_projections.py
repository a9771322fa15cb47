"""Segment-resident gate-input projections: determinism and cache lifecycle.

The serving path projects each ingested segment once per weight variant and
gathers the cached rows into every window the segment appears in.  These
tests pin (a) that the one projection routine is deterministic by
construction — a row's bits depend on the row and the weights only — and
(b) the cache's lifecycle across batches, hot swaps, restores and session
handoffs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clstm import CLSTM
from repro.core.detector import AnomalyDetector
from repro.nn import fused as fused_module
from repro.nn.fused import PROJECTION_BLOCK, FusedGateWeights, Segment, project_rows
from repro.serving import (
    ModelRegistry,
    ParallelExecutor,
    ScoreRequest,
    ScoringService,
    SerialExecutor,
    ShardedScoringService,
    StreamSession,
)
from repro.utils.config import DetectionConfig, ServingConfig

D1, D2, Q = 14, 5, 4


def make_model(seed: int = 2, **kwargs) -> CLSTM:
    return CLSTM(
        action_dim=D1, interaction_dim=D2, action_hidden=8, interaction_hidden=4, seed=seed, **kwargs
    )


def make_registry(model: CLSTM) -> ModelRegistry:
    detector = AnomalyDetector(model, DetectionConfig(omega=0.8, threshold=0.2))
    detector.anomaly_threshold = 0.2
    return ModelRegistry.from_detector(detector)


def make_ticks(streams: int, ticks: int, seed: int):
    """``ticks`` rounds of one ``(stream_id, action, interaction, level)`` per stream."""
    rng = np.random.default_rng(seed)
    action = rng.random((ticks, streams, D1)) + 1e-3
    action /= action.sum(axis=-1, keepdims=True)
    interaction = rng.random((ticks, streams, D2))
    return [
        [(f"s{s}", action[t, s], interaction[t, s], 0.5) for s in range(streams)]
        for t in range(ticks)
    ]


def feed(service: ScoringService, ticks) -> list:
    produced = []
    for tick in ticks:
        for submission in tick:
            produced.extend(service.submit_many((submission,)))
    produced.extend(service.flush())
    return produced


def numbers(detections) -> list:
    """Everything a detection computed (its model version label aside)."""
    return [
        (d.stream_id, d.segment_index, d.score, d.action_error, d.interaction_error, d.is_anomaly)
        for d in detections
    ]


@pytest.fixture
def projected_rows(monkeypatch):
    """Rows handed to ``project_rows``, keyed by input width, per test."""
    counts = {D1: 0, D2: 0}
    real = fused_module.project_rows

    def counting(rows, fused):
        counts[fused.w_input.shape[0]] += len(rows)
        return real(rows, fused)

    monkeypatch.setattr(fused_module, "project_rows", counting)
    return counts


class TestProjectionDeterminism:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        count=st.integers(min_value=1, max_value=2 * PROJECTION_BLOCK + 3),
        cuts=st.lists(st.integers(min_value=0, max_value=2 * PROJECTION_BLOCK + 3), max_size=4),
        dtype=st.sampled_from([np.float64, np.float32]),
        paper_shape=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_bits_depend_on_row_and_weights_only(self, seed, count, cuts, dtype, paper_shape):
        rng = np.random.default_rng(seed)
        features, hidden = (400, 128) if paper_shape else (D1, 8)
        weights = FusedGateWeights(
            w_hidden=np.zeros((hidden, 4 * hidden), dtype=dtype),
            w_partner=None,
            w_input=rng.standard_normal((features, 4 * hidden)).astype(dtype),
            bias=rng.standard_normal(4 * hidden).astype(dtype),
            hidden_size=hidden,
        )
        rows = list(rng.standard_normal((count, features)))
        together = project_rows(rows, weights)
        assert together.shape == (count, 4 * hidden) and together.dtype == dtype
        # Any position, any neighbours: shuffle the rows.
        order = rng.permutation(count)
        shuffled = project_rows([rows[k] for k in order], weights)
        assert np.array_equal(shuffled, together[order])
        # Any split of the missing rows, down to a row on its own.
        bounds = sorted({0, count, *(cut % (count + 1) for cut in cuts)})
        for start, stop in zip(bounds, bounds[1:]):
            assert np.array_equal(project_rows(rows[start:stop], weights), together[start:stop])
        alone = rng.integers(count)
        assert np.array_equal(project_rows([rows[alone]], weights)[0], together[alone])


class TestProjectionCounts:
    def test_steady_state_batch_projects_one_row_per_request(self, projected_rows):
        streams = 6
        service = ScoringService(
            registry=make_registry(make_model()), sequence_length=Q, max_batch_size=streams
        )
        ticks = make_ticks(streams, Q + 3, seed=1)
        feed(service, ticks[: Q + 1])  # warm-up rounds + the first (cold) batch
        assert projected_rows == {D1: streams * Q, D2: streams * Q}
        for tick in ticks[Q + 1 :]:
            before = dict(projected_rows)
            assert len(feed(service, [tick])) == streams
            assert projected_rows[D1] - before[D1] == streams
            assert projected_rows[D2] - before[D2] == streams

    def test_backlog_batch_projects_each_shared_segment_once(self, projected_rows):
        backlog = 5
        service = ScoringService(
            registry=make_registry(make_model()), sequence_length=Q, max_batch_size=backlog
        )
        detections = feed(service, make_ticks(1, Q + backlog, seed=2))
        assert len(detections) == backlog
        assert service.stats.batches == 1
        # One stream, `backlog` overlapping windows: Q + backlog - 1 distinct
        # segments, not backlog * Q rows.
        assert projected_rows == {D1: Q + backlog - 1, D2: Q + backlog - 1}


class TestHotSwap:
    def test_swap_to_new_weights_matches_cold_restore_on_new_version(self):
        ticks = make_ticks(4, Q + 6, seed=3)
        registry = make_registry(make_model(seed=2))
        service = ScoringService(registry=registry, sequence_length=Q, max_batch_size=4)
        feed(service, ticks[: Q + 3])
        replacement = make_model(seed=11)
        registry.publish(replacement, 0.2)
        state = service.export_state()
        swapped = feed(service, ticks[Q + 3 :])
        assert {d.model_version for d in swapped} == {2}

        cold = ScoringService(
            registry=make_registry(replacement), sequence_length=Q, max_batch_size=4
        )
        cold.restore_state(state)
        assert numbers(feed(cold, ticks[Q + 3 :])) == numbers(swapped)

    def test_same_weights_republish_projects_nothing_extra(self, projected_rows):
        streams = 4
        model = make_model()
        registry = make_registry(model)
        service = ScoringService(registry=registry, sequence_length=Q, max_batch_size=streams)
        ticks = make_ticks(streams, Q + 3, seed=4)
        feed(service, ticks[: Q + 1])
        registry.publish(model, 0.2)  # snapshot() transplants the stacked variants
        before = dict(projected_rows)
        detections = feed(service, ticks[Q + 1 :])
        assert {d.model_version for d in detections} == {2}
        assert projected_rows[D1] - before[D1] == 2 * streams
        assert projected_rows[D2] - before[D2] == 2 * streams


def make_windows(count: int, seed: int) -> list:
    """``count`` windows of ``Q`` fresh (unprojected) segments each."""
    rng = np.random.default_rng(seed)
    return [
        tuple(Segment(rng.random(D1), rng.random(D2)) for _ in range(Q)) for _ in range(count)
    ]


def expected_gate_inputs(model: CLSTM, windows) -> np.ndarray:
    """The joint ``(B, q, 4·h1 + 4·h2)`` gate inputs, straight from ``project_rows``."""
    segments = [segment for window in windows for segment in window]
    per_cell = [
        project_rows([segment.rows[index] for segment in segments], fused_module.prewarm_cell(cell))
        for index, cell in enumerate((model.lstm_influencer, model.lstm_audience))
    ]
    return np.concatenate(per_cell, axis=1).reshape(len(windows), Q, -1)


def cached_rows(windows) -> np.ndarray:
    """The joint rows a forward left on each window's segments, ``(B, q, 4·Hs)``."""
    return np.array([[segment.gate[2] for segment in window] for window in windows])


class TestJointRow:
    def test_row_misses_when_only_one_cell_changed(self, projected_rows):
        model = make_model()
        windows = make_windows(3, seed=8)
        model.predict_full(windows)
        first = cached_rows(windows)
        assert projected_rows == {D1: 3 * Q, D2: 3 * Q}
        model.predict_full(windows)
        assert np.array_equal(cached_rows(windows), first)
        assert projected_rows == {D1: 3 * Q, D2: 3 * Q}  # all hits
        # Rebind the audience cell's weights only: the influencer keeps its
        # variant object, the audience gets a new one, and the joint row —
        # tagged by both — must miss as a whole.
        for parameter in model.lstm_audience.parameters():
            parameter.data = parameter.data * 1.5
        model.predict_full(windows)
        second = cached_rows(windows)
        assert projected_rows == {D1: 6 * Q, D2: 6 * Q}
        assert np.array_equal(second, expected_gate_inputs(model, windows))
        split = 4 * model.action_hidden
        assert np.array_equal(second[..., :split], first[..., :split])
        assert not np.array_equal(second[..., split:], first[..., split:])

    def test_small_batch_after_large_batch_reads_its_own_rows(self):
        model = make_model()
        large, small = make_windows(64, seed=9), make_windows(8, seed=10)
        model.predict_full(large)
        kept = cached_rows(large)
        model.predict_full(small)
        gathered_small = cached_rows(small)
        assert gathered_small.shape == (8, Q, 4 * (model.action_hidden + model.interaction_hidden))
        # Each cached row is a private copy, not a view of the workspace.
        rows = [segment.gate[2] for window in small + large for segment in window]
        assert all(row.base is None for row in rows)
        assert np.array_equal(gathered_small, expected_gate_inputs(model, small))
        assert np.array_equal(cached_rows(large), kept)
        # ... and the forward over the windows is the forward over their rows.
        from_rows = model.predict_full(expected_gate_inputs(model, small))
        for got, expected in zip(model.predict_full(small), from_rows):
            assert np.array_equal(got, expected)


    def test_thread_executor_scores_the_cached_rows_bitwise(self):
        ticks = make_ticks(3, Q + 5, seed=12)

        def run(executor):
            service = ShardedScoringService(
                make_registry(make_model()),
                config=ServingConfig(max_batch_size=3, num_shards=2),
                sequence_length=Q,
                executor=executor,
            )
            try:
                # One call per tick: when both shards fill on the same tick,
                # their batches score on two worker threads at once, each
                # with its own workspaces.
                for tick in ticks:
                    service.submit_many(tick)
                service.drain()
                return [service.detections(f"s{s}") for s in range(3)]
            finally:
                service.close()

        reference = run(SerialExecutor())
        assert all(len(rows) == 5 for rows in reference)
        assert run(ParallelExecutor(workers=2)) == reference


class TestSessionHandoff:
    def test_evicted_and_adopted_sessions_keep_scoring_bitwise(self):
        ticks = make_ticks(3, Q + 6, seed=5)
        model = make_model()
        reference = feed(
            ScoringService(registry=make_registry(model), sequence_length=Q, max_batch_size=3),
            ticks,
        )
        registry = make_registry(model)
        donor = ScoringService(registry=registry, sequence_length=Q, max_batch_size=3)
        heir = ScoringService(registry=registry, sequence_length=Q, max_batch_size=3)
        moved = feed(donor, ticks[: Q + 2])
        heir.adopt_sessions(donor.evict_sessions())
        moved += feed(heir, ticks[Q + 2 :])
        assert numbers(moved) == numbers(reference)


class TestExplicitWindows:
    def test_request_built_from_arrays_scores_like_offline(self):
        model = make_model()
        registry = make_registry(model)
        service = ScoringService(registry=registry, sequence_length=Q, max_batch_size=8)
        rng = np.random.default_rng(6)
        action = rng.random((3, Q + 1, D1)) + 1e-3
        action /= action.sum(axis=-1, keepdims=True)
        interaction = rng.random((3, Q + 1, D2))
        for index in range(3):
            request = ScoreRequest(
                stream_id="explicit",
                segment_index=index,
                action_history=action[index, :Q],
                interaction_history=interaction[index, :Q],
                action_target=action[index, Q],
                interaction_target=interaction[index, Q],
            )
            assert np.array_equal(request.action_history, action[index, :Q])
            assert np.array_equal(request.interaction_history, interaction[index, :Q])
            service.batcher.extend([request])
        detections = service.flush()
        offline = registry.latest().detector.score_arrays(
            action[:, :Q], interaction[:, :Q], action[:, Q], interaction[:, Q], np.arange(3)
        )
        np.testing.assert_allclose(
            [d.score for d in detections], offline.scores, rtol=0.0, atol=1e-10
        )

    def test_window_backed_request_stacks_its_rows_on_access(self):
        session = StreamSession("live", sequence_length=Q)
        rng = np.random.default_rng(7)
        features, interactions = rng.random((Q + 2, D1)), rng.random((Q + 2, D2))
        requests = [
            session.make_request(features[k], interactions[k], 0.5) for k in range(Q + 2)
        ]
        assert requests[:Q] == [None] * Q
        last = requests[-1]
        assert np.array_equal(last.action_history, features[1 : Q + 1])
        assert np.array_equal(last.interaction_history, interactions[1 : Q + 1])
        # The window shares the session's records instead of copying them.
        assert last.window[:-1] == requests[-2].window[1:]
        assert last.window[-1] is session.history[-2]
