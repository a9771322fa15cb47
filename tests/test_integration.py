"""End-to-end integration tests tying the whole pipeline together."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AOVLIS,
    FeaturePipeline,
    FilteredDetector,
    LTRDetector,
    ModelConfig,
    Runtime,
    RuntimeConfig,
    auroc,
    load_dataset,
)
from repro.evaluation import ExperimentHarness, ExperimentScale
from repro.utils.config import TrainingConfig, UpdateConfig


@pytest.fixture(scope="module")
def inf_dataset():
    """A small INF-style dataset prepared through the public API."""
    spec = load_dataset("INF", base_train_seconds=220, base_test_seconds=160, seed=5)
    pipeline = FeaturePipeline(
        action_dim=32, motion_channels=spec.profile.motion_channels, embedding_dim=8, seed=5
    )
    return pipeline.extract(spec.train), pipeline.extract(spec.test), pipeline


@pytest.fixture(scope="module")
def trained_aovlis(inf_dataset):
    train, _, _ = inf_dataset
    model = AOVLIS(
        sequence_length=5,
        action_hidden=16,
        interaction_hidden=8,
        training=TrainingConfig(epochs=6, batch_size=16, checkpoint_every=2, seed=1),
    )
    model.fit(train)
    return model


class TestEndToEnd:
    def test_detection_beats_random(self, inf_dataset, trained_aovlis):
        _, test, _ = inf_dataset
        labels, scores = trained_aovlis.evaluate_labels(test)
        assert labels.sum() > 0, "test stream should contain anomalies"
        assert auroc(labels, scores) > 0.6

    def test_clstm_outperforms_visual_only_baseline(self, inf_dataset, trained_aovlis):
        """Headline claim of the paper: exploiting audience interaction beats
        visual-only detection on interactive streams."""
        train, test, _ = inf_dataset
        ltr = LTRDetector(training=TrainingConfig(epochs=6, batch_size=16, checkpoint_every=2, seed=1))
        ltr.fit(train)
        ltr_labels, ltr_scores = ltr.evaluate_labels(test)
        clstm_labels, clstm_scores = trained_aovlis.evaluate_labels(test)
        assert auroc(clstm_labels, clstm_scores) >= auroc(ltr_labels, ltr_scores) - 0.05

    def test_threshold_detection_flags_some_anomalies(self, inf_dataset, trained_aovlis):
        _, test, _ = inf_dataset
        result = trained_aovlis.detect(test)
        assert result.is_anomaly.dtype == bool
        assert 0 < result.is_anomaly.sum() < len(result)

    def test_ados_filtering_agrees_with_exact_detection(self, inf_dataset, trained_aovlis):
        _, test, _ = inf_dataset
        batch = test.sequences(trained_aovlis.sequence_length)
        exact = trained_aovlis.detector.score(batch)
        filtered = FilteredDetector(trained_aovlis.detector).detect(batch)
        np.testing.assert_array_equal(filtered.segment_indices, exact.segment_indices)
        np.testing.assert_array_equal(filtered.decisions, exact.is_anomaly)
        assert filtered.filtering_power() > 0.0

    def test_incremental_update_keeps_detection_working(self, inf_dataset):
        """The served Fig. 5 loop end to end: a runtime with updates on replays
        the first half of the test stream, publishes at least one merged
        version, and that version still detects on the second half."""
        train, test, _ = inf_dataset
        config = RuntimeConfig(
            model=ModelConfig(
                action_dim=train.action_dim,
                interaction_dim=train.interaction_dim,
                action_hidden=16,
                interaction_hidden=8,
            ),
            training=TrainingConfig(epochs=6, batch_size=16, checkpoint_every=2, seed=1),
            # drift_threshold=2.0: every full buffer triggers an update.
            update=UpdateConfig(buffer_size=15, drift_threshold=2.0, update_epochs=1),
            sequence_length=5,
        )
        runtime = Runtime.from_config(config).fit(train)
        try:
            half = test.num_segments // 2
            runtime.replay({"live": test.subset(0, half)})
            assert runtime.model_version > 1
            second = test.subset(half, test.num_segments)
            result = runtime.detector.score(second.sequences(config.sequence_length))
        finally:
            runtime.close()
        labels = second.labels[result.segment_indices]
        assert labels.sum() and (labels == 0).sum()
        assert auroc(labels, result.scores) > 0.5

    def test_checkpoint_roundtrip_preserves_scores(self, inf_dataset, trained_aovlis, tmp_path):
        from repro import nn

        _, test, _ = inf_dataset
        before = trained_aovlis.score_stream(test).scores
        path = nn.save_module(trained_aovlis.model, tmp_path / "clstm.npz", metadata={"dataset": "INF"})
        clone = trained_aovlis.model.clone_architecture(seed=99)
        nn.load_into_module(clone, path)
        trained_aovlis.model.load_state_dict(clone.state_dict())
        after = trained_aovlis.score_stream(test).scores
        np.testing.assert_allclose(before, after, atol=1e-10)


class TestHarnessIntegration:
    def test_compare_methods_tiny(self):
        harness = ExperimentHarness(ExperimentScale.tiny())
        results = harness.compare_methods(dataset_names=["INF"], method_names=["LTR", "CLSTM"])
        assert set(results["INF"]) == {"LTR", "CLSTM"}
        for value in results["INF"].values():
            assert np.isnan(value) or 0.0 <= value <= 1.0

    def test_roc_curves_tiny(self):
        harness = ExperimentHarness(ExperimentScale.tiny())
        curves = harness.roc_curves("INF", method_names=["CLSTM"])
        assert "CLSTM" in curves
        assert curves["CLSTM"].fpr[-1] == 1.0

    def test_method_detection_times_tiny(self):
        harness = ExperimentHarness(ExperimentScale.tiny())
        times = harness.method_detection_times("INF", method_names=["LTR", "CLSTM"])
        assert set(times) == {"LTR", "CLSTM", "CLSTM-ADOS"}
        assert all(value > 0 for value in times.values())
