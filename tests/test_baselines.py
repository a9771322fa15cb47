"""Tests for the literature baselines (LTR, VEC, RTFM) and the detector suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import LTRDetector, RTFMDetector, VECDetector, all_detectors
from repro.core.base import ScoredStream, StreamAnomalyDetector
from repro.utils.config import TrainingConfig


FAST = TrainingConfig(epochs=3, batch_size=16, checkpoint_every=1, seed=0)


class TestLTR:
    def test_fit_and_score(self, tiny_train_test):
        train, test = tiny_train_test
        detector = LTRDetector(window=3, bottleneck=8, hidden=16, training=FAST)
        detector.fit(train)
        scored = detector.score_stream(test)
        assert isinstance(scored, ScoredStream)
        assert len(scored) == test.num_segments - 2
        assert np.all(np.isfinite(scored.scores))
        assert np.all(scored.scores >= 0)

    def test_scores_align_with_segment_indices(self, tiny_train_test):
        train, test = tiny_train_test
        detector = LTRDetector(window=3, bottleneck=8, hidden=16, training=FAST)
        detector.fit(train)
        scored = detector.score_stream(test)
        assert scored.segment_indices[0] == 2
        assert scored.segment_indices[-1] == test.num_segments - 1
        labels = scored.labels_from(test)
        assert len(labels) == len(scored)

    def test_score_before_fit(self, tiny_train_test):
        with pytest.raises(RuntimeError):
            LTRDetector().score_stream(tiny_train_test[1])

    def test_window_validation(self):
        with pytest.raises(ValueError):
            LTRDetector(window=0)


class TestVEC:
    def test_fit_and_score(self, tiny_train_test):
        train, test = tiny_train_test
        detector = VECDetector(context=2, hidden=16, training=FAST)
        detector.fit(train)
        scored = detector.score_stream(test)
        assert len(scored) == test.num_segments - 4
        assert np.all(scored.scores >= 0)

    def test_centre_indices(self, tiny_train_test):
        train, test = tiny_train_test
        detector = VECDetector(context=1, hidden=16, training=FAST)
        detector.fit(train)
        scored = detector.score_stream(test)
        assert scored.segment_indices[0] == 1
        assert scored.segment_indices[-1] == test.num_segments - 2

    def test_context_validation(self):
        with pytest.raises(ValueError):
            VECDetector(context=0)

    def test_score_before_fit(self, tiny_train_test):
        with pytest.raises(RuntimeError):
            VECDetector().score_stream(tiny_train_test[1])


class TestRTFM:
    def test_fit_and_score(self, tiny_train_test):
        train, test = tiny_train_test
        detector = RTFMDetector(clip_length=8, top_k=2, embedding_dim=8, hidden=16, training=FAST)
        detector.fit(train)
        scored = detector.score_stream(test)
        assert len(scored) == test.num_segments
        assert np.all(np.isfinite(scored.scores))

    def test_one_class_fallback_without_abnormal_clips(self, tiny_train_test):
        train, test = tiny_train_test
        normal_only = train.subset(0, train.num_segments)
        normal_only.labels[:] = 0
        detector = RTFMDetector(clip_length=8, top_k=2, embedding_dim=8, hidden=16, training=FAST)
        detector.fit(normal_only)
        scored = detector.score_stream(test)
        assert len(scored) == test.num_segments

    def test_validation(self):
        with pytest.raises(ValueError):
            RTFMDetector(clip_length=1)
        with pytest.raises(ValueError):
            RTFMDetector(top_k=0)

    def test_too_short_stream_rejected(self, tiny_train_test):
        train, _ = tiny_train_test
        detector = RTFMDetector(clip_length=10_000, training=FAST)
        with pytest.raises(ValueError):
            detector.fit(train)

    def test_score_before_fit(self, tiny_train_test):
        with pytest.raises(RuntimeError):
            RTFMDetector().score_stream(tiny_train_test[1])


class TestDetectorSuite:
    def test_all_detectors_contains_paper_methods(self):
        suite = all_detectors(training=FAST)
        assert set(suite) == {"LTR", "VEC", "LSTM", "RTFM", "CLSTM-S", "CLSTM"}
        assert all(isinstance(d, StreamAnomalyDetector) for d in suite.values())

    def test_detector_names_match_keys(self):
        suite = all_detectors(training=FAST)
        for key, detector in suite.items():
            assert detector.name == key

    def test_a_detector_must_implement_fit_and_score_stream(self):
        class FitOnly(StreamAnomalyDetector):
            def fit(self, features):
                return self

        with pytest.raises(TypeError, match="score_stream"):
            FitOnly()
