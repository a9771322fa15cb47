"""Tests for feature extraction (repro.features)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.features import (
    HashingWordEmbedding,
    InteractionFeatureExtractor,
    LexiconSentimentAnalyzer,
    SimulatedI3DExtractor,
    build_sequences,
    tokenize,
)
from repro.streams.events import VideoSegment


def make_segment(signature: np.ndarray, frames: int = 64, noise: float = 0.02, seed: int = 0) -> VideoSegment:
    rng = np.random.default_rng(seed)
    content = np.tile(signature, (frames, 1)) + rng.normal(0, noise, (frames, len(signature)))
    content = np.clip(content, 1e-6, None)
    content = content / content.sum(axis=1, keepdims=True)
    return VideoSegment(
        index=0, start_time=0.0, end_time=frames / 25.0,
        motion_content=content, action_state="normal_0", is_anomaly=False, attractiveness=0.1,
    )


class TestSimulatedI3D:
    def test_output_is_probability_distribution(self):
        extractor = SimulatedI3DExtractor(feature_dim=50, motion_channels=8, seed=1)
        signature = np.random.default_rng(0).dirichlet(np.ones(8))
        feature = extractor.extract(make_segment(signature))
        assert feature.shape == (50,)
        assert np.all(feature >= 0)
        assert feature.sum() == pytest.approx(1.0)

    def test_features_are_sparse_and_peaked(self):
        """Paper: only 1-3 dimensions exceed 0.1 in a 400-d feature."""
        extractor = SimulatedI3DExtractor(feature_dim=100, motion_channels=8, seed=1)
        rng = np.random.default_rng(3)
        peaks = []
        for trial in range(10):
            signature = rng.dirichlet(np.full(8, 0.5))
            feature = extractor.extract(make_segment(signature, seed=trial))
            peaks.append(int((feature > 0.1).sum()))
        assert 1 <= np.median(peaks) <= 5

    def test_deterministic_given_seed(self):
        signature = np.random.default_rng(0).dirichlet(np.ones(8))
        segment = make_segment(signature)
        a = SimulatedI3DExtractor(feature_dim=30, motion_channels=8, seed=7).extract(segment)
        b = SimulatedI3DExtractor(feature_dim=30, motion_channels=8, seed=7).extract(segment)
        np.testing.assert_allclose(a, b)

    def test_distinct_behaviours_give_distinct_features(self):
        extractor = SimulatedI3DExtractor(feature_dim=60, motion_channels=8, seed=1)
        rng = np.random.default_rng(5)
        sig_a = rng.dirichlet(np.full(8, 0.4))
        sig_b = rng.dirichlet(np.full(8, 0.4))
        f_same_1 = extractor.extract(make_segment(sig_a, seed=1))
        f_same_2 = extractor.extract(make_segment(sig_a, seed=2))
        f_other = extractor.extract(make_segment(sig_b, seed=3))
        within = np.abs(f_same_1 - f_same_2).sum()
        across = np.abs(f_same_1 - f_other).sum()
        assert across > within

    def test_extract_batch_matches_single(self):
        extractor = SimulatedI3DExtractor(feature_dim=40, motion_channels=8, seed=2)
        rng = np.random.default_rng(0)
        segments = [make_segment(rng.dirichlet(np.ones(8)), seed=i) for i in range(4)]
        batch = extractor.extract_batch(segments)
        assert batch.shape == (4, 40)
        np.testing.assert_allclose(batch[2], extractor.extract(segments[2]))
        assert extractor.extract_batch([]).shape == (0, 40)

    def test_wrong_channel_count_rejected(self):
        extractor = SimulatedI3DExtractor(feature_dim=40, motion_channels=8, seed=2)
        bad = make_segment(np.random.default_rng(0).dirichlet(np.ones(5)))
        with pytest.raises(ValueError):
            extractor.extract(bad)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SimulatedI3DExtractor(feature_dim=1)
        with pytest.raises(ValueError):
            SimulatedI3DExtractor(temperature=0)


class TestTextFeatures:
    def test_tokenize(self):
        assert tokenize("Hello, WORLD! it's 42") == ["hello", "world", "it's", "42"]

    def test_embeddings_deterministic_and_unit_norm(self):
        table_a = HashingWordEmbedding(dim=12, seed=1)
        table_b = HashingWordEmbedding(dim=12, seed=1)
        vec_a = table_a.embed_word("awesome")
        vec_b = table_b.embed_word("awesome")
        np.testing.assert_allclose(vec_a, vec_b)
        assert np.linalg.norm(vec_a) == pytest.approx(1.0)

    def test_different_seeds_give_different_tables(self):
        a = HashingWordEmbedding(dim=12, seed=1).embed_word("wow")
        b = HashingWordEmbedding(dim=12, seed=2).embed_word("wow")
        assert not np.allclose(a, b)

    def test_sentiment_polarity_signs(self):
        analyzer = LexiconSentimentAnalyzer()
        assert analyzer.polarity("this is amazing and awesome") > 0
        assert analyzer.polarity("boring and disappointing demo") < 0
        assert analyzer.polarity("hello everyone") == 0.0

    def test_sentiment_negation(self):
        analyzer = LexiconSentimentAnalyzer()
        assert analyzer.polarity("not good") < 0
        assert analyzer.polarity("good") > 0

    def test_mean_polarity(self):
        analyzer = LexiconSentimentAnalyzer()
        assert analyzer.mean_polarity([]) == 0.0
        assert analyzer.mean_polarity(["amazing", "terrible"]) == pytest.approx(0.0, abs=0.2)


class TestInteractionFeatures:
    def test_dimension_property(self):
        extractor = InteractionFeatureExtractor(seconds_per_segment=3, embedding_dim=10, context_segments=1)
        assert extractor.dimension == 3 * 3 + 10 + 1

    def test_extract_stream_shape_and_range(self, tiny_stream):
        extractor = InteractionFeatureExtractor(seconds_per_segment=3, embedding_dim=6)
        features = extractor.extract_stream(tiny_stream)
        assert features.shape == (tiny_stream.num_segments, extractor.dimension)
        counts_block = features[:, : 3 * 3]
        assert counts_block.min() >= 0.0
        assert counts_block.max() <= 1.0 + 1e-9

    def test_counts_only_normalised(self, tiny_stream):
        extractor = InteractionFeatureExtractor(seconds_per_segment=3, embedding_dim=6)
        counts = extractor.extract_counts_only(tiny_stream)
        assert counts.shape == (tiny_stream.num_segments, 3)
        assert counts.max() == pytest.approx(1.0)

    def test_empty_stream(self):
        from repro.streams.events import SocialVideoStream

        empty = SocialVideoStream(name="empty", segments=[], comments=[], comment_counts=np.zeros(10))
        extractor = InteractionFeatureExtractor(embedding_dim=4)
        assert extractor.extract_stream(empty).shape == (0, extractor.dimension)
        assert extractor.extract_counts_only(empty).shape == (0, 3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            InteractionFeatureExtractor(window_halfwidth=-1)
        with pytest.raises(ValueError):
            InteractionFeatureExtractor(seconds_per_segment=0)
        with pytest.raises(ValueError):
            InteractionFeatureExtractor(embedding_weight=-0.1)

    def test_anomalous_segments_show_higher_interaction(self, tiny_stream):
        """Audience bursts must be visible in the normalised interaction level."""
        extractor = InteractionFeatureExtractor(seconds_per_segment=3, embedding_dim=6)
        counts = extractor.extract_counts_only(tiny_stream).mean(axis=1)
        labels = tiny_stream.labels
        if labels.sum() and (labels == 0).sum():
            assert counts[labels == 1].mean() > counts[labels == 0].mean()


class TestSequences:
    def test_build_sequences_shapes_and_alignment(self):
        action = np.arange(20, dtype=float).reshape(10, 2)
        interaction = np.arange(30, dtype=float).reshape(10, 3)
        batch = build_sequences(action, interaction, sequence_length=4)
        assert batch.action_sequences.shape == (6, 4, 2)
        assert batch.interaction_sequences.shape == (6, 4, 3)
        assert batch.target_indices.tolist() == [4, 5, 6, 7, 8, 9]
        np.testing.assert_allclose(batch.action_targets[0], action[4])
        np.testing.assert_allclose(batch.action_sequences[0], action[0:4])

    def test_build_sequences_too_short_returns_empty(self):
        batch = build_sequences(np.ones((3, 2)), np.ones((3, 3)), sequence_length=5)
        assert len(batch) == 0
        assert batch.action_sequences.shape == (0, 5, 2)

    def test_build_sequences_validation(self):
        with pytest.raises(ValueError):
            build_sequences(np.ones((5, 2)), np.ones((4, 3)), 2)
        with pytest.raises(ValueError):
            build_sequences(np.ones((5, 2)), np.ones((5, 3)), 0)
        with pytest.raises(ValueError):
            build_sequences(np.ones(5), np.ones(5), 2)

    def test_subset(self):
        batch = build_sequences(np.ones((10, 2)), np.ones((10, 3)), 3)
        subset = batch.subset(np.array([0, 2]))
        assert len(subset) == 2
        assert subset.action_sequences.shape[1] == 3


class TestPipeline:
    def test_extract_shapes(self, tiny_stream, tiny_pipeline):
        features = tiny_pipeline.extract(tiny_stream)
        assert features.action.shape == (tiny_stream.num_segments, tiny_pipeline.action_dim)
        assert features.interaction.shape == (tiny_stream.num_segments, tiny_pipeline.interaction_dim)
        assert features.labels.shape == (tiny_stream.num_segments,)
        assert features.normalised_interaction.shape == (tiny_stream.num_segments,)

    def test_action_rows_are_distributions(self, tiny_features):
        np.testing.assert_allclose(tiny_features.action.sum(axis=1), 1.0, atol=1e-9)

    def test_sequences_and_labels_alignment(self, tiny_features):
        q = 5
        batch = tiny_features.sequences(q)
        labels = tiny_features.sequence_labels(q)
        assert len(batch) == len(labels) == tiny_features.num_segments - q

    def test_subset(self, tiny_features):
        subset = tiny_features.subset(10, 30)
        assert subset.num_segments == 20
        np.testing.assert_allclose(subset.action, tiny_features.action[10:30])
