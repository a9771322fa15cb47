"""Tests for CLSTM training, dynamic updating and the AOVLIS facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clstm import CLSTM
from repro.core.detector import AnomalyDetector
from repro.core.model import AOVLIS
from repro.core.training import CLSTMTrainer, TrainingHistory
from repro.core.update import hidden_set_similarity, merge_models, retrain_model
from repro.core.variants import CLSTMSingleCouplingDetector, LSTMOnlyDetector, make_clstm_variant
from repro.features.sequences import build_sequences
from repro.serving import ScoringService, replay_streams
from repro.utils.config import TrainingConfig, UpdateConfig


def normal_batch(rng, count=40, q=4, d1=12, d2=6):
    action = rng.random((count + q, d1)) + 1e-3
    action /= action.sum(axis=1, keepdims=True)
    interaction = rng.random((count + q, d2)) * 0.2
    return build_sequences(action, interaction, q)


class TestTrainer:
    def test_training_reduces_loss(self, rng):
        model = CLSTM(action_dim=12, interaction_dim=6, action_hidden=10, interaction_hidden=5, seed=0)
        batch = normal_batch(rng)
        trainer = CLSTMTrainer(model, TrainingConfig(epochs=8, batch_size=16, checkpoint_every=2, seed=0))
        history = trainer.fit(batch)
        assert isinstance(history, TrainingHistory)
        assert len(history.records) == 8
        assert history.records[-1].train_loss < history.records[0].train_loss

    def test_history_tracks_test_curve(self, rng):
        model = CLSTM(action_dim=12, interaction_dim=6, seed=0)
        batch = normal_batch(rng)
        anomalous = normal_batch(np.random.default_rng(99), count=10)
        trainer = CLSTMTrainer(model, TrainingConfig(epochs=3, batch_size=16, checkpoint_every=1))
        history = trainer.fit(batch, anomalous_sequences=anomalous)
        assert np.isfinite(history.test_curve).all()
        as_dict = history.as_dict()
        assert set(as_dict) >= {"epoch", "train", "validation", "test", "best_epoch"}

    def test_best_model_restored(self, rng):
        model = CLSTM(action_dim=12, interaction_dim=6, seed=0)
        batch = normal_batch(rng)
        trainer = CLSTMTrainer(model, TrainingConfig(epochs=4, batch_size=16, checkpoint_every=1))
        history = trainer.fit(batch)
        assert history.best_epoch >= 1
        assert history.best_validation_loss <= history.validation_curve[-1] + 1e-9

    def test_second_fit_keeps_its_own_training(self, rng):
        """Best-checkpoint tracking is local to one fit(): a second call whose
        validation losses never beat the first call's best used to end by
        reloading the *first* call's weights."""
        model = CLSTM(action_dim=12, interaction_dim=6, action_hidden=10, interaction_hidden=5, seed=0)
        trainer = CLSTMTrainer(model, TrainingConfig(epochs=3, batch_size=16, checkpoint_every=1, seed=0))
        easy = normal_batch(rng)
        first = trainer.fit(easy)
        after_first = model.state_dict()
        # Same inputs, shuffled targets: much harder to reconstruct.
        order = np.random.default_rng(5).permutation(len(easy))
        hard = type(easy)(
            easy.action_sequences, easy.interaction_sequences,
            easy.action_targets[order], easy.interaction_targets[order] + 1.0,
            easy.target_indices,
        )
        second = trainer.fit(hard)
        assert second.best_validation_loss > first.best_validation_loss
        after_second = model.state_dict()
        assert all(not np.array_equal(after_first[k], after_second[k]) for k in after_first)
        # Every call starts a fresh history: records restart at epoch 1 and
        # best_epoch counts this call's epochs.
        assert second is trainer.history and second is not first
        assert [r.epoch for r in second.records] == [1, 2, 3]
        assert 1 <= second.best_epoch <= 3
        assert second.best_validation_loss == second.records[second.best_epoch - 1].validation_loss

    def test_empty_batch_rejected(self, rng):
        model = CLSTM(action_dim=12, interaction_dim=6, seed=0)
        trainer = CLSTMTrainer(model)
        with pytest.raises(ValueError):
            trainer.fit(normal_batch(rng, count=0))

    def test_evaluate_loss_handles_empty(self, rng):
        model = CLSTM(action_dim=12, interaction_dim=6, seed=0)
        trainer = CLSTMTrainer(model)
        assert np.isnan(trainer.evaluate_loss(None))
        assert np.isnan(trainer.evaluate_loss(normal_batch(rng, count=0)))


class TestDriftAndMerge:
    def test_similarity_of_tight_cluster_is_one(self, rng):
        """Hidden states pointing in (almost) the same direction are maximally similar."""
        base = rng.normal(size=8)
        cluster = base + rng.normal(scale=1e-6, size=(20, 8))
        assert hidden_set_similarity(cluster, cluster) == pytest.approx(1.0, abs=1e-4)

    def test_similarity_of_opposite_sets_is_negated(self, rng):
        hidden = rng.normal(size=(20, 8))
        self_similarity = hidden_set_similarity(hidden, hidden)
        assert hidden_set_similarity(hidden, -hidden) == pytest.approx(-self_similarity, abs=1e-9)

    def test_similarity_matches_pairwise_definition(self, rng):
        a = rng.normal(size=(6, 5))
        b = rng.normal(size=(4, 5))
        def unit(m):
            return m / np.linalg.norm(m, axis=1, keepdims=True)
        expected = np.mean(unit(a) @ unit(b).T)
        assert hidden_set_similarity(a, b) == pytest.approx(expected)

    def test_similarity_validation(self, rng):
        with pytest.raises(ValueError):
            hidden_set_similarity(np.zeros((0, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            hidden_set_similarity(np.ones(3), np.ones((2, 3)))

    def test_merge_models_interpolates(self):
        a = CLSTM(action_dim=6, interaction_dim=4, seed=1)
        b = CLSTM(action_dim=6, interaction_dim=4, seed=2)
        merged = merge_models(a, b, new_weight=0.25)
        name, param_a = next(iter(a.named_parameters()))
        param_b = dict(b.named_parameters())[name]
        param_m = dict(merged.named_parameters())[name]
        np.testing.assert_allclose(param_m.data, 0.75 * param_a.data + 0.25 * param_b.data)

    def test_merge_models_validation(self):
        a = CLSTM(action_dim=6, interaction_dim=4)
        b = CLSTM(action_dim=8, interaction_dim=4)
        with pytest.raises(ValueError):
            merge_models(a, b)
        with pytest.raises(ValueError):
            merge_models(a, a, new_weight=2.0)


class TestIncrementalUpdater:
    """The Table III baseline; the update loop itself is tested where it runs
    (``test_online_runtime.py``, ``test_serving.py``)."""

    def test_retrain_model_returns_fresh_model_and_time(self, tiny_train_test):
        train, test = tiny_train_test
        model = CLSTM(action_dim=train.action_dim, interaction_dim=train.interaction_dim, seed=0)
        fresh, elapsed = retrain_model(
            model, [train, test], sequence_length=4,
            training_config=TrainingConfig(epochs=1, batch_size=32, checkpoint_every=1),
        )
        assert elapsed > 0
        assert fresh.num_parameters() == model.num_parameters()


class TestVariants:
    def test_make_clstm_variant_modes(self):
        assert make_clstm_variant(8, 4, "clstm").coupling == "both"
        assert make_clstm_variant(8, 4, "clstm-s").coupling == "influencer_to_audience"
        assert make_clstm_variant(8, 4, "uncoupled").coupling == "none"
        with pytest.raises(ValueError):
            make_clstm_variant(8, 4, "bogus")

    def test_lstm_only_detector_fit_and_score(self, tiny_train_test, fast_training):
        train, test = tiny_train_test
        detector = LSTMOnlyDetector(sequence_length=4, hidden_size=10, training=fast_training)
        detector.fit(train)
        scored = detector.score_stream(test)
        assert len(scored) == test.num_segments - 4
        assert np.all(np.isfinite(scored.scores))

    def test_clstm_s_detector_fit_and_score(self, tiny_train_test, fast_training):
        train, test = tiny_train_test
        detector = CLSTMSingleCouplingDetector(
            sequence_length=4, action_hidden=10, interaction_hidden=5, training=fast_training
        )
        detector.fit(train)
        scored = detector.score_stream(test)
        assert len(scored.labels_from(test)) == len(scored.scores)

    def test_score_before_fit_raises(self, tiny_train_test):
        _, test = tiny_train_test
        with pytest.raises(RuntimeError):
            LSTMOnlyDetector().score_stream(test)
        with pytest.raises(RuntimeError):
            CLSTMSingleCouplingDetector().score_stream(test)


class TestAOVLISFacade:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_train_test):
        train, test = tiny_train_test
        model = AOVLIS(
            sequence_length=4,
            action_hidden=12,
            interaction_hidden=6,
            training=TrainingConfig(epochs=3, batch_size=16, checkpoint_every=1),
        )
        model.fit(train)
        return model, train, test

    def test_fit_sets_components(self, fitted):
        model, train, _ = fitted
        assert model.model is not None
        assert model.detector is not None
        assert model.history is not None
        assert model.anomaly_threshold is not None

    def test_detect_and_score_alignment(self, fitted):
        model, _, test = fitted
        result = model.detect(test)
        scored = model.score_stream(test)
        assert len(result) == len(scored) == test.num_segments - model.sequence_length
        np.testing.assert_allclose(result.scores, scored.scores)

    def test_scores_have_signal(self, fitted):
        """Anomalous segments should score higher on average than normal ones."""
        model, _, test = fitted
        scored = model.score_stream(test)
        labels, scores = scored.labels_from(test), scored.scores
        if labels.sum() and (labels == 0).sum():
            assert scores[labels == 1].mean() > scores[labels == 0].mean()

    def test_unfitted_model_raises(self, tiny_train_test):
        _, test = tiny_train_test
        model = AOVLIS()
        with pytest.raises(RuntimeError):
            model.detect(test)

    def test_stream_methods_require_pipeline(self, tiny_stream):
        model = AOVLIS()
        with pytest.raises(RuntimeError):
            model.fit_stream(tiny_stream)

    def test_stream_convenience_with_pipeline(self, tiny_stream, tiny_pipeline):
        model = AOVLIS(
            sequence_length=4,
            action_hidden=10,
            interaction_hidden=5,
            training=TrainingConfig(epochs=2, batch_size=16, checkpoint_every=1),
            pipeline=tiny_pipeline,
        )
        model.fit_stream(tiny_stream)
        result = model.detect_stream(tiny_stream)
        assert len(result) > 0
        scored = model.score(tiny_stream)
        assert len(scored) == len(result)

    def test_sequence_length_validation(self):
        with pytest.raises(ValueError):
            AOVLIS(sequence_length=0)

    def test_fit_requires_normal_sequences(self, tiny_train_test):
        train, _ = tiny_train_test
        all_anomalous = train.subset(0, train.num_segments)
        all_anomalous.labels[:] = 1
        model = AOVLIS(sequence_length=4)
        with pytest.raises(ValueError):
            model.fit(all_anomalous)


class TestCenteredDriftStatistic:
    def test_centered_separates_drift_that_saturates_the_mean_cosine(self):
        """Eq. 17's mean-cosine saturates when hidden states share a large
        common component (post-activation LSTM states live in a narrow
        cone): stationary and drifted sets both score ≈1 and no usable
        threshold exists between them.  The centered variant measures the
        *direction concentration of deviations from the historical mean*,
        which stays near 1 for stationary data and collapses toward 0 under
        a mean shift — restoring the separation the update loop needs."""
        rng = np.random.default_rng(7)
        historical = rng.normal(loc=5.0, scale=1.0, size=(200, 8))
        stationary = rng.normal(loc=5.0, scale=1.0, size=(200, 8))
        offset = np.zeros(8)
        offset[0] = 4.0
        drifted = rng.normal(loc=5.0, scale=1.0, size=(200, 8)) + offset

        cosine_stationary = hidden_set_similarity(historical, stationary)
        cosine_drifted = hidden_set_similarity(historical, drifted)
        # Saturation: under the paper's statistic both look "similar" and
        # the gap between them is a sliver near 1.0.
        assert cosine_stationary > 0.9
        assert cosine_drifted > 0.9
        assert cosine_stationary - cosine_drifted < 0.1

        centered_stationary = hidden_set_similarity(
            historical, stationary, statistic="centered"
        )
        centered_drifted = hidden_set_similarity(
            historical, drifted, statistic="centered"
        )
        assert centered_stationary > 0.8
        assert centered_drifted < 0.35
        # Wide headroom around a mid-range threshold (e.g. the 0.4 default
        # regime) instead of the 1e-4 margin cosine leaves.
        assert centered_stationary - centered_drifted > 0.4

    def test_centered_is_maximal_for_identical_distributions(self, rng):
        hidden = rng.normal(loc=3.0, size=(400, 6))
        value = hidden_set_similarity(hidden, hidden, statistic="centered")
        assert 0.8 < value <= 1.0

    def test_unknown_statistic_rejected(self, rng):
        hidden = rng.normal(size=(4, 3))
        with pytest.raises(ValueError, match="statistic"):
            hidden_set_similarity(hidden, hidden, statistic="manhattan")

    def test_update_config_validates_drift_statistic(self):
        assert UpdateConfig().drift_statistic == "cosine"
        assert UpdateConfig(drift_statistic="centered").drift_statistic == "centered"
        with pytest.raises(ValueError, match="drift_statistic"):
            UpdateConfig(drift_statistic="bogus")

    def test_served_monitor_consumes_the_configured_statistic(self, tiny_train_test):
        """``UpdateConfig.drift_statistic`` reaches the served Eq. 17: two
        scoring services on the same model and stream emit different
        ``UpdateTrigger.similarity`` series when the statistic differs.  No
        update plane, so the buffers they compare stay identical, and
        drift_threshold=2.0 makes every full buffer a trigger."""
        train, test = tiny_train_test
        model = CLSTM(action_dim=train.action_dim, interaction_dim=train.interaction_dim, seed=0)
        history = train.sequences(4)
        historical = model.hidden_states(history.action_sequences, history.interaction_sequences)

        def similarities(statistic):
            service = ScoringService(
                AnomalyDetector(model, threshold=0.5),
                sequence_length=4,
                update_config=UpdateConfig(
                    buffer_size=10, drift_threshold=2.0, drift_statistic=statistic
                ),
                historical_hidden=historical,
            )
            replay_streams(service, {"tiny-test": test})
            return [trigger.similarity for trigger in service.update_triggers]

        cosine = similarities("cosine")
        centered = similarities("centered")
        assert cosine and len(cosine) == len(centered)
        assert cosine != centered
        assert all(0.0 <= value <= 1.0 for value in centered)
