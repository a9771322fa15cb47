"""Tests for the CLSTM model, scoring functions and detector (repro.core)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clstm import CLSTM
from repro.core.detector import AnomalyDetector, DetectionResult
from repro.core.scoring import (
    action_reconstruction_error,
    interaction_reconstruction_error,
    js_divergence,
    l1_distance,
    reia_score,
)
from repro.features.sequences import build_sequences
from repro.utils.config import DetectionConfig
from tape_oracles import weighted_reconstruction_loss


def random_batch(rng, count=12, q=4, d1=10, d2=6):
    action = rng.random((count + q, d1)) + 1e-3
    action = action / action.sum(axis=1, keepdims=True)
    interaction = rng.random((count + q, d2))
    return build_sequences(action, interaction, q)


class TestCLSTMModel:
    def test_forward_shapes(self, rng):
        model = CLSTM(action_dim=10, interaction_dim=6, action_hidden=8, interaction_hidden=4)
        batch = random_batch(rng)
        out = model(batch.action_sequences, batch.interaction_sequences)
        assert out.action_reconstruction.shape == (len(batch), 10)
        assert out.interaction_reconstruction.shape == (len(batch), 6)
        assert out.action_hidden.shape == (len(batch), 8)
        assert out.interaction_hidden.shape == (len(batch), 4)

    def test_action_reconstruction_is_distribution(self, rng):
        model = CLSTM(action_dim=10, interaction_dim=6)
        batch = random_batch(rng)
        reconstruction, _ = model.predict(batch.action_sequences, batch.interaction_sequences)
        np.testing.assert_allclose(reconstruction.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(reconstruction >= 0)

    def test_input_validation(self, rng):
        model = CLSTM(action_dim=4, interaction_dim=3)
        with pytest.raises(ValueError):
            model(np.ones((2, 4)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            model(np.ones((2, 5, 4)), np.ones((3, 5, 3)))
        with pytest.raises(ValueError):
            model(np.ones((2, 5, 4)), np.ones((2, 4, 3)))
        with pytest.raises(ValueError):
            CLSTM(action_dim=4, interaction_dim=3, coupling="sideways")

    def test_coupling_modes_differ(self, rng):
        batch = random_batch(rng)
        outputs = {}
        for coupling in ("both", "influencer_to_audience", "none"):
            model = CLSTM(action_dim=10, interaction_dim=6, coupling=coupling, seed=0)
            outputs[coupling] = model.predict(batch.action_sequences, batch.interaction_sequences)[0]
        assert not np.allclose(outputs["both"], outputs["none"])
        assert not np.allclose(outputs["both"], outputs["influencer_to_audience"])

    def test_audience_stream_influences_full_clstm_only(self, rng):
        """With two-way coupling the action reconstruction must depend on the
        audience input; with coupling='none' it must not."""
        batch = random_batch(rng)
        modified = batch.interaction_sequences + 1.0

        full = CLSTM(action_dim=10, interaction_dim=6, coupling="both", seed=0)
        base = full.predict(batch.action_sequences, batch.interaction_sequences)[0]
        changed = full.predict(batch.action_sequences, modified)[0]
        assert not np.allclose(base, changed)

        uncoupled = CLSTM(action_dim=10, interaction_dim=6, coupling="none", seed=0)
        base = uncoupled.predict(batch.action_sequences, batch.interaction_sequences)[0]
        changed = uncoupled.predict(batch.action_sequences, modified)[0]
        np.testing.assert_allclose(base, changed)

    def test_hidden_states_method(self, rng):
        model = CLSTM(action_dim=10, interaction_dim=6, action_hidden=8)
        batch = random_batch(rng)
        hidden = model.hidden_states(batch.action_sequences, batch.interaction_sequences)
        assert hidden.shape == (len(batch), 8)

    def test_clone_architecture(self):
        model = CLSTM(action_dim=10, interaction_dim=6, action_hidden=8, interaction_hidden=4, coupling="both")
        clone = model.clone_architecture(seed=3)
        assert clone.action_dim == model.action_dim
        assert clone.num_parameters() == model.num_parameters()
        assert not np.allclose(
            next(iter(model.parameters())).data, next(iter(clone.parameters())).data
        )

    def test_flops_positive_and_monotone(self):
        model = CLSTM(action_dim=10, interaction_dim=6)
        assert model.flops_per_sequence(9) > model.flops_per_sequence(1) > 0

    def test_gradients_reach_every_parameter(self, rng):
        from repro import nn

        model = CLSTM(action_dim=6, interaction_dim=4, action_hidden=5, interaction_hidden=3)
        batch = random_batch(rng, count=4, q=3, d1=6, d2=4)
        out = model(batch.action_sequences, batch.interaction_sequences)
        loss = weighted_reconstruction_loss(
            out.action_reconstruction,
            nn.Tensor(batch.action_targets),
            out.interaction_reconstruction,
            nn.Tensor(batch.interaction_targets),
            omega=0.8,
        )
        loss.backward()
        missing = [name for name, p in model.named_parameters() if p.grad is None]
        assert missing == []


class TestScoring:
    def test_js_divergence_properties(self, rng):
        p = rng.random(8) + 1e-3
        p /= p.sum()
        q = rng.random(8) + 1e-3
        q /= q.sum()
        assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-10)
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p))
        assert 0 <= js_divergence(p, q) <= np.log(2) + 1e-9

    def test_batched_scoring(self, rng):
        p = rng.random((5, 8)) + 1e-3
        p /= p.sum(axis=1, keepdims=True)
        q = rng.random((5, 8)) + 1e-3
        q /= q.sum(axis=1, keepdims=True)
        assert js_divergence(p, q).shape == (5,)
        assert l1_distance(p, q).shape == (5,)

    def test_js_divergence_is_bitwise_the_two_kl_halves(self, rng):
        def two_kl(p, q, axis):
            # The textbook expression, each KL half with its own guarded logs.
            def kl(x, y):
                return np.sum(
                    x * (np.log(np.maximum(x, 1e-12)) - np.log(np.maximum(y, 1e-12))),
                    axis=axis,
                )

            mixture = 0.5 * (p + q)
            return 0.5 * kl(p, mixture) + 0.5 * kl(q, mixture)

        # Exact zeros on either side, and on both at once, exercise the
        # epsilon guard of every logarithm the shared mixture log replaces.
        p = rng.random((64, 40))
        q = rng.random((64, 40))
        p[rng.random(p.shape) < 0.3] = 0.0
        q[rng.random(q.shape) < 0.3] = 0.0
        p[:, :3] = q[:, :3] = 0.0
        p /= p.sum(axis=1, keepdims=True)
        q /= q.sum(axis=1, keepdims=True)
        for axis, (left, right) in ((-1, (p, q)), (0, (p.T, q.T)), (-1, (p[5], q[5]))):
            got = js_divergence(left, right, axis=axis)
            assert got.tobytes() == two_kl(left, right, axis).tobytes()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            js_divergence(np.ones(3) / 3, np.ones(4) / 4)

    def test_interaction_error_is_l2(self, rng):
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(4, 6))
        np.testing.assert_allclose(
            interaction_reconstruction_error(a, b), np.linalg.norm(a - b, axis=1)
        )

    def test_reia_weighting(self, rng):
        p = rng.random((3, 8)) + 1e-3
        p /= p.sum(axis=1, keepdims=True)
        q = rng.random((3, 8)) + 1e-3
        q /= q.sum(axis=1, keepdims=True)
        a = rng.normal(size=(3, 5))
        b = rng.normal(size=(3, 5))
        re_i = action_reconstruction_error(p, q)
        re_a = interaction_reconstruction_error(a, b)
        np.testing.assert_allclose(reia_score(p, q, a, b, omega=1.0), re_i)
        np.testing.assert_allclose(reia_score(p, q, a, b, omega=0.0), re_a)
        np.testing.assert_allclose(reia_score(p, q, a, b, omega=0.6), 0.6 * re_i + 0.4 * re_a)
        with pytest.raises(ValueError):
            reia_score(p, q, a, b, omega=2.0)


class TestDetector:
    @pytest.fixture()
    def fitted_detector(self, rng):
        model = CLSTM(action_dim=10, interaction_dim=6, action_hidden=8, interaction_hidden=4, seed=1)
        batch = random_batch(rng, count=30)
        detector = AnomalyDetector(model, DetectionConfig(omega=0.8))
        detector.calibrate(batch)
        return detector, batch

    def test_calibration_sets_thresholds(self, fitted_detector):
        detector, batch = fitted_detector
        assert detector.anomaly_threshold is not None
        assert detector.normal_threshold == pytest.approx(0.7 * detector.anomaly_threshold)

    def test_score_result_fields(self, fitted_detector):
        detector, batch = fitted_detector
        result = detector.score(batch)
        assert isinstance(result, DetectionResult)
        assert len(result) == len(batch)
        assert result.scores.shape == result.action_errors.shape == result.interaction_errors.shape
        assert result.segment_indices.tolist() == batch.target_indices.tolist()
        np.testing.assert_allclose(
            result.scores, 0.8 * result.action_errors + 0.2 * result.interaction_errors
        )

    def test_decisions_respect_threshold(self, fitted_detector):
        detector, batch = fitted_detector
        result = detector.score(batch)
        np.testing.assert_array_equal(result.is_anomaly, result.scores > result.threshold)

    def test_top_k_mode(self, rng):
        model = CLSTM(action_dim=10, interaction_dim=6, seed=1)
        batch = random_batch(rng, count=20)
        detector = AnomalyDetector(model, DetectionConfig(top_k=3))
        result = detector.score(batch)
        assert result.is_anomaly.sum() == 3

    def test_uncalibrated_detector_uses_robust_fallback(self, rng):
        model = CLSTM(action_dim=10, interaction_dim=6, seed=1)
        batch = random_batch(rng, count=20)
        result = AnomalyDetector(model).score(batch)
        assert np.isfinite(result.threshold)

    def test_empty_batch(self, rng):
        model = CLSTM(action_dim=10, interaction_dim=6, seed=1)
        empty = random_batch(rng, count=0, q=4)
        detector = AnomalyDetector(model)
        assert len(detector.score(empty)) == 0
        with pytest.raises(ValueError):
            detector.calibrate(empty)

    def test_calibrate_quantile_validation(self, fitted_detector):
        detector, batch = fitted_detector
        with pytest.raises(ValueError):
            detector.calibrate(batch, quantile=1.5)

    def test_explicit_threshold_overrides_calibration(self, rng):
        model = CLSTM(action_dim=10, interaction_dim=6, seed=1)
        batch = random_batch(rng, count=20)
        detector = AnomalyDetector(model, DetectionConfig(threshold=0.123))
        detector.calibrate(batch)
        assert detector.anomaly_threshold == pytest.approx(0.123)
