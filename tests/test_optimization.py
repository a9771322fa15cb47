"""Tests for ADG dimensionality reduction, bounds and ADOS filtering."""

from __future__ import annotations

import numpy as np
import pytest

from reference_bounds import reference_adg_upper_bound
from repro.core.clstm import CLSTM
from repro.core.detector import AnomalyDetector
from repro.core.scoring import js_divergence
from repro.features.sequences import build_sequences
from repro.optimization import (
    STAGES,
    ADOSFilter,
    FilteredDetectionResult,
    FilteredDetector,
    adg_upper_bounds,
    assign_subspaces,
    evaluate_filtering_power,
    filtering_power,
    js_lower_bounds_l1,
    js_upper_bounds_l1,
    minimal_feature_contribution,
)
from repro.optimization import ados as ados_module
from repro.utils.config import DetectionConfig


def random_distributions(rng, count=30, dim=50, concentration=0.3):
    return rng.dirichlet(np.full(dim, concentration), size=count)


class TestADG:

    def test_assign_subspaces_matches_boundaries(self):
        values = np.array([0.9, 0.5, 0.3, 0.1, 0.01, 1e-9])
        assignments = assign_subspaces(values, n=6)
        assert assignments[0] == 0      # [0.5, 1)
        assert assignments[1] == 0      # 0.5 falls in [0.5, 1)
        assert assignments[2] == 1      # [0.25, 0.5)
        assert assignments[3] == 3      # [0.0625, 0.125)
        assert assignments[-1] == 5     # clamped to last subspace

    def test_assignment_values_in_range(self, rng):
        values = rng.random(100)
        assignments = assign_subspaces(values, n=20)
        assert assignments.min() >= 0
        assert assignments.max() <= 19

    def test_mfc_decreases_with_more_subspaces(self, rng):
        features = random_distributions(rng, count=20)
        values = [minimal_feature_contribution(features, n) for n in (10, 15, 20)]
        assert values[0] >= values[1] >= values[2]
        assert values[-1] < 0.01

    def test_mfc_accepts_single_vector(self, rng):
        assert minimal_feature_contribution(random_distributions(rng, count=1)[0], 20) >= 0.0

    def test_mfc_matches_per_row_definition(self, rng):
        """Mean over features of 0.5*log(2)*min(2^-(n-1), largest bottom-group
        value); a feature with no dimension in the bottom group counts as 0."""
        features = random_distributions(rng, count=12, dim=30)
        features[0] = 1.0 / 30  # every dimension above the bottom subspace of n = 6
        n = 6
        expected = []
        for feature in features:
            bottom = feature[feature < 2.0 ** -(n - 1)]
            expected.append(0.5 * np.log(2.0) * min(2.0 ** -(n - 1), bottom.max()) if bottom.size else 0.0)
        assert expected[0] == 0.0
        assert minimal_feature_contribution(features, n) == pytest.approx(np.mean(expected), abs=1e-15)


def perturbed_batch(rng, count=12, dim=40, noise=0.05):
    features = rng.dirichlet(np.full(dim, 0.35), size=count)
    perturbed = np.abs(features + rng.normal(0.0, noise, size=(count, dim))) + 1e-12
    return features, perturbed / perturbed.sum(axis=1, keepdims=True)


class TestBounds:
    def test_l1_bounds_sandwich_js(self, rng):
        p = random_distributions(rng)
        q = random_distributions(rng)
        exact = js_divergence(q, p)
        assert np.all(js_upper_bounds_l1(p, q) >= exact - 1e-9)
        assert np.all(js_lower_bounds_l1(p, q) <= exact + 1e-9)

    def test_adg_bound_is_upper_bound(self, rng):
        """RE_I^G >= RE_I must hold — no false dismissals."""
        p = random_distributions(rng)
        q = random_distributions(rng)
        assert np.all(adg_upper_bounds(p, q, n_subspaces=20) >= js_divergence(q, p) - 1e-9)

    def test_adg_bound_with_exact_groups_still_upper_bound(self, rng):
        for exact_groups in (0, 5, 10):
            p = random_distributions(rng, count=3)
            q = random_distributions(rng, count=3)
            bounds = adg_upper_bounds(p, q, n_subspaces=20, exact_groups=exact_groups)
            assert np.all(bounds >= js_divergence(q, p) - 1e-9)

    def test_adg_bound_tightens_with_exact_groups(self, rng):
        p = random_distributions(rng)
        q = random_distributions(rng)
        bounds = [adg_upper_bounds(p, q, exact_groups=count) for count in (0, 2, 5, 10, 15)]
        for looser, tighter in zip(bounds, bounds[1:]):
            assert np.all(tighter <= looser + 1e-9)

    def test_every_group_exact_recovers_the_exact_js(self, rng):
        """With all groups exact the bound is the JS itself: the groups
        partition the dimensions (each counted once, none dropped)."""
        features, reconstructions = perturbed_batch(rng)
        bounds = adg_upper_bounds(features, reconstructions, n_subspaces=20, exact_groups=50)
        np.testing.assert_allclose(bounds, js_divergence(reconstructions, features), atol=1e-9, rtol=0)

    def test_adg_bound_zero_for_identical(self, rng):
        p = random_distributions(rng, count=3)
        assert np.all(adg_upper_bounds(p, p) >= 0.0)
        assert js_upper_bounds_l1(p, p) == pytest.approx(0.0)
        assert js_lower_bounds_l1(p, p) == pytest.approx(0.0)


class TestBatchedGroupBounds:
    """Grouping, corners and sparsest-group choice against the brute-force
    per-row reference in ``tests/reference_bounds.py``; shapes and validation."""

    @pytest.mark.parametrize("n_subspaces", [2, 5, 20])
    @pytest.mark.parametrize("exact_groups", [0, 3, 50])
    def test_adg_upper_bounds_match_bruteforce_reference(self, rng, n_subspaces, exact_groups):
        """Grouping, <min, max> corners and sparsest-group choice against the
        per-row Python reference (Dirichlet rows tie on group size often)."""
        features, reconstructions = perturbed_batch(rng)
        batched = adg_upper_bounds(
            features, reconstructions, n_subspaces=n_subspaces, exact_groups=exact_groups
        )
        reference = [
            reference_adg_upper_bound(f, r, n_subspaces=n_subspaces, exact_groups=exact_groups)
            for f, r in zip(features, reconstructions)
        ]
        np.testing.assert_allclose(batched, reference, rtol=1e-10, atol=1e-13)

    def test_sparsest_group_ties_break_towards_the_lower_subspace(self):
        """Three groups of two dimensions, each with its own slack between
        bound and exact term: every tie-break order gives a different total,
        and the reference takes the lower subspace first."""
        feature = np.array([[0.30, 0.26, 0.20, 0.13, 0.10, 0.07]])
        reconstruction = np.array([[0.30, 0.30, 0.13, 0.13, 0.10, 0.10]])
        assert np.bincount(assign_subspaces(feature[0], 20)).tolist() == [0, 2, 2, 2]
        bounds = [
            adg_upper_bounds(feature, reconstruction, exact_groups=count)[0] for count in range(4)
        ]
        reference = [
            reference_adg_upper_bound(feature[0], reconstruction[0], exact_groups=count)
            for count in range(4)
        ]
        np.testing.assert_allclose(bounds, reference, rtol=1e-12)
        slack = -np.diff(bounds)  # what making subspace 1, then 2, then 3 exact removes
        assert np.all(slack > 1e-5) and len(set(np.round(slack, 8))) == 3

    def test_batched_bound_is_still_an_upper_bound(self, rng):
        features, reconstructions = perturbed_batch(rng, count=20)
        exact = js_divergence(reconstructions, features)
        bounds = adg_upper_bounds(features, reconstructions, n_subspaces=20, exact_groups=5)
        assert np.all(bounds >= exact - 1e-9)

    def test_single_row_batch(self, rng):
        features, reconstructions = perturbed_batch(rng, count=1)
        assert adg_upper_bounds(features, reconstructions).shape == (1,)

    def test_validation(self):
        with pytest.raises(ValueError):
            adg_upper_bounds(np.ones(4) / 4, np.ones(4) / 4)  # 1-D input
        with pytest.raises(ValueError):
            adg_upper_bounds(np.ones((2, 4)) / 4, np.ones((2, 5)) / 5)
        with pytest.raises(ValueError, match="non-empty"):
            adg_upper_bounds(np.ones((2, 0)), np.ones((2, 0)))
        with pytest.raises(ValueError, match="n_subspaces"):
            adg_upper_bounds(np.ones((2, 4)) / 4, np.ones((2, 4)) / 4, n_subspaces=0)


def make_calibrated_detector(rng, count=60, q=4, d1=30, d2=6):
    action = rng.dirichlet(np.full(d1, 0.3), size=count + q)
    interaction = rng.random((count + q, d2)) * 0.3
    batch = build_sequences(action, interaction, q)
    model = CLSTM(action_dim=d1, interaction_dim=d2, action_hidden=10, interaction_hidden=5, seed=0)
    detector = AnomalyDetector(model, DetectionConfig(omega=0.8))
    detector.calibrate(batch)
    return detector, batch


STRATEGY_FLAGS = (
    dict(use_l1_bounds=False, use_adg_bound=False, adaptive=False),
    dict(use_l1_bounds=True, use_adg_bound=False, adaptive=False),
    dict(use_l1_bounds=True, use_adg_bound=True, adaptive=False),
    dict(use_l1_bounds=True, use_adg_bound=True, adaptive=True),
)


def cascade_inputs(rng, count=16, dim=20, noise=1e-4):
    features, reconstructions = perturbed_batch(rng, count=count, dim=dim, noise=noise)
    return features, reconstructions, rng.random(count) * 0.01


class TestADOS:
    def test_filter_result_covers_batch(self, rng):
        detector, batch = make_calibrated_detector(rng)
        result = FilteredDetector(detector).detect(batch)
        assert isinstance(result, FilteredDetectionResult)
        np.testing.assert_array_equal(result.segment_indices, batch.target_indices)
        for array in (result.decisions, result.scores, result.stages):
            assert array.shape == (len(batch),)
        assert result.decisions.dtype == bool
        assert set(result.stage_counts()) <= set(STAGES)
        assert sum(result.stage_counts().values()) == len(batch)
        assert 0.0 <= result.filtering_power() <= 1.0
        assert result.exact_computations() == result.stage_counts().get("exact", 0)
        np.testing.assert_array_equal(result.anomalies, batch.target_indices[result.decisions])

    def assert_agrees_with_exact_detector(self, rng, **flags):
        detector, batch = make_calibrated_detector(rng)
        exact = detector.score(batch)
        filtered = FilteredDetector(detector, **flags).detect(batch)
        np.testing.assert_array_equal(filtered.segment_indices, exact.segment_indices)
        np.testing.assert_array_equal(filtered.decisions, exact.is_anomaly)
        exactly_scored = filtered.stages == STAGES.index("exact")
        np.testing.assert_allclose(filtered.scores[exactly_scored], exact.scores[exactly_scored])

    def test_filtered_decisions_match_exact_detector(self, rng):
        """Bound-based filtering must not change any detection decision."""
        self.assert_agrees_with_exact_detector(rng)

    def test_non_adaptive_strategies_also_agree(self, rng):
        for flags in STRATEGY_FLAGS[:3]:
            self.assert_agrees_with_exact_detector(rng, **flags)

    def test_no_bound_strategy_scores_every_segment_exactly(self, rng):
        detector, batch = make_calibrated_detector(rng)
        result = FilteredDetector(detector, **STRATEGY_FLAGS[0]).detect(batch)
        assert result.stage_counts() == {"exact": len(batch)}
        assert result.filtering_power() == 0.0

    def test_filter_requires_calibrated_detector(self, rng):
        model = CLSTM(action_dim=10, interaction_dim=4, seed=0)
        with pytest.raises(ValueError):
            FilteredDetector(AnomalyDetector(model))

    def test_filter_refuses_top_k_ranking(self, rng):
        """The filter thresholds on T_a while top-k ranks exact scores, so the
        two would silently disagree; refused like RuntimeConfig refuses it."""
        detector, _ = make_calibrated_detector(rng)
        ranking = AnomalyDetector(
            detector.model, DetectionConfig(top_k=3), threshold=detector.anomaly_threshold
        )
        with pytest.raises(ValueError, match=r"DetectionConfig\.top_k"):
            FilteredDetector(ranking)
        with pytest.raises(ValueError, match=r"DetectionConfig\.top_k"):
            FilteredDetector(detector, config=DetectionConfig(top_k=3))

    def test_ados_filter_validation(self):
        with pytest.raises(ValueError):
            ADOSFilter(normal_threshold=1.0, anomaly_threshold=0.5)
        with pytest.raises(ValueError):
            ADOSFilter(normal_threshold=0.1, anomaly_threshold=-1.0)
        with pytest.raises(ValueError):
            ADOSFilter(normal_threshold=0.1, anomaly_threshold=0.5, omega=1.5)

    def test_trigger_modes(self):
        """|f_i - f_hat_i| <= T2 on the dominant dimension -> upper bounds;
        otherwise ratio >= T1 -> lower bound; otherwise straight to exact."""
        ados = ADOSFilter(normal_threshold=0.1, anomaly_threshold=0.5, trigger_low=1.6, trigger_high=0.2)
        features = np.array([[0.7, 0.3], [0.7, 0.3], [0.9, 0.1]])
        reconstructions = np.array([[0.6, 0.4], [0.1, 0.9], [0.65, 0.35]])
        modes = ados.trigger_modes(features, reconstructions)
        assert modes.tolist() == [ados._MODE_UPPER, ados._MODE_LOWER, ados._MODE_EXACT]
        naive = ADOSFilter(normal_threshold=0.1, anomaly_threshold=0.5, adaptive=False)
        assert naive.trigger_modes(features, reconstructions).tolist() == [naive._MODE_ALL] * 3

    @pytest.mark.parametrize("flags", STRATEGY_FLAGS)
    def test_decide_batch_single_row(self, rng, flags):
        features, reconstructions, interaction_errors = cascade_inputs(rng, count=5)
        ados = ADOSFilter(normal_threshold=0.07, anomaly_threshold=0.1, **flags)
        whole = ados.decide_batch(features, reconstructions, interaction_errors)
        for row in range(len(features)):
            single = ados.decide_batch(
                features[row : row + 1], reconstructions[row : row + 1], interaction_errors[row : row + 1]
            )
            for batched, alone in zip(whole, single):
                assert alone.shape == (1,)
                assert alone[0] == batched[row]

    def test_decide_batch_when_every_row_is_bound_decided(self, rng, monkeypatch):
        """Close reconstructions under generous thresholds: JS_max confirms
        every row normal and the exact RE_I is never computed."""
        def no_exact_call(*_):
            raise AssertionError("exact RE_I computed for a bound-decided batch")

        monkeypatch.setattr(ados_module, "action_reconstruction_error", no_exact_call)
        features, reconstructions, interaction_errors = cascade_inputs(rng)
        ados = ADOSFilter(normal_threshold=0.35, anomaly_threshold=0.5)
        decisions, scores, stages = ados.decide_batch(features, reconstructions, interaction_errors)
        assert not decisions.any()
        assert np.all(stages == STAGES.index("l1_normal"))
        expected = 0.8 * js_upper_bounds_l1(features, reconstructions) + 0.2 * interaction_errors
        np.testing.assert_allclose(scores, expected)

    def test_decide_batch_when_no_row_is_bound_decided(self, rng):
        """T_n below every upper bound and T_a at the largest JS_min score:
        every bound is tried (non-adaptive), none decides, every row pays the
        exact RE_I."""
        features, reconstructions, interaction_errors = cascade_inputs(rng, noise=0.05)
        interaction_parts = 0.2 * interaction_errors
        anomaly_threshold = float(
            np.max(0.8 * js_lower_bounds_l1(features, reconstructions) + interaction_parts)
        )
        ados = ADOSFilter(normal_threshold=1e-9, anomaly_threshold=anomaly_threshold, adaptive=False)
        decisions, scores, stages = ados.decide_batch(features, reconstructions, interaction_errors)
        assert np.all(stages == STAGES.index("exact"))
        exact = 0.8 * js_divergence(reconstructions, features) + interaction_parts
        np.testing.assert_allclose(scores, exact)
        np.testing.assert_array_equal(decisions, exact > anomaly_threshold)

    def test_empty_batch(self, rng):
        detector, _ = make_calibrated_detector(rng)
        empty = build_sequences(np.ones((2, 30)) / 30, np.ones((2, 6)), 4)
        result = FilteredDetector(detector).detect(empty)
        assert len(result.decisions) == len(result.scores) == len(result.stages) == 0
        assert result.anomalies.size == 0
        assert result.stage_counts() == {}
        assert result.filtering_power() == 0.0
        assert result.exact_computations() == 0


class TestFilteringPower:
    def test_filtering_power_metric(self):
        assert filtering_power(5, 10) == 0.5
        assert filtering_power(0, 0) == 0.0
        with pytest.raises(ValueError):
            filtering_power(5, 3)

    def test_evaluate_filtering_power_report(self, rng):
        detector, batch = make_calibrated_detector(rng)
        report = evaluate_filtering_power(detector, batch)
        assert report.total_segments == len(batch)
        powers = report.as_dict()
        assert set(powers) == {"JS_max", "JS_min", "RE_G", "JS_max+JS_min", "JS_max+JS_min+RE_G", "ADOS"}
        assert all(0.0 <= value <= 1.0 for value in powers.values())
        # Combinations are at least as powerful as their components.
        assert powers["JS_max+JS_min"] >= max(powers["JS_max"], powers["JS_min"]) - 1e-12
        assert powers["JS_max+JS_min+RE_G"] >= powers["JS_max+JS_min"] - 1e-12

    def test_requires_calibrated_detector(self, rng):
        model = CLSTM(action_dim=10, interaction_dim=4, seed=0)
        batch = build_sequences(np.ones((10, 10)) / 10, np.ones((10, 4)), 4)
        with pytest.raises(ValueError):
            evaluate_filtering_power(AnomalyDetector(model), batch)
