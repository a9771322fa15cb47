"""Tests for metrics, reporting and the experiment harness."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import (
    RocCurve,
    ExperimentScale,
    auroc,
    format_table,
    roc_curve,
    evaluate,
)
from repro.evaluation.harness import FORWARD
from repro.optimization.filtering import evaluate_filtering_power


class TestMetrics:
    def test_perfect_separation_gives_auroc_one(self):
        labels = [0, 0, 0, 1, 1]
        scores = [0.1, 0.2, 0.3, 0.8, 0.9]
        assert auroc(labels, scores) == pytest.approx(1.0)

    def test_inverted_scores_give_auroc_zero(self):
        labels = [0, 0, 1, 1]
        scores = [0.9, 0.8, 0.2, 0.1]
        assert auroc(labels, scores) == pytest.approx(0.0)

    def test_random_scores_give_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=4000)
        scores = rng.random(4000)
        assert abs(auroc(labels, scores) - 0.5) < 0.05

    def test_auroc_matches_rank_statistic(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=300)
        scores = rng.random(300)
        positives = scores[labels == 1]
        negatives = scores[labels == 0]
        pairs = (positives[:, None] > negatives[None, :]).mean() + 0.5 * (
            positives[:, None] == negatives[None, :]
        ).mean()
        assert auroc(labels, scores) == pytest.approx(float(pairs), abs=1e-9)

    def test_single_class_returns_nan(self):
        assert np.isnan(auroc([0, 0, 0], [0.1, 0.2, 0.3]))
        assert np.isnan(auroc([1, 1], [0.1, 0.2]))

    def test_roc_curve_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, size=200)
        scores = rng.random(200)
        curve = roc_curve(labels, scores)
        assert curve.fpr[0] == 0.0 and curve.fpr[-1] == 1.0
        assert curve.tpr[0] == 0.0 and curve.tpr[-1] == 1.0
        assert np.all(np.diff(curve.fpr) >= -1e-12)
        assert np.all(np.diff(curve.tpr) >= -1e-12)
        assert curve.area() == pytest.approx(auroc(labels, scores))

    def test_tpr_at_fpr_interpolation(self):
        curve = roc_curve([0, 1, 0, 1], [0.2, 0.9, 0.4, 0.8])
        assert curve.tpr_at_fpr(0.0) >= 0.0
        assert curve.tpr_at_fpr(1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            curve.tpr_at_fpr(1.5)

    def test_metric_validation(self):
        with pytest.raises(ValueError):
            auroc([], [])
        with pytest.raises(ValueError):
            auroc([0, 2], [0.1, 0.2])
        with pytest.raises(ValueError):
            auroc([0, 1], [0.1])

    def test_roc_curve_sorts_unsorted_fpr(self):
        # Construct a RocCurve with deliberately shuffled points: the
        # constructor must restore ascending fpr so np.interp is valid.
        curve = RocCurve(
            fpr=np.array([1.0, 0.0, 0.5]),
            tpr=np.array([1.0, 0.0, 0.8]),
            thresholds=np.array([-np.inf, np.inf, 0.5]),
        )
        assert np.all(np.diff(curve.fpr) >= 0)
        assert curve.tpr_at_fpr(0.25) == pytest.approx(0.4)

    def test_roc_curve_rejects_misaligned_arrays(self):
        with pytest.raises(ValueError):
            RocCurve(fpr=np.zeros(3), tpr=np.zeros(2), thresholds=np.zeros(3))

    @given(st.lists(st.floats(0.0, 1.0, width=32), min_size=4, max_size=60), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_tpr_at_fpr_invariant_to_score_order(self, raw_scores, shuffler):
        # Half positives, half negatives, in shuffled presentation order: the
        # interpolated TPR@FPR must not depend on the order of the inputs.
        labels = [i % 2 for i in range(len(raw_scores))]
        paired = list(zip(labels, raw_scores))
        reference = roc_curve(labels, raw_scores)
        shuffler.shuffle(paired)
        shuffled = roc_curve([l for l, _ in paired], [s for _, s in paired])
        assert np.all(np.diff(shuffled.fpr) >= 0)
        for target in (0.0, 0.1, 0.37, 0.5, 0.9, 1.0):
            assert shuffled.tpr_at_fpr(target) == pytest.approx(
                reference.tpr_at_fpr(target)
            )


class TestReporting:

    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1], ["long-name", 2.5]], title="Demo")
        lines = table.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_rejects_overflowing_rows(self):
        with pytest.raises(ValueError, match="row 1 has 3 cells"):
            format_table(["a", "b"], [["x", "y"], ["1", "2", "3"]])

    def test_format_table_pads_short_rows(self):
        table = format_table(["a", "b", "c"], [["only"]])
        assert "only" in table.splitlines()[-1]


@pytest.fixture(scope="module")
def tiny_record(tiny_harness):
    """One CLSTM evaluated on the tiny INF dataset."""
    return evaluate(tiny_harness.build_aovlis(), tiny_harness.prepare_dataset("INF"))


class TestHarness:
    def test_tiny_scale_values(self):
        tiny = ExperimentScale.tiny()
        assert tiny.action_dim < ExperimentScale.benchmark().action_dim

    def test_prepare_dataset_caches(self, tiny_harness):
        first = tiny_harness.prepare_dataset("INF")
        second = tiny_harness.prepare_dataset("INF")
        assert first is second
        assert first.train.action_dim == tiny_harness.scale.action_dim

    def test_build_aovlis_uses_scale(self, tiny_harness):
        model = tiny_harness.build_aovlis()
        assert model.sequence_length == tiny_harness.scale.sequence_length
        assert model.training_config.epochs == tiny_harness.scale.epochs

    def test_detector_suite_names(self, tiny_harness):
        suite = tiny_harness.detector_suite()
        assert set(suite) == {"LTR", "VEC", "LSTM", "RTFM", "CLSTM-S", "CLSTM"}

    def test_evaluate_fits_and_scores_test(self, tiny_harness, tiny_record):
        test = tiny_harness.prepare_dataset("INF").test
        assert 0.0 <= tiny_record.auroc <= 1.0
        assert tiny_record.auroc == auroc(tiny_record.labels, tiny_record.scores)
        np.testing.assert_array_equal(tiny_record.labels, test.labels[tiny_record.segment_indices])
        assert tiny_record.roc().fpr[-1] == 1.0

    def test_loss_function_comparison_rows(self, tiny_harness):
        results = tiny_harness.loss_function_comparison(dataset_names=["INF"])
        assert set(results) == {"CLSTM+L2", "CLSTM+KL", "CLSTM+JS"}
        assert "INF" in results["CLSTM+JS"]

    def test_omega_sweep(self, tiny_harness):
        results = tiny_harness.omega_sweep(omegas=[0.5, 0.9], dataset_names=["INF"])
        assert set(results["INF"]) == {0.5, 0.9}

    def test_epoch_effect_returns_curves(self, tiny_harness):
        curves = tiny_harness.epoch_effect("INF", epochs=2)
        assert len(curves["train"]) == 2
        assert len(curves["validation"]) == 2

    def test_filtering_power_of_an_evaluated_clstm(self, tiny_harness, tiny_record):
        batch = tiny_harness.prepare_dataset("INF").test.sequences(tiny_harness.scale.sequence_length)
        report = evaluate_filtering_power(tiny_record.detector.detector, batch)
        assert report.total_segments > 0
        assert "ADOS" in report.as_dict()

    def test_optimisation_strategy_times(self, tiny_harness, tiny_record):
        """The shared forward is its own row, every cascade is timed alone,
        and the exact RE_I counts ride along."""
        times, exact = tiny_harness.optimisation_strategy_times("INF", tiny_record.detector)
        strategies = {"No Bound", "JSmin+JSmax", "JSmin+JSmax+REG", "ADOS"}
        assert set(times) == strategies | {FORWARD} and set(exact) == strategies
        assert all(value > 0 for value in times.values())
        batch = tiny_harness.prepare_dataset("INF").test.sequences(tiny_harness.scale.sequence_length)
        assert exact["No Bound"] == len(batch)
        assert exact["JSmin+JSmax+REG"] <= exact["JSmin+JSmax"] <= len(batch)
        assert exact["JSmin+JSmax+REG"] <= exact["ADOS"] <= len(batch)

    def test_sparse_group_sweep(self, tiny_harness, tiny_record):
        times, exact = tiny_harness.sparse_group_sweep("INF", tiny_record.detector, group_counts=[0, 4])
        assert set(times) == {FORWARD, 0, 4} and set(exact) == {0, 4}
        assert exact[4] <= exact[0]

    def test_ados_threshold_sweep(self, tiny_harness, tiny_record):
        sweep = tiny_harness.ados_threshold_sweep(
            "INF", tiny_record.detector, t1_values=[1.2, 1.8], t2_values=[0.1, 0.5]
        )
        assert set(sweep) == {FORWARD, "T1", "T2"}
        assert set(sweep["T1"]) == {1.2, 1.8}
        assert set(sweep["T2"]) == {0.1, 0.5}
        assert sweep[FORWARD] > 0

    def test_incremental_update_experiment(self, tiny_harness):
        result = tiny_harness.incremental_update_experiment("INF", chunks=2)
        assert set(result) == {"incremental", "retraining"}
        assert result["retraining"]["maintenance_seconds"] > 0
        # The incremental arm is the served loop; it must actually have run.
        assert result["incremental"]["updates"] >= 1
        assert result["incremental"]["maintenance_seconds"] > 0
        again = tiny_harness.incremental_update_experiment("INF", chunks=2)
        for arm in ("incremental", "retraining"):
            assert again[arm]["auroc"] == result[arm]["auroc"]
        assert again["incremental"]["updates"] == result["incremental"]["updates"]
        with pytest.raises(ValueError):
            tiny_harness.incremental_update_experiment("INF", chunks=1)

    def test_case_study_rows(self, tiny_harness, tiny_record):
        ltr = evaluate(tiny_harness.detector_suite()["LTR"], tiny_harness.prepare_dataset("INF"))
        study = tiny_harness.case_study({"LTR": ltr, "CLSTM": tiny_record}, num_samples=6)
        assert study["thresholds"] == {"LTR": ltr.threshold, "CLSTM": tiny_record.threshold}
        samples = study["samples"]
        assert 0 < len(samples) <= 6
        for row in samples:
            assert {"sample", "segment_index", "ground_truth"} <= set(row)
            assert "CLSTM_score" in row and "CLSTM_label" in row
            assert row["CLSTM_label"] in (0, 1)
