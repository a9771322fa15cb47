"""Tests for the adversarial scenario library and leaderboard harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation import ExperimentHarness, ExperimentScale, detection_latency, evaluate, prepare
from repro.scenarios import (
    SCENARIO_KINDS,
    RuntimeDriveReport,
    ScenarioConfig,
    drive_runtime,
    generate_scenario,
    run_scenario_suite,
    standard_suite,
)
from repro.scenarios.leaderboard import _overall_ranking, _ranked, ScenarioCell
from repro.streams.generator import SocialStreamGenerator
from repro.utils.config import StreamProtocol


SMALL = dict(train_seconds=120.0, test_seconds=100.0, seed=7)


class TestScenarioConfig:
    @pytest.mark.parametrize("config", standard_suite(), ids=lambda c: c.name)
    def test_dict_round_trip(self, config):
        assert ScenarioConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("config", standard_suite(), ids=lambda c: c.name)
    def test_json_round_trip(self, config):
        assert ScenarioConfig.from_json(config.to_json()) == config

    def test_json_round_trip_through_file(self, tmp_path):
        config = ScenarioConfig(name="fc", kind="flash_crowd", intensity=2.0)
        path = tmp_path / "scenario.json"
        path.write_text(config.to_json(), encoding="utf-8")
        assert ScenarioConfig.from_json(path) == config

    def test_unknown_field_named_in_error(self):
        with pytest.raises(ValueError, match=r"ScenarioConfig.*intensty"):
            ScenarioConfig.from_dict({"name": "x", "kind": "raid", "intensty": 2.0})

    @pytest.mark.parametrize(
        "data, fragment",
        [
            ({"name": "x", "kind": "raid", "intensity": "high"}, r"ScenarioConfig\.intensity"),
            ({"name": "x", "kind": "raid", "fan_in_streams": 2.5}, r"ScenarioConfig\.fan_in_streams"),
            ({"name": "x", "kind": "raid", "seed": True}, r"ScenarioConfig\.seed"),
        ],
    )
    def test_wrong_type_names_the_field(self, data, fragment):
        with pytest.raises(ValueError, match=fragment):
            ScenarioConfig.from_dict(data)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="alien_invasion"),
            dict(onset_fraction=1.0),
            dict(onset_fraction=0.8, duration_fraction=0.5),
            dict(duration_fraction=0.0),
            dict(intensity=0.0),
            dict(clock_rate=0.0),
            dict(clock_stall_seconds=-1.0),
            dict(fan_in_streams=0),
            dict(train_seconds=0.0),
        ],
    )
    def test_validation_rejects(self, kwargs):
        base = dict(name="x", kind="raid")
        base.update(kwargs)
        with pytest.raises(ValueError):
            ScenarioConfig(**base)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            ScenarioConfig(name="", kind="raid")

    def test_standard_suite_covers_every_kind(self):
        kinds = {config.kind for config in standard_suite()}
        assert kinds == set(SCENARIO_KINDS)

    def test_standard_suite_names_unique(self):
        names = [config.name for config in standard_suite()]
        assert len(names) == len(set(names))

    def test_perturbation_compilation_per_kind(self):
        flash = ScenarioConfig(name="f", kind="flash_crowd").perturbations()
        assert len(flash) == 1 and flash[0].force_anomaly and flash[0].ramp == "linear"

        raid = ScenarioConfig(name="r", kind="raid").perturbations()
        assert raid[0].injected_sentiment < 0
        assert raid[0].anomaly_rate_multiplier == 0.0
        assert not raid[0].force_anomaly

        switch = ScenarioConfig(name="s", kind="regime_switch", test_seconds=100.0)
        (p,) = switch.perturbations()
        assert p.regime_shift and p.end_second == 100.0

        heavy = ScenarioConfig(name="h", kind="heavy_tail").perturbations()
        assert heavy[0].heavy_tail_alpha is not None

        cold = ScenarioConfig(name="c", kind="cold_start").perturbations()
        assert cold[0].start_second == 0.0 and cold[0].anomaly_rate_multiplier == 0.0

        assert ScenarioConfig(name="st", kind="stationary").perturbations() == ()
        assert ScenarioConfig(name="ck", kind="clock_skew").perturbations() == ()

    def test_intensity_scales_injection(self):
        weak = ScenarioConfig(name="w", kind="flash_crowd", intensity=1.0).perturbations()
        strong = ScenarioConfig(name="s", kind="flash_crowd", intensity=3.0).perturbations()
        assert strong[0].comment_rate_add == pytest.approx(3 * weak[0].comment_rate_add)


class TestGenerateScenario:
    def test_streams_are_deterministic(self):
        config = ScenarioConfig(name="fc", kind="flash_crowd", **SMALL)
        first = generate_scenario(config)
        second = generate_scenario(config)
        assert np.array_equal(first.test.comment_counts, second.test.comment_counts)
        assert [s.is_anomaly for s in first.test.segments] == [
            s.is_anomaly for s in second.test.segments
        ]
        for a, b in zip(first.test.segments, second.test.segments):
            assert np.array_equal(a.motion_content, b.motion_content)

    def test_train_stream_is_clean(self):
        config = ScenarioConfig(name="fc", kind="flash_crowd", **SMALL)
        streams = generate_scenario(config)
        unperturbed = generate_scenario(
            ScenarioConfig(name="st", kind="stationary", **SMALL)
        )
        assert np.array_equal(
            streams.train.comment_counts, unperturbed.train.comment_counts
        )

    def test_stationary_matches_unperturbed_generator(self):
        config = ScenarioConfig(name="st", kind="stationary", **SMALL)
        streams = generate_scenario(config)
        from repro.streams.datasets import dataset_profile

        generator = SocialStreamGenerator(dataset_profile("INF"), seed=config.seed)
        direct = generator.generate(config.test_seconds, seed=config.seed + 1)
        assert np.array_equal(streams.test.comment_counts, direct.comment_counts)

    def test_flash_crowd_raises_comment_rate_in_window(self):
        config = ScenarioConfig(name="fc", kind="flash_crowd", intensity=2.0, **SMALL)
        streams = generate_scenario(config)
        baseline = generate_scenario(ScenarioConfig(name="st", kind="stationary", **SMALL))
        onset, offset = int(config.onset_second), int(config.offset_second)
        inside = streams.test.comment_counts[onset:offset].mean()
        control = baseline.test.comment_counts[onset:offset].mean()
        assert inside > control

    def test_regime_switch_prefix_is_bitwise_invariant(self):
        """The headline-bugfix regression: a sustained post-onset burst must
        not change the labels of segments that end before the onset.  Under
        the old whole-stream-mean baseline the elevated tail inflated the
        baseline and flipped pre-onset labels; the causal running baseline
        only looks backwards."""
        switch = ScenarioConfig(name="rs", kind="regime_switch", onset_fraction=0.5, **SMALL)
        stationary = ScenarioConfig(name="st", kind="stationary", **SMALL)
        perturbed = generate_scenario(switch).test
        control = generate_scenario(stationary).test

        profile_tail = 1 + 2  # INF reaction_delay + 2
        onset = switch.onset_second
        prefix = [
            s.index
            for s in control.segments
            if np.ceil(s.end_time) + profile_tail <= onset
        ]
        assert prefix, "prefix must contain segments"
        assert np.array_equal(
            perturbed.comment_counts[: int(onset)], control.comment_counts[: int(onset)]
        )
        for index in prefix:
            assert (
                perturbed.segments[index].is_anomaly
                == control.segments[index].is_anomaly
            )
        # The old global-mean baseline demonstrably differs between the two
        # streams, which is what used to leak the future into prefix labels.
        old_perturbed = max(float(np.mean(perturbed.comment_counts)), 1e-6)
        old_control = max(float(np.mean(control.comment_counts)), 1e-6)
        assert abs(old_perturbed - old_control) > 0.5

    def test_heavy_tail_produces_spiky_injection(self):
        config = ScenarioConfig(
            name="ht", kind="heavy_tail", intensity=2.0, duration_fraction=0.5, **SMALL
        )
        streams = generate_scenario(config)
        control = generate_scenario(ScenarioConfig(name="st", kind="stationary", **SMALL))
        onset, offset = int(config.onset_second), int(config.offset_second)
        injected = streams.test.comment_counts[onset:offset] - control.test.comment_counts[onset:offset]
        assert injected.max() > 3 * max(injected.mean(), 1.0)


class TestDetectionLatency:
    def test_immediate_detection(self):
        labels = np.array([0, 0, 1, 1, 1, 0])
        scores = np.array([0.0, 0.0, 9.0, 0.0, 0.0, 0.0])
        assert detection_latency(labels, scores, threshold=1.0) == 0.0

    def test_delayed_detection(self):
        labels = np.array([0, 1, 1, 1, 0])
        scores = np.array([0.0, 0.0, 0.0, 5.0, 0.0])
        assert detection_latency(labels, scores, threshold=1.0) == 2.0

    def test_missed_episode_counts_full_length(self):
        labels = np.array([1, 1, 1, 0])
        scores = np.zeros(4)
        assert detection_latency(labels, scores, threshold=1.0) == 3.0

    def test_mean_over_episodes(self):
        labels = np.array([1, 0, 1, 1])
        scores = np.array([5.0, 0.0, 0.0, 5.0])
        assert detection_latency(labels, scores, threshold=1.0) == pytest.approx(0.5)

    def test_no_episode_is_nan(self):
        value = detection_latency(np.zeros(4), np.zeros(4), threshold=1.0)
        assert value != value

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            detection_latency(np.zeros(3), np.zeros(2), threshold=1.0)


class TestRanking:
    def _cell(self, variant, auroc, scenario="s"):
        return ScenarioCell(
            scenario=scenario,
            variant=variant,
            auroc=auroc,
            tpr_at_fpr=0.0,
            detection_latency=0.0,
            anomaly_fraction=0.1,
        )

    def test_ranks_by_auroc_descending_nan_last(self):
        cells = [
            self._cell("a", 0.5),
            self._cell("b", float("nan")),
            self._cell("c", 0.9),
        ]
        ranked = _ranked(cells)
        by_variant = {cell.variant: cell.rank for cell in ranked}
        assert by_variant == {"c": 1, "a": 2, "b": 3}

    def test_overall_ranking_orders_by_mean_rank_then_wins(self):
        cells = [
            self._cell("a", 0.9, "s1"),
            self._cell("b", 0.5, "s1"),
            self._cell("a", 0.4, "s2"),
            self._cell("b", 0.8, "s2"),
        ]
        ranked = []
        for scenario in ("s1", "s2"):
            ranked.extend(_ranked([c for c in cells if c.scenario == scenario]))
        overall = _overall_ranking(ranked)
        assert [row[0] for row in overall] == ["a", "b"]  # tie on mean rank -> name


@pytest.fixture(scope="module")
def small_leaderboard():
    scenarios = (
        ScenarioConfig(name="stationary", kind="stationary", **SMALL),
        ScenarioConfig(name="regime_switch", kind="regime_switch", onset_fraction=0.5, **SMALL),
    )
    return run_scenario_suite(
        scenarios=scenarios,
        scale=ExperimentScale.tiny(),
        variant_names=["LTR", "CLSTM"],
    )


class TestLeaderboard:
    def test_shape(self, small_leaderboard):
        lb = small_leaderboard
        assert lb.scenario_names() == ("stationary", "regime_switch")
        assert lb.variant_names() == ("LTR", "CLSTM")
        assert len(lb.cells) == 4
        for scenario in lb.scenario_names():
            ranks = sorted(
                cell.rank for cell in lb.cells if cell.scenario == scenario
            )
            assert ranks == [1, 2]

    def test_overall_covers_every_variant(self, small_leaderboard):
        assert {row[0] for row in small_leaderboard.overall} == {"LTR", "CLSTM"}
        wins = sum(row[2] for row in small_leaderboard.overall)
        assert wins == len(small_leaderboard.scenario_names())

    def test_to_dict_is_json_able(self, small_leaderboard):
        import json

        document = json.dumps(small_leaderboard.to_dict())
        restored = json.loads(document)
        assert restored["scenarios"] == ["stationary", "regime_switch"]
        assert len(restored["cells"]) == 4
        assert restored["drift"], "drift comparison must be present with CLSTM swept"

    def test_render_mentions_each_variant(self, small_leaderboard):
        rendered = small_leaderboard.render()
        assert "LTR" in rendered and "CLSTM" in rendered
        assert "Overall ranking" in rendered

    def test_cell_lookup(self, small_leaderboard):
        cell = small_leaderboard.cell("stationary", "CLSTM")
        assert cell.variant == "CLSTM"
        with pytest.raises(KeyError):
            small_leaderboard.cell("stationary", "nope")

    def test_rows_are_bitwise_reproducible(self, small_leaderboard):
        again = run_scenario_suite(
            scenarios=(
                ScenarioConfig(name="stationary", kind="stationary", **SMALL),
                ScenarioConfig(
                    name="regime_switch", kind="regime_switch", onset_fraction=0.5, **SMALL
                ),
            ),
            scale=ExperimentScale.tiny(),
            variant_names=["LTR", "CLSTM"],
        )
        import json

        # json round-trips NaN as a literal token, making the comparison
        # bitwise while staying NaN-safe.
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
            small_leaderboard.to_dict(), sort_keys=True
        )

    def test_centered_drift_statistic_separates_where_cosine_fails(
        self, small_leaderboard
    ):
        """Eq. 17's mean-cosine gives almost no separation between the
        stationary and regime-switched streams (on trained hidden states the
        gap is a sliver, sometimes even inverted), while the centered
        statistic collapses on the switched stream and stays high on the
        stationary one — the headroom the update loop needs.  The >0.9
        saturation regime of the raw cosine is pinned separately in
        tests/test_core_training_update.py."""
        drift = {comparison.scenario: comparison for comparison in small_leaderboard.drift}
        stationary = drift["stationary"]
        switched = drift["regime_switch"]
        assert abs(stationary.cosine - switched.cosine) < 0.2
        assert stationary.centered - switched.centered > 0.2
        assert switched.centered < 0.5

    def test_fpr_target_validated(self):
        with pytest.raises(ValueError, match="fpr_target"):
            run_scenario_suite(scenarios=(), fpr_target=1.5)


class TestOneThresholdRule:
    """``evaluate`` owns the one threshold rule; Table IV and the leaderboard read it."""

    def test_threshold_is_the_train_quantile_everywhere(self, small_leaderboard):
        scale = ExperimentScale.tiny()
        harness = ExperimentHarness(scale)
        config = ScenarioConfig(name="regime_switch", kind="regime_switch", onset_fraction=0.5, **SMALL)
        dataset = prepare(generate_scenario(config).spec, scale, StreamProtocol())
        record = evaluate(harness.detector_suite()["CLSTM"], dataset)

        train_scores = record.detector.score_stream(dataset.train).scores
        assert record.threshold == np.quantile(train_scores, 0.95)
        study = harness.case_study({"CLSTM": record}, num_samples=6)
        assert study["thresholds"]["CLSTM"] == record.threshold

        assert record.labels.sum() > 0
        cell = small_leaderboard.cell("regime_switch", "CLSTM")
        assert cell.detection_latency == detection_latency(record.labels, record.scores, record.threshold)
        assert cell.auroc == record.auroc


class TestDriveRuntime:
    def test_stationary_drive_end_to_end(self):
        config = ScenarioConfig(name="drive", kind="stationary", **SMALL)
        report = drive_runtime(config)
        assert isinstance(report, RuntimeDriveReport)
        assert report.stream_ids == ("drive",)
        assert report.segments_ingested > 0
        assert report.num_detections > 0
        assert report.clock_end == pytest.approx(report.segments_ingested)
        versions = {detection.model_version for detection in report.detections}
        assert versions == {1}  # updates disabled by default

    def test_report_counts_detections_and_flagged_ones(self):
        from repro.serving import StreamDetection

        flags = [True, False, True, False, False]
        detections = tuple(
            StreamDetection("s", index, 0.5, 0.1, 0.2, flag, 0.4) for index, flag in enumerate(flags)
        )
        report = RuntimeDriveReport("r", ("s",), len(flags), detections, float(len(flags)))
        assert report.num_detections == 5
        assert report.num_flagged == 2

    def test_clock_skew_stalls_then_skews(self):
        config = ScenarioConfig(
            name="skew",
            kind="clock_skew",
            clock_stall_seconds=10.0,
            clock_rate=2.0,
            **SMALL,
        )
        report = drive_runtime(config)
        n = report.segments_ingested
        onset_ticks = sum(1 for i in range(n) if i < config.onset_second)
        skew_ticks = n - onset_ticks
        stalled = min(10.0, skew_ticks)
        expected = onset_ticks + (skew_ticks - stalled) * 2.0
        assert report.clock_end == pytest.approx(expected)
        assert report.num_detections > 0

    def test_heavy_tail_fans_across_streams(self):
        config = ScenarioConfig(
            name="fan", kind="heavy_tail", fan_in_streams=3, **SMALL
        )
        report = drive_runtime(config)
        assert len(report.stream_ids) == 3
        assert all(stream_id.startswith("fan-") for stream_id in report.stream_ids)
        routed = {detection.stream_id for detection in report.detections}
        assert routed <= set(report.stream_ids)
        assert report.num_detections > 0
