"""Tests for configuration, RNG management, validation and timing utilities."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.utils import (
    DetectionConfig,
    ExecutorConfig,
    ModelConfig,
    ServingConfig,
    StreamProtocol,
    Stopwatch,
    TimingAccumulator,
    TrainingConfig,
    UpdateConfig,
    derive_rng,
    make_rng,
    spawn_rngs,
    validation,
)


class TestConfig:
    def test_stream_protocol_defaults_match_paper(self):
        protocol = StreamProtocol()
        assert protocol.frame_rate == 25
        assert protocol.segment_frames == 64
        assert protocol.stride_frames == 25
        assert protocol.sequence_length == 9

    def test_segments_per_hour(self):
        protocol = StreamProtocol()
        frames = 3600 * 25
        expected = 1 + (frames - 64) // 25
        assert protocol.segments_per_hour() == expected

    def test_segments_per_hour_short_stream(self):
        assert StreamProtocol(frame_rate=1, segment_frames=7200).segments_per_hour() == 0

    def test_model_config_scaled(self):
        scaled = ModelConfig().scaled(0.1)
        assert scaled.action_dim == 40
        assert scaled.action_hidden >= 4
        with pytest.raises(ValueError):
            ModelConfig().scaled(0.0)

    def test_configs_serialise_to_dicts(self):
        assert TrainingConfig().to_dict()["learning_rate"] == 0.001
        assert DetectionConfig().to_dict()["adg_subspaces"] == 20
        assert UpdateConfig().to_dict()["buffer_size"] == 300
        assert "frame_rate" in StreamProtocol().to_dict()

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"learning_rate": 0.0}, "learning_rate"),
            ({"learning_rate": -0.1}, "learning_rate"),
            ({"epochs": 0}, "epochs"),
            ({"epochs": -3}, "epochs"),
            ({"batch_size": 0}, "batch_size"),
            ({"checkpoint_every": 0}, "checkpoint_every"),
            ({"validation_fraction": 0.0}, "validation_fraction"),
            ({"validation_fraction": 1.0}, "validation_fraction"),
            ({"validation_fraction": -0.2}, "validation_fraction"),
            ({"omega": 1.5}, "omega"),
            ({"omega": -0.1}, "omega"),
            ({"gradient_clip": -1.0}, "gradient_clip"),
            ({"action_loss": "huber"}, "action_loss"),
        ],
    )
    def test_training_config_rejects_invalid_fields(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            TrainingConfig(**kwargs)

    def test_training_config_accepts_boundary_values(self):
        assert TrainingConfig(omega=0.0).omega == 0.0
        assert TrainingConfig(omega=1.0).omega == 1.0
        assert TrainingConfig(gradient_clip=0.0).gradient_clip == 0.0
        assert TrainingConfig(epochs=1, batch_size=1, checkpoint_every=1).epochs == 1
        assert TrainingConfig(action_loss="mse").action_loss == "mse"


# Non-default instances of every config dataclass, for round-trip tests.
ROUND_TRIP_CONFIGS = [
    StreamProtocol(frame_rate=30, sequence_length=7),
    ModelConfig(action_dim=100, interaction_hidden=16),
    TrainingConfig(epochs=7, action_loss="kl", tbptt_window=4),
    DetectionConfig(omega=0.6, threshold=0.5, sparse_groups=4),
    ServingConfig(max_batch_size=8, max_batch_delay_ms=25.0, num_shards=3),
    ExecutorConfig(mode="parallel", workers=4, background_updates=True),
    UpdateConfig(buffer_size=50, interaction_threshold=0.4),
]


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "config", ROUND_TRIP_CONFIGS, ids=lambda config: type(config).__name__
    )
    def test_dict_round_trip(self, config):
        assert type(config).from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "config", ROUND_TRIP_CONFIGS, ids=lambda config: type(config).__name__
    )
    def test_json_round_trip(self, config):
        assert type(config).from_json(config.to_json()) == config

    def test_json_round_trip_through_file(self, tmp_path):
        config = ServingConfig(max_batch_size=8, num_shards=2)
        path = tmp_path / "serving.json"
        path.write_text(config.to_json(), encoding="utf-8")
        assert ServingConfig.from_json(path) == config

    def test_none_fields_round_trip(self):
        config = DetectionConfig(threshold=None, top_k=None)
        restored = DetectionConfig.from_dict(config.to_dict())
        assert restored.threshold is None and restored.top_k is None

    def test_unknown_field_named_in_error(self):
        with pytest.raises(ValueError, match=r"UpdateConfig.*buffre_size"):
            UpdateConfig.from_dict({"buffre_size": 10})

    @pytest.mark.parametrize(
        "cls, data, fragment",
        [
            (TrainingConfig, {"epochs": "ten"}, r"TrainingConfig\.epochs"),
            (TrainingConfig, {"epochs": True}, r"TrainingConfig\.epochs"),
            (ModelConfig, {"action_dim": 3.5}, r"ModelConfig\.action_dim"),
            (ServingConfig, {"max_batch_delay_ms": "soon"}, r"ServingConfig\.max_batch_delay_ms"),
            (DetectionConfig, {"omega": "high"}, r"DetectionConfig\.omega"),
        ],
    )
    def test_wrong_type_names_the_field(self, cls, data, fragment):
        with pytest.raises(ValueError, match=fragment):
            cls.from_dict(data)

    def test_post_init_validation_still_applies(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainingConfig.from_dict({"epochs": 0})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("buffer_size", 0),
            ("buffer_size", -3),
            ("update_epochs", 0),
            ("merge_weight", 1.5),
            ("merge_weight", -0.1),
            ("merge_weight", float("nan")),
            ("drift_threshold", float("nan")),
            ("drift_threshold", float("inf")),
            ("interaction_threshold", float("nan")),
        ],
    )
    def test_update_config_rejects_values_that_crash_the_scoring_path(self, field, value):
        """Each of these used to pass construction and raise mid-serving —
        from the drift check on an empty buffer, or from ``merge_models``
        after a full retrain."""
        with pytest.raises(ValueError, match=rf"UpdateConfig\.{field}"):
            UpdateConfig(**{field: value})
        with pytest.raises(ValueError, match=rf"UpdateConfig\.{field}"):
            UpdateConfig.from_dict({field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("adg_subspaces", 0),
            ("sparse_groups", -3),
            ("normal_threshold_ratio", -1.0),
            ("normal_threshold_ratio", 0.0),
            ("normal_threshold_ratio", 1.5),
            ("normal_threshold_ratio", float("nan")),
            ("top_k", 0),
            ("threshold", float("nan")),
            ("trigger_low", float("inf")),
            ("trigger_high", float("nan")),
        ],
    )
    def test_detection_config_rejects_values_that_crash_inside_numpy(self, field, value):
        """``adg_subspaces=0`` used to construct and die in ``np.bincount``;
        the config arrives from deployment JSON and checkpoint manifests."""
        with pytest.raises(ValueError, match=rf"DetectionConfig\.{field}"):
            DetectionConfig(**{field: value})
        with pytest.raises(ValueError, match=rf"DetectionConfig\.{field}"):
            DetectionConfig.from_dict({field: value})

    def test_detection_config_accepts_boundary_values(self):
        config = DetectionConfig(adg_subspaces=1, sparse_groups=0, normal_threshold_ratio=1.0, top_k=1)
        assert DetectionConfig.from_dict(config.to_dict()) == config

    def test_detection_config_drops_the_retired_adg_groups_key(self):
        """Every manifest written so far carries ``adg_groups``; nothing read it."""
        assert "adg_groups" not in DetectionConfig().to_dict()
        legacy = {**DetectionConfig(sparse_groups=4).to_dict(), "adg_groups": 20}
        assert DetectionConfig.from_dict(legacy) == DetectionConfig(sparse_groups=4)

    def test_update_config_keeps_drift_threshold_range_open(self):
        # -1.0 (never trigger), 2.0 (always trigger) and the endpoints of the
        # merge are all in use by tests and examples.
        for threshold in (-1.0, 0.9995, 2.0):
            assert UpdateConfig(drift_threshold=threshold).drift_threshold == threshold
        assert UpdateConfig(merge_weight=0.0).merge_weight == 0.0
        assert UpdateConfig(merge_weight=1.0, buffer_size=1, update_epochs=1).merge_weight == 1.0

    def test_int_promoted_to_float_fields(self):
        config = ServingConfig.from_dict({"max_batch_delay_ms": 5})
        assert config.max_batch_delay_ms == 5.0
        assert isinstance(config.max_batch_delay_ms, float)

    def test_invalid_json_text_rejected(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            ServingConfig.from_json('{"max_batch_size": }')

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(ValueError, match="expects a mapping"):
            TrainingConfig.from_dict([("epochs", 3)])


class TestRng:
    def test_make_rng_deterministic(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_spawn_rngs_independent(self):
        a, b = spawn_rngs(3, 2)
        assert a.random() != b.random()
        with pytest.raises(ValueError):
            spawn_rngs(3, 0)

    def test_derive_rng_label_sensitivity(self):
        same_a = derive_rng(7, "INF", "comments").random()
        same_b = derive_rng(7, "INF", "comments").random()
        other = derive_rng(7, "INF", "actions").random()
        assert same_a == same_b
        assert same_a != other

    def test_derive_rng_accepts_ints(self):
        assert derive_rng(1, 2, 3).random() == derive_rng(1, 2, 3).random()


class TestValidation:
    def test_require_positive(self):
        assert validation.require_positive("x", 1.5) == 1.5
        with pytest.raises(ValueError):
            validation.require_positive("x", 0)

    def test_require_non_negative(self):
        assert validation.require_non_negative("x", 0) == 0
        with pytest.raises(ValueError):
            validation.require_non_negative("x", -1)

    def test_require_in_range(self):
        assert validation.require_in_range("x", 0.5, 0, 1) == 0.5
        with pytest.raises(ValueError):
            validation.require_in_range("x", 2, 0, 1)

    def test_require_probability_vector(self):
        vector = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(validation.require_probability_vector("p", vector), vector)
        with pytest.raises(ValueError):
            validation.require_probability_vector("p", np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            validation.require_probability_vector("p", np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            validation.require_probability_vector("p", np.array([-0.1, 1.1]))

    def test_require_matrix(self):
        matrix = np.ones((2, 3))
        assert validation.require_matrix("m", matrix, columns=3).shape == (2, 3)
        with pytest.raises(ValueError):
            validation.require_matrix("m", np.ones(3))
        with pytest.raises(ValueError):
            validation.require_matrix("m", matrix, columns=4)

    def test_as_float_array_rejects_nan(self):
        with pytest.raises(ValueError):
            validation.as_float_array("x", [1.0, float("nan")])
        np.testing.assert_allclose(validation.as_float_array("x", [1, 2]), [1.0, 2.0])


class TestTimers:
    def test_stopwatch_measures_time(self):
        watch = Stopwatch()
        with watch.measure():
            time.sleep(0.01)
        assert watch.elapsed >= 0.005

    def test_stopwatch_state_errors(self):
        watch = Stopwatch()
        with pytest.raises(RuntimeError):
            watch.stop()
        watch.start()
        with pytest.raises(RuntimeError):
            watch.start()
        watch.stop()
        watch.reset()
        assert watch.elapsed == 0.0

    def test_timing_accumulator(self):
        acc = TimingAccumulator()
        with acc.measure("stage"):
            time.sleep(0.005)
        acc.add("stage", 0.1, count=2)
        assert acc.count("stage") == 3
        assert acc.total("stage") >= 0.1
        assert acc.mean("stage") > 0
        summary = acc.as_dict()
        assert "stage" in summary and summary["stage"]["count"] == 3

    def test_timing_accumulator_unknown_name(self):
        acc = TimingAccumulator()
        assert acc.total("missing") == 0.0
        assert acc.mean("missing") == 0.0
