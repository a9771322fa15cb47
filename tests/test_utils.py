"""Tests for configuration and timing utilities."""

from __future__ import annotations

import dataclasses
import json
import math
import time
import typing

import pytest

from repro.runtime import RuntimeConfig
from repro.utils import (
    DetectionConfig,
    DurabilityConfig,
    ExecutorConfig,
    ModelConfig,
    ServingConfig,
    StreamProtocol,
    Stopwatch,
    TimingAccumulator,
    TrainingConfig,
    UpdateConfig,
)
from repro.utils.config import RETIRED, RULE_KEYS, ConfigBase


class TestConfig:
    def test_stream_protocol_defaults_match_paper(self):
        protocol = StreamProtocol()
        assert protocol.frame_rate == 25
        assert protocol.segment_frames == 64
        assert protocol.stride_frames == 25
        assert protocol.sequence_length == 9

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

    @pytest.mark.parametrize("action_loss", ["js", "kl", "l2", "mse"])
    def test_training_config_takes_each_trainable_action_loss(self, action_loss):
        from repro.nn.backprop import ACTION_LOSS_GRADS

        assert action_loss in ACTION_LOSS_GRADS
        assert TrainingConfig(action_loss=action_loss).action_loss == action_loss


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

    @pytest.mark.parametrize("backend", ["auto", "numpy"])
    def test_model_config_drops_the_retired_backend_key(self, backend):
        """Every manifest written so far carries ``backend: "auto"``."""
        assert "backend" not in ModelConfig().to_dict()
        legacy = {**ModelConfig(action_dim=100).to_dict(), "backend": backend}
        assert ModelConfig.from_dict(legacy) == ModelConfig(action_dim=100)

    @pytest.mark.parametrize("backend", ["gpu", "torch"])
    def test_model_config_refuses_any_other_backend(self, backend):
        """Only the NumPy kernels remain; a manifest naming any other array
        library cannot be served and is refused by name."""
        with pytest.raises(ValueError, match=r"ModelConfig\.backend.*retired"):
            ModelConfig.from_dict({**ModelConfig().to_dict(), "backend": backend})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("action_dim", -3),
            ("interaction_dim", 0),
            ("action_hidden", 0),
            ("interaction_hidden", -1),
            ("precision", "bfloat16"),
        ],
    )
    def test_model_config_rejects_unusable_values_by_name(self, field, value):
        """Sizes below one used to construct and fail only inside the cell
        constructors, at ``Runtime.fit`` or ``from_checkpoint``."""
        with pytest.raises(ValueError, match=rf"ModelConfig\.{field}"):
            ModelConfig(**{field: value})
        with pytest.raises(ValueError, match=rf"ModelConfig\.{field}"):
            ModelConfig.from_dict({field: value})

    def test_durability_config_maps_the_retired_delta_key(self):
        """``delta: true`` was the default chaining ``full_every`` governs;
        ``delta: false`` made every checkpoint full, i.e. ``full_every=1``."""
        assert "delta" not in DurabilityConfig().to_dict()
        base = DurabilityConfig(directory="store", full_every=4).to_dict()
        assert DurabilityConfig.from_dict({**base, "delta": True}) == DurabilityConfig(
            directory="store", full_every=4
        )
        assert DurabilityConfig.from_dict({**base, "delta": False}) == DurabilityConfig(
            directory="store", full_every=1
        )

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


def _config_classes():
    found, pending = [], [ConfigBase]
    while pending:
        for cls in pending.pop().__subclasses__():
            found.append(cls)
            pending.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


# Valid values for the fields a walked field does not vary: ScenarioConfig
# has no defaults for name/kind and a cross-field sum; the checkpoint policy
# rules need a directory.
WALK_BASE = {
    "ScenarioConfig": {"name": "x", "kind": "raid", "onset_fraction": 0.0, "duration_fraction": 1e-9},
    "DurabilityConfig": {"directory": "store"},
}


def _step(value, is_float, up):
    """The next representable value above (or below) ``value``."""
    if is_float:
        return math.nextafter(float(value), math.inf if up else -math.inf)
    return value + (1 if up else -1)


def _rule_cases():
    """``(cls, field, accepted values, refused values)`` for every ruled field."""
    cases = []
    for cls in _config_classes():
        hints = typing.get_type_hints(cls)
        for spec in dataclasses.fields(cls):
            is_float = float in (typing.get_args(hints[spec.name]) or (hints[spec.name],))
            accepted, refused = [], []
            for key, bound in spec.metadata.items():
                if key == "one_of":
                    options = list(bound() if callable(bound) else bound)
                    accepted += options
                    refused.append("not-an-option")
                elif key == "nonempty":
                    accepted.append("x")
                    refused.append("")
                else:
                    inclusive, up = key in ("ge", "le"), key in ("le", "lt")
                    outside = bound if not inclusive else _step(bound, is_float, up)
                    inside = bound if inclusive else _step(bound, is_float, not up)
                    accepted.append(inside)
                    refused.append(outside)
            if is_float:
                refused += [float("nan"), float("inf"), -float("inf")]
            if refused:
                cases.append((cls, spec.name, accepted, refused))
    return cases


RULE_CASES = _rule_cases()

# (class, retired key, stored value, fields it becomes); None = refused.
RETIRED_CASES = [
    ("TrainingConfig", "use_fused", True, {}),
    ("TrainingConfig", "use_fused", False, None),
    ("DetectionConfig", "adg_groups", 20, {}),
    ("ModelConfig", "backend", "auto", {}),
    ("ModelConfig", "backend", "numpy", {}),
    ("ModelConfig", "backend", "gpu", None),
    ("DurabilityConfig", "delta", True, {}),
    ("DurabilityConfig", "delta", False, {"full_every": 1}),
    ("ExecutorConfig", "start_method", "fork", {}),
    ("ExecutorConfig", "mode", "process", {"mode": "parallel"}),
    ("ExecutorConfig", "mode", "serial", {"mode": "serial"}),
    ("ExecutorConfig", "mode", "parallel", {"mode": "parallel"}),
    ("ExecutorConfig", "mode", "auto", {"mode": "auto"}),
]


class TestConfigRules:
    def test_every_config_class_is_walked(self):
        assert {cls.__name__ for cls in _config_classes()} == {
            "StreamProtocol", "ModelConfig", "TrainingConfig", "DetectionConfig",
            "ServingConfig", "ExecutorConfig", "UpdateConfig", "ServerConfig",
            "DurabilityConfig", "ShardingConfig", "RuntimeConfig", "ScenarioConfig",
        }
        for cls in _config_classes():
            for spec in dataclasses.fields(cls):
                assert set(spec.metadata) <= set(RULE_KEYS), f"{cls.__name__}.{spec.name}"
        walked = {f"{cls.__name__}.{name}" for cls, name, _, _ in RULE_CASES}
        # Each of these accepted NaN before the rules became data.
        assert walked >= {
            "TrainingConfig.learning_rate", "TrainingConfig.gradient_clip",
            "ServingConfig.max_batch_delay_ms", "ServerConfig.poll_interval_ms",
            "ServerConfig.retry_after_seconds", "ServerConfig.long_poll_max_ms",
            "DurabilityConfig.checkpoint_every_seconds", "ShardingConfig.hot_queue_factor",
            "ScenarioConfig.intensity", "ScenarioConfig.clock_rate",
        }

    @pytest.mark.parametrize(
        "cls, field, accepted, refused",
        RULE_CASES,
        ids=[f"{cls.__name__}.{field}" for cls, field, _, _ in RULE_CASES],
    )
    def test_rule_refuses_the_first_value_outside_and_accepts_the_boundary(
        self, cls, field, accepted, refused
    ):
        base = WALK_BASE.get(cls.__name__, {})
        for value in accepted:
            assert getattr(cls(**{**base, field: value}), field) == value
            assert getattr(cls.from_dict({**base, field: value}), field) == value
        for value in refused:
            with pytest.raises(ValueError, match=rf"{cls.__name__}\.{field}\b.*got"):
                cls(**{**base, field: value})
            with pytest.raises(ValueError, match=rf"{cls.__name__}\.{field}\b.*got"):
                cls.from_dict({**base, field: value})

    def test_json_nan_literal_is_refused(self):
        with pytest.raises(ValueError, match=r"TrainingConfig\.learning_rate must be finite"):
            RuntimeConfig.from_dict(json.loads('{"training": {"learning_rate": NaN}}'))

    @pytest.mark.parametrize("owner, key, value, expected", RETIRED_CASES)
    def test_retired_rows_drop_refuse_or_map(self, owner, key, value, expected):
        section = next(
            name for name, hint in typing.get_type_hints(RuntimeConfig).items()
            if getattr(hint, "__name__", None) == owner
        )
        document = RuntimeConfig().to_dict()
        document[section][key] = value
        if expected is None:
            with pytest.raises(ValueError, match=rf"{owner}\.{key} is retired"):
                RuntimeConfig.from_dict(document)
            return
        restored = getattr(RuntimeConfig.from_dict(document), section)
        assert restored == dataclasses.replace(getattr(RuntimeConfig(), section), **expected)

    def test_the_mode_row_leaves_an_unknown_mode_to_the_field_check(self):
        document = RuntimeConfig().to_dict()
        document["executor"]["mode"] = "sideways"
        with pytest.raises(ValueError, match=r"ExecutorConfig\.mode must be one of .*'sideways'"):
            RuntimeConfig.from_dict(document)

    def test_every_retired_row_is_exercised(self):
        assert {(owner, key) for owner, key, _, _ in RETIRED_CASES} == set(RETIRED)


class TestTimers:
    def test_stopwatch_measures_time(self):
        watch = Stopwatch().start()
        time.sleep(0.01)
        assert watch.stop() >= 0.005

    def test_stopwatch_state_errors(self):
        watch = Stopwatch()
        with pytest.raises(RuntimeError):
            watch.stop()
        watch.start()
        with pytest.raises(RuntimeError):
            watch.start()
        watch.stop()

    def test_timing_accumulator(self):
        acc = TimingAccumulator()
        for _ in range(2):
            with acc.measure("stage"):
                time.sleep(0.005)
        assert acc.total("stage") >= 0.01

    def test_timing_accumulator_unknown_name(self):
        acc = TimingAccumulator()
        assert acc.total("missing") == 0.0
