"""Shared utilities: configuration and timing."""

from .config import (
    ConfigBase,
    StreamProtocol,
    ModelConfig,
    TrainingConfig,
    DetectionConfig,
    DurabilityConfig,
    ServingConfig,
    ExecutorConfig,
    ShardingConfig,
    UpdateConfig,
    ServerConfig,
)
from .timer import Stopwatch, TimingAccumulator

__all__ = [
    "ConfigBase",
    "StreamProtocol",
    "ModelConfig",
    "TrainingConfig",
    "DetectionConfig",
    "DurabilityConfig",
    "ServingConfig",
    "ExecutorConfig",
    "ShardingConfig",
    "UpdateConfig",
    "ServerConfig",
    "Stopwatch",
    "TimingAccumulator",
]
