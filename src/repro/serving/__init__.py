"""Online-learning serving runtime: sharded micro-batched scoring that
updates its own models.

Turns the batch-oriented detector into an online service for many concurrent
live streams — and closes the paper's dynamic-maintenance loop inside the
runtime:

* per-stream rolling history windows feed a cross-stream micro-batching
  scheduler (count-based and wall-clock-deadline flushes), one fused CLSTM
  forward per batch, per-stream routing of detections;
* models live in a versioned :class:`ModelRegistry` of immutable
  :class:`ModelSnapshot` s; a swap is an atomic version-pointer move and
  every micro-batch pins one snapshot for its whole lifetime;
* drift triggers are consumed by the :class:`UpdatePlane`, which retrains on
  the buffered presumed-normal segments, merges, re-calibrates ``T_a`` and
  publishes the new version;
* the :class:`ShardedScoringService` routes streams across N shards (one
  registry handle + one batcher each) for multi-model deployments;
* execution is pluggable within one process: the :class:`ParallelExecutor`
  fans ready shard batches out to a worker-thread pool (NumPy's BLAS
  kernels release the GIL) and the :class:`BackgroundUpdatePlane` moves
  retrains onto a maintenance thread, while the default
  :class:`SerialExecutor` stays bit-for-bit identical to the single-threaded
  runtime;
* the :class:`Rebalancer` consumes the :class:`ShardStats` load signal to
  divert new streams away from hot shards and split/merge shards
  deterministically.
"""

from .executor import (
    BackgroundUpdatePlane,
    ParallelExecutor,
    SerialExecutor,
    build_executor,
)
from .maintenance import UpdatePlane, UpdateReport
from .microbatch import MicroBatcher, QueueFull, ScoreRequest
from .rebalance import RebalanceDecision, Rebalancer
from .registry import ModelRegistry, ModelSnapshot, RegistryHandle
from .service import (
    ManualClock,
    ScoringService,
    ServiceStats,
    ShardStats,
    StreamDetection,
    StreamSession,
    UpdateTrigger,
    replay_streams,
    validate_interaction_level,
)
from .sharding import ShardedScoringService

__all__ = [
    "BackgroundUpdatePlane",
    "ManualClock",
    "MicroBatcher",
    "ModelRegistry",
    "ModelSnapshot",
    "ParallelExecutor",
    "QueueFull",
    "RebalanceDecision",
    "Rebalancer",
    "RegistryHandle",
    "ScoreRequest",
    "ScoringService",
    "SerialExecutor",
    "ServiceStats",
    "ShardStats",
    "ShardedScoringService",
    "StreamDetection",
    "StreamSession",
    "UpdatePlane",
    "UpdateReport",
    "UpdateTrigger",
    "build_executor",
    "replay_streams",
    "validate_interaction_level",
]
