"""Central configuration objects for the AOVLIS reproduction.

The paper fixes a number of protocol constants (64-frame segments with a
25-frame stride at 25 fps, sequence length q = 9, 400-dimensional action
features, learning rate 0.001, etc.).  Collecting them in frozen dataclasses
keeps the library, the examples and the benchmark harness consistent and makes
the choices visible to downstream users.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Union

__all__ = [
    "ConfigBase",
    "StreamProtocol",
    "ModelConfig",
    "TrainingConfig",
    "DetectionConfig",
]


class ConfigBase:
    """Dict and JSON round-trip shared by every configuration dataclass.

    ``to_dict`` has had no inverse since the seed; ``from_dict`` closes the
    loop with strict validation — unknown fields and wrong types raise a
    :class:`ValueError` that names the offending ``Class.field``, so a typo
    in a deployment file fails loudly instead of being silently dropped.
    ``to_json``/``from_json`` layer a reviewable file format on top (nested
    configuration dataclasses round-trip recursively).
    """

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (nested config dataclasses become nested dicts)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ConfigBase":
        """Inverse of :meth:`to_dict`; validation errors name the bad field."""
        if not isinstance(data, Mapping):
            raise ValueError(
                f"{cls.__name__}.from_dict expects a mapping, got {type(data).__name__}"
            )
        known = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(
                f"{cls.__name__}: unknown field(s) {unknown}; "
                f"valid fields: {sorted(known)}"
            )
        kwargs = {
            name: _coerce_field(cls.__name__, known[name], value)
            for name, value in data.items()
        }
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        """A reviewable JSON document equivalent to this configuration."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, source: Union[str, Path]) -> "ConfigBase":
        """Parse a configuration from JSON text or from a JSON file path.

        A :class:`~pathlib.Path`, or a string that does not start with ``{``,
        is treated as a file path; anything else is parsed as JSON text.
        """
        if isinstance(source, Path) or not str(source).lstrip().startswith("{"):
            text = Path(source).read_text(encoding="utf-8")
        else:
            text = str(source)
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"{cls.__name__}: invalid JSON ({error})") from None
        return cls.from_dict(data)


# Field types that appear in the configuration dataclasses, mapped to the
# python types a JSON document may legitimately supply for them.
_FIELD_TYPES: Dict[str, tuple] = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bool": (bool,),
    "int | None": (int, type(None)),
    "float | None": (int, float, type(None)),
    "str | None": (str, type(None)),
}


def _coerce_field(owner: str, spec: dataclasses.Field, value: Any) -> Any:
    """Validate/convert one ``from_dict`` value, naming the field on error."""
    declared = spec.type if isinstance(spec.type, str) else getattr(spec.type, "__name__", "")
    # Nested configuration dataclasses (RuntimeConfig composes five of them)
    # recurse through the sub-config's own from_dict.
    nested = _NESTED_CONFIGS.get(declared)
    if nested is not None:
        if isinstance(nested, type) and isinstance(value, nested):
            return value
        return nested.from_dict(value)
    allowed = _FIELD_TYPES.get(declared)
    if allowed is None:  # unannotated / exotic field: accept as-is
        return value
    if isinstance(value, bool) and bool not in allowed:
        # bool is an int subclass; reject it explicitly for numeric fields.
        raise ValueError(f"{owner}.{spec.name}: expected {declared}, got {value!r}")
    if not isinstance(value, allowed):
        raise ValueError(f"{owner}.{spec.name}: expected {declared}, got {value!r}")
    if declared.startswith("float") and value is not None:
        return float(value)
    return value


# Populated at the end of the module (and extended by repro.runtime) so
# _coerce_field can resolve nested config fields by their annotation string.
_NESTED_CONFIGS: Dict[str, type] = {}


@dataclass(frozen=True)
class StreamProtocol(ConfigBase):
    """Segmentation protocol of the live stream (Section IV-A)."""

    frame_rate: int = 25
    """Frames per second after preprocessing (paper resizes every video to 25 fps)."""

    segment_frames: int = 64
    """Number of frames per video segment fed to the (simulated) I3D extractor."""

    stride_frames: int = 25
    """Sliding-window stride in frames — 1 second of video."""

    sequence_length: int = 9
    """Length q of the feature sequences fed to CLSTM (covers a 250-frame slot)."""

    def segments_per_hour(self) -> int:
        """Number of segments produced by one hour of stream."""
        frames = 3600 * self.frame_rate
        if frames < self.segment_frames:
            return 0
        return 1 + (frames - self.segment_frames) // self.stride_frames


@dataclass(frozen=True)
class ModelConfig(ConfigBase):
    """Dimensions of the CLSTM model and its feature inputs."""

    action_dim: int = 400
    """Dimensionality d1 of the (simulated) ResNet50-I3D action feature."""

    interaction_dim: int = 32
    """Dimensionality d2 of the audience-interaction feature."""

    action_hidden: int = 128
    """Hidden size h1 of LSTM_I."""

    interaction_hidden: int = 32
    """Hidden size h2 of LSTM_A."""

    backend: str = "auto"
    """Array backend of the fused kernels: 'auto' (resolve the REPRO_BACKEND
    environment variable, default NumPy), 'numpy' or 'cupy'."""

    precision: str = "float64"
    """Compute precision of fused inference: 'float64' (default, bitwise
    reference) or 'float32' (opt-in, tolerance-bounded against float64;
    weights and threshold calibration stay float64 either way)."""

    def __post_init__(self) -> None:
        # Local import: utils stays import-light and nn owns the registries.
        from ..nn.backend import BACKENDS, resolve_precision

        if self.backend != "auto" and self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend '{self.backend}'; options: {('auto',) + BACKENDS}"
            )
        resolve_precision(self.precision)

    def scaled(self, factor: float) -> "ModelConfig":
        """Return a proportionally smaller configuration (used by fast tests)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return ModelConfig(
            action_dim=max(4, int(self.action_dim * factor)),
            interaction_dim=max(2, int(self.interaction_dim * factor)),
            action_hidden=max(4, int(self.action_hidden * factor)),
            interaction_hidden=max(2, int(self.interaction_hidden * factor)),
            backend=self.backend,
            precision=self.precision,
        )


@dataclass(frozen=True)
class TrainingConfig(ConfigBase):
    """CLSTM training hyper-parameters (Section IV-B3 and VI-A)."""

    learning_rate: float = 0.001
    epochs: int = 100
    batch_size: int = 32
    omega: float = 0.8
    """Weight of the action branch in the loss / REIA score (Fig. 9a optimum)."""

    action_loss: str = "js"
    """Reconstruction loss for the action branch: 'js' (default), 'kl', 'l2' or 'mse'."""

    gradient_clip: float = 5.0
    validation_fraction: float = 0.25
    """Paper splits normal segments 75% train / 25% validation."""

    checkpoint_every: int = 50
    """Paper saves the model every 50 epochs and keeps the best validation model."""

    seed: int = 0

    tbptt_window: int | None = None
    """Truncated-BPTT window K for streaming updates: the backward sweep only
    covers the last K timesteps (exact full BPTT when sequences fit inside
    the window), making incremental retrains O(window) instead of O(history).
    ``None`` (default) runs full BPTT."""

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be a positive integer, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be a positive integer, got {self.batch_size}")
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be a positive integer, got {self.checkpoint_every}"
            )
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError(
                "validation_fraction must lie strictly between 0 and 1, "
                f"got {self.validation_fraction}"
            )
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must be in [0, 1], got {self.omega}")
        if self.gradient_clip < 0:
            raise ValueError(
                f"gradient_clip must be non-negative (0 disables clipping), got {self.gradient_clip}"
            )
        # Local import: the loss registry lives with the loss implementations
        # (repro.nn.losses) and utils stays import-light at module load.
        from ..nn.losses import ACTION_LOSSES

        if self.action_loss not in ACTION_LOSSES:
            raise ValueError(
                f"unknown action_loss '{self.action_loss}'; options: {sorted(ACTION_LOSSES)}"
            )
        window = self.tbptt_window
        # bool passes isinstance(int) but from_dict refuses it: a config that
        # is constructible must also be restorable from its own checkpoint.
        if window is not None and (isinstance(window, bool) or not isinstance(window, int) or window < 1):
            raise ValueError(f"tbptt_window must be a positive integer or None, got {window!r}")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrainingConfig":
        # Manifests written before the tape training mode was retired carry
        # ``use_fused``: true named the only engine left and drops out; a false
        # run trained on a trajectory that can no longer be resumed.
        if isinstance(data, Mapping) and "use_fused" in data:
            data = dict(data)
            if data.pop("use_fused") is not True:
                raise ValueError("TrainingConfig.use_fused=false: the tape training mode is retired")
        return super().from_dict(data)


@dataclass(frozen=True)
class DetectionConfig(ConfigBase):
    """Anomaly identification and ADOS filtering parameters (Sections IV-C, V)."""

    omega: float = 0.8
    """Weight of RE_I in the REIA score (Eq. 16)."""

    threshold: float | None = None
    """Anomaly-score threshold tau; ``None`` selects it from training scores."""

    normal_threshold_ratio: float = 0.7
    """Paper sets T_n = 0.7 * T_a for the bound-based filtering."""

    adg_subspaces: int = 20
    """Number n of ADG value-partition subspaces (Table II)."""

    sparse_groups: int = 10
    """N_sg: number of sparsest groups evaluated exactly (Fig. 12c)."""

    trigger_low: float = 1.6
    """ADOS threshold T1 (Fig. 12a optimum for INF/TWI)."""

    trigger_high: float = 0.5
    """ADOS threshold T2 (Fig. 12b optimum)."""

    top_k: int | None = None
    """Alternative to a threshold: report the top-k scoring segments."""

    def __post_init__(self) -> None:
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must be in [0, 1], got {self.omega}")
        if self.adg_subspaces < 1:
            raise ValueError(
                f"DetectionConfig.adg_subspaces must be at least 1, got {self.adg_subspaces}"
            )
        if self.sparse_groups < 0:
            raise ValueError(
                f"DetectionConfig.sparse_groups must be non-negative, got {self.sparse_groups}"
            )
        if not 0.0 < self.normal_threshold_ratio <= 1.0:
            raise ValueError(
                "DetectionConfig.normal_threshold_ratio must be in (0, 1], "
                f"got {self.normal_threshold_ratio}"
            )
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"DetectionConfig.top_k must be at least 1 when set, got {self.top_k}")
        for name in ("threshold", "trigger_low", "trigger_high"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"DetectionConfig.{name} must be finite, got {value}")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DetectionConfig":
        # Every manifest written before the field was retired carries
        # ``adg_groups``; nothing ever read it (the grouping is
        # ``adg_subspaces``), so any value drops out.
        if isinstance(data, Mapping) and "adg_groups" in data:
            data = {key: value for key, value in data.items() if key != "adg_groups"}
        return super().from_dict(data)


@dataclass(frozen=True)
class ServingConfig(ConfigBase):
    """Online serving-runtime parameters (sharded micro-batching scorer)."""

    max_batch_size: int = 64
    """Micro-batch capacity of each shard's scheduler."""

    max_batch_delay_ms: float | None = None
    """Wall-clock flush deadline: a partial batch is scored once its oldest
    queued request has waited this long.  ``None`` keeps the count-based
    flush only (the caller controls latency by flushing explicitly)."""

    num_shards: int = 1
    """Number of scoring shards a shared model registry is served across.
    Ignored when one registry per shard is passed explicitly."""

    max_queue_depth: int | None = None
    """Per-shard bound on queued-but-unscored requests.  When set, a shard's
    micro-batch queue refuses further submissions once this many requests are
    waiting (:class:`~repro.serving.microbatch.QueueFull`), so a stalled
    scorer surfaces as backpressure instead of unbounded memory growth.
    ``None`` keeps the historical unbounded queue."""

    latency_reservoir: int = 512
    """Size of each shard's bounded flush-to-score latency reservoir: the most
    recent ``latency_reservoir`` per-batch latencies (oldest queued arrival →
    scored, in milliseconds) back the p50/p95/p99 percentiles that
    :meth:`~repro.serving.service.ScoringService.load_stats` and the HTTP
    ``/stats`` endpoint report."""

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be positive, got {self.max_batch_size}")
        if self.max_batch_delay_ms is not None and self.max_batch_delay_ms < 0:
            raise ValueError(
                f"max_batch_delay_ms must be non-negative, got {self.max_batch_delay_ms}"
            )
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {self.num_shards}")
        if self.max_queue_depth is not None and self.max_queue_depth < self.max_batch_size:
            raise ValueError(
                f"max_queue_depth must be at least max_batch_size "
                f"({self.max_batch_size}) when set, got {self.max_queue_depth}"
            )
        if self.latency_reservoir < 1:
            raise ValueError(
                f"latency_reservoir must be positive, got {self.latency_reservoir}"
            )


@dataclass(frozen=True)
class ExecutorConfig(ConfigBase):
    """Execution strategy of the serving runtime (thread-parallel scoring).

    Selects how :class:`~repro.serving.ShardedScoringService` runs its shard
    work and where incremental retrains execute.  The default is the serial
    in-line path, which is bit-for-bit identical to a runtime with no executor
    at all; ``mode="parallel"`` fans ready shard batches out to a worker
    thread pool (NumPy's BLAS kernels release the GIL, so fused forwards of
    different shards genuinely overlap).
    """

    mode: str = "auto"
    """``"serial"``, ``"parallel"``, ``"process"``, or ``"auto"`` — auto
    resolves from the ``REPRO_EXECUTOR`` environment variable (unset →
    serial), which is how CI runs the whole fast suite once under each
    concurrent executor."""

    workers: int | None = None
    """Worker pool size for ``mode="parallel"`` (threads) and
    ``mode="process"`` (interpreters); ``None`` derives it from the CPU
    count.  ``workers=1`` is bitwise-identical to serial in both modes."""

    background_updates: bool = False
    """Run incremental retrains on a maintenance thread instead of inside the
    scoring path: scoring continues against the pinned snapshot while the
    retrain runs, and the publish lands at a later micro-batch boundary.
    Trades the serial path's deterministic swap timing for latency isolation."""

    start_method: str | None = None
    """``multiprocessing`` start method for ``mode="process"`` workers —
    ``"fork"``, ``"spawn"``, or ``"forkserver"``; ``None`` picks ``fork``
    where available (cheap, inherits the parent's imports) and falls back to
    the platform default elsewhere.  Ignored by the thread and serial modes."""

    def __post_init__(self) -> None:
        if self.mode not in ("auto", "serial", "parallel", "process"):
            raise ValueError(
                f"ExecutorConfig.mode must be 'auto', 'serial', 'parallel' or "
                f"'process', got {self.mode!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(
                f"ExecutorConfig.workers must be positive when set, got {self.workers}"
            )
        if self.start_method is not None and self.start_method not in (
            "fork",
            "spawn",
            "forkserver",
        ):
            raise ValueError(
                f"ExecutorConfig.start_method must be 'fork', 'spawn' or "
                f"'forkserver' when set, got {self.start_method!r}"
            )


@dataclass(frozen=True)
class UpdateConfig(ConfigBase):
    """Dynamic model-update parameters (Section IV-D)."""

    buffer_size: int = 300
    """Maximal length l_s of the incoming hidden-state buffer (paper optimum)."""

    drift_threshold: float = 0.4
    """Similarity threshold tau_u below which an update is triggered."""

    drift_statistic: str = "cosine"
    """Which similarity statistic the drift check (Eq. 17) computes.

    ``"cosine"`` is the paper's mean pairwise cosine between the historical
    and buffered hidden-state sets.  LSTM hidden states share a large common
    component, so on stationary streams this statistic saturates near 1.0 and
    ``drift_threshold`` has almost no dynamic range.  ``"centered"`` removes
    the historical mean from the buffered states before normalising: it stays
    near 1.0 on stationary streams but collapses towards 0.0 under a
    consistent drift direction, giving the threshold real headroom (see
    :func:`repro.core.update.hidden_set_similarity`)."""

    interaction_threshold: float | None = None
    """Threshold T for labelling incoming segments normal; ``None`` uses the
    running mean of the previous slot's normalised audience interaction."""

    update_epochs: int = 20
    """Epochs used when training the incremental model on buffered segments."""

    merge_weight: float = 0.5
    """Interpolation weight applied to the new model when merging with the old."""

    def __post_init__(self) -> None:
        # Outside input (deployment JSON, checkpoint manifest): unchecked, each
        # of these raises on the scoring path instead, mid-serving.
        if self.buffer_size < 1:
            raise ValueError(f"UpdateConfig.buffer_size must be positive, got {self.buffer_size}")
        if self.update_epochs < 1:
            raise ValueError(
                f"UpdateConfig.update_epochs must be positive, got {self.update_epochs}"
            )
        if not 0.0 <= self.merge_weight <= 1.0:
            raise ValueError(
                f"UpdateConfig.merge_weight must be in [0, 1], got {self.merge_weight}"
            )
        for name in ("drift_threshold", "interaction_threshold"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"UpdateConfig.{name} must be finite, got {value}")
        if self.drift_statistic not in ("cosine", "centered"):
            raise ValueError(
                f"UpdateConfig.drift_statistic must be 'cosine' or 'centered', "
                f"got {self.drift_statistic!r}"
            )


@dataclass(frozen=True)
class ServerConfig(ConfigBase):
    """HTTP ingest tier parameters (:mod:`repro.server`).

    The server is a stdlib-only front-end: JSON wire requests land in an
    admission-controlled ingest queue, a single batcher thread drains the
    queue into :meth:`repro.runtime.Runtime.ingest_many`, and detections
    stream back through a poll/long-poll endpoint.  These knobs bound the
    queue (backpressure instead of unbounded memory), the batch the runtime
    sees per drain, and the long-poll behaviour.
    """

    host: str = "127.0.0.1"
    """Interface the HTTP listener binds."""

    port: int = 0
    """TCP port; ``0`` binds an ephemeral port (tests and examples read the
    bound port back from :attr:`repro.server.RuntimeServer.port`)."""

    max_pending: int = 1024
    """Admission-control bound: wire requests accepted but not yet handed to
    the runtime.  A POST that would push the queue past this bound is refused
    whole with 429 and a ``Retry-After`` hint — admission is all-or-nothing,
    so accepted work is never silently dropped."""

    batch_max: int = 256
    """Most wire requests the batcher thread drains into one
    ``Runtime.ingest_many`` call."""

    retry_after_seconds: float = 0.5
    """The ``Retry-After`` hint returned with 429 responses — a constant,
    not a measured drain rate (see
    :class:`~repro.server.admission.AdmissionController`).  Must be positive."""

    poll_interval_ms: float = 20.0
    """How long the batcher thread waits for new work before running the
    runtime's deadline flushes (``Runtime.poll``) anyway."""

    long_poll_max_ms: float = 10_000.0
    """Cap on the ``wait_ms`` a detections long-poll may request."""

    request_max_bytes: int = 16_000_000
    """Largest accepted POST body; bigger requests are refused with 413."""

    def __post_init__(self) -> None:
        if not self.host:
            raise ValueError("ServerConfig.host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"ServerConfig.port must be in [0, 65535], got {self.port}")
        if self.max_pending < 1:
            raise ValueError(f"ServerConfig.max_pending must be positive, got {self.max_pending}")
        if self.batch_max < 1:
            raise ValueError(f"ServerConfig.batch_max must be positive, got {self.batch_max}")
        if self.retry_after_seconds <= 0:
            raise ValueError(
                f"ServerConfig.retry_after_seconds must be positive, "
                f"got {self.retry_after_seconds}"
            )
        if self.poll_interval_ms <= 0:
            raise ValueError(
                f"ServerConfig.poll_interval_ms must be positive, got {self.poll_interval_ms}"
            )
        if self.long_poll_max_ms < 0:
            raise ValueError(
                f"ServerConfig.long_poll_max_ms must be non-negative, "
                f"got {self.long_poll_max_ms}"
            )
        if self.request_max_bytes < 1:
            raise ValueError(
                f"ServerConfig.request_max_bytes must be positive, got {self.request_max_bytes}"
            )


@dataclass(frozen=True)
class DurabilityConfig(ConfigBase):
    """Durability plane parameters (:mod:`repro.durability`).

    Everything hangs off ``directory``: when set, the runtime write-ahead
    logs every ingest call before scoring it, auto-checkpoints under the
    configured policy, chains delta checkpoints with periodic compaction,
    and :meth:`repro.runtime.Runtime.recover` restores the latest checkpoint
    plus the WAL tail to the exact pre-crash state.  When ``None`` (the
    default) the runtime behaves exactly as before: manual full checkpoints
    only, no logging.
    """

    directory: str | None = None
    """Root of the durable store (``checkpoints/`` and ``wal/`` live under
    it).  ``None`` disables the whole durability plane."""

    wal: bool = True
    """Write-ahead log every ingest call (requires ``directory``).  ``False``
    keeps policy-driven checkpoints but accepts losing the segments ingested
    since the last one on a crash."""

    wal_fsync_every: int = 1
    """fsync the WAL after every Nth append call.  ``1`` (default) makes
    every ingest call durable before it is scored; larger values batch the
    fsyncs (bounded tail loss on power failure); ``0`` leaves flushing to
    the OS."""

    checkpoint_every_records: int | None = None
    """Auto-checkpoint after this many ingested submissions (``None`` = no
    record-count rule)."""

    checkpoint_every_updates: int | None = None
    """Auto-checkpoint after this many model publishes (``None`` = no
    publish-count rule)."""

    checkpoint_every_seconds: float | None = None
    """Auto-checkpoint once this much time has passed since the last one,
    measured on the runtime's injectable clock and evaluated at
    ingest/poll boundaries (``None`` = no time rule)."""

    delta: bool = True
    """Write delta checkpoints (only model versions absent from the parent
    manifest) between compactions; ``False`` makes every checkpoint full."""

    full_every: int = 8
    """Compaction period: force a full checkpoint once the delta chain would
    reach this depth (``1`` = every checkpoint is full)."""

    def __post_init__(self) -> None:
        if self.wal_fsync_every < 0:
            raise ValueError(
                f"DurabilityConfig.wal_fsync_every must be >= 0, got {self.wal_fsync_every}"
            )
        if self.checkpoint_every_records is not None and self.checkpoint_every_records < 1:
            raise ValueError(
                f"DurabilityConfig.checkpoint_every_records must be positive when set, "
                f"got {self.checkpoint_every_records}"
            )
        if self.checkpoint_every_updates is not None and self.checkpoint_every_updates < 1:
            raise ValueError(
                f"DurabilityConfig.checkpoint_every_updates must be positive when set, "
                f"got {self.checkpoint_every_updates}"
            )
        if self.checkpoint_every_seconds is not None and self.checkpoint_every_seconds <= 0:
            raise ValueError(
                f"DurabilityConfig.checkpoint_every_seconds must be positive when set, "
                f"got {self.checkpoint_every_seconds}"
            )
        if self.full_every < 1:
            raise ValueError(
                f"DurabilityConfig.full_every must be positive, got {self.full_every}"
            )
        if self.directory is None and (
            self.checkpoint_every_records is not None
            or self.checkpoint_every_updates is not None
            or self.checkpoint_every_seconds is not None
        ):
            raise ValueError(
                "DurabilityConfig checkpoint policy rules require a directory: "
                "set DurabilityConfig.directory or drop the checkpoint_every_* knobs"
            )


@dataclass(frozen=True)
class ShardingConfig(ConfigBase):
    """Load-aware shard routing and topology policy (:mod:`repro.serving.rebalance`).

    By default streams stay pinned to the CRC-32 shard they hash to for their
    whole life.  Enabling ``rebalance`` puts a
    :class:`~repro.serving.rebalance.Rebalancer` between the hash and the
    route table: *new* streams are diverted away from hot shards, and shards
    may be deterministically split under sustained backlog and merged back
    once the split shard drains.  Existing streams never move mid-flight —
    per-stream ordering is preserved; only the route a stream gets *at first
    sight* (and the explicit whole-session handoff of a merge) ever changes.
    """

    rebalance: bool = False
    """Master switch.  ``False`` keeps pure CRC-32 routing and a fixed shard
    topology — bitwise-identical to every pre-rebalancer release."""

    hot_queue_factor: float = 2.0
    """A shard counts as hot for new-stream diversion when its queue depth is
    at least ``hot_queue_factor`` times the mean depth across active shards
    (and also at least ``min_hot_depth``)."""

    min_hot_depth: int = 8
    """Absolute queue-depth floor below which a shard is never considered hot,
    so tiny workloads don't jitter routes over one-request imbalances."""

    split_queue_depth: int | None = None
    """Queue depth at which the deepest shard is split (a fresh shard is added
    and new streams start routing to it).  ``None`` disables splitting."""

    max_shards: int = 8
    """Upper bound on the shard count splits may grow the service to."""

    merge_idle_rounds: int | None = None
    """Merge a split-created shard back (handing its sessions and routes to
    the least-loaded survivor) after its queue has been empty for this many
    consecutive rebalance rounds.  ``None`` disables merging."""

    def __post_init__(self) -> None:
        if self.hot_queue_factor < 1.0:
            raise ValueError(
                f"ShardingConfig.hot_queue_factor must be >= 1, got {self.hot_queue_factor}"
            )
        if self.min_hot_depth < 1:
            raise ValueError(
                f"ShardingConfig.min_hot_depth must be positive, got {self.min_hot_depth}"
            )
        if self.split_queue_depth is not None and self.split_queue_depth < 1:
            raise ValueError(
                f"ShardingConfig.split_queue_depth must be positive when set, "
                f"got {self.split_queue_depth}"
            )
        if self.max_shards < 1:
            raise ValueError(
                f"ShardingConfig.max_shards must be positive, got {self.max_shards}"
            )
        if self.merge_idle_rounds is not None and self.merge_idle_rounds < 1:
            raise ValueError(
                f"ShardingConfig.merge_idle_rounds must be positive when set, "
                f"got {self.merge_idle_rounds}"
            )


__all__ += [
    "ServingConfig",
    "ExecutorConfig",
    "DurabilityConfig",
    "ShardingConfig",
    "UpdateConfig",
    "ServerConfig",
]

_NESTED_CONFIGS.update(
    {
        "StreamProtocol": StreamProtocol,
        "ModelConfig": ModelConfig,
        "TrainingConfig": TrainingConfig,
        "DetectionConfig": DetectionConfig,
        "ServingConfig": ServingConfig,
        "ExecutorConfig": ExecutorConfig,
        "DurabilityConfig": DurabilityConfig,
        "ShardingConfig": ShardingConfig,
        "UpdateConfig": UpdateConfig,
        "ServerConfig": ServerConfig,
    }
)
