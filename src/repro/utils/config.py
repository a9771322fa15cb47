"""Central configuration objects for the AOVLIS reproduction.

The paper fixes a number of protocol constants (64-frame segments with a
25-frame stride at 25 fps, sequence length q = 9, 400-dimensional action
features, learning rate 0.001, etc.).  Collecting them in frozen dataclasses
keeps the library, the examples and the benchmark harness consistent and makes
the choices visible to downstream users.

Validation is data.  A field declared with :func:`checked` carries its rules
in ``dataclasses.Field.metadata``, and :meth:`ConfigBase.__post_init__`
enforces them for every subclass, whether the instance comes from a
constructor, a deployment file or a checkpoint manifest:

* ``ge`` / ``gt`` / ``le`` / ``lt`` — numeric bounds, written so that NaN
  fails them; a ``bool`` is not a number here;
* ``one_of`` — membership in a collection, or in a zero-argument callable's
  result (late-bound registries such as ``repro.nn.backprop.ACTION_LOSS_GRADS``);
* ``nonempty`` — the value is truthy.

A ``None`` value skips a field's rules, and every ``float`` value must be
finite.  Errors read ``Class.field <rule>, got <value>``.  A rule that spans
fields stays a short ``__post_init__`` that calls ``super()`` first.

Retiring a key is one :data:`RETIRED` row: ``(class name, key)`` maps to a
function of the stored value that returns the fields the key becomes
(``{}`` drops it) or ``None`` to refuse the document.
:meth:`ConfigBase.from_dict` applies the table before its unknown-field
check, so old manifests keep loading.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import operator
import typing
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

__all__ = [
    "ConfigBase",
    "StreamProtocol",
    "ModelConfig",
    "TrainingConfig",
    "DetectionConfig",
]

_BOUNDS = {
    "ge": (operator.ge, ">="),
    "gt": (operator.gt, ">"),
    "le": (operator.le, "<="),
    "lt": (operator.lt, "<"),
}
RULE_KEYS = (*_BOUNDS, "one_of", "nonempty")


def checked(default: Any = dataclasses.MISSING, **rules: Any) -> Any:
    """A dataclass field whose ``rules`` :class:`ConfigBase` enforces."""
    unknown = sorted(set(rules) - set(RULE_KEYS))
    if unknown:
        raise TypeError(f"unknown config rule(s) {unknown}; valid: {list(RULE_KEYS)}")
    return dataclasses.field(default=default, metadata=rules)


def _registry(module: str, name: str) -> Callable[[], Any]:
    """Late-bound ``one_of`` options: the owning package keeps the registry."""
    return lambda: getattr(importlib.import_module(module, __package__), name)


def _violation(value: Any, rules: Mapping[str, Any]) -> Optional[str]:
    """The first rule ``value`` breaks, worded for the error message."""
    if isinstance(value, float) and not math.isfinite(value):
        return "must be finite"
    for key, bound in rules.items():
        if key in _BOUNDS:
            compare, symbol = _BOUNDS[key]
            if isinstance(value, bool) or not compare(value, bound):
                return f"must be {symbol} {bound}"
        elif key == "one_of":
            options = bound() if callable(bound) else bound
            if value not in options:
                return f"must be one of {sorted(options)}"
        elif not value:
            return "must be non-empty"
    return None


# (class name, retired key) -> the fields its value becomes ({} drops it) or None (refused).
RETIRED: Dict[Tuple[str, str], Callable[[Any], Optional[Dict[str, Any]]]] = {
    # true named the fused engine, now the only one; a false run trained on
    # the retired tape's trajectory, which can no longer be resumed.
    ("TrainingConfig", "use_fused"): lambda value: {} if value is True else None,
    # Never read: the grouping is adg_subspaces.
    ("DetectionConfig", "adg_groups"): lambda value: {},
    # "auto" and "numpy" named the NumPy kernels, now the only ones.
    ("ModelConfig", "backend"): lambda value: {} if value in ("auto", "numpy") else None,
    # true is the chaining full_every governs; false made every checkpoint full.
    ("DurabilityConfig", "delta"): lambda value: {} if value else {"full_every": 1},
    # The process pool's start method; the pool is gone.
    ("ExecutorConfig", "start_method"): lambda value: {},
    # "process" scored in worker interpreters, bitwise equal to the threads.
    ("ExecutorConfig", "mode"): lambda value: {
        "mode": "parallel" if value == "process" else value
    },
}


class ConfigBase:
    """Rule enforcement and dict/JSON round-trip for every configuration dataclass.

    ``from_dict`` is the strict inverse of ``to_dict``: retired keys go
    through :data:`RETIRED`, and unknown fields and wrong types raise a
    :class:`ValueError` that names the offending ``Class.field``, so a typo
    in a deployment file fails loudly instead of being silently dropped.
    ``to_json``/``from_json`` layer a reviewable file format on top (nested
    configuration dataclasses round-trip recursively).
    """

    def __post_init__(self) -> None:
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if value is None:
                continue
            problem = _violation(value, spec.metadata)
            if problem is not None:
                raise ValueError(f"{type(self).__name__}.{spec.name} {problem}, got {value!r}")

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
        data = dict(data)
        for key in [key for key in data if (cls.__name__, key) in RETIRED]:
            value = data.pop(key)
            replacement = RETIRED[cls.__name__, key](value)
            if replacement is None:
                raise ValueError(f"{cls.__name__}.{key} is retired, got {value!r}")
            data.update(replacement)
        known = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(
                f"{cls.__name__}: unknown field(s) {unknown}; "
                f"valid fields: {sorted(known)}"
            )
        hints = typing.get_type_hints(cls)
        kwargs = {
            name: _coerce_field(cls.__name__, known[name], hints[name], value)
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


def _coerce_field(owner: str, spec: dataclasses.Field, hint: Any, value: Any) -> Any:
    """Validate/convert one ``from_dict`` value against the field's resolved
    type hint, naming the field on error."""
    # Nested configuration sections recurse through their own from_dict.
    if isinstance(hint, type) and issubclass(hint, ConfigBase):
        return value if isinstance(value, hint) else hint.from_dict(value)
    allowed = typing.get_args(hint) or (hint,)
    numeric = float in allowed
    if numeric:  # JSON writes 5.0 as 5
        allowed += (int,)
    # bool is an int subclass; reject it explicitly for numeric fields.
    if (isinstance(value, bool) and bool not in allowed) or not isinstance(value, allowed):
        raise ValueError(f"{owner}.{spec.name}: expected {spec.type}, got {value!r}")
    return float(value) if numeric and value is not None else value


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


@dataclass(frozen=True)
class ModelConfig(ConfigBase):
    """Dimensions of the CLSTM model and its feature inputs."""

    action_dim: int = checked(400, ge=1)
    """Dimensionality d1 of the (simulated) ResNet50-I3D action feature."""

    interaction_dim: int = checked(32, ge=1)
    """Dimensionality d2 of the audience-interaction feature."""

    action_hidden: int = checked(128, ge=1)
    """Hidden size h1 of LSTM_I."""

    interaction_hidden: int = checked(32, ge=1)
    """Hidden size h2 of LSTM_A."""

    precision: str = checked("float64", one_of=_registry("..nn.backend", "PRECISIONS"))
    """Compute precision of fused inference: 'float64' (default, bitwise
    reference) or 'float32' (opt-in, tolerance-bounded against float64;
    weights and threshold calibration stay float64 either way)."""


@dataclass(frozen=True)
class TrainingConfig(ConfigBase):
    """CLSTM training hyper-parameters (Section IV-B3 and VI-A)."""

    learning_rate: float = checked(0.001, gt=0)
    epochs: int = checked(100, ge=1)
    batch_size: int = checked(32, ge=1)
    omega: float = checked(0.8, ge=0, le=1)
    """Weight of the action branch (its error RE_I) in the loss and the REIA score."""

    action_loss: str = checked("js", one_of=_registry("..nn.backprop", "ACTION_LOSS_GRADS"))
    """Reconstruction loss for the action branch: 'js' (default), 'kl', 'l2' or 'mse'."""

    gradient_clip: float = checked(5.0, ge=0)
    validation_fraction: float = checked(0.25, gt=0, lt=1)
    """Paper splits normal segments 75% train / 25% validation."""

    checkpoint_every: int = checked(50, ge=1)
    """Paper saves the model every 50 epochs and keeps the best validation model."""

    seed: int = 0

    tbptt_window: int | None = checked(None, ge=1)
    """Truncated-BPTT window K for streaming updates: the backward sweep only
    covers the last K timesteps (exact full BPTT when sequences fit inside
    the window), making incremental retrains O(window) instead of O(history).
    ``None`` (default) runs full BPTT."""


@dataclass(frozen=True)
class DetectionConfig(ConfigBase):
    """Anomaly identification and ADOS filtering parameters (Sections IV-C, V)."""

    omega: float = checked(0.8, ge=0, le=1)
    """Weight of the action branch (its error RE_I) in the REIA score (Eq. 16)."""

    threshold: float | None = None
    """Anomaly-score threshold tau; ``None`` selects it from training scores."""

    normal_threshold_ratio: float = checked(0.7, gt=0, le=1)
    """Paper sets T_n = 0.7 * T_a for the bound-based filtering."""

    adg_subspaces: int = checked(20, ge=1)
    """Number n of ADG value-partition subspaces (Table II)."""

    sparse_groups: int = checked(10, ge=0)
    """N_sg: number of sparsest groups evaluated exactly (Fig. 12c)."""

    trigger_low: float = 1.6
    """ADOS threshold T1 (Fig. 12a optimum for INF/TWI)."""

    trigger_high: float = 0.5
    """ADOS threshold T2 (Fig. 12b optimum)."""

    top_k: int | None = checked(None, ge=1)
    """Alternative to a threshold: report the top-k scoring segments."""


@dataclass(frozen=True)
class ServingConfig(ConfigBase):
    """Online serving-runtime parameters (sharded micro-batching scorer)."""

    max_batch_size: int = checked(64, ge=1)
    """Micro-batch capacity of each shard's scheduler."""

    max_batch_delay_ms: float | None = checked(None, ge=0)
    """Wall-clock flush deadline: a partial batch is scored once its oldest
    queued request has waited this long.  ``None`` keeps the count-based
    flush only (the caller controls latency by flushing explicitly).  Behind
    the HTTP tier a third rule applies: once the batcher thread has ingested
    everything admitted, a batch at least half full is scored without
    waiting for the fill or this deadline (:class:`~repro.server.RuntimeServer`)."""

    num_shards: int = checked(1, ge=1)
    """Number of scoring shards a shared model registry is served across.
    Ignored when one registry per shard is passed explicitly."""

    max_queue_depth: int | None = None
    """Per-shard bound on queued-but-unscored requests.  When set, a shard's
    micro-batch queue refuses further submissions once this many requests are
    waiting (:class:`~repro.serving.microbatch.QueueFull`), so a stalled
    scorer surfaces as backpressure instead of unbounded memory growth.
    ``None`` keeps the historical unbounded queue."""

    latency_reservoir: int = checked(512, ge=1)
    """Size of each shard's bounded flush-to-score latency reservoir: the most
    recent ``latency_reservoir`` per-batch latencies (oldest queued arrival →
    scored, in milliseconds) back the p50/p95/p99 percentiles that
    :meth:`~repro.serving.service.ScoringService.load_stats` and the HTTP
    ``/stats`` endpoint report."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_queue_depth is not None and not self.max_queue_depth >= self.max_batch_size:
            raise ValueError(
                f"ServingConfig.max_queue_depth must be >= max_batch_size "
                f"({self.max_batch_size}) when set, got {self.max_queue_depth!r}"
            )


@dataclass(frozen=True)
class ExecutorConfig(ConfigBase):
    """Execution strategy of the serving runtime (thread-parallel scoring).

    Selects how :class:`~repro.serving.ShardedScoringService` runs its shard
    work and where incremental retrains execute.  The default is the serial
    in-line path, which is bit-for-bit identical to a runtime with no executor
    at all; ``mode="parallel"`` fans ready shard batches out to a worker
    thread pool (NumPy's BLAS kernels release the GIL, so fused forwards of
    different shards genuinely overlap).  Every scoring runs in this one
    process.
    """

    mode: str = checked("auto", one_of=("auto", "serial", "parallel"))
    """``"serial"``, ``"parallel"``, or ``"auto"`` — auto resolves from the
    ``REPRO_EXECUTOR`` environment variable (unset → serial), which is how CI
    runs the whole fast suite once under the thread executor."""

    workers: int | None = checked(None, ge=1)
    """Thread pool size for ``mode="parallel"``; ``None`` derives it from the
    CPU count.  ``workers=1`` is bitwise-identical to serial."""

    background_updates: bool = False
    """Run incremental retrains on a maintenance thread instead of inside the
    scoring path: scoring continues against the pinned snapshot while the
    retrain runs, and the publish lands at a later micro-batch boundary.
    Trades the serial path's deterministic swap timing for latency isolation."""


@dataclass(frozen=True)
class UpdateConfig(ConfigBase):
    """Dynamic model-update parameters (Section IV-D)."""

    buffer_size: int = checked(300, ge=1)
    """Maximal length l_s of the incoming hidden-state buffer (paper optimum)."""

    drift_threshold: float = 0.4
    """Similarity threshold tau_u below which an update is triggered."""

    drift_statistic: str = checked("cosine", one_of=("cosine", "centered"))
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
    mean of every normalised interaction level the drift monitor observed
    before the current micro-batch — frozen for the batch and never reset on
    publish, so which segments are buffered depends on batch boundaries
    (:class:`~repro.serving.service.DriftMonitor`)."""

    update_epochs: int = checked(20, ge=1)
    """Epochs used when training the incremental model on buffered segments."""

    merge_weight: float = checked(0.5, ge=0, le=1)
    """Interpolation weight applied to the new model when merging with the old."""


@dataclass(frozen=True)
class ServerConfig(ConfigBase):
    """HTTP ingest tier parameters (:mod:`repro.server`).

    The server is a stdlib-only front-end: each JSON wire request lands in an
    admission-controlled ingest queue as one tick, a single batcher thread
    drains the queue into :meth:`repro.runtime.Runtime.ingest_many`, and detections
    stream back through a poll/long-poll endpoint.  These knobs bound the
    queue (backpressure instead of unbounded memory), the batch the runtime
    sees per drain, and the long-poll behaviour.
    """

    host: str = checked("127.0.0.1", nonempty=True)
    """Interface the HTTP listener binds."""

    port: int = checked(0, ge=0, le=65535)
    """TCP port; ``0`` binds an ephemeral port (tests and examples read the
    bound port back from :attr:`repro.server.RuntimeServer.port`)."""

    max_pending: int = checked(1024, ge=1)
    """Admission-control bound: segments accepted but not yet handed to the
    runtime.  A POST that would push the queue past this bound is refused
    whole with 429 and a ``Retry-After`` hint — admission is all-or-nothing,
    so accepted work is never silently dropped.  A POST carrying more
    segments than the bound itself can never fit and is refused with 413."""

    batch_max: int = checked(256, ge=1)
    """Most segments the batcher thread drains into one
    ``Runtime.ingest_many`` call.  It takes whole requests and cuts one
    larger than this into consecutive calls; keep it within the runtime's
    ``ServingConfig.max_queue_depth``."""

    retry_after_seconds: float = checked(0.5, gt=0)
    """The ``Retry-After`` hint returned with 429 responses — a constant,
    not a measured drain rate (see
    :class:`~repro.server.admission.AdmissionController`).  Must be positive."""

    poll_interval_ms: float = checked(20.0, gt=0)
    """How long the batcher thread waits for new work before running the
    runtime's deadline flushes (``Runtime.poll``) anyway."""

    long_poll_max_ms: float = checked(10_000.0, ge=0)
    """Cap on the ``wait_ms`` a detections long-poll may request."""

    request_max_bytes: int = checked(16_000_000, ge=1)
    """Largest accepted POST body; bigger requests are refused with 413."""


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

    wal_fsync_every: int = checked(1, ge=0)
    """fsync the WAL after every Nth append call.  ``1`` (default) makes
    every ingest call durable before it is scored; larger values batch the
    fsyncs (bounded tail loss on power failure); ``0`` leaves flushing to
    the OS."""

    checkpoint_every_records: int | None = checked(None, ge=1)
    """Auto-checkpoint after this many ingested submissions (``None`` = no
    record-count rule)."""

    checkpoint_every_updates: int | None = checked(None, ge=1)
    """Auto-checkpoint after this many model publishes (``None`` = no
    publish-count rule)."""

    checkpoint_every_seconds: float | None = checked(None, gt=0)
    """Auto-checkpoint once this much time has passed since the last one,
    measured on the runtime's injectable clock and evaluated at
    ingest/poll boundaries (``None`` = no time rule)."""

    full_every: int = checked(8, ge=1)
    """Compaction period: between full checkpoints, write delta checkpoints
    (only model versions absent from the parent manifest) and force a full
    one once the delta chain would reach this depth (``1`` = every
    checkpoint is full)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.directory is None and (
            self.checkpoint_every_records is not None
            or self.checkpoint_every_updates is not None
            or self.checkpoint_every_seconds is not None
        ):
            raise ValueError(
                "DurabilityConfig.directory must be set: checkpoint policy rules "
                "require a directory (or drop the checkpoint_every_* knobs), got None"
            )


@dataclass(frozen=True)
class ShardingConfig(ConfigBase):
    """Load-aware shard routing and topology policy (:mod:`repro.serving.rebalance`).

    By default a new stream is pinned, for its whole life, to the active
    shard holding the fewest pinned routes.  Enabling ``rebalance`` puts a
    :class:`~repro.serving.rebalance.Rebalancer` between that placement and
    the route table: *new* streams are diverted away from hot shards, and
    shards may be deterministically split under sustained backlog and merged
    back once the split shard drains.  Existing streams never move
    mid-flight — per-stream ordering is preserved; only the route a stream
    gets *at first sight* (and the explicit whole-session handoff of a
    merge) ever changes.
    """

    rebalance: bool = False
    """Master switch.  ``False`` keeps the fewest-routes placement alone and a
    fixed shard topology: no diversion, split or merge ever happens."""

    hot_queue_factor: float = checked(2.0, ge=1)
    """A shard counts as hot for new-stream diversion when its queue depth is
    at least ``hot_queue_factor`` times the mean depth across active shards
    (and also at least ``min_hot_depth``)."""

    min_hot_depth: int = checked(8, ge=1)
    """Absolute queue-depth floor below which a shard is never considered hot,
    so tiny workloads don't jitter routes over one-request imbalances."""

    split_queue_depth: int | None = checked(None, ge=1)
    """Queue depth at which the deepest shard is split (a fresh shard is added
    and new streams start routing to it).  ``None`` disables splitting."""

    max_shards: int = checked(8, ge=1)
    """Upper bound on the shard count splits may grow the service to."""

    merge_idle_rounds: int | None = checked(None, ge=1)
    """Merge a split-created shard back (handing its sessions and routes to
    the least-loaded survivor) after its queue has been empty for this many
    consecutive rebalance rounds.  ``None`` disables merging."""


__all__ += [
    "ServingConfig",
    "ExecutorConfig",
    "DurabilityConfig",
    "ShardingConfig",
    "UpdateConfig",
    "ServerConfig",
]
