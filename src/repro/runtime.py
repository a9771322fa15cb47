"""Unified runtime facade: declarative config, one-call lifecycle, durable
checkpoint/restore.

The paper's system is one closed loop — ingest → CLSTM/REIA scoring →
drift-triggered incremental update → hot swap — but the library exposes it as
many loose classes that every deployment must wire by hand.  This module is
the assembled product:

* :class:`RuntimeConfig` composes the five configuration dataclasses
  (:class:`~repro.utils.config.ModelConfig`,
  :class:`~repro.utils.config.TrainingConfig`,
  :class:`~repro.utils.config.DetectionConfig`,
  :class:`~repro.utils.config.ServingConfig`,
  :class:`~repro.utils.config.UpdateConfig`) plus the runtime-level knobs,
  and round-trips through JSON — a deployment is one reviewable file.
* :class:`Runtime` owns the whole pipeline behind a small lifecycle surface:
  ``fit`` trains the CLSTM and calibrates the detector, publishing version 1
  into a :class:`~repro.serving.registry.ModelRegistry`; ``ingest``/``poll``/
  ``drain`` drive the (optionally sharded) micro-batching scoring service,
  whose attached update planes keep the model fresh; ``checkpoint`` persists
  the full runtime — every retained model version's weights via
  :mod:`repro.nn.serialization`, detector calibration, the version pointer,
  per-stream session windows, the drift monitor and queued requests — so
  :meth:`Runtime.from_checkpoint` resumes with **bitwise-identical**
  detections on a replayed stream (the crash-recovery contract).

Every class the facade builds on stays importable — ``repro.serving`` and
friends are the escape hatch for deployments the facade does not model
(e.g. one registry per shard; see ``examples/multi_stream_serving.py``).
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .core.clstm import CLSTM
from .core.detector import AnomalyDetector
from .core.training import CLSTMTrainer, TrainingHistory
from .durability.checkpoints import CheckpointStore, DeltaSourceError, StoredCheckpoint
from .durability.policy import CheckpointPolicy
from .durability.wal import WalPosition, WriteAheadLog, list_segments, read_tail
from .features.pipeline import StreamFeatures
from .nn.serialization import load_state, save_module, save_state
from .serving.executor import build_executor
from .serving.maintenance import UpdateReport
from .serving.registry import ModelRegistry
from .serving.service import (
    ManualClock,
    ServiceStats,
    ShardStats,
    StreamDetection,
    UpdateTrigger,
    replay_streams,
    validate_interaction_level,
)
from .serving.rebalance import Rebalancer
from .serving.sharding import ShardedScoringService
from .utils.config import (
    _NESTED_CONFIGS,
    ConfigBase,
    DetectionConfig,
    DurabilityConfig,
    ExecutorConfig,
    ModelConfig,
    ServerConfig,
    ServingConfig,
    ShardingConfig,
    TrainingConfig,
    UpdateConfig,
)

__all__ = ["RuntimeConfig", "Runtime", "CHECKPOINT_FORMAT"]

CHECKPOINT_FORMAT = 3
"""Version tag written into every checkpoint manifest.

Format 3 added the durability plane's fields: ``kind`` (``"full"`` |
``"delta"``), ``checkpoint_id``/``parent``/``delta_depth`` (the delta chain)
and ``wal`` (the write-ahead-log position to replay from) — plus per-version
``source`` entries pointing at the sibling checkpoint that physically holds
a delta's reused weight files.  Format 2 added ``plane_pending``
(queued-but-not-started background retrains, persisted instead of
force-executed at checkpoint time) and the manifest's ``pending_updates``
count; formats 1 and 2 — full checkpoints with no chain and no WAL — are
still readable."""

_READABLE_FORMATS = (1, 2, 3)

_MANIFEST_FILE = "runtime.json"
_STATE_FILE = "state.npz"


def _fsync_path(path: Path) -> None:
    """fsync one file or directory (directories hold the entry names)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass(frozen=True)
class RuntimeConfig(ConfigBase):
    """Declarative description of one complete AOVLIS deployment.

    Composes the five component configurations and adds the knobs that only
    exist at the assembled-system level.  ``to_json``/``from_json`` (from
    :class:`~repro.utils.config.ConfigBase`) make a deployment one reviewable
    JSON document; nested sections round-trip recursively and typos fail with
    the offending ``Class.field`` named.
    """

    model: ModelConfig = ModelConfig()
    """CLSTM dimensions.  ``action_dim``/``interaction_dim`` must match the
    features the runtime is fitted on (validated in :meth:`Runtime.fit`)."""

    training: TrainingConfig = TrainingConfig()
    detection: DetectionConfig = DetectionConfig()
    serving: ServingConfig = ServingConfig()
    update: UpdateConfig = UpdateConfig()

    executor: ExecutorConfig = ExecutorConfig()
    """Execution strategy: serial in-line scoring (default), or a
    worker-thread pool for shard batches (``mode="parallel"``) with optional
    off-thread retrains (``background_updates=True``).  ``mode="auto"``
    resolves through the ``REPRO_EXECUTOR`` environment variable."""

    server: ServerConfig = ServerConfig()
    """HTTP ingest tier parameters consumed by :meth:`Runtime.serve`
    (bind address, admission-control queue bound, batch/long-poll knobs)."""

    durability: DurabilityConfig = DurabilityConfig()
    """Durability plane (:mod:`repro.durability`): set ``directory`` and the
    runtime write-ahead logs every ingest call, auto-checkpoints under the
    configured policy (delta checkpoints with periodic compaction), and
    :meth:`Runtime.recover` resumes the exact pre-crash state.  The default
    (no directory) keeps the historical manual-checkpoint behaviour."""

    sharding: ShardingConfig = ShardingConfig()
    """Load-rebalancing policy over the shard set.  ``rebalance=True``
    attaches a :class:`~repro.serving.rebalance.Rebalancer` that diverts
    *new* streams away from hot shards and splits/merges shards under the
    configured queue-depth thresholds; the default keeps pure pinned
    CRC-32 routing, bit-for-bit the pre-rebalancer behaviour."""

    sequence_length: int = 9
    """History length q of the CLSTM input sequences."""

    coupling: str = "both"
    """CLSTM coupling mode: ``"both"``, ``"influencer_to_audience"`` or ``"none"``."""

    seed: int = 0
    """Model-initialisation seed."""

    max_versions: int | None = None
    """Keep-last-K bound on retained registry snapshots (``None`` = all)."""

    enable_updates: bool = True
    """Attach the drift monitor and update plane (the closed learning loop).
    ``False`` serves a frozen model: no buffering, no triggers, no swaps."""

    max_history: int | None = None
    """Per-shard cap on the drift monitor's historical hidden-state set."""

    def __post_init__(self) -> None:
        if self.sequence_length < 1:
            raise ValueError(
                f"RuntimeConfig.sequence_length must be positive, got {self.sequence_length}"
            )
        if self.coupling not in ("both", "influencer_to_audience", "none"):
            raise ValueError(
                f"RuntimeConfig.coupling must be 'both', 'influencer_to_audience' "
                f"or 'none', got {self.coupling!r}"
            )
        if self.max_versions is not None and self.max_versions < 1:
            raise ValueError(
                f"RuntimeConfig.max_versions must be positive when set, got {self.max_versions}"
            )
        if self.max_history is not None and self.max_history < 1:
            raise ValueError(
                f"RuntimeConfig.max_history must be positive when set, got {self.max_history}"
            )
        if self.detection.top_k is not None:
            raise ValueError(
                "RuntimeConfig.detection.top_k must be unset: top-k ranking is "
                "batch-relative and incompatible with the serving runtime"
            )


_NESTED_CONFIGS["RuntimeConfig"] = RuntimeConfig


class Runtime:
    """One-call lifecycle over the assembled online-learning system.

    ::

        cfg = RuntimeConfig.from_json("deployment.json")
        rt = Runtime.from_config(cfg).fit(train_features)
        rt.ingest("stream-1", action, interaction, level)   # -> detections
        rt.poll()                                           # deadline flushes
        rt.drain()                                          # drain all queues
        rt.checkpoint("ckpt/")                              # durable state
        rt2 = Runtime.from_checkpoint("ckpt/")              # bitwise resume

    Parameters
    ----------
    config:
        The deployment description.
    clock:
        Monotonic time source for the wall-clock flush deadlines; tests and
        replay drivers inject a :class:`~repro.serving.service.ManualClock`.
    """

    def __init__(self, config: RuntimeConfig, *, clock: Optional[Callable[[], float]] = None) -> None:
        self.config = config
        self._clock = clock
        self.registry: Optional[ModelRegistry] = None
        self.service: Optional[ShardedScoringService] = None
        self.history: Optional[TrainingHistory] = None
        self._server = None  # RuntimeServer started via serve()
        self._closed = False
        # Durability plane (attached by fit()/from_checkpoint() when
        # config.durability.directory is set; None otherwise).  The lock
        # serialises ingest against checkpointing: the WAL is the ingest
        # order, so append+score must be atomic with respect to the
        # rotation+export cut a checkpoint takes.
        self._durability_lock = threading.RLock()
        self._store: Optional[CheckpointStore] = None
        self._wal: Optional[WriteAheadLog] = None
        self._policy: Optional[CheckpointPolicy] = None
        self._replayed_records = 0
        self._replayed_torn = 0
        self._last_seen_published = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(
        cls, config: RuntimeConfig, *, clock: Optional[Callable[[], float]] = None
    ) -> "Runtime":
        """An unfitted runtime for ``config``; call :meth:`fit` next."""
        return cls(config, clock=clock)

    @property
    def fitted(self) -> bool:
        return self.service is not None

    # ------------------------------------------------------------------ #
    # Lifecycle: fit
    # ------------------------------------------------------------------ #
    def fit(self, features: StreamFeatures) -> "Runtime":
        """Train, calibrate and stand the serving runtime up (version 1).

        Trains the CLSTM on the normal segments of ``features``, calibrates
        the anomaly threshold ``T_a``, publishes version 1 into the model
        registry, seeds the drift monitor's historical hidden-state set with
        the training hidden states, and builds the sharded scoring service
        (with attached update planes when ``enable_updates``).
        """
        self._require_open()
        if self.fitted:
            raise RuntimeError("runtime is already fitted; build a new Runtime to refit")
        config = self.config
        if features.action_dim != config.model.action_dim:
            raise ValueError(
                f"features have action_dim={features.action_dim} but "
                f"RuntimeConfig.model.action_dim={config.model.action_dim}"
            )
        if features.interaction_dim != config.model.interaction_dim:
            raise ValueError(
                f"features have interaction_dim={features.interaction_dim} but "
                f"RuntimeConfig.model.interaction_dim={config.model.interaction_dim}"
            )
        model = CLSTM.from_config(config.model, coupling=config.coupling, seed=config.seed)
        batch = features.sequences(config.sequence_length)
        labels = features.sequence_labels(config.sequence_length)
        normal = batch.subset(labels == 0)
        anomalous = batch.subset(labels == 1)
        if len(normal) == 0:
            raise ValueError("training stream contains no normal sequences")
        trainer = CLSTMTrainer(model, config.training)
        self.history = trainer.fit(
            normal, anomalous_sequences=anomalous if len(anomalous) else None
        )
        detector = AnomalyDetector(model, config.detection)
        threshold = detector.calibrate(normal)

        self.registry = ModelRegistry(config.detection, max_versions=config.max_versions)
        # The runtime owns the trained model, so the registry adopts it
        # directly (copy=False) instead of paying one more parameter copy.
        self.registry.publish(model, threshold, reason="initial", copy=False)
        historical = model.hidden_states(batch.action_sequences, batch.interaction_sequences)
        self._build_service(historical_hidden=historical)
        self._attach_durability()
        return self

    def _build_service(
        self,
        historical_hidden: Optional[np.ndarray],
        num_shards: Optional[int] = None,
    ) -> None:
        config = self.config
        serving = config.serving
        if num_shards is not None and num_shards != serving.num_shards:
            # Restoring a checkpoint taken after rebalancer splits: the live
            # topology (not the configured base count) is what the routes
            # and per-shard states were written against.
            serving = replace(serving, num_shards=int(num_shards))
        rebalancer = (
            Rebalancer(config.sharding, clock=self._clock)
            if config.sharding.rebalance
            else None
        )
        self.service = ShardedScoringService(
            self.registry,
            config=serving,
            sequence_length=config.sequence_length,
            update_config=config.update if config.enable_updates else None,
            attach_update_planes=config.enable_updates,
            training_config=config.training,
            historical_hidden=historical_hidden,
            max_history=config.max_history,
            clock=self._clock,
            executor=build_executor(config.executor),
            background_updates=config.executor.background_updates and config.enable_updates,
            rebalancer=rebalancer,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle: serve
    # ------------------------------------------------------------------ #
    def ingest(
        self,
        stream_id: str,
        action_feature: np.ndarray,
        interaction_feature: np.ndarray,
        interaction_level: Optional[float] = None,
    ) -> List[StreamDetection]:
        """Feed one incoming segment of one stream into the runtime.

        ``interaction_level`` must be finite when given; ``None`` (the
        default) is the explicit "unknown" opt-in that excludes the segment
        from drift tracking.  Non-finite values raise at the ingest boundary.

        Returns the detections produced by any micro-batch this submission
        completed (usually for *earlier* segments — the latency/throughput
        trade of micro-batching; :meth:`drain` flushes the rest).

        With durability attached the submission is validated and appended to
        the write-ahead log *before* it is scored (write-ahead ordering:
        anything that changed the runtime's state is on disk), and durable
        ingest is serialised — the log is the ingest order.
        """
        self._require_serving()
        if self._store is None:
            return self.service.submit(
                stream_id, action_feature, interaction_feature, interaction_level
            )
        (cleaned,) = self._validate_submissions(
            [(stream_id, action_feature, interaction_feature, interaction_level)]
        )
        with self._durability_lock:
            if self._wal is not None:
                self._wal.append([cleaned], batch=False)
            # Invariant: past _validate_submissions, submit() must not raise —
            # the WAL record above is already durable, and a logged-but-never-
            # scored submission would replay into state the original run never
            # had.  Anything that can reject a submission belongs in
            # _validate_submissions, before the append.
            detections = self.service.submit(*cleaned)
            if self._policy is not None:
                self._policy.note_records(1)
        self._maybe_auto_checkpoint()
        return detections

    def ingest_many(self, submissions) -> List[StreamDetection]:
        """Feed one tick of segments from many streams, then score once.

        ``submissions`` is an iterable of ``(stream_id, action_feature,
        interaction_feature[, interaction_level])`` tuples.  Under a parallel
        executor this is the high-throughput ingest path: batches that fill
        on different shards in the same tick are scored concurrently.  With
        durability attached the whole tick is one WAL record (replay must
        re-drive the micro-batcher with the same call shape).
        """
        self._require_serving()
        if self._store is None:
            return self.service.submit_many(submissions)
        cleaned = self._validate_submissions(submissions)
        with self._durability_lock:
            if self._wal is not None and cleaned:
                self._wal.append(cleaned, batch=True)
            # Same invariant as ingest(): the tick is durable, so submit_many
            # must not raise past validation (see _validate_submissions).
            detections = self.service.submit_many(cleaned)
            if self._policy is not None:
                self._policy.note_records(len(cleaned))
        self._maybe_auto_checkpoint()
        return detections

    def poll(self) -> List[StreamDetection]:
        """Flush micro-batches whose wall-clock deadline has passed.

        Also the heartbeat of the time-based auto-checkpoint rule: a policy
        with ``checkpoint_every_seconds`` fires at the next ingest or poll
        after the interval elapses.
        """
        self._require_serving()
        if self._store is None:
            return self.service.poll()
        with self._durability_lock:
            detections = self.service.poll()
        self._maybe_auto_checkpoint()
        return detections

    def drain(self) -> List[StreamDetection]:
        """Score everything queued and wait for in-flight maintenance work.

        Deadline-expired batches flush first (with the boundaries a running
        service would have given them), then every remaining under-filled
        batch; background retrains the final batches trigger are awaited, so
        after ``drain()`` the runtime is fully idle.
        """
        self._require_serving()
        if self._store is None:
            return self.service.drain()
        with self._durability_lock:
            return self.service.drain()

    def replay(
        self,
        streams: Mapping[str, StreamFeatures],
        *,
        interarrival_seconds: float = 0.0,
        flush: bool = True,
    ) -> List[StreamDetection]:
        """Replay whole feature streams through the runtime (round-robin).

        Convenience over :func:`repro.serving.replay_streams`; when the
        runtime was built with a :class:`ManualClock`, simulated time advances
        by ``interarrival_seconds`` per round and deadline flushes run.
        """
        self._require_serving()
        clock = self._clock if isinstance(self._clock, ManualClock) else None
        return replay_streams(
            self.service,
            streams,
            flush=flush,
            clock=clock,
            interarrival_seconds=interarrival_seconds,
        )

    def detections(self, stream_id: str, start: int = 0) -> List[StreamDetection]:
        """The detections routed to ``stream_id`` since fit/restore, from
        position ``start`` on.  A read: an unknown id yields ``[]`` and
        creates no route or session."""
        self._require_serving()
        return self.service.detections(stream_id, start)

    def serve(self, *, start: bool = True):
        """Put this runtime behind the HTTP ingest tier.

        Builds a :class:`~repro.server.RuntimeServer` from
        ``config.server`` (single-tenant: wire stream ids pass through
        verbatim) and — unless ``start=False`` — binds the socket and starts
        serving.  The runtime owns the server: :meth:`close` shuts it down
        first, so admitted-but-unscored segments are flushed into the
        runtime before the final drain.  For multi-tenant deployments build
        the server around a :class:`~repro.server.TenantRouter` directly.
        """
        self._require_serving()
        if self._server is not None:
            raise RuntimeError("runtime is already serving; close() it first")
        from .server import RuntimeServer  # deferred: repro.server imports us

        server = RuntimeServer(self, config=self.config.server)
        self._server = server
        if start:
            server.start()
        return server

    def close(self) -> List[StreamDetection]:
        """Drain outstanding work, stop threads, stop accepting traffic.

        Returns the final drain's detections.  Shuts the HTTP server down
        first (when :meth:`serve` started one) so every admitted segment
        reaches the runtime, then drains, then stops the executor pool and
        any maintenance threads.  Idempotent; a closed runtime can still be
        inspected and checkpointed, but not fed.
        """
        if self._closed:
            return []
        if self._server is not None:
            self._server.close()
            self._server = None
        final: List[StreamDetection] = []
        if self.fitted:
            final = self.service.drain()
            self.service.close()
        if self._wal is not None:
            self._wal.close()
        self._closed = True
        return final

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def model(self) -> Optional[CLSTM]:
        """The currently *published* snapshot's model (None before fit).

        Tracks the registry: after an in-service incremental update this is
        the merged model actually serving traffic, not the initial fit.
        """
        if self.registry is None or len(self.registry) == 0:
            return None
        return self.registry.latest().model

    @property
    def detector(self) -> AnomalyDetector:
        """The currently published snapshot's detector."""
        self._require_fitted()
        return self.registry.latest().detector

    @property
    def anomaly_threshold(self) -> float:
        """The currently served anomaly threshold ``T_a``."""
        self._require_fitted()
        return self.registry.latest().threshold

    @property
    def model_version(self) -> int:
        """Version number of the currently published snapshot."""
        self._require_fitted()
        return self.registry.latest().version

    @property
    def stats(self) -> ServiceStats:
        """Aggregate serving counters across all shards."""
        self._require_serving_built()
        return self.service.stats

    def load_stats(self) -> List[ShardStats]:
        """One consistent per-shard load sample (queue depth, occupancy...)."""
        self._require_serving_built()
        return self.service.load_stats()

    def executor_stats(self) -> Dict[str, Any]:
        """JSON-safe executor introspection (shared segments, workers...)."""
        self._require_serving_built()
        return self.service.executor_stats()

    def rebalance_stats(self) -> Dict[str, Any]:
        """JSON-safe rebalancing summary (decision log, retired shards)."""
        self._require_serving_built()
        return self.service.rebalance_stats()

    @property
    def update_triggers(self) -> List[UpdateTrigger]:
        """Every drift trigger emitted since fit/restore."""
        self._require_serving_built()
        return self.service.update_triggers

    @property
    def update_reports(self) -> List[UpdateReport]:
        """Every completed in-service incremental update since fit/restore."""
        self._require_serving_built()
        return self.service.update_reports

    # ------------------------------------------------------------------ #
    # Durable checkpoint / restore
    # ------------------------------------------------------------------ #
    def checkpoint(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Persist the full runtime into the directory ``path``.

        Without a ``path`` (durability attached) the checkpoint goes into the
        durable store: a *delta* checkpoint chained on the store's latest —
        only model versions absent from the parent manifest are rewritten —
        compacted back to a full checkpoint every
        ``durability.full_every`` checkpoints, with dead directories and WAL
        segments pruned once the new checkpoint is durable.  With an explicit
        ``path`` the checkpoint is always full and self-contained (the
        historical behaviour); a durable runtime still rotates its WAL and
        records the position, so :meth:`from_checkpoint` replays the tail.

        Layout: ``runtime.json`` (config, registry manifest, version
        pointer), one ``version_<n>.npz`` per retained registry snapshot
        (weights via :func:`repro.nn.serialization.save_module`) and
        ``state.npz`` (session windows, drift monitor, queued requests).
        Only *retained* snapshots are persisted — with ``max_versions`` set,
        evicted versions are gone by design, and a checkpoint taken
        mid-update (e.g. from an ``on_update_trigger`` callback) never
        references one.  Detections, triggers and serving counters are
        reporting, not behaviour, and are not persisted.

        The write is crash-safe: everything lands in a staging directory
        that is swapped over ``path`` only once complete, so re-checkpointing
        to the same location (the periodic-checkpoint pattern) can never
        leave a readable-but-inconsistent mix of old and new files — a crash
        leaves either the previous checkpoint or, in the narrow window
        between the two renames, no checkpoint (which fails loudly).

        In-flight maintenance work is *paused*, not drained: the service
        pauses its background update planes (waiting only for the retrain
        already running, if any), exports state — including the queue of
        not-yet-started retrains — and resumes.  A restored runtime
        re-enqueues that queue, so queued maintenance work survives the
        process instead of being force-executed at checkpoint time or
        silently dropped at shutdown.

        Every written file and the directories the renames mutate are
        ``fsync``\\ ed, so the "previous checkpoint or loud failure" guarantee
        holds through power failure, not just process death.
        """
        self._require_fitted()
        self._require_serving_built()
        if path is None and self._store is None:
            raise RuntimeError(
                "checkpoint() without a path requires the durability plane "
                "(set RuntimeConfig.durability.directory) — or pass an explicit path"
            )
        with self._durability_lock:
            self.service.pause_maintenance()
            try:
                if path is None:
                    return self._checkpoint_store_paused()
                return self._checkpoint_paused(Path(path))
            finally:
                self.service.resume_maintenance()

    def _checkpoint_paused(self, target: Path) -> Path:
        """Full, self-contained checkpoint at an explicit path."""
        checkpoint_id = None
        wal_position = None
        if self._store is not None:
            # The cut must be a WAL rotation point even for out-of-store
            # checkpoints: the manifest records where its replay tail starts.
            checkpoint_id = self._store.allocate_id()
            if self._wal is not None:
                wal_position = self._wal.rotate(checkpoint_id)
        directory = target.parent / f".{target.name}.staging"
        if directory.exists():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        try:
            self._write_checkpoint_files(
                directory,
                kind="full",
                checkpoint_id=checkpoint_id,
                parent=None,
                wal_position=wal_position,
            )
        except BaseException:
            shutil.rmtree(directory, ignore_errors=True)
            raise
        # Atomic swap: the complete staging directory replaces the target.
        if target.exists():
            discarded = target.parent / f".{target.name}.discarded"
            if discarded.exists():
                shutil.rmtree(discarded)
            os.replace(target, discarded)
            os.replace(directory, target)
            shutil.rmtree(discarded)
        else:
            os.replace(directory, target)
        # The renames live in the parent directory's entries; without this
        # fsync a power cut can roll the whole swap back.
        _fsync_path(target.parent)
        if self._policy is not None:
            self._policy.mark()
        return target

    def _checkpoint_store_paused(self) -> Path:
        """Policy/auto checkpoint into the durable store (delta-chained)."""
        store = self._store
        config = self.config.durability
        store.ensure_layout()
        checkpoint_id = store.allocate_id()
        wal_position = self._wal.rotate(checkpoint_id) if self._wal is not None else None
        parent = store.latest()
        kind = "full"
        if config.delta and parent is not None:
            if int(parent.manifest.get("delta_depth", 0)) + 1 < config.full_every:
                kind = "delta"
        target = store.directory_for(checkpoint_id)
        directory = store.checkpoints_dir / f".{target.name}.staging"
        if directory.exists():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        try:
            try:
                self._write_checkpoint_files(
                    directory,
                    kind=kind,
                    checkpoint_id=checkpoint_id,
                    parent=parent if kind == "delta" else None,
                    wal_position=wal_position,
                )
            except DeltaSourceError as error:
                # The parent chain lost version files (eviction, tampering,
                # a half-copied store).  delta_plan raises before anything is
                # written, so compact to a self-contained full checkpoint
                # instead of rethrowing the same error out of every future
                # auto-checkpoint — loudly, because the chain damage itself
                # still deserves an operator's attention.
                warnings.warn(
                    f"compacting to a full checkpoint: {error}",
                    RuntimeWarning,
                    stacklevel=3,
                )
                kind = "full"
                self._write_checkpoint_files(
                    directory,
                    kind="full",
                    checkpoint_id=checkpoint_id,
                    parent=None,
                    wal_position=wal_position,
                )
        except BaseException:
            shutil.rmtree(directory, ignore_errors=True)
            raise
        os.replace(directory, target)  # fresh id: the target can never exist
        _fsync_path(store.checkpoints_dir)
        if kind == "full":
            store.written_full += 1
        else:
            store.written_delta += 1
        # Retention, only now that the new checkpoint is durable: directories
        # off the live chain first, then WAL segments before the rotation.
        store.prune()
        if self._wal is not None and wal_position is not None:
            self._wal.prune(wal_position)
        if self._policy is not None:
            self._policy.mark()
        return target

    def _write_checkpoint_files(
        self,
        directory: Path,
        *,
        kind: str,
        checkpoint_id: Optional[int],
        parent: Optional[StoredCheckpoint],
        wal_position: Optional[WalPosition],
    ) -> Dict[str, Any]:
        """Write weights/state/manifest (each fsynced) into ``directory``."""
        versions: List[Dict[str, Any]] = []
        # One consistent registry cut: both the weight files and the
        # manifest's version pointer derive from this single locked
        # enumeration.  Reading highest_published separately would race a
        # concurrent publish (parallel shard, background plane) landing
        # between the two reads and produce a manifest whose pointer exceeds
        # the saved weights — a checkpoint from_checkpoint() must reject.
        retained = self.registry.retained()
        reuse: Dict[int, Tuple[str, str]] = {}
        parent_name = None
        delta_depth = 0
        if kind == "delta":
            # Resolves every reusable version to the sibling directory that
            # physically holds its weights and verifies the files exist —
            # raising DeltaSourceError (with the version ids) *now*, at write
            # time, if eviction/compaction broke the chain.
            reuse = self._store.delta_plan(
                parent, [snapshot.version for snapshot in retained]
            )
            parent_name = parent.path.name
            delta_depth = int(parent.manifest.get("delta_depth", 0)) + 1
        for snapshot in retained:
            entry: Dict[str, Any] = {
                "version": snapshot.version,
                "threshold": snapshot.threshold,
                "reason": snapshot.reason,
                "metadata": dict(snapshot.metadata),
            }
            if snapshot.version in reuse:
                source, filename = reuse[snapshot.version]
                entry["file"] = filename
                entry["source"] = source
            else:
                filename = f"version_{snapshot.version:06d}.npz"
                save_module(
                    snapshot.model,
                    directory / filename,
                    metadata={
                        "version": snapshot.version,
                        "threshold": snapshot.threshold,
                        "reason": snapshot.reason,
                        "metadata": dict(snapshot.metadata),
                    },
                )
                _fsync_path(directory / filename)
                entry["file"] = filename
            versions.append(entry)

        arrays: Dict[str, np.ndarray] = {}
        state = self.service.export_state()
        structure = _pack(state, arrays)
        save_state(directory / _STATE_FILE, arrays, metadata={"state": structure})
        _fsync_path(directory / _STATE_FILE)

        manifest = {
            "format": CHECKPOINT_FORMAT,
            "config": self.config.to_dict(),
            # Eviction always keeps the just-published latest, so the highest
            # retained version IS the version pointer of this registry cut.
            "published": versions[-1]["version"],
            "versions": versions,
            "pending_updates": sum(len(jobs) for jobs in state["plane_pending"]),
            # Live shard count (may exceed config.serving.num_shards after
            # rebalancer splits); from_checkpoint rebuilds this topology.
            "num_shards": len(self.service.shards),
            "kind": kind,
            "checkpoint_id": checkpoint_id,
            "parent": parent_name,
            "delta_depth": delta_depth,
            "wal": (
                {
                    "checkpoint_id": wal_position.checkpoint_id,
                    "sequence": wal_position.sequence,
                }
                if wal_position is not None
                else None
            ),
        }
        manifest_path = directory / _MANIFEST_FILE
        manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        _fsync_path(manifest_path)
        # The directory's entry list (every name written above) must be
        # durable before the rename publishes it.
        _fsync_path(directory)
        return manifest

    @classmethod
    def from_checkpoint(
        cls,
        path: Union[str, Path],
        *,
        clock: Optional[Callable[[], float]] = None,
        replay_wal: bool = True,
    ) -> "Runtime":
        """Rebuild a fitted runtime from a :meth:`checkpoint` directory.

        The restored runtime serves the same model versions with the same
        thresholds, continues every stream's rolling window where it left
        off, and resumes the drift monitor (history set, buffers, update
        counter) — so replaying the same tail of traffic produces
        **bitwise-identical** detections and version swaps.

        Delta checkpoints resolve reused version files from the sibling
        directories their manifest names (one level of indirection; a broken
        chain raises :class:`FileNotFoundError` naming the missing file).
        When the checkpoint lives inside a durability store — or
        ``config.durability.directory`` points at one — the store is
        re-attached and, unless ``replay_wal=False``, the write-ahead-log
        tail recorded by the manifest is replayed through the scoring
        service, recovering every submission ingested after the checkpoint.
        :meth:`recover` is the "resume from the latest checkpoint" shorthand.
        """
        directory = Path(path)
        manifest_path = directory / _MANIFEST_FILE
        if not manifest_path.exists():
            raise FileNotFoundError(f"no runtime checkpoint at {directory}")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("format") not in _READABLE_FORMATS:
            raise ValueError(
                f"unsupported checkpoint format {manifest.get('format')!r}; "
                f"this build reads formats {list(_READABLE_FORMATS)}"
            )
        config = RuntimeConfig.from_dict(manifest["config"])
        runtime = cls(config, clock=clock)

        registry = ModelRegistry(config.detection, max_versions=config.max_versions)
        entries = sorted(manifest["versions"], key=lambda entry: entry["version"])
        if not entries:
            raise ValueError(f"checkpoint at {directory} holds no model versions")
        for entry in entries:
            source = entry.get("source")
            if source:
                # Delta: the weights live in a sibling checkpoint directory.
                weights_path = directory.parent / source / entry["file"]
            else:
                weights_path = directory / entry["file"]
            if not weights_path.is_file():
                raise FileNotFoundError(
                    f"checkpoint at {directory} references version "
                    f"{entry['version']} weights at {weights_path}, which do "
                    f"not exist (broken delta chain)"
                )
            model = CLSTM.from_config(config.model, coupling=config.coupling, seed=config.seed)
            state, _ = load_state(weights_path)
            model.load_state_dict(state)
            registry.restore(
                entry["version"],
                model,
                entry["threshold"],
                reason=entry["reason"],
                metadata=entry.get("metadata") or {},
            )
        if registry.highest_published != manifest["published"]:
            raise ValueError(
                f"inconsistent checkpoint: manifest version pointer is "
                f"{manifest['published']}, restored weights end at "
                f"{registry.highest_published}"
            )
        runtime.registry = registry
        runtime._build_service(
            historical_hidden=None, num_shards=manifest.get("num_shards")
        )

        arrays, metadata = load_state(directory / _STATE_FILE)
        runtime.service.restore_state(_unpack(metadata["state"], arrays))

        # Re-attach durability.  A checkpoint inside a store's layout
        # (<root>/checkpoints/ckpt-NNNNNN) names its own root — which makes
        # whole-store copies relocatable; otherwise fall back to the config.
        root: Optional[Path] = None
        if directory.parent.name == "checkpoints":
            root = directory.parent.parent
        elif config.durability.directory is not None:
            root = Path(config.durability.directory)
        runtime._attach_durability(root=root, manifest=manifest, replay_wal=replay_wal)
        return runtime

    @classmethod
    def recover(
        cls,
        directory: Union[str, Path],
        *,
        clock: Optional[Callable[[], float]] = None,
        replay_wal: bool = True,
    ) -> "Runtime":
        """Resume from the latest checkpoint of a durability directory.

        ``directory`` is the ``RuntimeConfig.durability.directory`` root the
        crashed process was running with.  Restores the newest valid
        checkpoint in its store and replays the write-ahead-log tail, landing
        on the exact state the crashed process had durably reached — a
        SIGKILL at any record boundary resumes bitwise-identical.
        """
        store = CheckpointStore(directory)
        latest = store.latest()
        if latest is None:
            raise FileNotFoundError(
                f"no recoverable checkpoint under {store.checkpoints_dir}"
            )
        return cls.from_checkpoint(latest.path, clock=clock, replay_wal=replay_wal)

    # ------------------------------------------------------------------ #
    # Durability plane internals
    # ------------------------------------------------------------------ #
    def _attach_durability(
        self,
        *,
        root: Optional[Path] = None,
        manifest: Optional[Dict[str, Any]] = None,
        replay_wal: bool = True,
    ) -> None:
        """Stand the WAL + store + policy up for a fitted runtime.

        ``manifest`` is the checkpoint this runtime was restored from (None
        on a fresh fit); its recorded WAL position is the replay point.
        """
        config = self.config.durability
        if root is None:
            root = Path(config.directory) if config.directory is not None else None
        if root is None:
            return
        store = CheckpointStore(root)
        if manifest is None and store.latest() is not None:
            raise RuntimeError(
                f"durability directory {root} already holds checkpoints; "
                f"Runtime.recover({str(root)!r}) resumes them — fitting fresh "
                f"over a live store would fork its history"
            )
        store.ensure_layout()
        self._store = store
        self._policy = CheckpointPolicy(
            every_records=config.checkpoint_every_records,
            every_updates=config.checkpoint_every_updates,
            every_seconds=config.checkpoint_every_seconds,
            clock=self._clock,
        )
        position: Optional[WalPosition] = None
        if manifest is not None and manifest.get("wal") is not None:
            wal_info = manifest["wal"]
            position = WalPosition(
                int(wal_info["checkpoint_id"]), int(wal_info["sequence"])
            )
        if position is not None and replay_wal:
            self._replay_wal_tail(position)
        if config.wal:
            wal = WriteAheadLog(store.wal_dir, fsync_every=config.wal_fsync_every)
            if position is not None:
                epoch = position.checkpoint_id
            elif manifest is not None:
                epoch = int(manifest.get("checkpoint_id") or 0)
            else:
                epoch = 0
            # A crash between a WAL rotation and its checkpoint's publish
            # orphans a segment of an epoch newer than any stored checkpoint,
            # holding pre-crash records.  New appends must sort *after* those
            # (replay order is sorted segment order), so open at the highest
            # epoch present on disk if it exceeds the restored one.
            on_disk = [p.checkpoint_id for p, _ in list_segments(store.wal_dir)]
            if on_disk:
                epoch = max(epoch, max(on_disk))
            # open() always starts a fresh segment (sequence one past the
            # highest on disk): recovery never appends to a possibly-torn
            # tail, and the new segment sorts after every replayed one.
            wal.open(epoch)
            self._wal = wal
        self._last_seen_published = (
            self.registry.highest_published if self.registry is not None else 0
        )

    def _replay_wal_tail(self, position: WalPosition) -> None:
        """Re-drive every logged ingest call at or after ``position``."""
        tail = read_tail(self._store.wal_dir, position)
        if tail.segments == 0:
            raise RuntimeError(
                f"checkpoint expects write-ahead-log segments at or after "
                f"{tuple(position)} but {self._store.wal_dir} holds none "
                f"(pruned or moved); pass replay_wal=False to accept the "
                f"checkpoint state without the logged tail"
            )
        for record in tail.records:
            # The record kind preserves the original call shape — an
            # ingest_many tick drives the micro-batcher differently from a
            # sequence of single submits, and bitwise replay needs the same.
            if record.kind == "batch":
                self.service.submit_many(record.submissions)
            else:
                for submission in record.submissions:
                    self.service.submit(*submission)
        self._replayed_records = tail.submissions
        self._replayed_torn = tail.torn_records

    def _validate_submissions(
        self, submissions: Iterable[Sequence]
    ) -> List[Tuple[str, np.ndarray, np.ndarray, Optional[float]]]:
        """Normalise and fully validate submissions *before* the WAL append.

        Anything that would make the scoring service raise must be rejected
        here: a submission that reached the log but not the service would
        replay into state the original run never had.  The arrays are
        coerced exactly as the scoring session coerces them (flat float64),
        so the bytes logged are the bytes scored.
        """
        model = self.config.model
        cleaned: List[Tuple[str, np.ndarray, np.ndarray, Optional[float]]] = []
        for submission in submissions:
            if len(submission) == 3:
                stream_id, action, interaction = submission
                level = None
            elif len(submission) == 4:
                stream_id, action, interaction, level = submission
            else:
                raise ValueError(
                    "submission must be (stream_id, action_feature, "
                    f"interaction_feature[, interaction_level]), got "
                    f"{len(submission)} elements"
                )
            if level is not None:
                validate_interaction_level(level)
                level = float(level)
            action = np.ascontiguousarray(
                np.asarray(action, dtype=np.float64).reshape(-1)
            )
            interaction = np.ascontiguousarray(
                np.asarray(interaction, dtype=np.float64).reshape(-1)
            )
            if action.shape[0] != model.action_dim:
                raise ValueError(
                    f"action_feature has {action.shape[0]} elements but "
                    f"ModelConfig.action_dim={model.action_dim}"
                )
            if interaction.shape[0] != model.interaction_dim:
                raise ValueError(
                    f"interaction_feature has {interaction.shape[0]} elements "
                    f"but ModelConfig.interaction_dim={model.interaction_dim}"
                )
            cleaned.append((str(stream_id), action, interaction, level))
        return cleaned

    def _maybe_auto_checkpoint(self) -> None:
        """Fire the checkpoint policy if any of its rules are due."""
        policy = self._policy
        if policy is None or not policy.enabled:
            return
        published = self.registry.highest_published
        if published > self._last_seen_published:
            policy.note_updates(published - self._last_seen_published)
            self._last_seen_published = published
        if not policy.due():
            return
        with self._durability_lock:
            # Re-check under the lock: a concurrent ingest may have just
            # checkpointed and reset the counters.
            if self._policy is not None and self._policy.due():
                self.checkpoint()

    def durability_stats(self) -> Dict[str, Any]:
        """JSON-safe durability counters for ``/stats`` and ``/metrics``."""
        if self._store is None:
            return {"enabled": False}
        return {
            "enabled": True,
            "wal": self._wal.stats() if self._wal is not None else None,
            "checkpoints": self._store.stats(),
            "policy": self._policy.stats() if self._policy is not None else None,
            "replayed_records": self._replayed_records,
            "replayed_torn_records": self._replayed_torn,
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("runtime is closed")

    def _require_fitted(self) -> None:
        if self.registry is None:
            raise RuntimeError("runtime is not fitted; call fit() or from_checkpoint()")

    def _require_serving_built(self) -> None:
        if self.service is None:
            raise RuntimeError("runtime is not fitted; call fit() or from_checkpoint()")

    def _require_serving(self) -> None:
        self._require_open()
        self._require_serving_built()


# ---------------------------------------------------------------------- #
# Checkpoint codec: JSON structure + ndarray leaves
# ---------------------------------------------------------------------- #
_ARRAY_KEY = "__ndarray__"


def _pack(value: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Split a nested state structure into JSON plus an array table.

    Arrays are replaced by ``{"__ndarray__": key}`` markers and collected
    into ``arrays`` (persisted losslessly via ``.npz``); everything else must
    be JSON-representable.  :func:`_unpack` is the exact inverse.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        key = f"a{len(arrays)}"
        arrays[key] = value
        return {_ARRAY_KEY: key}
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, Mapping):
        if _ARRAY_KEY in value:
            raise ValueError(f"'{_ARRAY_KEY}' is a reserved key in checkpoint state")
        return {str(key): _pack(item, arrays) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pack(item, arrays) for item in value]
    raise TypeError(f"cannot checkpoint value of type {type(value).__name__}")


def _unpack(value: Any, arrays: Mapping[str, np.ndarray]) -> Any:
    """Inverse of :func:`_pack`."""
    if isinstance(value, dict):
        if set(value) == {_ARRAY_KEY}:
            return arrays[value[_ARRAY_KEY]]
        return {key: _unpack(item, arrays) for key, item in value.items()}
    if isinstance(value, list):
        return [_unpack(item, arrays) for item in value]
    return value
