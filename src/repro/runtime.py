"""Unified runtime facade: declarative config, one-call lifecycle, durable
checkpoint/restore.

The paper's system is one closed loop — ingest → CLSTM/REIA scoring →
drift-triggered incremental update → hot swap — but the library exposes it as
many loose classes that every deployment must wire by hand.  This module is
the assembled product:

* :class:`RuntimeConfig` composes the nine configuration sections of
  :mod:`repro.utils.config` plus the runtime-level knobs, and round-trips
  through JSON — a deployment is one reviewable file.
* :class:`Runtime` owns the whole pipeline behind a small lifecycle surface:
  ``fit`` trains the CLSTM and calibrates the detector, publishing version 1
  into a :class:`~repro.serving.registry.ModelRegistry`; ``ingest``/``poll``/
  ``drain`` drive the (optionally sharded) micro-batching scoring service,
  whose attached update planes keep the model fresh; ``checkpoint`` takes a
  cut of the full runtime — every retained model version, detector
  calibration, the version pointer, per-stream session windows, the drift
  monitor and queued requests — and hands it to
  :mod:`repro.durability.checkpoints`, which owns the on-disk format, so
  :meth:`Runtime.from_checkpoint` resumes with **bitwise-identical**
  detections on a replayed stream (the crash-recovery contract).

Every class the facade builds on stays importable — ``repro.serving`` and
friends are the escape hatch for deployments the facade does not model
(e.g. one registry per shard; see ``examples/multi_stream_serving.py``).
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

import numpy as np

from .core.clstm import CLSTM
from .core.detector import AnomalyDetector
from .core.training import CLSTMTrainer, TrainingHistory
from .durability.checkpoints import (
    CHECKPOINT_FORMAT,
    CheckpointStore,
    read_checkpoint,
    write_checkpoint,
)
from .durability.policy import CheckpointPolicy
from .durability.wal import WalPosition, WriteAheadLog, list_segments, read_tail
from .features.pipeline import StreamFeatures
from .serving.executor import build_executor
from .serving.maintenance import UpdateReport
from .serving.registry import ModelRegistry
from .serving.service import (
    ManualClock,
    ServiceStats,
    ShardStats,
    StreamDetection,
    UpdateTrigger,
    _replay_rounds,
)
from .serving.rebalance import Rebalancer
from .serving.sharding import ShardedScoringService
from .utils.config import (
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
    checked,
)

__all__ = ["RuntimeConfig", "Runtime", "CHECKPOINT_FORMAT"]


def _resolve_malloc_trim() -> Optional[Callable[[int], int]]:
    """glibc's ``malloc_trim``, or None where the C library has none (musl,
    macOS) or the process has no POSIX symbol table to look in (Windows)."""
    if os.name != "posix":
        return None
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes = (ctypes.c_size_t,)
    trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _resolve_malloc_trim()


def _release_free_heap() -> None:
    """Hand the C heap's free pages back to the OS; a no-op without glibc.

    A runtime is started once and then serves for the life of the process,
    so whatever start-up freed but glibc kept would otherwise stay resident
    under everything serving allocates later: the fit's data layouts and
    BPTT scratch (≈ 37 MB after the ledger's ``lib_gemm`` fit), and the
    batches a recovery's WAL replay scored (≈ 6 MB after ``durable_ingest``'s
    8,000-record replay; the checkpoint decode itself frees ≈ 0.5 MB).  Only
    memory that is already free is released: no value anywhere changes.
    Called once at the end of each way a runtime starts
    (:meth:`Runtime.fit`, :meth:`Runtime.from_checkpoint`), never per batch
    or per update: a trim after every in-service publish measured no
    resolvable change in the ledger's ``drift_update`` ``peak_rss_mb``.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


@dataclass(frozen=True)
class RuntimeConfig(ConfigBase):
    """Declarative description of one complete AOVLIS deployment.

    Composes the nine section configurations and adds the knobs that only
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
    configured queue-depth thresholds; the default keeps the pinned
    fewest-routes placement alone."""

    sequence_length: int = checked(9, ge=1)
    """History length q of the CLSTM input sequences."""

    coupling: str = checked("both", one_of=("both", "influencer_to_audience", "none"))
    """CLSTM coupling mode: ``"both"``, ``"influencer_to_audience"`` or ``"none"``."""

    seed: int = 0
    """Model-initialisation seed."""

    max_versions: int | None = checked(None, ge=1)
    """Keep-last-K bound on retained registry snapshots (``None`` = all)."""

    enable_updates: bool = True
    """Attach the drift monitor and update plane (the closed learning loop).
    ``False`` serves a frozen model: no buffering, no triggers, no swaps."""

    max_history: int | None = checked(None, ge=1)
    """Per-shard cap on the drift monitor's historical hidden-state set."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.detection.top_k is not None:
            raise ValueError(
                "RuntimeConfig.detection.top_k must be unset: top-k ranking is batch-relative "
                f"and incompatible with the serving runtime, got {self.detection.top_k!r}"
            )


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
        (with attached update planes when ``enable_updates``).  Last, the C
        heap the fit freed (its data layouts and training scratch) goes
        back to the OS, so a long-running server keeps resident only what
        it serves.
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
        normal_rows = labels == 0
        # An all-normal stream trains on its windows as they are (no copy).
        normal = batch if normal_rows.all() else batch.subset(normal_rows)
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
        _release_free_heap()
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
        """Feed one incoming segment of one stream: a one-row
        :meth:`ingest_many` tick, with all of its contracts.

        ``interaction_level`` must be finite when given; ``None`` (the
        default) is the explicit "unknown" opt-in that excludes the segment
        from drift tracking.  Returns the detections produced by any
        micro-batch that was full or past its deadline afterwards (usually
        for *earlier* segments — the latency/throughput trade of
        micro-batching; :meth:`drain` flushes the rest).
        """
        return self.ingest_many(
            ((stream_id, action_feature, interaction_feature, interaction_level),)
        )

    def ingest_many(self, submissions) -> List[StreamDetection]:
        """Feed one tick of segments from many streams, then score once.

        ``submissions`` is an iterable of ``(stream_id, action_feature,
        interaction_feature[, interaction_level])`` tuples.  It is the one
        ingest path: :meth:`ingest`, :meth:`replay`, the HTTP tier and WAL
        replay all feed ticks through it or its service.  Under a parallel
        executor batches that fill on different shards in the same tick are
        scored concurrently.  Afterwards every shard holding a full or
        deadline-expired batch is scored, whichever shards the tick touched.

        With durability attached the tick is validated, then appended to
        the write-ahead log as one record *before* it is scored
        (write-ahead ordering: anything that changed the runtime's state is
        on disk), and durable ingest is serialised — the log is the ingest
        order, and replay re-drives each record as the same tick.

        The tick is validated and copied once, at the boundary
        (:class:`~repro.serving.service.Tick`), so the caller may reuse its
        buffers as soon as the call returns.  It is all-or-nothing: a
        feature of the wrong width, a non-finite value, or a tick that would
        overflow a shard's ``max_queue_depth`` refuses all of it, before
        anything is logged or queued.
        """
        self._require_serving()
        if self._store is None:
            return self.service.submit_many(submissions)
        tick = self.service.tick(submissions)
        with self._durability_lock:
            self.service.route_tick(tick)
            if self._wal is not None and len(tick):
                self._wal.append(tick)
            # Invariant: past the boundary checks (the tick's validation and
            # route_tick's queue-room check), submit_many must not raise —
            # the WAL record above is already durable, and a logged-but-never-
            # scored tick would replay into state the original run never
            # had.  Anything that can reject a tick belongs in those checks,
            # before the append.
            detections = self.service.submit_many(tick)
            if self._policy is not None:
                self._policy.note_records(len(tick))
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

        The rounds of :func:`repro.serving.replay_streams`, fed one segment
        per :meth:`ingest_many` call — so a durable runtime logs every
        segment and runs its checkpoint policy.  When the runtime was built
        with a :class:`ManualClock`, simulated time advances by
        ``interarrival_seconds`` per round and deadline flushes run
        (:meth:`poll`).  ``flush`` scores whatever is still queued at the
        end.
        """
        self._require_serving()
        clock = self._clock if isinstance(self._clock, ManualClock) else None
        detections: List[StreamDetection] = []
        for submissions in _replay_rounds(streams):
            for submission in submissions:
                detections.extend(self.ingest_many((submission,)))
            if clock is not None:
                clock.advance(interarrival_seconds)
                detections.extend(self.poll())
        if flush:
            with self._durability_lock:
                detections.extend(self.service.flush())
        return detections

    def detections(self, stream_id: str, start: int = 0) -> List[StreamDetection]:
        """The detections routed to ``stream_id`` since fit/restore, from
        position ``start`` on (a negative ``start`` raises ``ValueError``).
        A read: an unknown id yields ``[]`` and creates no route or session."""
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

        A server that fails to close (its ingest batcher died) does not keep
        the rest open: the runtime still drains, stops its executor, closes
        its WAL and marks itself closed, then raises the server's error; a
        later call returns ``[]``.
        """
        if self._closed:
            return []
        server, self._server = self._server, None
        try:
            if server is not None:
                server.close()
        finally:
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
        """JSON-safe executor introspection: mode and worker count."""
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

        The directory holds the config, every retained registry snapshot's
        weights, the version pointer and the serving state (session windows,
        drift monitor, queued requests); its layout and its crash safety —
        the previous checkpoint or a loud failure, through power loss — are
        :func:`repro.durability.checkpoints.write_checkpoint`'s.  Only
        *retained* snapshots are persisted — with ``max_versions`` set,
        evicted versions are gone by design, and a checkpoint taken
        mid-update (e.g. from an ``on_update_trigger`` callback) never
        references one.  Detections, triggers and serving counters are
        reporting, not behaviour, and are not persisted.

        In-flight maintenance work is *paused*, not drained: the service
        pauses its background update planes (waiting only for the retrain
        already running, if any), exports state — including the queue of
        not-yet-started retrains — and resumes.  A restored runtime
        re-enqueues that queue, so queued maintenance work survives the
        process instead of being force-executed at checkpoint time or
        silently dropped at shutdown.
        """
        self._require_fitted()
        self._require_serving_built()
        store = self._store
        if path is None and store is None:
            raise RuntimeError(
                "checkpoint() without a path requires the durability plane "
                "(set RuntimeConfig.durability.directory) — or pass an explicit path"
            )
        with self._durability_lock:
            self.service.pause_maintenance()
            try:
                # The cut is a WAL rotation point even for an explicit path:
                # the manifest records where its replay tail starts.
                checkpoint_id = store.allocate_id() if store is not None else None
                position = self._wal.rotate(checkpoint_id) if self._wal is not None else None
                # One consistent registry cut: the weight files and the
                # manifest's version pointer both derive from this single
                # locked enumeration.  Reading highest_published separately
                # would race a concurrent publish (parallel shard, background
                # plane) and could point past the saved weights.
                retained = self.registry.retained()
                if path is None:
                    target = store.directory_for(checkpoint_id)
                    parent, reuse = store.plan(retained, self.config.durability.full_every)
                else:
                    target, parent, reuse = Path(path), None, None
                manifest = write_checkpoint(
                    target,
                    retained,
                    self.service.export_state(),
                    {
                        "config": self.config.to_dict(),
                        "num_shards": len(self.service.shards),
                        "checkpoint_id": checkpoint_id,
                        "wal": position,
                    },
                    reuse=reuse,
                    parent=parent,
                )
                if path is None:
                    # Retention, only now that the new checkpoint is durable:
                    # directories off the live chain first, then WAL segments
                    # before the rotation.
                    store.commit(manifest)
                    if position is not None:
                        self._wal.prune(position)
                if self._policy is not None:
                    self._policy.mark()
                return target
            finally:
                self.service.resume_maintenance()

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

        The directory is read by
        :func:`repro.durability.checkpoints.read_checkpoint` (a delta's
        reused weights resolve from a sibling directory; a broken chain
        raises :class:`FileNotFoundError` naming the missing file).
        When the checkpoint lives inside a durability store — or
        ``config.durability.directory`` points at one — the store is
        re-attached and, unless ``replay_wal=False``, the write-ahead-log
        tail recorded by the manifest is replayed through the scoring
        service, recovering every submission ingested after the checkpoint.
        :meth:`recover` is the "resume from the latest checkpoint" shorthand.
        Last, as after :meth:`fit`, the C heap the WAL replay freed goes
        back to the OS.
        """
        directory = Path(path)
        manifest, versions, state = read_checkpoint(directory)
        config = RuntimeConfig.from_dict(manifest["config"])
        runtime = cls(config, clock=clock)

        registry = ModelRegistry(config.detection, max_versions=config.max_versions)
        for entry, weights in versions:
            model = CLSTM.from_config(config.model, coupling=config.coupling, seed=config.seed)
            model.load_state_dict(weights)
            registry.restore(
                entry["version"],
                model,
                entry["threshold"],
                reason=entry["reason"],
                metadata=entry.get("metadata") or {},
            )
        runtime.registry = registry
        runtime._build_service(
            historical_hidden=None, num_shards=manifest.get("num_shards")
        )
        runtime.service.restore_state(state)

        # Re-attach durability.  A checkpoint inside a store's layout
        # (<root>/checkpoints/ckpt-NNNNNN) names its own root — which makes
        # whole-store copies relocatable; otherwise fall back to the config.
        root: Optional[Path] = None
        if directory.parent.name == "checkpoints":
            root = directory.parent.parent
        elif config.durability.directory is not None:
            root = Path(config.durability.directory)
        runtime._attach_durability(root=root, manifest=manifest, replay_wal=replay_wal)
        _release_free_heap()
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
        """Re-drive every logged tick at or after ``position``."""
        tail = read_tail(self._store.wal_dir, position)
        if tail.segments == 0:
            raise RuntimeError(
                f"checkpoint expects write-ahead-log segments at or after "
                f"{tuple(position)} but {self._store.wal_dir} holds none "
                f"(pruned or moved); pass replay_wal=False to accept the "
                f"checkpoint state without the logged tail"
            )
        for record in tail.records:
            # One record is one tick (a legacy single-ingest record is a
            # one-row tick), re-driven as the original run drove it.
            self.service.submit_many(record.submissions)
        self._replayed_records = tail.submissions
        self._replayed_torn = tail.torn_records

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
