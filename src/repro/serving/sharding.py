"""Sharded serving runtime: many streams, many models, one ingest surface.

A production deployment watches streams from several platforms at once, each
platform with its own CLSTM (the paper trains one model per dataset).  The
:class:`ShardedScoringService` routes streams across ``N`` scoring shards;
each shard is a full :class:`~repro.serving.service.ScoringService` — one
:class:`~repro.serving.registry.RegistryHandle`, one
:class:`~repro.serving.microbatch.MicroBatcher`, its own drift monitor and
(optionally) its own :class:`~repro.serving.maintenance.UpdatePlane` — so
shards swap, batch and maintain their models independently.

Two deployment shapes are supported:

* **one shared registry** across ``num_shards`` shards (horizontal scaling
  of a single model; every shard serves the same latest version);
* **one registry per shard** (the multi-model deployment; the router must
  send each stream to the shard owning its model).

Routing is deterministic: the default router hashes the stream id with
CRC-32, and every stream's first route is pinned so detections keep landing
on the same shard even if a custom router misbehaves.  Cross-stream
micro-batching happens *within* a shard, which is the point: streams of the
same model coalesce into full batches, while the wall-clock flush deadline
(`ServingConfig.max_batch_delay_ms`) bounds how stale a queued segment can
get when a shard's fan-in is low.

Execution is pluggable: with the default
:class:`~repro.serving.executor.SerialExecutor` every code path is
bit-for-bit identical to the pre-executor runtime, while a
:class:`~repro.serving.executor.ParallelExecutor` fans ready shard batches
out to a worker-thread pool (one fused forward per shard in flight, results
merged deterministically by shard index) and ``background_updates=True``
moves each registry's retrains onto a maintenance thread.  Terminal drains
(:meth:`ShardedScoringService.flush` / :meth:`ShardedScoringService.drain`)
deliberately stay serial in shard-index order, so end-of-run output is
reproducible at any worker count.
"""

from __future__ import annotations

import threading
import zlib
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..utils.config import ServingConfig, TrainingConfig, UpdateConfig
from .executor import BackgroundUpdatePlane, ParallelExecutor, SerialExecutor
from .maintenance import UpdatePlane, UpdateReport
from .registry import ModelRegistry
from .service import (
    ScoringService,
    ServiceStats,
    ShardStats,
    StreamDetection,
    UpdateTrigger,
    _request_from_state,
    _request_state,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoid import cycle)
    from .rebalance import Rebalancer

__all__ = ["default_router", "ShardedScoringService"]


def default_router(stream_id: str, num_shards: int) -> int:
    """Stable stream → shard assignment (CRC-32 of the stream id)."""
    return zlib.crc32(stream_id.encode("utf-8")) % num_shards


def _pending_job_state(trigger: UpdateTrigger, samples: Sequence) -> Dict[str, object]:
    """One queued-but-not-started retrain job as a checkpoint leaf."""
    return {
        "trigger": {
            "segment_index": trigger.segment_index,
            "similarity": trigger.similarity,
            "buffered_segments": trigger.buffered_segments,
            "stream_ids": list(trigger.stream_ids),
            "model_version": trigger.model_version,
        },
        "samples": [_request_state(request) for request in samples],
    }


def _pending_job_from_state(state: Mapping[str, object]) -> Tuple[UpdateTrigger, tuple]:
    """Inverse of :func:`_pending_job_state`."""
    payload = state["trigger"]
    trigger = UpdateTrigger(
        segment_index=int(payload["segment_index"]),
        similarity=float(payload["similarity"]),
        buffered_segments=int(payload["buffered_segments"]),
        stream_ids=tuple(str(stream_id) for stream_id in payload["stream_ids"]),
        model_version=int(payload["model_version"]),
    )
    samples = tuple(_request_from_state(sample) for sample in state["samples"])
    return trigger, samples


class ShardedScoringService:
    """Route streams across N independent scoring shards.

    Parameters
    ----------
    registries:
        Either a single :class:`ModelRegistry` (shared by ``config.num_shards``
        shards) or one registry per shard (``num_shards`` is then the length
        of the sequence).
    config:
        Batching/sharding parameters (:class:`ServingConfig`).
    sequence_length:
        History length ``q`` of each stream's rolling window.
    update_config:
        Enables per-shard drift monitoring when provided.
    attach_update_planes:
        When true, every *registry* gets an :class:`UpdatePlane` (shards
        sharing a registry share the plane) — the fully closed
        online-learning loop.  Requires ``update_config``.  Note that drift
        monitoring stays per-shard: with a shared registry, shards observing
        the same drift in their own stream populations will each request an
        update from their own buffer; the shared plane serialises those into
        a coherent version lineage rather than racing.
    training_config:
        Base training configuration for the update planes.
    historical_hidden:
        Optional seed for every shard's historical hidden-state set ``S_h``
        (only meaningful with a shared registry, where all shards serve the
        same model).
    on_update_trigger:
        Callback invoked with every shard's :class:`UpdateTrigger`.
    max_history:
        Per-shard cap on the historical hidden-state set.
    router:
        Optional ``stream_id -> shard_index`` override; results are pinned
        per stream on first use.
    clock:
        Shared time source for the wall-clock flush deadlines.
    executor:
        Shard-work execution strategy — a
        :class:`~repro.serving.executor.SerialExecutor` (default; in-line,
        bit-for-bit the pre-executor behaviour) or a
        :class:`~repro.serving.executor.ParallelExecutor` (worker-thread
        fan-out of ready shard batches).  The service owns the executor and
        shuts it down in :meth:`close`.
    background_updates:
        Wrap every update plane in a
        :class:`~repro.serving.executor.BackgroundUpdatePlane`: retrains run
        on a maintenance thread instead of inside the scoring path.
        Requires ``attach_update_planes``.
    """

    def __init__(
        self,
        registries: Union[ModelRegistry, Sequence[ModelRegistry]],
        config: Optional[ServingConfig] = None,
        sequence_length: int = 9,
        update_config: Optional[UpdateConfig] = None,
        attach_update_planes: bool = False,
        training_config: Optional[TrainingConfig] = None,
        historical_hidden: Optional[np.ndarray] = None,
        on_update_trigger: Optional[Callable[[UpdateTrigger], None]] = None,
        max_history: Optional[int] = None,
        router: Optional[Callable[[str], int]] = None,
        clock: Optional[Callable[[], float]] = None,
        executor: Optional[Union[SerialExecutor, ParallelExecutor]] = None,
        background_updates: bool = False,
        rebalancer: Optional["Rebalancer"] = None,
    ) -> None:
        config = config if config is not None else ServingConfig()
        if isinstance(registries, ModelRegistry):
            shard_registries: List[ModelRegistry] = [registries] * config.num_shards
        else:
            shard_registries = list(registries)
            if not shard_registries:
                raise ValueError("registries must not be empty")
        if attach_update_planes and update_config is None:
            raise ValueError("attach_update_planes requires update_config")
        if background_updates and not attach_update_planes:
            raise ValueError("background_updates requires attach_update_planes")
        self.config = config
        self.executor = executor if executor is not None else SerialExecutor()
        self.shards: List[ScoringService] = []
        # One plane per *distinct* registry: shards sharing a registry share
        # the plane, so every update trains and merges against the latest
        # published version instead of N planes racing each other.  (Each
        # shard still has its own drift monitor over its own streams, so two
        # shards of one model can both legitimately request updates — from
        # disjoint sample buffers.)
        planes: Dict[int, Union[UpdatePlane, BackgroundUpdatePlane]] = {}
        for registry in shard_registries:
            plane = None
            if attach_update_planes:
                plane = planes.get(id(registry))
                if plane is None:
                    plane = UpdatePlane(
                        registry, update_config=update_config, training_config=training_config
                    )
                    if background_updates:
                        plane = BackgroundUpdatePlane(plane)
                    planes[id(registry)] = plane
            self.shards.append(
                ScoringService(
                    sequence_length=sequence_length,
                    max_batch_size=config.max_batch_size,
                    update_config=update_config,
                    historical_hidden=historical_hidden,
                    on_update_trigger=on_update_trigger,
                    max_history=max_history,
                    registry=registry,
                    update_plane=plane,
                    max_batch_delay_ms=config.max_batch_delay_ms,
                    clock=clock,
                    max_queue_depth=config.max_queue_depth,
                    latency_reservoir=config.latency_reservoir,
                )
            )
        self._planes = planes
        # Construction recipe for rebalancer-driven shard splits: a fresh
        # shard over an existing registry must match its siblings exactly.
        self._shard_kwargs: Dict[str, object] = {
            "sequence_length": sequence_length,
            "max_batch_size": config.max_batch_size,
            "update_config": update_config,
            "historical_hidden": historical_hidden,
            "on_update_trigger": on_update_trigger,
            "max_history": max_history,
            "max_batch_delay_ms": config.max_batch_delay_ms,
            "clock": clock,
            "max_queue_depth": config.max_queue_depth,
            "latency_reservoir": config.latency_reservoir,
        }
        self._router = router if router is not None else (
            lambda stream_id: default_router(stream_id, len(self.shards))
        )
        self._routes: Dict[str, int] = {}
        # Guards the route table only; shards have their own internal locks.
        self._routes_lock = threading.Lock()
        # Shards retired by a merge: never routed to again, kept in the list
        # so historical shard indices (detections, stats, checkpoints) stay
        # stable.  The merge-eligibility floor is the construction-time shard
        # count — only split-created shards may be merged away.
        self._retired: set = set()
        self._base_shards = len(self.shards)
        self.rebalancer = rebalancer
        if rebalancer is not None:
            rebalancer.bind(self)
        # Executors that manage per-shard resources (the process pool's
        # shared-memory workers) learn the shard set here and extend it via
        # notify_shard_added when a split lands.
        bind = getattr(self.executor, "bind", None)
        if callable(bind):
            bind(self)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def retired_shards(self) -> FrozenSet[int]:
        """Indices of shards retired by a merge (never routed to again)."""
        return frozenset(self._retired)

    def shard_index(self, stream_id: str) -> int:
        """The (pinned) shard index owning ``stream_id`` (thread-safe).

        A stream seen for the first time is routed by the router and — when
        a rebalancer is attached — possibly diverted away from a retired or
        hot shard before the route is pinned.  Pinned routes only ever
        change through an explicit merge handoff.
        """
        with self._routes_lock:
            index = self._routes.get(stream_id)
            if index is None:
                index = int(self._router(stream_id))
                if not 0 <= index < len(self.shards):
                    raise ValueError(
                        f"router assigned stream '{stream_id}' to shard {index}; "
                        f"valid range is [0, {len(self.shards)})"
                    )
                if self.rebalancer is not None:
                    index = self.rebalancer.route(stream_id, index)
                self._routes[stream_id] = index
            return index

    def shard_of(self, stream_id: str) -> ScoringService:
        """The shard service owning ``stream_id``."""
        return self.shards[self.shard_index(stream_id)]

    # ------------------------------------------------------------------ #
    # Topology primitives (rebalancer-driven; caller holds _routes_lock)
    # ------------------------------------------------------------------ #
    def _spawn_shard_locked(self, source_index: int) -> int:
        """Append a fresh shard over ``source_index``'s registry; return it.

        The new shard matches its siblings exactly (same construction
        recipe, same update plane when one is attached) and starts empty —
        so it is the least-loaded shard by construction and new streams
        drift to it through the rebalancer's hot-shard diversion.  Existing
        streams keep their pinned routes.
        """
        registry = self.shards[source_index].registry
        plane = self._planes.get(id(registry))
        shard = ScoringService(
            registry=registry, update_plane=plane, **self._shard_kwargs
        )
        self.shards.append(shard)
        index = len(self.shards) - 1
        notify = getattr(self.executor, "notify_shard_added", None)
        if callable(notify):
            notify(shard, index)
        return index

    def _merge_shard_locked(self, source_index: int, target_index: int) -> None:
        """Retire ``source_index``, handing its sessions to ``target_index``.

        The explicit route handoff: sessions (rolling windows, detection
        history and all) move in one step, every pinned route is re-pinned
        to the survivor, and the source joins the retired set.  Requires the
        source's queue to be empty (``evict_sessions`` enforces it) and
        routing quiescence — see :mod:`repro.serving.rebalance`.
        """
        if source_index == target_index:
            raise ValueError("cannot merge a shard into itself")
        if target_index in self._retired:
            raise ValueError(f"merge target shard {target_index} is retired")
        sessions = self.shards[source_index].evict_sessions()
        self.shards[target_index].adopt_sessions(sessions)
        for stream_id, index in self._routes.items():
            if index == source_index:
                self._routes[stream_id] = target_index
        self._retired.add(source_index)

    # ------------------------------------------------------------------ #
    # Ingest (same surface as ScoringService, so replay drivers compose)
    # ------------------------------------------------------------------ #
    def submit(
        self,
        stream_id: str,
        action_feature: np.ndarray,
        interaction_feature: np.ndarray,
        interaction_level: Optional[float] = None,
    ) -> List[StreamDetection]:
        """Feed one segment of one stream to its shard.

        ``interaction_level`` must be finite when given; ``None`` (the
        default) is the explicit "unknown" opt-in.  Non-finite values are
        rejected at the shard's ingest boundary
        (:func:`~repro.serving.service.validate_interaction_level`) instead
        of silently poisoning the drift monitor.

        Under the serial executor this is the shard's own in-line
        submit-and-score path (the reference semantics).  Under a parallel
        executor the segment is enqueued and every shard's ready batches are
        fanned out to the worker pool, merged by shard index.
        """
        shard = self.shard_of(stream_id)
        if self.executor.serial:
            return shard.submit(
                stream_id, action_feature, interaction_feature, interaction_level
            )
        shard.enqueue(stream_id, action_feature, interaction_feature, interaction_level)
        return self._score_ready()

    def submit_many(
        self, submissions: Iterable[Tuple]
    ) -> List[StreamDetection]:
        """Feed one tick of segments from many streams, then score once.

        ``submissions`` is an iterable of ``(stream_id, action_feature,
        interaction_feature[, interaction_level])`` tuples — the shape a
        transport tier delivers when aligned live streams produce a segment
        each.  All segments are enqueued first and scoring runs once at the
        end, which is what lets multiple shards' batches fill in the same
        tick and score *concurrently* under a parallel executor.  Results
        are merged deterministically by shard index.
        """
        for submission in submissions:
            stream_id, action_feature, interaction_feature = submission[:3]
            level = submission[3] if len(submission) > 3 else None
            self.shard_of(stream_id).enqueue(
                stream_id, action_feature, interaction_feature, level
            )
        return self._score_ready()

    def _score_ready(self) -> List[StreamDetection]:
        """Score every shard holding a full or deadline-expired batch.

        Ready shards are dispatched through the executor (one non-blocking
        scoring task per shard — a shard already being scored by another
        thread is skipped, keeping one fused forward per shard in flight)
        and the detections are merged in ascending shard-index order.
        """
        ready = [shard for shard in self.shards if shard.has_ready_work()]
        if not ready:
            return []
        results = self.executor.map([shard.try_score_ready for shard in ready])
        return [detection for result in results for detection in result]

    def poll(self) -> List[StreamDetection]:
        """Run deadline flushes on every shard (fanned out when parallel).

        When a rebalancer is attached, each poll opens with one rebalance
        round (at most one split and one merge) before any scoring — the
        topology is stable for the rest of the tick.
        """
        if self.rebalancer is not None:
            self.rebalancer.maybe_rebalance()
        results = self.executor.map([shard.poll for shard in self.shards])
        return [detection for result in results for detection in result]

    def flush(self) -> List[StreamDetection]:
        """Drain every shard regardless of batch occupancy.

        Deliberately serial in shard-index order even under a parallel
        executor: a terminal drain is rare and latency-insensitive, and
        serialising it keeps end-of-run detections — including any update
        publishes the last batches trigger — deterministic at any worker
        count.
        """
        produced: List[StreamDetection] = []
        for shard in self.shards:
            produced.extend(shard.flush())
        return produced

    def drain(self) -> List[StreamDetection]:
        """Terminal drain: deadline-expired batches first, then everything.

        Serial in shard-index order (see :meth:`flush`); afterwards
        :meth:`quiesce` waits for any background retrains the final batches
        triggered, so when ``drain()`` returns the runtime is fully idle.
        """
        produced: List[StreamDetection] = []
        for shard in self.shards:
            produced.extend(shard.drain())
        self.quiesce()
        return produced

    def detections(self, stream_id: str, start: int = 0) -> List[StreamDetection]:
        """The detections routed to ``stream_id`` so far, from position
        ``start`` on.  A read: unlike :meth:`shard_of` it pins no route, so an
        id that never submitted a segment yields ``[]`` and allocates nothing."""
        with self._routes_lock:
            index = self._routes.get(stream_id)
        return [] if index is None else self.shards[index].detections(stream_id, start)

    # ------------------------------------------------------------------ #
    # Aggregate views
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> ServiceStats:
        """Aggregate serving counters across all shards."""
        total = ServiceStats()
        for shard in self.shards:
            total.segments_scored += shard.stats.segments_scored
            total.batches += shard.stats.batches
            total.scoring_seconds += shard.stats.scoring_seconds
            total.forward_seconds += shard.stats.forward_seconds
            total.score_seconds += shard.stats.score_seconds
            total.update_seconds += shard.stats.update_seconds
        return total

    def shard_stats(self) -> List[ServiceStats]:
        return [shard.stats for shard in self.shards]

    def load_stats(self) -> List[ShardStats]:
        """One consistent :class:`ShardStats` sample per shard.

        The cross-shard load picture (queue depths, batch occupancy, scoring
        latency) that a rebalancer — or an operator dashboard — reads to
        decide whether the routing is keeping shards evenly fed.
        """
        return [shard.load_stats(index) for index, shard in enumerate(self.shards)]

    def reset_stats(self) -> None:
        for shard in self.shards:
            shard.reset_stats()

    def executor_stats(self) -> Dict[str, object]:
        """JSON-safe executor introspection (segments, workers, zero-copy).

        Executors with real resources (the process pool) report their full
        stats dict; the thread/serial executors report mode and width.
        """
        stats = getattr(self.executor, "stats", None)
        if callable(stats):
            return stats()
        return {
            "mode": "serial" if self.executor.serial else "thread",
            "workers": self.executor.workers,
        }

    def rebalance_stats(self) -> Dict[str, object]:
        """JSON-safe rebalancing summary (decision log tail, retired set)."""
        rebalancer = self.rebalancer
        decisions = rebalancer.decisions if rebalancer is not None else []
        return {
            "enabled": rebalancer is not None and rebalancer.config.rebalance,
            "decisions": len(decisions),
            "recent": [decision.to_dict() for decision in decisions[-20:]],
            "retired_shards": sorted(self._retired),
            "shards": len(self.shards),
        }

    @property
    def update_triggers(self) -> List[UpdateTrigger]:
        """Every shard's drift triggers (shard-major order)."""
        triggers: List[UpdateTrigger] = []
        for shard in self.shards:
            triggers.extend(shard.update_triggers)
        return triggers

    @property
    def update_reports(self) -> List[UpdateReport]:
        """Every completed in-service update, one entry per update.

        Shards sharing a registry share an update plane, so planes are
        deduplicated before their reports are collected.
        """
        return [report for plane in self._distinct_planes() for report in plane.reports]

    def model_versions(self) -> Mapping[int, int]:
        """shard index -> currently published model version."""
        return {index: shard.model_version for index, shard in enumerate(self.shards)}

    # ------------------------------------------------------------------ #
    # Lifecycle (quiesce/close) and durable state (checkpoint/restore)
    # ------------------------------------------------------------------ #
    def _distinct_planes(self) -> List[UpdatePlane]:
        """Every attached plane once, in first-owning-shard order."""
        planes: List[UpdatePlane] = []
        for shard in self.shards:
            plane = shard.update_plane
            if plane is not None and not any(plane is known for known in planes):
                planes.append(plane)
        return planes

    def quiesce(self) -> None:
        """Wait until every in-flight background retrain has landed.

        A no-op with synchronous planes.  Terminal paths (:meth:`drain`)
        call this so the runtime is fully idle afterwards; re-raises any
        failure a background retrain captured.
        """
        for plane in self._distinct_planes():
            plane.quiesce()

    def pause_maintenance(self) -> None:
        """Pause every update plane (wait only for *in-flight* retrains).

        The checkpoint path brackets :meth:`export_state` with this and
        :meth:`resume_maintenance`: queued-but-not-started retrains stay
        queued (and are persisted) instead of being executed up front.  On a
        partial failure — a plane re-raising a captured retrain crash — the
        planes already paused are resumed before the error propagates, so no
        plane is left frozen.
        """
        paused: List[UpdatePlane] = []
        try:
            for plane in self._distinct_planes():
                plane.pause()
                paused.append(plane)
        except BaseException:
            for plane in reversed(paused):
                plane.resume()
            raise

    def resume_maintenance(self) -> None:
        """Undo one :meth:`pause_maintenance` on every update plane."""
        for plane in self._distinct_planes():
            plane.resume()

    def close(self) -> None:
        """Stop maintenance threads and shut the executor down (idempotent).

        Queued requests are *not* scored — call :meth:`drain` first for a
        clean shutdown.  The service cannot be fed afterwards.
        """
        for plane in self._distinct_planes():
            plane.close()
        self.executor.close()

    def export_state(self) -> Dict[str, object]:
        """Continuation state of the whole sharded runtime.

        Bundles each shard's :meth:`ScoringService.export_state`, the pinned
        stream → shard routes, every distinct update plane's lifetime update
        count (the count seeds the per-update training RNG, so it must
        survive a checkpoint for retrains to stay deterministic) and each
        plane's queue of not-yet-started retrain jobs (stable only while
        :meth:`pause_maintenance` holds — the checkpoint path pauses first).
        """
        return {
            "routes": dict(self._routes),
            "num_shards": len(self.shards),
            "retired": sorted(self._retired),
            "shards": [shard.export_state() for shard in self.shards],
            "plane_updates": [plane.updates_performed for plane in self._distinct_planes()],
            "plane_pending": [
                [_pending_job_state(trigger, samples) for trigger, samples in plane.pending_jobs()]
                for plane in self._distinct_planes()
            ],
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Load an :meth:`export_state` payload into this (fresh) runtime.

        The service must have been rebuilt with the same shard count and
        plane layout the checkpoint was taken with (the runtime facade
        guarantees this by rebuilding from the persisted config).
        """
        shard_states = state["shards"]
        if len(shard_states) != len(self.shards):
            raise ValueError(
                f"checkpoint has {len(shard_states)} shard(s); "
                f"this service was built with {len(self.shards)}"
            )
        for stream_id, index in state["routes"].items():
            index = int(index)
            if not 0 <= index < len(self.shards):
                raise ValueError(
                    f"checkpoint routes stream '{stream_id}' to shard {index}; "
                    f"valid range is [0, {len(self.shards)})"
                )
            self._routes[str(stream_id)] = index
        # Retired shards survive the checkpoint (their indices must stay
        # routable-away-from); merge eligibility resets, though — the
        # restored topology becomes the new base shard count.
        self._retired = {int(index) for index in state.get("retired") or []}
        for shard, shard_state in zip(self.shards, shard_states):
            shard.restore_state(shard_state)
        planes = self._distinct_planes()
        plane_updates = state.get("plane_updates") or []
        if len(plane_updates) != len(planes):
            raise ValueError(
                f"checkpoint has {len(plane_updates)} update plane(s); "
                f"this service was built with {len(planes)}"
            )
        for plane, count in zip(planes, plane_updates):
            plane.restore_update_count(int(count))
        # Re-enqueue retrains that were queued (not yet started) at
        # checkpoint time — absent in pre-format-2 checkpoints.
        plane_pending = state.get("plane_pending")
        if plane_pending:
            if len(plane_pending) != len(planes):
                raise ValueError(
                    f"checkpoint has pending jobs for {len(plane_pending)} update "
                    f"plane(s); this service was built with {len(planes)}"
                )
            for plane, jobs in zip(planes, plane_pending):
                for job in jobs:
                    trigger, samples = _pending_job_from_state(job)
                    plane.handle_trigger(trigger, samples)

    @property
    def pending_updates(self) -> int:
        """Retrains enqueued or in flight across all update planes."""
        return sum(
            getattr(plane, "pending_updates", 0) for plane in self._distinct_planes()
        )
