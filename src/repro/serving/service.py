"""Multi-stream anomaly-scoring service on top of the fused inference engine.

The :class:`ScoringService` is the online counterpart of the batch
:class:`~repro.core.detector.AnomalyDetector`: it accepts per-segment
features from many concurrent :class:`~repro.streams.events.SocialVideoStream`
sessions, maintains each stream's rolling ``q``-segment history window,
coalesces ready segments *across streams* through a
:class:`~repro.serving.microbatch.MicroBatcher`, scores every batch with a
single fused ``predict_full`` pass, and routes the resulting detections back
to their streams.

The same forward pass also feeds the dynamic-maintenance machinery of
Section IV-D: final ``LSTM_I`` hidden states of presumed-normal segments are
buffered (together with the segments themselves), and whenever the buffer
fills, the drift check (Eq. 17) runs against the historical hidden-state
set.  Reaction to drift is pluggable: the service always emits
:class:`UpdateTrigger` events, and when an
:class:`~repro.serving.maintenance.UpdatePlane` is attached it additionally
hands the plane the drained presumed-normal sample buffer, closing the
paper's Fig. 5 loop inside the runtime — the plane retrains, merges,
re-calibrates ``T_a`` and publishes the new version back through the shared
:class:`~repro.serving.registry.ModelRegistry`.

Model access is registry-mediated: each service holds a
:class:`~repro.serving.registry.RegistryHandle` and pins the latest
published :class:`~repro.serving.registry.ModelSnapshot` once per
micro-batch, so every batch scores (forward pass, REIA combination and
threshold decision) against exactly one immutable model version even if a
swap lands mid-batch.  A wall-clock flush deadline (``max_batch_delay_ms``)
bounds how long a queued segment can wait for its batch to fill.

Thread-safety contract: the service is safe to drive from several threads
at once.  Two locks split the hot path so ingest never waits behind a GEMM:
a short *ingest lock* guards the session table and the micro-batch queue
(held only for the deque/window bookkeeping of one segment), and a *scoring
lock* serialises the batch pipeline — drain → pin → fused forward → route →
drift monitor — so a shard scores exactly one batch at a time while other
threads keep enqueuing.  The lock order is scoring → ingest; nothing ever
takes them in the opposite order.  :meth:`try_score_ready` is the
non-blocking entry the thread-parallel executor dispatches, and
:meth:`enqueue` is the scoring-free half of :meth:`submit` it feeds from.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Mapping, Optional

import numpy as np

from ..core.detector import AnomalyDetector
from ..core.update import hidden_set_similarity
from ..features.pipeline import StreamFeatures
from ..nn.fused import Segment
from ..utils.config import UpdateConfig
from ..utils.timer import TimingAccumulator
from .microbatch import MicroBatcher, ScoreRequest
from .registry import ModelRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .maintenance import UpdatePlane

__all__ = [
    "StreamDetection",
    "UpdateTrigger",
    "ServiceStats",
    "ShardStats",
    "BatchScores",
    "StreamSession",
    "ManualClock",
    "ScoringService",
    "replay_streams",
    "validate_interaction_level",
]


def validate_interaction_level(level: Optional[float]) -> float:
    """Validate one submission's ``interaction_level`` at the ingest boundary.

    ``None`` is the explicit "unknown" opt-in: it maps to the internal ``nan``
    sentinel, which excludes the segment from drift tracking (the legacy
    behaviour of omitting the argument).  An actual *value* must be finite —
    historically a ``nan`` or ``inf`` computed from bad upstream data slid
    straight through the sharding boundary, silently disabling drift tracking
    (``nan``) or corrupting the running interaction-level mean (``inf``).
    Now every ingest path (``submit``/``enqueue``/``submit_many``/the HTTP
    tier, which turns the error into a 400) rejects it here instead.
    """
    if level is None:
        return float("nan")
    level = float(level)
    if not np.isfinite(level):
        raise ValueError(
            f"interaction_level must be finite, got {level!r} "
            "(pass None to mark the level unknown)"
        )
    return level


class ManualClock:
    """Deterministic clock for exercising wall-clock flush deadlines.

    Production services default to ``time.monotonic``; tests, benchmarks and
    replay drivers inject a ``ManualClock`` and advance simulated time
    explicitly, which keeps deadline behaviour reproducible.

    Reads are safe from any thread (a float rebind is atomic under the GIL);
    :meth:`advance` should be driven by a single thread, as a replay driver
    does — two drivers advancing one clock have no meaningful combined time.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("time can only advance forwards")
        self.now += seconds


@dataclass(frozen=True, slots=True)
class StreamDetection:
    """One scored segment, routed back to its stream.

    ``model_version`` records which registry snapshot produced the decision,
    so post-swap detections are attributable to the model that made them;
    ``precision`` records the compute precision of the forward pass that
    produced the score (the threshold itself is always float64-calibrated).
    """

    stream_id: str
    segment_index: int
    score: float
    action_error: float
    interaction_error: float
    is_anomaly: bool
    threshold: float
    model_version: int = 1
    precision: str = "float64"


@dataclass(frozen=True)
class UpdateTrigger:
    """Drift signal emitted when the buffered hidden states diverge.

    ``similarity`` is the configured ``UpdateConfig.drift_statistic`` between
    the historical and buffered hidden states (Eq. 17's mean pairwise cosine
    by default), and the trigger fires when it drops to ``drift_threshold``
    or below.  ``stream_ids`` lists the streams that contributed buffered
    segments — deduplicated and sorted, so the tuple is deterministic
    regardless of buffer insertion order.
    """

    segment_index: int
    similarity: float
    buffered_segments: int
    stream_ids: tuple[str, ...]
    model_version: int = 1
    """Version pinned by the micro-batch whose segment completed the buffer.
    When a swap lands while the buffer is filling, earlier buffered hidden
    states may come from older versions — this field records where the
    drift check *ran*, not a provenance guarantee for every buffered row."""


@dataclass
class ServiceStats:
    """Aggregate serving counters (reset with :meth:`ScoringService.reset_stats`)."""

    segments_scored: int = 0
    batches: int = 0
    scoring_seconds: float = 0.0
    forward_seconds: float = 0.0
    """Seconds in the fused CLSTM forward (``predict_full``); for remote
    kernels the whole worker round-trip is counted here (the split is not
    observable across the process boundary)."""
    score_seconds: float = 0.0
    """Seconds in the REIA combination + threshold decision."""
    update_seconds: float = 0.0
    """Seconds in drift-triggered maintenance (update-plane retrains)."""

    @property
    def mean_batch_size(self) -> float:
        return self.segments_scored / self.batches if self.batches else 0.0

    def throughput(self) -> float:
        """Scored segments per second of scoring time."""
        if self.scoring_seconds <= 0.0:
            return 0.0
        return self.segments_scored / self.scoring_seconds


@dataclass(frozen=True)
class ShardStats:
    """One consistent load sample of one scoring shard.

    Taken under the shard's locks by :meth:`ScoringService.load_stats`, so
    the counters are mutually consistent even while worker threads score.
    This is the signal a future rebalancer consumes: persistent queue depth
    says a shard is oversubscribed, low batch occupancy says its stream
    fan-in is too small for its batch size, and mean batch latency says how
    expensive its model is per flush.
    """

    shard_index: int
    streams: int
    """Streams with a session routed to this shard."""

    queue_depth: int
    """Requests waiting in the micro-batcher right now."""

    segments_scored: int
    batches: int
    scoring_seconds: float
    max_batch_size: int

    latency_p50_ms: float = 0.0
    """Median flush-to-score latency (oldest queued arrival → batch scored,
    milliseconds) over the shard's bounded latency reservoir."""

    latency_p95_ms: float = 0.0
    """95th-percentile flush-to-score latency over the reservoir."""

    latency_p99_ms: float = 0.0
    """99th-percentile flush-to-score latency over the reservoir — the tail
    signal a rebalancer (and an operator) needs beyond means."""

    forward_seconds: float = 0.0
    """Seconds spent in the fused forward kernel (see
    :attr:`ServiceStats.forward_seconds` for the remote-kernel caveat)."""

    score_seconds: float = 0.0
    """Seconds spent in REIA scoring + threshold decisions."""

    update_seconds: float = 0.0
    """Seconds spent in drift-triggered update-plane maintenance."""

    @property
    def mean_batch_size(self) -> float:
        return self.segments_scored / self.batches if self.batches else 0.0

    @property
    def batch_occupancy(self) -> float:
        """Mean fraction of batch capacity actually filled, in ``(0, 1]``."""
        return self.mean_batch_size / self.max_batch_size if self.batches else 0.0

    @property
    def mean_batch_latency_ms(self) -> float:
        """Mean scoring cost per flushed batch (milliseconds)."""
        return 1e3 * self.scoring_seconds / self.batches if self.batches else 0.0

    @property
    def mean_forward_ms(self) -> float:
        """Mean fused-forward kernel time per flushed batch (milliseconds)."""
        return 1e3 * self.forward_seconds / self.batches if self.batches else 0.0

    @property
    def mean_score_ms(self) -> float:
        """Mean REIA-scoring kernel time per flushed batch (milliseconds)."""
        return 1e3 * self.score_seconds / self.batches if self.batches else 0.0

    @property
    def throughput(self) -> float:
        """Scored segments per second of scoring time."""
        if self.scoring_seconds <= 0.0:
            return 0.0
        return self.segments_scored / self.scoring_seconds

    def to_dict(self) -> Dict[str, float]:
        """JSON-safe view: every field plus every derived property.

        The single source of the wire shape ``/stats`` serves per shard —
        the HTTP tier and the Prometheus renderer both read this, so a field
        added here shows up everywhere at once.
        """
        return {
            "shard_index": self.shard_index,
            "streams": self.streams,
            "queue_depth": self.queue_depth,
            "segments_scored": self.segments_scored,
            "batches": self.batches,
            "scoring_seconds": self.scoring_seconds,
            "max_batch_size": self.max_batch_size,
            "mean_batch_size": self.mean_batch_size,
            "batch_occupancy": self.batch_occupancy,
            "mean_batch_latency_ms": self.mean_batch_latency_ms,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "forward_seconds": self.forward_seconds,
            "score_seconds": self.score_seconds,
            "update_seconds": self.update_seconds,
            "mean_forward_ms": self.mean_forward_ms,
            "mean_score_ms": self.mean_score_ms,
            "throughput": self.throughput,
        }


@dataclass(frozen=True)
class BatchScores:
    """Result of one micro-batch's compute kernel (forward + REIA scoring).

    This is the seam the process-parallel executor plugs into: everything in
    :meth:`ScoringService._score_requests` *except* the fused forward and
    :meth:`~repro.core.detector.AnomalyDetector.score_predictions` —
    snapshot pinning, batch assembly, detection routing, drift monitoring —
    stays in the calling process; the kernel itself may run locally or in a
    worker interpreter over a shared-memory snapshot, returning exactly
    these arrays either way.
    """

    scores: np.ndarray
    action_errors: np.ndarray
    interaction_errors: np.ndarray
    is_anomaly: np.ndarray
    threshold: float
    hidden: np.ndarray
    """Final ``LSTM_I`` hidden states, ``(batch, h1)`` — the drift monitor
    consumes these in the parent regardless of where the forward ran."""


class StreamSession:
    """Rolling per-stream state: the last ``q`` segment records and results."""

    def __init__(self, stream_id: str, sequence_length: int) -> None:
        self.stream_id = stream_id
        self.sequence_length = sequence_length
        self.history: Deque[Segment] = deque(maxlen=sequence_length)
        self.segments_seen = 0
        self.detections: List[StreamDetection] = []

    @property
    def warmed_up(self) -> bool:
        """Whether enough history exists to score the next incoming segment."""
        return len(self.history) == self.sequence_length

    def make_request(
        self,
        action_feature: np.ndarray,
        interaction_feature: np.ndarray,
        interaction_level: float,
    ) -> Optional[ScoreRequest]:
        """Observe one incoming segment; return a request once warmed up.

        The current history window predicts the incoming segment (it is the
        reconstruction target); afterwards the segment joins the window.  The
        request's window is the history's segment records themselves, not a
        copy, so a segment's gate-input projections are computed once and
        shared by the ``q`` requests it appears in.
        """
        segment = Segment(
            np.asarray(action_feature, dtype=np.float64),
            np.asarray(interaction_feature, dtype=np.float64),
        )
        request: Optional[ScoreRequest] = None
        if self.warmed_up:
            request = ScoreRequest(
                stream_id=self.stream_id,
                segment_index=self.segments_seen,
                window=tuple(self.history),
                action_target=segment.rows[0],
                interaction_target=segment.rows[1],
                interaction_level=interaction_level,
            )
        self.history.append(segment)
        self.segments_seen += 1
        return request


class ScoringService:
    """Micro-batching scoring front-end for many concurrent streams.

    Parameters
    ----------
    detector:
        A calibrated :class:`AnomalyDetector`; compatibility entry point that
        bootstraps a single-version :class:`ModelRegistry` around a frozen
        snapshot of it — mutating the detector (weights or threshold) after
        construction does not change what is served; publish a new version
        instead.  Mutually exclusive with ``registry``.
    sequence_length:
        History length ``q`` of each stream's rolling window.
    max_batch_size:
        Micro-batch capacity; :meth:`submit` flushes automatically whenever a
        full batch has accumulated.
    update_config:
        Enables drift monitoring when provided (uses ``buffer_size`` and
        ``drift_threshold``; ``interaction_threshold`` falls back to the
        running mean of observed interaction levels, as in the paper).
    historical_hidden:
        Optional seed for the historical hidden-state set ``S_h``; when
        omitted, the first full buffer becomes the history (no trigger can
        fire before that).
    on_update_trigger:
        Optional callback invoked with each emitted :class:`UpdateTrigger`.
    max_history:
        Optional cap on the historical hidden-state set; when set, only the
        most recent ``max_history`` rows are kept after each absorption
        (Eq. 17 compares mean unit vectors, so a recency window changes the
        comparison set, not the statistic).  ``None`` is paper-faithful:
        the history grows without bound.
    registry:
        A :class:`ModelRegistry` with at least one published snapshot; the
        service pins its latest version once per micro-batch.  Mutually
        exclusive with ``detector``.
    update_plane:
        Optional :class:`~repro.serving.maintenance.UpdatePlane` wired to the
        *same* registry; every drift trigger is handed to it together with
        the drained presumed-normal sample buffer (requires
        ``update_config``).
    max_batch_delay_ms:
        Wall-clock flush deadline: once the oldest queued request has waited
        this long, the partial batch is scored (on :meth:`submit` or
        :meth:`poll`).  ``None`` keeps the count-based flush only.
    clock:
        Monotonic time source for the deadline (defaults to
        ``time.monotonic``); tests inject a :class:`ManualClock`.
    max_queue_depth:
        Optional bound on queued-but-unscored requests; when reached,
        ingest raises :class:`~repro.serving.microbatch.QueueFull` instead
        of growing the queue without limit (the admission-control hook the
        HTTP tier builds on).  ``None`` keeps the historical unbounded
        queue.
    """

    def __init__(
        self,
        detector: Optional[AnomalyDetector] = None,
        sequence_length: int = 9,
        max_batch_size: int = 64,
        update_config: Optional[UpdateConfig] = None,
        historical_hidden: Optional[np.ndarray] = None,
        on_update_trigger: Optional[Callable[[UpdateTrigger], None]] = None,
        max_history: Optional[int] = None,
        *,
        registry: Optional[ModelRegistry] = None,
        update_plane: Optional["UpdatePlane"] = None,
        max_batch_delay_ms: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        max_queue_depth: Optional[int] = None,
        latency_reservoir: int = 512,
    ) -> None:
        if sequence_length < 1:
            raise ValueError("sequence_length must be positive")
        if max_history is not None and max_history < 1:
            raise ValueError("max_history must be positive when set")
        if latency_reservoir < 1:
            raise ValueError("latency_reservoir must be positive")
        # Lock order is always scoring → ingest (see the module docstring).
        # The scoring lock serialises whole batch pipelines; the ingest lock
        # is held only for per-segment queue/session bookkeeping, so ingest
        # threads never block behind a fused forward.
        self._score_lock = threading.RLock()
        self._ingest_lock = threading.RLock()
        if (detector is None) == (registry is None):
            raise ValueError("pass exactly one of detector= or registry=")
        if registry is None:
            # ModelRegistry owns the serving-compatibility rules (absolute
            # thresholds only, calibrated detector) — batch-relative decision
            # rules would make a segment's label depend on which unrelated
            # streams happened to share its micro-batch.
            registry = ModelRegistry.from_detector(detector)
        elif len(registry) == 0:
            raise ValueError("registry must hold at least one published snapshot")
        self.registry = registry
        self._handle = registry.handle()
        self.update_config = update_config
        self._update_plane: Optional["UpdatePlane"] = None
        # Full sample payloads are only retained when something consumes them
        # — with no update plane, holding buffer_size feature windows would
        # pin megabytes per drift check for nothing.
        self._buffer_requests: Optional[List[ScoreRequest]] = None
        self.update_plane = update_plane  # validating property
        self.sequence_length = sequence_length
        self.max_batch_delay_ms = max_batch_delay_ms
        self._clock: Callable[[], float] = clock if clock is not None else time.monotonic
        self.batcher = MicroBatcher(
            max_batch_size=max_batch_size,
            max_delay_seconds=(
                max_batch_delay_ms / 1000.0 if max_batch_delay_ms is not None else None
            ),
            max_pending=max_queue_depth,
        )
        self.sessions: Dict[str, StreamSession] = {}
        self.stats = ServiceStats()
        # Per-kernel wall-time split (forward / score / update) feeding the
        # ShardStats timing fields; mutated only under the scoring lock.
        self._kernel_timings = TimingAccumulator()
        self.on_update_trigger = on_update_trigger
        self.update_triggers: List[UpdateTrigger] = []
        self._historical_hidden = (
            np.asarray(historical_hidden, dtype=np.float64)
            if historical_hidden is not None
            else None
        )
        self.max_history = max_history
        self._buffer_hidden: List[np.ndarray] = []
        self._buffer_stream_ids: List[str] = []
        # Running mean of observed interaction levels (O(1) per segment).
        self._level_sum = 0.0
        self._level_count = 0
        # Bounded flush-to-score latency reservoir (ms); feeds the
        # p50/p95/p99 fields of load_stats().  Mutated only under the
        # scoring lock, read under both locks by load_stats.
        self._latencies: Deque[float] = deque(maxlen=latency_reservoir)
        # Pluggable compute kernel: when set (by the process-parallel
        # executor's bind), _score_requests ships each assembled batch to
        # it — (snapshot, windows, targets..., indices) -> BatchScores
        # — instead of running the fused forward locally.  Everything else
        # (pinning, routing, drift, checkpoints) is unaffected.
        self.remote_compute: Optional[Callable[..., BatchScores]] = None

    @property
    def update_plane(self) -> Optional["UpdatePlane"]:
        """The attached maintenance plane (settable; validated on set)."""
        return self._update_plane

    @update_plane.setter
    def update_plane(self, plane: Optional["UpdatePlane"]) -> None:
        if plane is not None:
            if plane.registry is not self.registry:
                raise ValueError(
                    "update_plane must publish into the same registry this service reads"
                )
            if self.update_config is None:
                raise ValueError("update_plane requires update_config (drift monitoring)")
            if self._buffer_requests is None:
                # Start collecting sample payloads from here on; segments
                # buffered before the plane was attached have hidden states
                # but no retainable windows.
                self._buffer_requests = []
        else:
            self._buffer_requests = None
        self._update_plane = plane

    @property
    def detector(self) -> AnomalyDetector:
        """The currently published snapshot's detector (read-only view)."""
        return self.registry.latest().detector

    @property
    def model_version(self) -> int:
        """Version number of the currently published snapshot."""
        return self.registry.latest().version

    @property
    def model_swaps_observed(self) -> int:
        """How many version changes this service's batches have crossed."""
        return self._handle.swaps_observed

    # ------------------------------------------------------------------ #
    # Stream management
    # ------------------------------------------------------------------ #
    def session(self, stream_id: str) -> StreamSession:
        """The (lazily created) session of ``stream_id``."""
        with self._ingest_lock:
            if stream_id not in self.sessions:
                self.sessions[stream_id] = StreamSession(stream_id, self.sequence_length)
            return self.sessions[stream_id]

    def detections(self, stream_id: str, start: int = 0) -> List[StreamDetection]:
        """The detections routed to ``stream_id`` so far, from position
        ``start`` on.  A read: it creates no session, so an id that never
        submitted a segment yields ``[]`` and leaves the exported state as it was."""
        session = self.sessions.get(stream_id)
        return session.detections[start:] if session is not None else []

    def reset_stats(self) -> None:
        with self._score_lock:
            self.stats = ServiceStats()
            self._kernel_timings = TimingAccumulator()
            self._latencies.clear()

    def queue_depth(self) -> int:
        """Requests waiting in the micro-batcher right now (thread-safe).

        The cheap load probe the rebalancer polls per routing decision —
        only the ingest lock is taken, so it never waits behind a forward.
        """
        with self._ingest_lock:
            return len(self.batcher)

    def load_stats(self, shard_index: int = 0) -> "ShardStats":
        """One consistent :class:`ShardStats` sample of this service."""
        with self._score_lock, self._ingest_lock:
            if self._latencies:
                samples = np.fromiter(self._latencies, dtype=np.float64)
                p50, p95, p99 = np.percentile(samples, [50.0, 95.0, 99.0])
            else:
                p50 = p95 = p99 = 0.0
            return ShardStats(
                shard_index=shard_index,
                streams=len(self.sessions),
                queue_depth=len(self.batcher),
                segments_scored=self.stats.segments_scored,
                batches=self.stats.batches,
                scoring_seconds=self.stats.scoring_seconds,
                max_batch_size=self.batcher.max_batch_size,
                latency_p50_ms=float(p50),
                latency_p95_ms=float(p95),
                latency_p99_ms=float(p99),
                forward_seconds=self.stats.forward_seconds,
                score_seconds=self.stats.score_seconds,
                update_seconds=self.stats.update_seconds,
            )

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #
    def _enqueue(
        self,
        stream_id: str,
        action_feature: np.ndarray,
        interaction_feature: np.ndarray,
        interaction_level: Optional[float],
    ) -> Optional[float]:
        """Window + queue one segment; return its arrival stamp (no scoring)."""
        level = validate_interaction_level(interaction_level)
        # Always stamp arrivals: deadline-less services still need them for
        # the flush-to-score latency percentiles (expired() stays inert
        # without a max_delay_seconds, so deadline behaviour is unchanged).
        now = self._clock()
        with self._ingest_lock:
            request = self.session(stream_id).make_request(
                action_feature, interaction_feature, level
            )
            if request is not None:
                self.batcher.submit(request, now=now)
        return now

    def enqueue(
        self,
        stream_id: str,
        action_feature: np.ndarray,
        interaction_feature: np.ndarray,
        interaction_level: Optional[float] = None,
    ) -> None:
        """Queue one segment without scoring anything.

        The scoring-free half of :meth:`submit`, used by executor-driven
        ingest: the sharded service enqueues on the caller's thread and fans
        the resulting ready batches out to its worker pool.  Whoever calls
        :meth:`try_score_ready` / :meth:`poll` / :meth:`flush` next scores
        the queued work.
        """
        self._enqueue(stream_id, action_feature, interaction_feature, interaction_level)

    def has_ready_work(self) -> bool:
        """Whether a full or deadline-expired batch is waiting to be scored."""
        with self._ingest_lock:
            return self.batcher.ready() or self.batcher.expired(self._clock())

    def _score_while_ready(self) -> List[StreamDetection]:
        """Score batches while one is full or past its deadline.

        Caller must hold the scoring lock.  The queue is re-checked under the
        ingest lock before every drain, so requests enqueued by other threads
        *during* a fused forward are picked up by the same loop.
        """
        produced: List[StreamDetection] = []
        while True:
            with self._ingest_lock:
                flushable = self.batcher.ready() or self.batcher.expired(self._clock())
                arrival = self.batcher.oldest_arrival()
                requests = self.batcher.drain() if flushable else []
            if not requests:
                return produced
            produced.extend(self._score_requests(requests, batch_arrival=arrival))

    def submit(
        self,
        stream_id: str,
        action_feature: np.ndarray,
        interaction_feature: np.ndarray,
        interaction_level: Optional[float] = None,
    ) -> List[StreamDetection]:
        """Feed one incoming segment of one stream into the service.

        ``interaction_level`` must be finite when given; ``None`` (the
        default) marks it unknown and excludes the segment from drift
        tracking — see :func:`validate_interaction_level`.

        Returns the detections produced by any micro-batch this submission
        completed (usually empty — results for this very segment arrive with
        a later flush; this is the latency/throughput trade of micro-batching).
        """
        with self._score_lock:
            now = self._enqueue(
                stream_id, action_feature, interaction_feature, interaction_level
            )
            produced: List[StreamDetection] = []
            while True:
                with self._ingest_lock:
                    arrival = self.batcher.oldest_arrival()
                    requests = self.batcher.drain() if self.batcher.ready() else []
                if not requests:
                    break
                produced.extend(self._score_requests(requests, batch_arrival=arrival))
            with self._ingest_lock:
                arrival = self.batcher.oldest_arrival()
                requests = self.batcher.drain() if self.batcher.expired(now) else []
            if requests:
                produced.extend(self._score_requests(requests, batch_arrival=arrival))
            return produced

    def poll(self) -> List[StreamDetection]:
        """Flush batches whose wall-clock deadline has passed (and full ones).

        Drivers with a real event loop would run this on a timer; the
        synchronous replay drivers call it whenever simulated time advances.
        """
        with self._score_lock:
            return self._score_while_ready()

    def try_score_ready(self) -> List[StreamDetection]:
        """Non-blocking :meth:`poll`: score ready batches unless busy.

        Returns immediately with ``[]`` when another thread already holds
        the scoring lock — that thread's scoring loop re-checks the queue
        after every batch, so the ready work this call observed is picked up
        by it (or by the next poll/submit).  This is what keeps at most one
        fused forward per shard in flight under the parallel executor.
        """
        if not self._score_lock.acquire(blocking=False):
            return []
        try:
            return self._score_while_ready()
        finally:
            self._score_lock.release()

    def flush(self) -> List[StreamDetection]:
        """Score every queued request regardless of batch occupancy."""
        with self._score_lock:
            produced: List[StreamDetection] = []
            while True:
                with self._ingest_lock:
                    arrival = self.batcher.oldest_arrival()
                    requests = self.batcher.drain()
                if not requests:
                    return produced
                produced.extend(self._score_requests(requests, batch_arrival=arrival))

    def drain(self) -> List[StreamDetection]:
        """Terminal flush: honour expired deadlines first, then score the rest.

        :meth:`flush` alone is deadline-blind, and :meth:`poll` alone *skips*
        a final under-filled batch whenever the clock never advances past the
        flush deadline — a deadline-driven driver that ends its run on
        ``poll()`` would strand those requests forever.  ``drain()`` is the
        terminal operation: it first runs the deadline loop (so batches that
        *are* past their deadline flush with exactly the boundaries a running
        service would have given them), then scores everything still queued.
        After it returns the queue is empty.
        """
        with self._score_lock:
            produced = self._score_while_ready()
            produced.extend(self.flush())
            return produced

    # ------------------------------------------------------------------ #
    # Scoring core
    # ------------------------------------------------------------------ #
    def _score_requests(
        self,
        requests: List[ScoreRequest],
        batch_arrival: Optional[float] = None,
    ) -> List[StreamDetection]:
        if not requests:
            return []
        started = time.perf_counter()
        # Pin exactly one model version for the whole batch: forward pass,
        # REIA combination and threshold decision all come from `snapshot`.
        # A publish landing while this batch runs (the update plane executes
        # inside the drift-trigger path below) is only seen by the next pin.
        snapshot = self._handle.pin()
        windows, action_targets, interaction_targets, indices = MicroBatcher.assemble(requests)
        timings = self._kernel_timings
        if self.remote_compute is not None:
            # The forward/score split happens inside the worker interpreter;
            # the whole round-trip is attributed to "forward" (the dominant
            # cost) rather than inventing an unobservable split.
            with timings.measure("forward"):
                batch = self.remote_compute(
                    snapshot, windows, action_targets, interaction_targets, indices
                )
        else:
            with timings.measure("forward"):
                predicted_action, predicted_interaction, hidden, _ = snapshot.model.predict_full(
                    windows
                )
            with timings.measure("score"):
                result = snapshot.detector.score_predictions(
                    indices,
                    action_targets,
                    interaction_targets,
                    predicted_action,
                    predicted_interaction,
                )
            batch = BatchScores(
                scores=result.scores,
                action_errors=result.action_errors,
                interaction_errors=result.interaction_errors,
                is_anomaly=result.is_anomaly,
                threshold=float(result.threshold),
                hidden=hidden,
            )
        self.stats.scoring_seconds += time.perf_counter() - started
        self.stats.segments_scored += len(requests)
        self.stats.batches += 1
        self.stats.forward_seconds = timings.total("forward")
        self.stats.score_seconds = timings.total("score")
        if batch_arrival is not None:
            # Flush-to-score latency: oldest queued arrival of this batch to
            # now, in ms.  Clamped at zero for ManualClock-driven replays
            # that never advance time.
            self._latencies.append(max(0.0, (self._clock() - batch_arrival) * 1000.0))

        precision = getattr(snapshot.model, "precision", "float64")
        threshold = float(batch.threshold)
        detections = [
            StreamDetection(
                stream_id=request.stream_id,
                segment_index=request.segment_index,
                score=float(batch.scores[position]),
                action_error=float(batch.action_errors[position]),
                interaction_error=float(batch.interaction_errors[position]),
                is_anomaly=bool(batch.is_anomaly[position]),
                threshold=threshold,
                model_version=snapshot.version,
                precision=precision,
            )
            for position, request in enumerate(requests)
        ]
        # One ingest-lock acquisition routes the whole batch; session() only
        # runs for a request that was queued without going through ingest.
        with self._ingest_lock:
            for detection in detections:
                session = self.sessions.get(detection.stream_id)
                if session is None:
                    session = self.session(detection.stream_id)
                session.detections.append(detection)
        self._observe_hidden(requests, batch.hidden, snapshot.version)
        return detections

    # ------------------------------------------------------------------ #
    # Drift monitoring (incremental-update triggers)
    # ------------------------------------------------------------------ #
    def _observe_hidden(
        self, requests: List[ScoreRequest], hidden: np.ndarray, model_version: int
    ) -> None:
        if self.update_config is None:
            return
        threshold = self._interaction_threshold()
        reactions: List[tuple] = []
        for position, request in enumerate(requests):
            level = request.interaction_level
            if np.isnan(level):
                continue
            self._level_sum += level
            self._level_count += 1
            if level < threshold:
                self._buffer_hidden.append(hidden[position])
                self._buffer_stream_ids.append(request.stream_id)
                if self._buffer_requests is not None:
                    self._buffer_requests.append(request)
            if len(self._buffer_hidden) >= self.update_config.buffer_size:
                reaction = self._drift_check(request.segment_index, model_version)
                if reaction is not None:
                    reactions.append(reaction)
        # React only after every row of the batch has been observed.  The
        # drift transaction itself (similarity check, history absorption,
        # buffer clear) completed inside _drift_check, so by the time the
        # update plane or a trigger callback runs — both may checkpoint the
        # runtime — the monitor is in a consistent, resumable state and no
        # half-observed batch is left behind: a checkpoint taken inside a
        # callback lands exactly on an inter-batch boundary.
        for trigger, samples in reactions:
            if samples is not None:
                # Close the Fig. 5 loop in-runtime: train on the drained
                # presumed-normal buffer, merge, re-calibrate, publish.  The
                # swap becomes visible at the next batch's snapshot pin.
                with self._kernel_timings.measure("update"):
                    self.update_plane.handle_trigger(trigger, samples)
                self.stats.update_seconds = self._kernel_timings.total("update")
            if self.on_update_trigger is not None:
                self.on_update_trigger(trigger)

    def _interaction_threshold(self) -> float:
        if self.update_config.interaction_threshold is not None:
            return self.update_config.interaction_threshold
        if self._level_count == 0:
            return float("inf")  # before any observation, everything buffers
        return self._level_sum / self._level_count

    def _drift_check(self, segment_index: int, model_version: int) -> Optional[tuple]:
        """Run one drift check; return the deferred reaction (or ``None``).

        The whole drift *transaction* happens here — similarity, trigger
        recording, sample materialisation, history absorption (line 14 of
        Fig. 5) and buffer clearing — but the *reaction* (update plane,
        user callback) is returned to the caller to run once the batch is
        fully observed.
        """
        incoming = np.stack(self._buffer_hidden, axis=0)
        if self._historical_hidden is None:
            # First full buffer seeds the history; no drift can be measured yet.
            self._historical_hidden = incoming
            self._clear_buffer()
            return None
        similarity = hidden_set_similarity(
            self._historical_hidden, incoming, statistic=self.update_config.drift_statistic
        )
        reaction: Optional[tuple] = None
        if similarity <= self.update_config.drift_threshold:
            trigger = UpdateTrigger(
                segment_index=segment_index,
                similarity=float(similarity),
                buffered_segments=len(self._buffer_hidden),
                stream_ids=tuple(sorted(set(self._buffer_stream_ids))),
                model_version=model_version,
            )
            self.update_triggers.append(trigger)
            samples: Optional[tuple] = None
            if self.update_plane is not None and len(self._buffer_requests) == len(
                self._buffer_hidden
            ):
                # (A plane attached mid-buffer retained only part of this
                # buffer's samples — skip the update rather than train and
                # re-calibrate on a fragment; the next full buffer is
                # complete, since the buffer clears below.)
                samples = tuple(self._buffer_requests)
            reaction = (trigger, samples)
        # History absorbs the buffer either way (line 14 of Fig. 5).
        self._historical_hidden = np.concatenate([self._historical_hidden, incoming], axis=0)
        if self.max_history is not None and len(self._historical_hidden) > self.max_history:
            self._historical_hidden = self._historical_hidden[-self.max_history :]
        self._clear_buffer()
        return reaction

    def _clear_buffer(self) -> None:
        self._buffer_hidden.clear()
        self._buffer_stream_ids.clear()
        if self._buffer_requests is not None:
            self._buffer_requests.clear()

    # ------------------------------------------------------------------ #
    # Session handoff (shard merge)
    # ------------------------------------------------------------------ #
    def evict_sessions(self) -> Dict[str, StreamSession]:
        """Hand every session (windows, history, detections) to the caller.

        The donor half of a shard-merge handoff: the returned sessions are
        removed from this service and must be re-homed via another shard's
        :meth:`adopt_sessions`.  Refuses while requests are still queued —
        a merge only retires a shard whose queue has drained, so in-flight
        work can never be separated from its session.
        """
        with self._score_lock, self._ingest_lock:
            if len(self.batcher):
                raise RuntimeError(
                    "cannot evict sessions while requests are queued; "
                    "drain the shard first"
                )
            sessions, self.sessions = self.sessions, {}
            return sessions

    def adopt_sessions(self, sessions: Mapping[str, StreamSession]) -> None:
        """Adopt sessions evicted from another shard (merge handoff)."""
        with self._ingest_lock:
            duplicates = set(sessions) & set(self.sessions)
            if duplicates:
                raise ValueError(
                    f"streams already have sessions here: {sorted(duplicates)[:5]}"
                )
            self.sessions.update(sessions)

    # ------------------------------------------------------------------ #
    # Durable state (checkpoint/restore)
    # ------------------------------------------------------------------ #
    def export_state(self) -> Dict[str, object]:
        """Everything a restored service needs to *continue* this one.

        Covers the per-stream rolling windows, the drift monitor (history
        set, presumed-normal buffers, interaction-level running mean) and the
        requests still queued in the micro-batcher.  Deliberately excluded —
        they are reporting, not behaviour: past detections, emitted triggers,
        and serving counters (a restored service starts those at zero).
        The returned structure is JSON-plus-ndarray; the runtime's checkpoint
        codec handles persistence.  Taken under both locks, so the export is
        a consistent cut even while worker threads are active (callers should
        still quiesce background update planes first — the runtime does).
        """
        with self._score_lock, self._ingest_lock:
            return self._export_state_locked()

    def _export_state_locked(self) -> Dict[str, object]:
        return {
            "sessions": {
                stream_id: {
                    "action_history": [segment.rows[0] for segment in session.history],
                    "interaction_history": [segment.rows[1] for segment in session.history],
                    "segments_seen": session.segments_seen,
                }
                for stream_id, session in self.sessions.items()
            },
            "historical_hidden": self._historical_hidden,
            "buffer_hidden": list(self._buffer_hidden),
            "buffer_stream_ids": list(self._buffer_stream_ids),
            "buffer_requests": (
                [_request_state(request) for request in self._buffer_requests]
                if self._buffer_requests is not None
                else None
            ),
            "level_sum": self._level_sum,
            "level_count": self._level_count,
            "pending": [_request_state(request) for request in self.batcher.pending()],
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Load an :meth:`export_state` payload into this (fresh) service."""
        with self._score_lock, self._ingest_lock:
            self._restore_state_locked(state)

    def _restore_state_locked(self, state: Mapping[str, object]) -> None:
        if self.sessions or len(self.batcher):
            raise RuntimeError("restore_state requires a fresh service (no traffic yet)")
        for stream_id, payload in state["sessions"].items():
            session = self.session(stream_id)
            session.history.extend(
                Segment(np.asarray(action, dtype=np.float64), np.asarray(interaction, dtype=np.float64))
                for action, interaction in zip(
                    payload["action_history"], payload["interaction_history"], strict=True
                )
            )
            session.segments_seen = int(payload["segments_seen"])
        historical = state["historical_hidden"]
        self._historical_hidden = (
            np.asarray(historical, dtype=np.float64) if historical is not None else None
        )
        self._buffer_hidden = [np.asarray(row, dtype=np.float64) for row in state["buffer_hidden"]]
        self._buffer_stream_ids = [str(stream_id) for stream_id in state["buffer_stream_ids"]]
        buffered = state.get("buffer_requests")
        if self._buffer_requests is not None and buffered is not None:
            self._buffer_requests = [_request_from_state(payload) for payload in buffered]
        self._level_sum = float(state["level_sum"])
        self._level_count = int(state["level_count"])
        now = self._clock()
        for payload in state["pending"]:
            self.batcher.submit(_request_from_state(payload), now=now)


def _request_state(request: ScoreRequest) -> Dict[str, object]:
    """A :class:`ScoreRequest` as a plain field dict (checkpoint leaf)."""
    return {
        "stream_id": request.stream_id,
        "segment_index": request.segment_index,
        "action_history": request.action_history,
        "interaction_history": request.interaction_history,
        "action_target": request.action_target,
        "interaction_target": request.interaction_target,
        "interaction_level": request.interaction_level,
    }


def _request_from_state(state: Mapping[str, object]) -> ScoreRequest:
    """Inverse of :func:`_request_state`."""
    return ScoreRequest(
        stream_id=str(state["stream_id"]),
        segment_index=int(state["segment_index"]),
        action_history=np.asarray(state["action_history"], dtype=np.float64),
        interaction_history=np.asarray(state["interaction_history"], dtype=np.float64),
        action_target=np.asarray(state["action_target"], dtype=np.float64),
        interaction_target=np.asarray(state["interaction_target"], dtype=np.float64),
        interaction_level=float(state["interaction_level"]),
    )


def replay_streams(
    service: "ScoringService",
    streams: Mapping[str, StreamFeatures],
    flush: bool = True,
    *,
    clock: Optional[ManualClock] = None,
    interarrival_seconds: float = 0.0,
) -> List[StreamDetection]:
    """Drive ``service`` with many streams arriving concurrently.

    Segments of all streams are interleaved round-robin (segment 0 of every
    stream, then segment 1 of every stream, ...), which is how aligned live
    streams reach a real ingest tier.  Returns every detection produced, in
    scoring order.

    ``service`` may be a :class:`ScoringService` or anything sharing its
    ingest surface (e.g. the sharded runtime).  When a :class:`ManualClock`
    is supplied, simulated time advances by ``interarrival_seconds`` after
    each round-robin round and the service's deadline flushes run via
    ``poll()`` — this is how the deadline-bounded benchmarks replay at a
    controlled arrival rate.  The service must have been constructed with
    the *same* clock; otherwise its deadlines would silently keep running
    on real wall-clock time while the replay advances simulated time.
    """
    if clock is not None:
        shards = getattr(service, "shards", None) or [service]
        if any(getattr(shard, "_clock", None) is not clock for shard in shards):
            raise ValueError(
                "replay clock must be the clock the service was constructed with "
                "(pass clock=... to the service as well)"
            )
    detections: List[StreamDetection] = []
    longest = max((features.num_segments for features in streams.values()), default=0)
    for position in range(longest):
        for stream_id, features in streams.items():
            if position >= features.num_segments:
                continue
            # Feature pipelines may emit nan for segments with no audience
            # signal; map those to the explicit "unknown" opt-in instead of
            # tripping the ingest boundary's finite-value validation.
            level: Optional[float] = None
            if features.normalised_interaction.size > position:
                value = float(features.normalised_interaction[position])
                if np.isfinite(value):
                    level = value
            detections.extend(
                service.submit(
                    stream_id,
                    features.action[position],
                    features.interaction[position],
                    interaction_level=level,
                )
            )
        if clock is not None:
            clock.advance(interarrival_seconds)
            detections.extend(service.poll())
    if flush:
        detections.extend(service.flush())
    return detections
