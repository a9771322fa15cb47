"""Multi-stream anomaly-scoring service on top of the fused inference engine.

The :class:`ScoringService` is the online counterpart of the batch
:class:`~repro.core.detector.AnomalyDetector`: it accepts per-segment
features from many concurrent :class:`~repro.streams.events.SocialVideoStream`
sessions, maintains each stream's rolling ``q``-segment history window,
coalesces ready segments *across streams* through a
:class:`~repro.serving.microbatch.MicroBatcher`, scores every batch with a
single fused ``predict_full`` pass, and routes the resulting detections back
to their streams.

The same forward pass also feeds Section IV-D's dynamic maintenance: each
service owns one :class:`DriftMonitor`, which buffers the final ``LSTM_I``
hidden states of presumed-normal segments and compares every full buffer
with the historical set (Eq. 17).  The service records each
:class:`UpdateTrigger` it fires and, when an
:class:`~repro.serving.maintenance.UpdatePlane` was attached at
construction, hands the plane the drained sample buffer, closing the paper's
Fig. 5 loop inside the runtime — the plane retrains, merges, re-calibrates
``T_a`` and publishes the new version back through the shared
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
:meth:`enqueue` is the scoring-free half of :meth:`submit_many` it feeds
from.

One ingest path: every segment enters as a row of a :class:`Tick` — a lone
segment is a one-row tick — and the service (or the sharded service around
it) enqueues the tick, then scores every batch that is full or past its
deadline.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
)

import numpy as np

from ..core.detector import AnomalyDetector
from ..core.update import hidden_set_similarity
from ..features.pipeline import StreamFeatures
from ..nn.fused import Segment
from ..utils.config import UpdateConfig
from ..utils.timer import TimingAccumulator
from .microbatch import MicroBatcher, QueueFull, ScoreRequest
from .registry import ModelRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .maintenance import UpdatePlane

__all__ = [
    "StreamDetection",
    "UpdateTrigger",
    "ServiceStats",
    "ShardStats",
    "StreamSession",
    "DriftMonitor",
    "Tick",
    "ManualClock",
    "ScoringService",
    "replay_streams",
    "validate_features",
    "validate_interaction_level",
]


def validate_features(tick: "Tick") -> None:
    """Refuse a tick holding a non-finite feature: it scores NaN, which never
    exceeds the threshold, so every window holding it would read "normal".
    One ``isfinite`` per feature array covers the whole tick; only a refused
    tick looks for the first stream and field to name.
    """
    finite = [np.isfinite(tick.actions), np.isfinite(tick.interactions)]
    if finite[0].all() and finite[1].all():
        return
    rows = np.stack([values.all(axis=1) for values in finite], axis=1)
    position, column = np.argwhere(~rows)[0]
    field = ("action_feature", "interaction_feature")[column]
    raise ValueError(
        f"stream {tick.stream_ids[position]!r}: {field} contains non-finite values"
    )


def validate_interaction_level(level: Optional[float]) -> float:
    """Validate one submission's ``interaction_level`` at the ingest boundary.

    ``None`` is the explicit "unknown" opt-in: it maps to the internal ``nan``
    sentinel, which excludes the segment from drift tracking (the legacy
    behaviour of omitting the argument).  An actual *value* must be finite —
    historically a ``nan`` or ``inf`` computed from bad upstream data slid
    straight through the sharding boundary, silently disabling drift tracking
    (``nan``) or corrupting the running interaction-level mean (``inf``).
    Now the one ingest path — a :class:`Tick` built by ``submit_many`` of
    either service, ``Runtime.ingest``/``ingest_many`` or the HTTP tier,
    which turns the error into a 400 — rejects it here instead.
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


def _check_start(start: int) -> None:
    """A ``detections`` read's ``start`` is a position from the first
    detection on; a negative one would slice from the end instead."""
    if start < 0:
        raise ValueError(f"start must be a non-negative position, got {start}")


def _stack_rows(
    stream_ids: List[str], rows: Sequence, width: int, field: str, config_field: str
) -> np.ndarray:
    """``rows`` as a fresh float64 ``(n, width)`` array: one ``np.array``.

    Only a tick that does not stack into that shape takes the slow path,
    which flattens every row and names the first stream whose ``field`` has
    the wrong number of elements.
    """
    try:
        stacked = np.array(rows, dtype=np.float64)
    except ValueError:  # ragged rows
        stacked = None
    if stacked is not None and stacked.shape == (len(rows), width):
        return stacked
    flat = [np.asarray(row, dtype=np.float64).reshape(-1) for row in rows]
    for stream_id, row in zip(stream_ids, flat):
        if row.shape[0] != width:
            raise ValueError(
                f"stream {stream_id!r}: {field} has {row.shape[0]} elements but "
                f"ModelConfig.{config_field}={width}"
            )
    return np.array(flat, dtype=np.float64).reshape(len(rows), width)


def _check_levels(stream_ids: List[str], levels: Sequence) -> List[Optional[float]]:
    """The tick's levels as floats (``None`` stays the unknown opt-in); the
    known ones are checked as one array (:func:`validate_interaction_level`
    names the contract, the stream is named here)."""
    known = [level for level in levels if level is not None]
    if not known:
        return list(levels)
    values = np.array(known, dtype=np.float64)
    if not np.isfinite(values).all():
        for stream_id, level in zip(stream_ids, levels):
            try:
                validate_interaction_level(level)
            except ValueError as error:
                raise ValueError(f"stream {stream_id!r}: {error}") from None
    if len(known) == len(levels):
        return values.tolist()
    floats = iter(values.tolist())
    return [None if level is None else next(floats) for level in levels]


class Tick:
    """One ingest call's segments, validated and copied once, at the boundary.

    :meth:`from_submissions` is the one place a tick is checked: feature
    widths against the model (naming the stream and the ``ModelConfig``
    field), one ``isfinite`` per feature array (:func:`validate_features`)
    and the known interaction levels as one array.  ``actions`` and
    ``interactions`` are fresh float64 ``(n, d)`` arrays — the tick's private
    copy of its rows, so a caller may refill its buffers as soon as the call
    returns.  ``action_rows``/``interaction_rows`` are their row views, made
    once per tick; segments hold them.  ``levels`` keeps ``None`` for an
    unknown level.  Iterating yields ``(stream_id, action, interaction,
    level)`` tuples, the shape the write-ahead log records.

    :meth:`from_submissions` returns a built tick as it is (recognised by
    type), so no ingest path validates it a second time; :meth:`select` and
    :meth:`concat` build ticks from validated ticks without checking again.
    """

    __slots__ = (
        "stream_ids",
        "actions",
        "interactions",
        "levels",
        "action_rows",
        "interaction_rows",
    )

    def __init__(
        self,
        stream_ids: List[str],
        actions: np.ndarray,
        interactions: np.ndarray,
        levels: List[Optional[float]],
    ) -> None:
        self.stream_ids = stream_ids
        self.actions = actions
        self.interactions = interactions
        self.levels = levels
        self.action_rows = list(actions)
        self.interaction_rows = list(interactions)

    def __len__(self) -> int:
        return len(self.stream_ids)

    def __iter__(self):
        return zip(self.stream_ids, self.action_rows, self.interaction_rows, self.levels)

    def select(self, positions: Sequence[int]) -> "Tick":
        """The rows at ``positions``, in that order, as a tick of their own."""
        return Tick(
            [self.stream_ids[p] for p in positions],
            self.actions[positions],
            self.interactions[positions],
            [self.levels[p] for p in positions],
        )

    @classmethod
    def concat(cls, ticks: Sequence["Tick"]) -> "Tick":
        """``ticks`` as one tick, rows in order; a lone tick is returned as it is."""
        if len(ticks) == 1:
            return ticks[0]
        return cls(
            [stream_id for tick in ticks for stream_id in tick.stream_ids],
            np.concatenate([tick.actions for tick in ticks]),
            np.concatenate([tick.interactions for tick in ticks]),
            [level for tick in ticks for level in tick.levels],
        )

    @classmethod
    def from_submissions(
        cls, submissions: Iterable[Sequence], action_dim: int, interaction_dim: int
    ) -> "Tick":
        """Validate and copy ``(stream_id, action_feature,
        interaction_feature[, interaction_level])`` submissions; one bad
        submission refuses the whole tick with a ``ValueError``.  A built
        tick is returned as it is."""
        if type(submissions) is cls:
            return submissions
        submissions = list(submissions)
        lengths = set(map(len, submissions))
        if not lengths <= {3, 4}:
            bad = next(len(s) for s in submissions if len(s) not in (3, 4))
            raise ValueError(
                "submission must be (stream_id, action_feature, "
                f"interaction_feature[, interaction_level]), got {bad} elements"
            )
        if not submissions:
            stream_ids, actions, interactions, levels = [], (), (), ()
        elif lengths == {4}:
            stream_ids, actions, interactions, levels = zip(*submissions)
        else:
            stream_ids, actions, interactions = zip(*(s[:3] for s in submissions))
            levels = [s[3] if len(s) == 4 else None for s in submissions]
        stream_ids = list(map(str, stream_ids))
        tick = cls(
            stream_ids,
            _stack_rows(stream_ids, actions, action_dim, "action_feature", "action_dim"),
            _stack_rows(
                stream_ids, interactions, interaction_dim, "interaction_feature", "interaction_dim"
            ),
            _check_levels(stream_ids, levels),
        )
        validate_features(tick)
        return tick


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


@dataclass(eq=False, slots=True)
class _DetectionBlock:
    """One scored batch's detections, stored once.

    Column ``k`` of ``errors`` holds row ``k``'s ``score``, ``action_error``
    and ``interaction_error``.  The arrays own their memory (the batch's
    assembled segment indices, copies of the scorer's results), so a
    retained row keeps alive its batch's numbers and nothing else: ≈ 41 B a
    row, stream-id list slot included.
    """

    stream_ids: List[str]
    segment_indices: np.ndarray
    errors: np.ndarray
    is_anomaly: np.ndarray
    threshold: float
    model_version: int
    precision: str


class StreamDetection:
    """One scored segment, routed back to its stream.

    ``model_version`` records which registry snapshot produced the decision,
    so post-swap detections are attributable to the model that made them;
    ``precision`` records the compute precision of the forward pass that
    produced the score (the threshold itself is always float64-calibrated).

    A row of its batch's compact block: the per-batch emit stores each
    batch's numbers once and hands out one of these per segment, built in C.
    Every field reads as an exact ``str``/``int``/``float``/``bool``.  Rows
    are immutable, equal and hash by value, and pickle and copy their values
    (a directly constructed row, or an unpickled one, is a one-row block).
    """

    __slots__ = ("_block", "_row")

    def __init__(
        self,
        stream_id: str,
        segment_index: int,
        score: float,
        action_error: float,
        interaction_error: float,
        is_anomaly: bool,
        threshold: float,
        model_version: int = 1,
        precision: str = "float64",
    ) -> None:
        block = _DetectionBlock(
            [stream_id],
            np.array([segment_index], dtype=np.int64),
            np.array([[score], [action_error], [interaction_error]], dtype=np.float64),
            np.array([is_anomaly], dtype=bool),
            float(threshold),
            int(model_version),
            precision,
        )
        _SET_BLOCK(self, block)
        _SET_ROW(self, 0)

    @property
    def stream_id(self) -> str:
        return self._block.stream_ids[self._row]

    @property
    def segment_index(self) -> int:
        return self._block.segment_indices.item(self._row)

    @property
    def score(self) -> float:
        return self._block.errors.item(0, self._row)

    @property
    def action_error(self) -> float:
        return self._block.errors.item(1, self._row)

    @property
    def interaction_error(self) -> float:
        return self._block.errors.item(2, self._row)

    @property
    def is_anomaly(self) -> bool:
        return self._block.is_anomaly.item(self._row)

    @property
    def threshold(self) -> float:
        return self._block.threshold

    @property
    def model_version(self) -> int:
        return self._block.model_version

    @property
    def precision(self) -> str:
        return self._block.precision

    def _values(self) -> tuple:
        """The nine fields, in constructor order."""
        block, row = self._block, self._row
        errors = block.errors
        return (
            block.stream_ids[row],
            block.segment_indices.item(row),
            errors.item(0, row),
            errors.item(1, row),
            errors.item(2, row),
            block.is_anomaly.item(row),
            block.threshold,
            block.model_version,
            block.precision,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamDetection):
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(_DETECTION_FIELDS, self._values())
        )
        return f"StreamDetection({fields})"

    def __reduce__(self) -> tuple:
        return StreamDetection, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"StreamDetection is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"StreamDetection is immutable: cannot delete {name!r}")


_DETECTION_FIELDS = (
    "stream_id",
    "segment_index",
    "score",
    "action_error",
    "interaction_error",
    "is_anomaly",
    "threshold",
    "model_version",
    "precision",
)
# The slots' own setters: they bypass the refusing __setattr__, and mapped
# over a batch they fill its rows without a Python frame per row.
_SET_BLOCK = StreamDetection._block.__set__
_SET_ROW = StreamDetection._row.__set__


def _emit_rows(block: _DetectionBlock) -> List[StreamDetection]:
    """One :class:`StreamDetection` per row of ``block``, built in C."""
    count = len(block.stream_ids)
    rows = list(map(object.__new__, repeat(StreamDetection, count)))
    deque(map(_SET_BLOCK, rows, repeat(block, count)), maxlen=0)
    deque(map(_SET_ROW, rows, range(count)), maxlen=0)
    return rows


_NAN = float("nan")

_DETECTIONS = attrgetter("detections")


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
    Every buffered hidden state and the history ``S_h`` it was compared
    with come from this version: the monitor drops both when a batch is
    scored under another one."""


@dataclass
class ServiceStats:
    """Aggregate serving counters (reset with :meth:`ScoringService.reset_stats`)."""

    segments_scored: int = 0
    batches: int = 0
    scoring_seconds: float = 0.0
    forward_seconds: float = 0.0
    """Seconds in the fused CLSTM forward (``predict_full``)."""
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
    """Seconds spent in the fused forward kernel."""

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


class StreamSession:
    """Rolling per-stream state: the last ``q`` segment records and results."""

    def __init__(self, stream_id: str, sequence_length: int) -> None:
        self.stream_id = stream_id
        self.sequence_length = sequence_length
        self.history: Deque[Segment] = deque(maxlen=sequence_length)
        self.segments_seen = 0
        self.detections: List[StreamDetection] = []

    def make_request(
        self,
        action_feature: np.ndarray,
        interaction_feature: np.ndarray,
        interaction_level: float,
    ) -> Optional[ScoreRequest]:
        """Observe one incoming segment; return a request once warmed up.

        The features are the segment's float64 rows, kept as they are (the
        ingest boundary hands over row views of its private :class:`Tick`
        copy).  The current history window predicts the incoming segment (it
        is the reconstruction target); afterwards the segment joins the
        window.  The request's window is the history's segment records
        themselves, not a copy, so a segment's gate-input projections are
        computed once and shared by the ``q`` requests it appears in.
        """
        history = self.history
        request: Optional[ScoreRequest] = None
        if len(history) == self.sequence_length:
            request = ScoreRequest(
                self.stream_id,
                self.segments_seen,
                None,
                None,
                action_feature,
                interaction_feature,
                interaction_level,
                window=tuple(history),
            )
        history.append(Segment(action_feature, interaction_feature))
        self.segments_seen += 1
        return request


class DriftMonitor:
    """Fig. 5's drift monitor (Section IV-D) over one shard's scored batches.

    A scored segment whose interaction level is below ``T`` is presumed
    normal: its ``LSTM_I`` hidden state is buffered, and with
    ``retain_samples`` its request too.  ``T`` is
    ``config.interaction_threshold`` when set; otherwise it is the mean of
    every level observed *before* the current micro-batch — frozen for the
    batch and never reset on publish, so which rows are buffered depends on
    where batch boundaries fall.  Whenever the buffer reaches
    ``config.buffer_size`` rows it is compared with the historical set
    ``S_h`` by Eq. 17 (:func:`~repro.core.update.hidden_set_similarity`); a
    similarity at or below ``config.drift_threshold`` fires an
    :class:`UpdateTrigger`, and ``S_h`` absorbs the buffer either way.
    ``S_h`` — the seed included — keeps its last ``max_history`` rows when
    that is set.  With no seed,
    the first full buffer becomes ``S_h``.  ``S_h`` and the buffer hold
    hidden states of one model version, ``history_version``: a batch scored
    under another version drops both.

    A plain object — no locks, no plane, no callbacks: :meth:`observe`
    returns what fired and its owner reacts.  With ``config=None`` nothing
    is observed and the monitor only carries its seed.
    """

    def __init__(
        self,
        config: Optional[UpdateConfig],
        history_version: int,
        historical_hidden: Optional[np.ndarray] = None,
        max_history: Optional[int] = None,
        retain_samples: bool = False,
    ) -> None:
        if max_history is not None and max_history < 1:
            raise ValueError("max_history must be positive when set")
        self.config = config
        self.max_history = max_history
        self._historical_hidden = (
            self._capped(np.asarray(historical_hidden, dtype=np.float64))
            if historical_hidden is not None
            else None
        )
        self._history_version = history_version
        self._buffer_hidden: List[np.ndarray] = []
        self._buffer_stream_ids: List[str] = []
        # Sample payloads are kept only for an owner that trains on them:
        # otherwise buffer_size feature windows would be pinned for nothing.
        self._buffer_requests: Optional[List[ScoreRequest]] = [] if retain_samples else None
        self._level_sum = 0.0
        self._level_count = 0

    def observe(
        self, requests: Sequence[ScoreRequest], hidden: np.ndarray, model_version: int
    ) -> List[tuple]:
        """Observe one micro-batch scored under ``model_version`` (``hidden``
        holds its rows' hidden states) and return the ``(trigger, samples)``
        pairs it fired, in order.  ``samples`` is the trigger's buffered
        requests, or ``None`` unless every buffered row was retained.  A
        request with a ``nan`` level is not observed."""
        config = self.config
        if config is None:
            return []
        if model_version != self._history_version:
            # Hidden states of another version are not comparable with these
            # (a publish would read as drift by itself): drop S_h and the
            # buffer, and let the next full buffer seed this version's S_h.
            self._historical_hidden = None
            self._clear_buffer()
            self._history_version = model_version
        if config.interaction_threshold is not None:
            threshold = config.interaction_threshold
        elif self._level_count:
            threshold = self._level_sum / self._level_count
        else:
            threshold = float("inf")  # before any observation, everything buffers
        fired: List[tuple] = []
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
            if len(self._buffer_hidden) >= config.buffer_size:
                reaction = self._check(request.segment_index)
                if reaction is not None:
                    fired.append(reaction)
        return fired

    def _check(self, segment_index: int) -> Optional[tuple]:
        """Compare the full buffer with ``S_h``, absorb it and clear it;
        return the ``(trigger, samples)`` pair when it fired."""
        incoming = np.stack(self._buffer_hidden, axis=0)
        if self._historical_hidden is None:
            # First full buffer seeds the history; no drift can be measured yet.
            self._historical_hidden = incoming
            self._clear_buffer()
            return None
        similarity = hidden_set_similarity(
            self._historical_hidden, incoming, statistic=self.config.drift_statistic
        )
        reaction: Optional[tuple] = None
        if similarity <= self.config.drift_threshold:
            trigger = UpdateTrigger(
                segment_index=segment_index,
                similarity=float(similarity),
                buffered_segments=len(self._buffer_hidden),
                stream_ids=tuple(sorted(set(self._buffer_stream_ids))),
                model_version=self._history_version,
            )
            samples = self._buffer_requests
            # A buffer restored from a state that kept no samples holds only
            # part of them: no samples rather than a fragment to train on.
            complete = samples is not None and len(samples) == len(self._buffer_hidden)
            reaction = (trigger, tuple(samples) if complete else None)
        # History absorbs the buffer either way (line 14 of Fig. 5).
        self._historical_hidden = self._capped(
            np.concatenate([self._historical_hidden, incoming], axis=0)
        )
        self._clear_buffer()
        return reaction

    def _capped(self, history: np.ndarray) -> np.ndarray:
        """The last ``max_history`` rows of ``history``, copied when cut so
        the dropped rows are freed."""
        if self.max_history is None or len(history) <= self.max_history:
            return history
        return history[-self.max_history :].copy()

    def _clear_buffer(self) -> None:
        self._buffer_hidden.clear()
        self._buffer_stream_ids.clear()
        if self._buffer_requests is not None:
            self._buffer_requests.clear()


    def state(self) -> Dict[str, object]:
        """The monitor as checkpoint leaves: ``S_h`` and its version, the
        buffers and the level running sum."""
        return {
            "historical_hidden": self._historical_hidden,
            "history_version": self._history_version,
            "buffer_hidden": list(self._buffer_hidden),
            "buffer_stream_ids": list(self._buffer_stream_ids),
            "buffer_requests": (
                [_request_state(request) for request in self._buffer_requests]
                if self._buffer_requests is not None
                else None
            ),
            "level_sum": self._level_sum,
            "level_count": self._level_count,
        }

    def load_state(self, state: Mapping[str, object], latest_version: int) -> None:
        """Continue from a :meth:`state` payload.  A state written before the
        monitor tracked versions binds its history to ``latest_version``."""
        historical = state["historical_hidden"]
        self._historical_hidden = (
            np.asarray(historical, dtype=np.float64) if historical is not None else None
        )
        self._history_version = int(state.get("history_version", latest_version))
        self._buffer_hidden = [np.asarray(row, dtype=np.float64) for row in state["buffer_hidden"]]
        self._buffer_stream_ids = [str(stream_id) for stream_id in state["buffer_stream_ids"]]
        if self._buffer_requests is not None:
            self._buffer_requests = list(
                map(_request_from_state, state.get("buffer_requests") or [])
            )
        self._level_sum = float(state["level_sum"])
        self._level_count = int(state["level_count"])


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
        Micro-batch capacity; :meth:`submit_many` flushes automatically
        whenever a full batch has accumulated.
    update_config:
        Enables the service's :class:`DriftMonitor` when provided; with no
        ``interaction_threshold`` set, ``T`` is the mean of every level
        observed before the current micro-batch.
    historical_hidden, history_version, max_history:
        The monitor's seed ``S_h``, the model version whose hidden states it
        holds (default: the registry's latest) and the cap on ``S_h``.
        ``max_history=None`` is paper-faithful: the history grows without
        bound; a cap changes the comparison set, not the Eq. 17 statistic.
    on_update_trigger:
        Optional callback invoked with each emitted :class:`UpdateTrigger`.
    registry:
        A :class:`ModelRegistry` with at least one published snapshot; the
        service pins its latest version once per micro-batch.  Mutually
        exclusive with ``detector``.
    update_plane:
        Optional :class:`~repro.serving.maintenance.UpdatePlane` wired to the
        *same* registry; every drift trigger is handed to it together with
        the drained presumed-normal sample buffer (requires
        ``update_config``).  A plane attaches here or not at all: the
        monitor retains sample payloads only for a plane it was built with.
    max_batch_delay_ms:
        Wall-clock flush deadline: once the oldest queued request has waited
        this long, the partial batch is scored (on :meth:`submit_many` or
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
        history_version: Optional[int] = None,
        registry: Optional[ModelRegistry] = None,
        update_plane: Optional["UpdatePlane"] = None,
        max_batch_delay_ms: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        max_queue_depth: Optional[int] = None,
        latency_reservoir: int = 512,
    ) -> None:
        if sequence_length < 1:
            raise ValueError("sequence_length must be positive")
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
        if update_plane is not None:
            if update_plane.registry is not registry:
                raise ValueError(
                    "update_plane must publish into the same registry this service reads"
                )
            if update_config is None:
                raise ValueError("update_plane requires update_config (drift monitoring)")
        self.registry = registry
        self._handle = registry.handle()
        self.update_config = update_config
        self._update_plane = update_plane
        self._monitor = DriftMonitor(
            update_config,
            history_version if history_version is not None else registry.latest().version,
            historical_hidden,
            max_history,
            retain_samples=update_plane is not None,
        )
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
        # Bounded flush-to-score latency reservoir (ms); feeds the
        # p50/p95/p99 fields of load_stats().  Mutated only under the
        # scoring lock, read under both locks by load_stats.
        self._latencies: Deque[float] = deque(maxlen=latency_reservoir)

    @property
    def update_plane(self) -> Optional["UpdatePlane"]:
        """The maintenance plane attached at construction, if any."""
        return self._update_plane

    @property
    def model_version(self) -> int:
        """Version number of the currently published snapshot."""
        return self.registry.latest().version

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
        ``start`` on (``ValueError`` for a negative ``start``: it is a
        position, not a slice from the end).  A read: it creates no session,
        so an id that never submitted a segment yields ``[]`` and leaves the
        exported state as it was."""
        _check_start(start)
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
    @property
    def feature_dims(self) -> tuple:
        """``(action_dim, interaction_dim)`` of the served model: the widths
        every ingested feature must have."""
        model = self.registry.latest().model
        return model.action_dim, model.interaction_dim

    def check_room(self, stream_ids: Iterable[str]) -> None:
        """Raise :class:`~repro.serving.microbatch.QueueFull` unless the queue
        has room for every request a tick of ``stream_ids`` would add.

        Only warmed sessions' segments become requests: a stream with ``h``
        history segments turns ``m`` segments of one tick into
        ``max(0, m - (q - h))`` requests.
        """
        with self._ingest_lock:
            if self.batcher.max_pending is None:
                return
            needed = 0
            for stream_id, count in Counter(stream_ids).items():
                session = self.sessions.get(stream_id)
                history = len(session.history) if session is not None else 0
                needed += max(0, count - (self.sequence_length - history))
            if len(self.batcher) + needed > self.batcher.max_pending:
                raise QueueFull(self.batcher.max_pending)

    def enqueue(self, tick: Tick, positions: Optional[Sequence[int]] = None) -> float:
        """Window and queue ``tick``'s segments at ``positions`` (all of them
        by default, in that order) without scoring; returns the arrival stamp.

        The scoring-free half of :meth:`submit_many`: whoever calls
        :meth:`try_score_ready` / :meth:`poll` / :meth:`flush` next scores
        the queued work.  One ingest-lock acquisition and one clock read
        cover the group, and the group is all or nothing: when the queue
        lacks room for it, :class:`~repro.serving.microbatch.QueueFull` is
        raised before any session moves.  The tick is validated already
        (:class:`Tick`).
        """
        if positions is None:
            positions = range(len(tick))
        stream_ids, actions, interactions, levels = (
            tick.stream_ids,
            tick.action_rows,
            tick.interaction_rows,
            tick.levels,
        )
        q = self.sequence_length
        # Always stamp arrivals: deadline-less services still need them for
        # the flush-to-score latency percentiles (expired() stays inert
        # without a max_delay_seconds, so deadline behaviour is unchanged).
        now = self._clock()
        with self._ingest_lock:
            if self.batcher.max_pending is not None:
                self.check_room([stream_ids[k] for k in positions])
            sessions = self.sessions
            requests: List[ScoreRequest] = []
            for k in positions:
                stream_id = stream_ids[k]
                session = sessions.get(stream_id)
                if session is None:
                    session = sessions[stream_id] = StreamSession(stream_id, q)
                level = levels[k]
                request = session.make_request(
                    actions[k], interactions[k], _NAN if level is None else level
                )
                if request is not None:
                    requests.append(request)
            self.batcher.extend(requests, now)
        return now

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

    def submit_many(self, submissions: Iterable[Sequence]) -> List[StreamDetection]:
        """Feed one tick of segments, then score every ready batch.

        ``submissions`` is a :class:`Tick` or an iterable of ``(stream_id,
        action_feature, interaction_feature[, interaction_level])`` tuples;
        a lone segment is a one-row tick.  A level must be finite when
        given; ``None`` marks it unknown and excludes the segment from drift
        tracking (:func:`validate_interaction_level`).  A feature of the
        wrong width or holding a non-finite value refuses the whole tick
        with ``ValueError`` before anything is queued.

        Returns the detections of every batch that was full or past its
        deadline afterwards (usually for *earlier* segments — the
        latency/throughput trade of micro-batching).
        """
        tick = Tick.from_submissions(submissions, *self.feature_dims)
        with self._score_lock:
            self.enqueue(tick)
            return self._score_while_ready()

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
        by it (or by the next poll/submit_many).  This is what keeps at most
        one fused forward per shard in flight under the parallel executor.
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

        stream_ids = [request.stream_id for request in requests]
        detections = _emit_rows(
            _DetectionBlock(
                stream_ids,
                indices,
                np.array(
                    (result.scores, result.action_errors, result.interaction_errors),
                    dtype=np.float64,
                ),
                np.array(result.is_anomaly, dtype=bool),
                float(result.threshold),
                snapshot.version,
                getattr(snapshot.model, "precision", "float64"),
            )
        )
        # One ingest-lock acquisition routes the whole batch; a request
        # queued without going through ingest gets its session here.
        with self._ingest_lock:
            sessions = list(map(self.sessions.get, stream_ids))
            if None in sessions:
                sessions = list(map(self.session, stream_ids))
            # session.detections.append(detection) per row, consumed in C.
            deque(map(list.append, map(_DETECTIONS, sessions), detections), maxlen=0)
        fired = self._monitor.observe(requests, hidden, snapshot.version)
        self.update_triggers.extend(trigger for trigger, _ in fired)
        # React only after every row of the batch has been observed: the
        # monitor is then in a consistent, resumable state, so a checkpoint
        # taken by the update plane or a trigger callback lands exactly on an
        # inter-batch boundary.
        for trigger, samples in fired:
            if samples is not None:
                # Close the Fig. 5 loop in-runtime: train on the drained
                # presumed-normal buffer, merge, re-calibrate, publish.  The
                # swap becomes visible at the next batch's snapshot pin.
                with self._kernel_timings.measure("update"):
                    self._update_plane.handle_trigger(trigger, samples)
                self.stats.update_seconds = self._kernel_timings.total("update")
            if self.on_update_trigger is not None:
                self.on_update_trigger(trigger)
        return detections

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
        set and the model version it belongs to, presumed-normal buffers,
        interaction-level running mean) and the
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
            **self._monitor.state(),
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
        self._monitor.load_state(state, self.registry.latest().version)
        self.batcher.extend(list(map(_request_from_state, state["pending"])), self._clock())


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


def _replay_rounds(streams: Mapping[str, StreamFeatures]) -> Iterator[List[tuple]]:
    """The segments of ``streams`` as round-robin rounds of ``(stream_id,
    action, interaction, level)`` submissions: segment 0 of every stream,
    then segment 1 of every stream, ...

    Feature pipelines may emit ``nan`` levels for segments with no audience
    signal; those become the explicit "unknown" opt-in (``None``) instead of
    tripping the ingest boundary's finite-value validation.
    """
    longest = max((features.num_segments for features in streams.values()), default=0)
    for position in range(longest):
        submissions = []
        for stream_id, features in streams.items():
            if position >= features.num_segments:
                continue
            level: Optional[float] = None
            if features.normalised_interaction.size > position:
                value = float(features.normalised_interaction[position])
                if np.isfinite(value):
                    level = value
            submissions.append(
                (stream_id, features.action[position], features.interaction[position], level)
            )
        yield submissions


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
    streams reach a real ingest tier; each segment is submitted as its own
    one-row tick.  Returns every detection produced, in scoring order.

    ``service`` may be a :class:`ScoringService` or anything sharing its
    ingest surface (``submit_many``/``poll``/``flush``, e.g. the sharded
    service).  When a :class:`ManualClock` is supplied, simulated time
    advances by ``interarrival_seconds`` after each round-robin round and
    the service's deadline flushes run via ``poll()`` — this is how the
    deadline-bounded benchmarks replay at a controlled arrival rate.  The
    service must have been constructed with the *same* clock; otherwise its
    deadlines would silently keep running on real wall-clock time while the
    replay advances simulated time.
    """
    if clock is not None:
        shards = getattr(service, "shards", None) or [service]
        if any(getattr(shard, "_clock", None) is not clock for shard in shards):
            raise ValueError(
                "replay clock must be the clock the service was constructed with "
                "(pass clock=... to the service as well)"
            )
    detections: List[StreamDetection] = []
    for submissions in _replay_rounds(streams):
        for submission in submissions:
            detections.extend(service.submit_many((submission,)))
        if clock is not None:
            clock.advance(interarrival_seconds)
            detections.extend(service.poll())
    if flush:
        detections.extend(service.flush())
    return detections
