"""Cross-stream micro-batching of scoring requests.

Serving many concurrent live streams one segment at a time wastes the fused
inference engine: a single ``(1, q, d)`` forward is dominated by fixed
per-call overhead, while a ``(64, q, d)`` forward costs barely more than a
``(8, q, d)`` one.  The :class:`MicroBatcher` therefore collects
:class:`ScoreRequest` objects from *any* number of streams into one FIFO
queue and releases them in batches of up to ``max_batch_size`` — the classic
micro-batching scheduler of neural serving systems, including the optional
wall-clock flush deadline (``max_delay_seconds``) that bounds tail latency
when fan-in is too low to fill batches (see
:class:`~repro.serving.service.ScoringService`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn.fused import Segment

__all__ = ["QueueFull", "ScoreRequest", "MicroBatcher"]


class QueueFull(RuntimeError):
    """Raised by :meth:`MicroBatcher.extend` when the queue bound is reached.

    Carries the bound so admission layers can surface it; catching this and
    shedding the request (rather than blocking the ingest thread) is the
    back-pressure contract of the bounded queue.
    """

    def __init__(self, max_pending: int) -> None:
        super().__init__(f"micro-batch queue is full ({max_pending} pending requests)")
        self.max_pending = max_pending


class ScoreRequest:
    """One segment of one stream, ready to be scored.

    Attributes
    ----------
    stream_id:
        Identifier of the originating stream (routing key for the response).
    segment_index:
        Index of the predicted segment within its stream.
    window:
        The ``q`` history :class:`~repro.nn.fused.Segment` records feeding
        the CLSTM — the very objects the stream's session holds, so their
        cached gate-input projections are shared with every other queued
        request of the stream.  Built from ``action_history`` /
        ``interaction_history`` arrays when those are passed instead.
    action_history / interaction_history:
        The raw ``(q, d1)`` / ``(q, d2)`` windows, stacked on access (only
        update-plane samples and checkpoint export read them).
    action_target / interaction_target:
        True features of the incoming segment (the reconstruction targets).
    interaction_level:
        Normalised audience-interaction level of the incoming segment; the
        drift monitor buffers presumed-normal segments below a threshold of
        this quantity (Section IV-D).  ``nan`` disables drift tracking for
        the segment.
    """

    __slots__ = (
        "stream_id",
        "segment_index",
        "window",
        "action_target",
        "interaction_target",
        "interaction_level",
    )

    def __init__(
        self,
        stream_id: str,
        segment_index: int,
        action_history: Optional[np.ndarray] = None,
        interaction_history: Optional[np.ndarray] = None,
        action_target: Optional[np.ndarray] = None,
        interaction_target: Optional[np.ndarray] = None,
        interaction_level: float = float("nan"),
        *,
        window: Optional[Tuple[Segment, ...]] = None,
    ) -> None:
        if window is None:
            actions = np.asarray(action_history, dtype=np.float64)
            interactions = np.asarray(interaction_history, dtype=np.float64)
            window = tuple(Segment(*rows) for rows in zip(actions, interactions, strict=True))
        self.stream_id = stream_id
        self.segment_index = segment_index
        self.window = window
        self.action_target = action_target
        self.interaction_target = interaction_target
        self.interaction_level = interaction_level

    @property
    def action_history(self) -> np.ndarray:
        return np.stack([segment.rows[0] for segment in self.window], axis=0)

    @property
    def interaction_history(self) -> np.ndarray:
        return np.stack([segment.rows[1] for segment in self.window], axis=0)


class MicroBatcher:
    """FIFO queue that coalesces requests from many streams into batches.

    Two flush conditions are supported: the count-based :meth:`ready` (a
    full batch is waiting) and, when ``max_delay_seconds`` is set, the
    wall-clock :meth:`expired` deadline — the oldest queued request has
    waited at least ``max_delay_seconds``.  The deadline bounds tail latency
    at low stream fan-in, where a full batch may take arbitrarily long to
    accumulate.  Time is supplied by the caller (``now``), so services can
    use a monotonic clock in production and a manual clock in tests.
    """

    def __init__(
        self,
        max_batch_size: int = 64,
        max_delay_seconds: Optional[float] = None,
        max_pending: Optional[int] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if max_delay_seconds is not None and max_delay_seconds < 0:
            raise ValueError("max_delay_seconds must be non-negative when set")
        if max_pending is not None and max_pending < max_batch_size:
            raise ValueError("max_pending must be at least max_batch_size when set")
        self.max_batch_size = max_batch_size
        self.max_delay_seconds = max_delay_seconds
        self.max_pending = max_pending
        # Two parallel lists: a drain is two slices and two prefix deletes,
        # not a popleft per request and stamp.
        self._queue: List[ScoreRequest] = []
        self._arrivals: List[Optional[float]] = []
        self.submitted = 0
        self.batches_drained = 0

    def __len__(self) -> int:
        return len(self._queue)

    def extend(self, requests: Sequence[ScoreRequest], now: Optional[float] = None) -> None:
        """Enqueue ``requests`` in order, all stamped ``now``; all or none.

        ``now`` stamps the arrivals for deadline accounting; deadline-less
        callers can omit it.  Raises :class:`QueueFull` (enqueuing nothing)
        when they do not all fit under ``max_pending`` — shed them or retry
        later.
        """
        if self.max_pending is not None and len(self) + len(requests) > self.max_pending:
            raise QueueFull(self.max_pending)
        self._queue += requests
        self._arrivals += [now] * len(requests)
        self.submitted += len(requests)

    def ready(self) -> bool:
        """Whether a full batch is waiting."""
        return len(self._queue) >= self.max_batch_size

    def oldest_arrival(self) -> Optional[float]:
        """Arrival stamp of the queue head (None when idle or unstamped)."""
        return self._arrivals[0] if self._arrivals else None

    def expired(self, now: float) -> bool:
        """Whether the head request has outlived the flush deadline."""
        if self.max_delay_seconds is None or not self._queue:
            return False
        oldest = self._arrivals[0]
        if oldest is None:
            return False
        return (now - oldest) >= self.max_delay_seconds

    def pending(self) -> List[ScoreRequest]:
        """The queued requests in arrival order, without draining them.

        The checkpoint path persists these so a restored service re-queues
        exactly the requests that were waiting when the checkpoint was taken
        (arrival stamps are re-issued at restore time).
        """
        return list(self._queue)

    def drain(self) -> List[ScoreRequest]:
        """Pop up to ``max_batch_size`` requests (empty list when idle)."""
        size = self.max_batch_size
        batch = self._queue[:size]
        if batch:
            del self._queue[:size]
            del self._arrivals[:size]
            self.batches_drained += 1
        return batch

    @staticmethod
    def assemble(
        requests: List[ScoreRequest],
    ) -> Tuple[List[Tuple[Segment, ...]], np.ndarray, np.ndarray, np.ndarray]:
        """Turn a request list into what the batched scorer consumes.

        Returns ``(windows, action_targets, interaction_targets,
        segment_indices)`` with leading dimension ``len(requests)``; the
        windows stay segment records (``CLSTM.predict_full`` gathers their
        cached gate inputs), only the targets are stacked, one ``np.array``
        each.
        """
        if not requests:
            raise ValueError("cannot assemble an empty batch")
        return (
            [r.window for r in requests],
            np.array([r.action_target for r in requests], dtype=np.float64),
            np.array([r.interaction_target for r in requests], dtype=np.float64),
            np.array([r.segment_index for r in requests], dtype=np.int64),
        )
