"""Admission control: the bounded queue between the socket and the runtime.

HTTP handler threads *offer* one item per request and tenant — a
:class:`~repro.serving.service.Tick`, validated at the door; a single
batcher thread *takes* whole items in micro-batch-sized chunks.  Every count
and bound is in segments: an item's ``len()``.  The queue is bounded — when
accepting a request would push the depth past ``max_pending`` segments, the
whole request is refused (HTTP 429 with a ``Retry-After`` hint) and **none**
of its segments enqueue.  All-or-nothing admission is what makes the 429
contract honest: work is either fully accepted (and will be scored, barring
process death) or fully refused (and the client retries the identical
request); a partially admitted request would be both.  A request larger than
the bound itself could never fit; the server refuses it with 413 before it
gets here.

This is deliberately a *second* bound in front of
``ServingConfig.max_queue_depth``: the service-level bound protects the
library runtime from any misbehaving in-process producer, while this one
protects the process from the network — and refuses load *before* ticks are
routed into shard queues.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Sized, Tuple

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded FIFO hand-off from HTTP handler threads to the batcher.

    Parameters
    ----------
    max_pending:
        Hard bound on queued-but-not-taken segments.
    retry_after_seconds:
        The ``Retry-After`` hint attached to refusals.  A constant from
        configuration (not a measured drain rate): deterministic, and honest
        enough — the client's contract is "retry later", not a latency SLO.
    """

    def __init__(self, max_pending: int, retry_after_seconds: float) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        if retry_after_seconds <= 0:
            raise ValueError(
                f"retry_after_seconds must be positive, got {retry_after_seconds}"
            )
        self.max_pending = int(max_pending)
        self.retry_after_seconds = float(retry_after_seconds)
        self._state = threading.Condition()
        self._queue: Deque[Tuple[Sized, int]] = deque()
        self._pending = 0
        self._closed = False
        self.accepted = 0
        self.rejected = 0
        self.high_watermark = 0

    def depth(self) -> int:
        """Queued segments."""
        with self._state:
            return self._pending

    def offer(self, items: List[Sized]) -> Tuple[bool, int]:
        """Admit ``items`` as a unit; returns ``(accepted, queue_depth)``.

        Refuses the *whole* batch when its segments do not fit below
        ``max_pending`` — nothing is partially enqueued — and when the
        controller is closed (a draining server refuses new work the same
        way it refuses overload: the client retries against the
        replacement).
        """
        if not items:
            return True, self.depth()
        sizes = list(map(len, items))
        segments = sum(sizes)
        with self._state:
            if self._closed or self._pending + segments > self.max_pending:
                self.rejected += segments
                return False, self._pending
            self._queue.extend(zip(items, sizes))
            self._pending += segments
            self.accepted += segments
            self.high_watermark = max(self.high_watermark, self._pending)
            self._state.notify_all()
            return True, self._pending

    def wait(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds for queued work (or closure)."""
        with self._state:
            return self._state.wait_for(
                lambda: bool(self._queue) or self._closed, timeout=timeout
            )

    def take(self, max_segments: int) -> List[Sized]:
        """Pop whole queued items, FIFO, without blocking: as many as fit in
        ``max_segments``, and always the first one however large."""
        with self._state:
            batch: List[Sized] = []
            taken = 0
            while self._queue and (not batch or taken + self._queue[0][1] <= max_segments):
                item, size = self._queue.popleft()
                batch.append(item)
                taken += size
            self._pending -= taken
            return batch

    def close(self) -> None:
        """Refuse all future offers and wake any waiting batcher (idempotent).

        Already-admitted items stay queued — the shutdown path takes and
        ingests them, honouring the never-drop-accepted-work contract.
        """
        with self._state:
            self._closed = True
            self._state.notify_all()

    def stats(self) -> Dict[str, object]:
        """One consistent counter sample (for ``/stats``)."""
        with self._state:
            return {
                "queue_depth": self._pending,
                "max_pending": self.max_pending,
                "accepted": self.accepted,
                "rejected": self.rejected,
                "high_watermark": self.high_watermark,
                "retry_after_seconds": self.retry_after_seconds,
            }
