"""When to checkpoint: the runtime-owned auto-checkpoint policy.

A :class:`CheckpointPolicy` turns the manual ``runtime.checkpoint(path)``
call into an operational property: checkpoint every K ingested records,
every U published model updates, and/or every T seconds — whichever fires
first.  Time comes from the same injectable clock the serving deadlines use
(:class:`~repro.serving.service.ManualClock` in tests), so the time rule is
as deterministic under test as the count rules.

The policy is pure bookkeeping: the runtime notes records and publishes as
they happen, asks :meth:`due` after each ingest/poll, and calls :meth:`mark`
once a checkpoint has durably landed.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

__all__ = ["CheckpointPolicy"]


class CheckpointPolicy:
    """Every-K-records / every-U-updates / every-T-seconds trigger."""

    def __init__(
        self,
        *,
        every_records: Optional[int] = None,
        every_updates: Optional[int] = None,
        every_seconds: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if every_records is not None and every_records < 1:
            raise ValueError(f"every_records must be positive when set, got {every_records}")
        if every_updates is not None and every_updates < 1:
            raise ValueError(f"every_updates must be positive when set, got {every_updates}")
        if every_seconds is not None and every_seconds <= 0:
            raise ValueError(f"every_seconds must be positive when set, got {every_seconds}")
        self.every_records = every_records
        self.every_updates = every_updates
        self.every_seconds = every_seconds
        self._clock = clock if clock is not None else time.monotonic
        self.records_since = 0
        self.updates_since = 0
        self.checkpoints = 0
        self._last_checkpoint_at = self._clock()

    @property
    def enabled(self) -> bool:
        """Whether any rule is configured (a rule-less policy never fires)."""
        return (
            self.every_records is not None
            or self.every_updates is not None
            or self.every_seconds is not None
        )

    def note_records(self, count: int = 1) -> None:
        """Record that ``count`` submissions entered the runtime."""
        self.records_since += count

    def note_updates(self, count: int = 1) -> None:
        """Record that ``count`` model versions were published."""
        self.updates_since += count

    def due(self) -> bool:
        """Whether any configured rule has fired since the last :meth:`mark`."""
        if self.every_records is not None and self.records_since >= self.every_records:
            return True
        if self.every_updates is not None and self.updates_since >= self.every_updates:
            return True
        if self.every_seconds is not None:
            if self._clock() - self._last_checkpoint_at >= self.every_seconds:
                return True
        return False

    def mark(self) -> None:
        """A checkpoint landed: reset every rule's counter."""
        self.records_since = 0
        self.updates_since = 0
        self.checkpoints += 1
        self._last_checkpoint_at = self._clock()

    def stats(self) -> dict:
        """JSON-safe view for ``/stats`` and the Prometheus renderer."""
        return {
            "every_records": self.every_records,
            "every_updates": self.every_updates,
            "every_seconds": self.every_seconds,
            "records_since_checkpoint": self.records_since,
            "updates_since_checkpoint": self.updates_since,
            "auto_checkpoints": self.checkpoints,
        }
