"""Lightweight timing utilities.

The paper's efficiency evaluation (Section VI-C) reports model-update wall
time: a stopwatch times each update, and a named accumulator sums the
serving-side update time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

__all__ = ["Stopwatch", "TimingAccumulator"]


@dataclass
class Stopwatch:
    """A resumable stopwatch measuring wall-clock seconds."""

    elapsed: float = 0.0
    _started_at: float | None = field(default=None, repr=False)

    def start(self) -> "Stopwatch":
        if self._started_at is not None:
            raise RuntimeError("stopwatch already running")
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError("stopwatch is not running")
        self.elapsed += time.perf_counter() - self._started_at
        self._started_at = None
        return self.elapsed


class TimingAccumulator:
    """Accumulates wall-clock seconds per name."""

    def __init__(self) -> None:
        self._totals: Dict[str, float] = defaultdict(float)

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self._totals[name] += time.perf_counter() - start

    def total(self, name: str) -> float:
        """Total seconds recorded under ``name``."""
        return self._totals.get(name, 0.0)

