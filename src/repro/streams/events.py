"""Data records describing a simulated live social video stream.

The original evaluation uses recordings downloaded from Bilibili and Twitch.
Those recordings are not redistributable and cannot be processed offline here,
so the reproduction works on *simulated* streams (see
:mod:`repro.streams.generator`).  The records in this module are the common
currency between the simulator, the feature-extraction pipeline and the
detectors:

* :class:`Comment` — a single audience message with timestamp and text.
* :class:`VideoSegment` — one 64-frame sliding-window segment, carrying the
  latent "motion content" the simulated I3D extractor consumes instead of raw
  pixels, plus the ground-truth anomaly label.
* :class:`SocialVideoStream` — an ordered collection of segments, the
  per-second comment counts and the raw comments for a whole stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

import numpy as np

__all__ = ["Comment", "VideoSegment", "SocialVideoStream"]


@dataclass(frozen=True)
class Comment:
    """A single real-time audience comment (bullet comment / live chat line)."""

    timestamp: float
    """Stream time in seconds at which the comment was posted."""

    text: str
    """Comment text (synthetic, drawn from the audience vocabulary)."""

    sentiment: float = 0.0
    """Latent sentiment used to generate the text, in [-1, 1].  The feature
    pipeline re-estimates sentiment from the text; this field only exists so
    tests can check the estimator against the generating value."""


@dataclass(frozen=True)
class VideoSegment:
    """One sliding-window video segment of the stream.

    Attributes
    ----------
    index:
        Position of the segment in the stream (0-based).
    start_time / end_time:
        Segment boundaries in seconds.
    motion_content:
        Latent per-frame motion descriptor of shape ``(frames, channels)``.
        This is the simulator's stand-in for raw pixels: the
        :class:`repro.features.i3d.SimulatedI3DExtractor` maps it to the 400-d
        action-recognition feature, the same way the real system maps frames
        through ResNet50-I3D.
    action_state:
        Name of the latent influencer behaviour state dominating the segment.
    is_anomaly:
        Ground-truth label (True when the segment overlaps an injected
        anomalous action with audience reaction).
    attractiveness:
        Latent attractiveness of the influencer's action in [0, 1]; drives the
        audience burst process and is exposed for analysis only.
    """

    index: int
    start_time: float
    end_time: float
    motion_content: np.ndarray
    action_state: str
    is_anomaly: bool
    attractiveness: float


@dataclass
class SocialVideoStream:
    """A complete simulated social live video stream.

    The stream couples three aligned timelines: the per-segment video content,
    the per-second audience comment counts, and the raw comments.  Detectors
    never read the ground-truth labels; they are only consumed by the
    evaluation harness.
    """

    name: str
    segments: List[VideoSegment]
    comments: List[Comment]
    comment_counts: np.ndarray
    """Per-second number of comments, length = stream duration in seconds."""

    frame_rate: int = 25
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.comment_counts = np.asarray(self.comment_counts, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def duration(self) -> float:
        """Stream length in seconds."""
        return float(len(self.comment_counts))

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def labels(self) -> np.ndarray:
        """Ground-truth anomaly labels per segment (1 = anomaly)."""
        return np.array([int(segment.is_anomaly) for segment in self.segments], dtype=np.int64)

    @property
    def anomaly_rate(self) -> float:
        """Fraction of segments labelled anomalous."""
        if not self.segments:
            return 0.0
        return float(self.labels.mean())

    def __iter__(self) -> Iterator[VideoSegment]:
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    # ------------------------------------------------------------------ #
    # Slicing and composition
    # ------------------------------------------------------------------ #
    def comments_between(self, start: float, end: float) -> List[Comment]:
        """Comments posted in the half-open time interval ``[start, end)``."""
        return [c for c in self.comments if start <= c.timestamp < end]

    def counts_between(self, start: float, end: float) -> np.ndarray:
        """Per-second comment counts covering ``[start, end)`` (clipped to the stream)."""
        lo = max(0, int(np.floor(start)))
        hi = min(len(self.comment_counts), int(np.ceil(end)))
        if hi <= lo:
            return np.zeros(0)
        return self.comment_counts[lo:hi]

    def slice_time(self, start: float, end: float, name: str | None = None) -> "SocialVideoStream":
        """Return the sub-stream covering ``[start, end)`` seconds.

        Segment indices are re-numbered from zero and timestamps are shifted
        so the slice behaves like a standalone stream; this is how the
        train/test and hourly-update splits are produced.
        """
        if end <= start:
            raise ValueError(f"invalid slice [{start}, {end})")
        selected = [s for s in self.segments if s.start_time >= start and s.end_time <= end]
        segments = [
            VideoSegment(
                index=i,
                start_time=s.start_time - start,
                end_time=s.end_time - start,
                motion_content=s.motion_content,
                action_state=s.action_state,
                is_anomaly=s.is_anomaly,
                attractiveness=s.attractiveness,
            )
            for i, s in enumerate(selected)
        ]
        comments = [
            Comment(timestamp=c.timestamp - start, text=c.text, sentiment=c.sentiment)
            for c in self.comments
            if start <= c.timestamp < end
        ]
        lo, hi = int(np.floor(start)), int(np.ceil(end))
        counts = self.comment_counts[lo:hi].copy()
        return SocialVideoStream(
            name=name or f"{self.name}[{start:.0f}:{end:.0f}]",
            segments=segments,
            comments=comments,
            comment_counts=counts,
            frame_rate=self.frame_rate,
            metadata=dict(self.metadata),
        )

