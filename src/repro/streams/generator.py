"""End-to-end simulator of live social video streams.

:class:`SocialStreamGenerator` couples the influencer behaviour process
(:mod:`repro.streams.actions`) and the audience reaction process
(:mod:`repro.streams.comments`) on a one-second timeline, then cuts the
resulting stream into 64-frame sliding-window segments exactly as the paper's
feature-extraction stage does (64-frame window, 25-frame stride at 25 fps).

The two processes are coupled in both directions when the dataset profile
allows it (INF, TWI): attractive influencer actions raise the audience comment
rate after a short delay, and sustained audience pressure can make the
influencer switch behaviour — which is precisely the mutual influence CLSTM is
designed to model.  For SPE/TED-style streams the backwards channel is
disabled (speakers do not react to the chat), matching the paper's observation
that CLSTM and CLSTM-S perform identically there.

Ground truth: a segment is labelled anomalous when it overlaps an injected
attractive action *and* the audience responds with an elevated comment rate,
mirroring Definition 1 (an anomaly needs both the influencer action and the
audience reaction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..utils.config import StreamProtocol
from .actions import InfluencerBehaviourModel
from .comments import AudienceModel, CommentTextGenerator
from .events import Comment, SocialVideoStream, VideoSegment

__all__ = ["StreamProfile", "ProfilePerturbation", "SocialStreamGenerator"]


@dataclass(frozen=True)
class StreamProfile:
    """Parameters describing one dataset's stream characteristics.

    The four dataset presets in :mod:`repro.streams.datasets` are instances of
    this profile; exposing it publicly lets users simulate their own platform
    mixes.
    """

    name: str
    motion_channels: int = 16
    normal_states: int = 4
    anomaly_rate: float = 0.008
    """Per-second probability of an attractive (anomalous) action starting."""

    anomaly_duration: float = 8.0
    switch_probability: float = 0.01
    audience_reactivity: float = 0.3
    """Strength of the audience -> influencer coupling (0 disables it)."""

    base_comment_rate: float = 2.0
    burst_gain: float = 8.0
    reaction_delay: int = 2
    interactivity: float = 1.0
    """Overall audience participation scale (TWI is the most interactive)."""

    motion_noise: float = 0.05
    burst_label_threshold: float = 1.5
    """A segment only counts as an anomaly when its comment rate exceeds this
    multiple of the running baseline (Definition 1 requires the reaction)."""

    baseline_window_seconds: float = 60.0
    """Length of the trailing window used for the running comment-rate
    baseline that ``burst_label_threshold`` is compared against.  The
    baseline is *causal*: only seconds strictly before the segment window
    contribute, and seconds inside (or shortly after) injected anomalies are
    excluded so a sustained burst cannot inflate its own baseline."""

    anomaly_visual_shift: float = 0.35
    """Visual distinctiveness of anomalous actions (see InfluencerBehaviourModel)."""

    distractor_rate: float = 0.02
    """Per-second probability of a visually-novel but unattractive distractor action."""

    distractor_duration: float = 4.0
    """Mean duration (seconds) of distractor actions."""


@dataclass(frozen=True)
class ProfilePerturbation:
    """One scheduled disturbance applied to a window of the simulated stream.

    Perturbations are the building blocks of the adversarial scenario suite
    (:mod:`repro.scenarios`): a flash crowd is a ramped comment-rate
    multiplier, a coordinated raid adds a burst of negative comments, a
    regime switch redraws the influencer's behaviour signatures, and so on.
    They are applied on top of the base :class:`StreamProfile` dynamics
    during ``[start_second, end_second)``.

    All injected-comment randomness comes from a dedicated injection RNG
    derived from the stream seed, never from the main simulation RNG —
    so a stream with perturbations is *bitwise identical* to the
    unperturbed stream outside the perturbed windows (prefix invariance),
    and an empty schedule reproduces the unperturbed stream exactly.
    """

    start_second: float
    end_second: float
    ramp: str = "step"
    """Intensity envelope inside the window: ``"step"`` (full strength
    immediately) or ``"linear"`` (ramps 0 -> 1 across the window)."""

    comment_rate_add: float = 0.0
    """Extra injected comments per second at full strength (flash crowd / raid)."""

    comment_rate_multiplier: float = 1.0
    """Multiplier on the injected comment count (compounds with ``comment_rate_add``)."""

    heavy_tail_alpha: Optional[float] = None
    """When set, injected counts are drawn from a Pareto(alpha) scaled by the
    injection rate instead of a Poisson — modelling heavy-tailed fan-in."""

    injected_sentiment: float = 0.5
    """Target sentiment of injected comments (raids use negative values)."""

    anomaly_rate_multiplier: float = 1.0
    """Scales the influencer's per-second anomaly probability inside the window."""

    force_anomaly: bool = False
    """Deterministically start an attractive action at the window start."""

    regime_shift: bool = False
    """Redraw all behaviour-state signatures at the window start (regime switch)."""

    def __post_init__(self) -> None:
        if self.start_second < 0:
            raise ValueError("start_second must be non-negative")
        if self.end_second <= self.start_second:
            raise ValueError("end_second must be greater than start_second")
        if self.ramp not in ("step", "linear"):
            raise ValueError("ramp must be 'step' or 'linear'")
        if self.comment_rate_add < 0:
            raise ValueError("comment_rate_add must be non-negative")
        if self.comment_rate_multiplier < 0:
            raise ValueError("comment_rate_multiplier must be non-negative")
        if self.heavy_tail_alpha is not None and self.heavy_tail_alpha <= 0:
            raise ValueError("heavy_tail_alpha must be positive")
        if self.anomaly_rate_multiplier < 0:
            raise ValueError("anomaly_rate_multiplier must be non-negative")

    def active(self, second: int) -> bool:
        """Whether this perturbation covers the given one-second slot."""
        return self.start_second <= second < self.end_second

    def strength(self, second: int) -> float:
        """Envelope value in [0, 1] for the given second."""
        if not self.active(second):
            return 0.0
        if self.ramp == "step":
            return 1.0
        span = self.end_second - self.start_second
        return float((second - self.start_second) / span)


class SocialStreamGenerator:
    """Simulate :class:`SocialVideoStream` objects from a :class:`StreamProfile`."""

    def __init__(
        self,
        profile: StreamProfile,
        protocol: StreamProtocol | None = None,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self.protocol = protocol if protocol is not None else StreamProtocol()
        self.seed = seed

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def generate(
        self,
        duration_seconds: float,
        name: Optional[str] = None,
        seed: Optional[int] = None,
        perturbations: Sequence[ProfilePerturbation] = (),
    ) -> SocialVideoStream:
        """Generate a stream of the requested duration.

        Parameters
        ----------
        duration_seconds:
            Length of the stream; at least one segment window is required.
        name:
            Stream name; defaults to the profile name.
        seed:
            Optional override of the generator seed (used to create multiple
            independent streams from the same profile).
        perturbations:
            Optional schedule of :class:`ProfilePerturbation` windows applied
            on top of the base profile dynamics.  Injection randomness uses a
            dedicated RNG derived from the stream seed, so the stream is
            bitwise identical to the unperturbed one outside the perturbed
            windows, and an empty schedule reproduces it exactly.
        """
        protocol = self.protocol
        seconds = int(duration_seconds)
        min_seconds = int(np.ceil(protocol.segment_frames / protocol.frame_rate))
        if seconds < min_seconds:
            raise ValueError(
                f"duration must cover at least one segment ({min_seconds}s), got {duration_seconds}"
            )
        actual_seed = self.seed if seed is None else seed
        rng = np.random.default_rng(actual_seed)
        # Injected comments draw from their own RNG stream so perturbations
        # never advance the main simulation RNG (prefix invariance).
        injection_rng = np.random.default_rng([actual_seed, 0x5CE7A810])
        injection_text = CommentTextGenerator(injection_rng)
        perturbations = tuple(perturbations)
        influencer = InfluencerBehaviourModel(
            motion_channels=self.profile.motion_channels,
            normal_states=self.profile.normal_states,
            anomaly_rate=self.profile.anomaly_rate,
            anomaly_duration=self.profile.anomaly_duration,
            switch_probability=self.profile.switch_probability,
            audience_reactivity=self.profile.audience_reactivity,
            anomaly_visual_shift=self.profile.anomaly_visual_shift,
            distractor_rate=self.profile.distractor_rate,
            distractor_duration=self.profile.distractor_duration,
            rng=np.random.default_rng(rng.integers(2**63)),
            # Behaviour-state signatures (the influencers' visual styles) are
            # derived from the generator's base seed so every stream of a
            # dataset — train, test, incoming chunks — depicts the same
            # presenters, while trajectories remain independent.
            signature_rng=np.random.default_rng(self.seed),
        )
        audience = AudienceModel(
            base_rate=self.profile.base_comment_rate,
            burst_gain=self.profile.burst_gain,
            reaction_delay=self.profile.reaction_delay,
            interactivity=self.profile.interactivity,
            rng=np.random.default_rng(rng.integers(2**63)),
        )

        per_second_states = []
        per_second_attractiveness = np.zeros(seconds)
        per_second_anomalous = np.zeros(seconds, dtype=bool)
        comment_counts = np.zeros(seconds)
        comments: List[Comment] = []

        audience_pressure = 0.0
        fired: set = set()
        for second in range(seconds):
            active = [p for p in perturbations if p.active(second)]
            anomaly_scale = 1.0
            for perturbation in active:
                anomaly_scale *= perturbation.anomaly_rate_multiplier
                if id(perturbation) not in fired:
                    fired.add(id(perturbation))
                    if perturbation.regime_shift:
                        influencer.shift_regime()
                    if perturbation.force_anomaly:
                        influencer.force_anomaly(self.profile.anomaly_duration)
            state = influencer.step(
                audience_pressure=audience_pressure,
                anomaly_rate_scale=anomaly_scale,
            )
            count, second_comments = audience.step(state.attractiveness, second)
            for perturbation in active:
                injected = self._injected_comments(
                    perturbation, second, injection_rng, injection_text
                )
                count += len(injected)
                second_comments = second_comments + injected
            per_second_states.append(state)
            per_second_attractiveness[second] = state.attractiveness
            per_second_anomalous[second] = state.is_anomalous
            comment_counts[second] = count
            comments.extend(second_comments)
            # Pressure felt by the influencer next second: audience excitement,
            # only transmitted when the platform/profile supports it.
            if self.profile.audience_reactivity > 0:
                audience_pressure = audience.current_excitement()
            else:
                audience_pressure = 0.0

        segments = self._build_segments(
            influencer=influencer,
            per_second_states=per_second_states,
            per_second_anomalous=per_second_anomalous,
            per_second_attractiveness=per_second_attractiveness,
            comment_counts=comment_counts,
            seconds=seconds,
            rng=rng,
        )
        metadata: Dict[str, float] = {
            "profile_anomaly_rate": self.profile.anomaly_rate,
            "interactivity": self.profile.interactivity,
            "audience_reactivity": self.profile.audience_reactivity,
        }
        return SocialVideoStream(
            name=name or self.profile.name,
            segments=segments,
            comments=comments,
            comment_counts=comment_counts,
            frame_rate=protocol.frame_rate,
            metadata=metadata,
        )

    def generate_many(self, count: int, duration_seconds: float) -> List[SocialVideoStream]:
        """Generate ``count`` independent streams of equal duration."""
        if count <= 0:
            raise ValueError("count must be positive")
        return [
            self.generate(duration_seconds, name=f"{self.profile.name}-{i}", seed=self.seed + i)
            for i in range(count)
        ]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _injected_comments(
        self,
        perturbation: ProfilePerturbation,
        second: int,
        rng: np.random.Generator,
        text_generator: CommentTextGenerator,
    ) -> List[Comment]:
        """Draw the extra comments a perturbation injects into one second."""
        strength = perturbation.strength(second)
        rate = (
            perturbation.comment_rate_add
            * perturbation.comment_rate_multiplier
            * strength
        )
        if rate <= 0:
            return []
        if perturbation.heavy_tail_alpha is not None:
            # Pareto-distributed burst sizes: most seconds get a trickle, a
            # few get enormous spikes (heavy-tailed stream fan-in).
            count = int(rate * (1.0 + rng.pareto(perturbation.heavy_tail_alpha)))
        else:
            count = int(rng.poisson(rate))
        injected: List[Comment] = []
        for _ in range(count):
            text, sentiment = text_generator.generate_directed(
                perturbation.injected_sentiment
            )
            timestamp = second + float(rng.random())
            injected.append(Comment(timestamp=timestamp, text=text, sentiment=sentiment))
        return injected

    def _build_segments(
        self,
        influencer: InfluencerBehaviourModel,
        per_second_states,
        per_second_anomalous: np.ndarray,
        per_second_attractiveness: np.ndarray,
        comment_counts: np.ndarray,
        seconds: int,
        rng: np.random.Generator,
    ) -> List[VideoSegment]:
        protocol = self.protocol
        frame_rate = protocol.frame_rate
        window = protocol.segment_frames
        stride = protocol.stride_frames
        total_frames = seconds * frame_rate

        # Baseline comment rate used to decide whether the audience actually
        # reacted to an attractive action (Definition 1).  The baseline is a
        # *causal* trailing-window mean: only seconds strictly before the
        # segment window contribute, and seconds inside injected anomalies
        # (plus the delayed reaction tail) are excluded, so labels never
        # depend on future data and sustained bursts cannot suppress their
        # own labels by inflating a whole-stream mean.
        reaction_tail = self.profile.reaction_delay + 2
        excluded = per_second_anomalous.copy()
        for offset in range(1, reaction_tail + 1):
            if offset < seconds:
                excluded[offset:] |= per_second_anomalous[:-offset]
        baseline_window = max(int(round(self.profile.baseline_window_seconds)), 1)
        fallback_baseline = max(
            self.profile.interactivity * self.profile.base_comment_rate, 1e-6
        )

        def causal_baseline(window_start_second: int) -> float:
            lo = max(0, window_start_second - baseline_window)
            hi = window_start_second
            if hi <= lo:
                return fallback_baseline
            usable = ~excluded[lo:hi]
            if not usable.any():
                return fallback_baseline
            return max(float(comment_counts[lo:hi][usable].mean()), 1e-6)

        segments: List[VideoSegment] = []
        index = 0
        start_frame = 0
        while start_frame + window <= total_frames:
            start_time = start_frame / frame_rate
            end_time = (start_frame + window) / frame_rate
            covered_seconds = range(int(start_time), min(seconds, int(np.ceil(end_time))))
            states = [per_second_states[s] for s in covered_seconds]
            # Dominant state = the state covering the most seconds of the window.
            names = [s.name for s in states]
            dominant = max(set(names), key=names.count)
            dominant_state = next(s for s in states if s.name == dominant)

            frames = np.concatenate(
                [
                    influencer.motion_frames(per_second_states[s], frame_rate, noise=self.profile.motion_noise)
                    for s in covered_seconds
                ],
                axis=0,
            )[: window]
            if frames.shape[0] < window:
                pad = np.tile(frames[-1:], (window - frames.shape[0], 1))
                frames = np.concatenate([frames, pad], axis=0)

            overlaps_anomaly = bool(per_second_anomalous[list(covered_seconds)].any())
            # Audience reaction window: the segment itself plus the delayed
            # response that lands a few seconds later.  The peak comment rate
            # inside the window is compared with the stream's baseline rate —
            # Definition 1 requires the action to actually draw a reaction.
            lo = int(start_time)
            hi = min(seconds, int(np.ceil(end_time)) + reaction_tail)
            reaction_rate = float(comment_counts[lo:hi].max()) if hi > lo else 0.0
            baseline = causal_baseline(lo)
            audience_reacted = reaction_rate >= self.profile.burst_label_threshold * baseline
            is_anomaly = overlaps_anomaly and audience_reacted

            attractiveness = float(per_second_attractiveness[list(covered_seconds)].max())
            segments.append(
                VideoSegment(
                    index=index,
                    start_time=start_time,
                    end_time=end_time,
                    motion_content=frames,
                    action_state=dominant_state.name,
                    is_anomaly=is_anomaly,
                    attractiveness=attractiveness,
                )
            )
            index += 1
            start_frame += stride
        return segments
