"""Latent influencer behaviour process.

The simulator replaces the pixels of a real live stream with a latent
behaviour process:

* the influencer is always in one of a small set of *action states*
  (e.g. ``presenting``, ``demonstrating``, ``interacting``) that follow a
  Markov chain — this models the "item pattern" / presentation-style
  regularity described in Section IV-B of the paper;
* occasionally the influencer performs an *attractive action* (the balance
  board wobble of Fig. 1) — this is the anomalous state that, combined with a
  delayed audience burst, constitutes a ground-truth anomaly;
* when the dataset profile allows two-way interaction (INF, TWI), a strong
  audience response nudges the influencer to switch state, reproducing the
  mutual influence CLSTM is designed to capture.

Each state has a *motion signature*: a distribution over a set of latent
motion channels.  A segment's ``motion_content`` is the per-frame signature of
its dominant state corrupted by noise; the simulated I3D extractor maps this
to a 400-dimensional probability-like action feature whose distribution shifts
with the state — which is exactly the property the detection pipeline relies
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["ActionState", "InfluencerBehaviourModel"]


@dataclass(frozen=True)
class ActionState:
    """One latent influencer behaviour state."""

    name: str
    signature: np.ndarray
    """Distribution over motion channels characterising the state."""

    attractiveness: float
    """How strongly the state attracts audience attention, in [0, 1]."""

    is_anomalous: bool = False
    """Whether the state corresponds to an injected anomalous action."""


class InfluencerBehaviourModel:
    """Markov model over influencer action states with anomaly injection.

    Parameters
    ----------
    motion_channels:
        Number of latent motion channels in each state signature.
    normal_states:
        Number of distinct normal behaviour states.
    anomaly_rate:
        Per-second probability of starting an anomalous (attractive) action.
    anomaly_duration:
        Mean duration of an anomalous action, in seconds.
    switch_probability:
        Per-second probability of a spontaneous switch between normal states.
    audience_reactivity:
        Probability that a strong audience burst causes the influencer to
        switch state (two-way coupling).  Zero for SPE/TED-style streams where
        the speaker ignores or cannot see the chat.
    signature_concentration:
        Dirichlet concentration of state signatures; smaller values yield more
        distinctive (peaked) signatures.
    anomaly_visual_shift:
        How far (in [0, 1]) an anomalous action's motion signature moves away
        from the normal signature it is derived from.  The paper stresses that
        in live social video the speakers' "limited actions and movement" make
        the spatial-temporal features alone "not discriminative enough" — the
        anomalous actions are therefore only *moderately* different visually,
        and the discriminating signal is the audience reaction.
    distractor_rate / distractor_duration:
        Per-second probability and mean length of *distractor* actions: brief
        flourishes that are visually about as unusual as an anomalous action
        but do not attract the audience.  They are labelled normal and exist
        to expose detectors that rely on visual novelty alone.
    rng:
        Random generator driving the behaviour *trajectory* (state switches,
        anomaly starts, frame noise).
    signature_rng:
        Random generator used only to draw the state *signatures*.  Streams
        that should depict the same influencers/presentation styles (e.g. the
        train and test splits of one dataset) must share this seed, while
        their trajectories stay independent.  Defaults to ``rng``.
    """

    def __init__(
        self,
        motion_channels: int = 16,
        normal_states: int = 4,
        anomaly_rate: float = 0.01,
        anomaly_duration: float = 8.0,
        switch_probability: float = 0.01,
        audience_reactivity: float = 0.3,
        signature_concentration: float = 0.5,
        anomaly_visual_shift: float = 0.35,
        distractor_rate: float = 0.02,
        distractor_duration: float = 4.0,
        rng: np.random.Generator | None = None,
        signature_rng: np.random.Generator | None = None,
    ) -> None:
        if motion_channels < 2:
            raise ValueError("motion_channels must be at least 2")
        if normal_states < 1:
            raise ValueError("normal_states must be at least 1")
        if not 0.0 <= anomaly_rate <= 1.0:
            raise ValueError("anomaly_rate must be a probability")
        if anomaly_duration <= 0:
            raise ValueError("anomaly_duration must be positive")
        if not 0.0 <= anomaly_visual_shift <= 1.0:
            raise ValueError("anomaly_visual_shift must be in [0, 1]")
        if not 0.0 <= distractor_rate <= 1.0:
            raise ValueError("distractor_rate must be a probability")
        self.motion_channels = motion_channels
        self.anomaly_rate = anomaly_rate
        self.anomaly_duration = anomaly_duration
        self.switch_probability = switch_probability
        self.audience_reactivity = audience_reactivity
        self.anomaly_visual_shift = anomaly_visual_shift
        self.distractor_rate = distractor_rate
        self.distractor_duration = distractor_duration
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._signature_rng = signature_rng if signature_rng is not None else self._rng

        self.normal_states: List[ActionState] = [
            ActionState(
                name=f"normal_{i}",
                signature=self._draw_signature(signature_concentration),
                attractiveness=float(self._signature_rng.uniform(0.05, 0.25)),
            )
            for i in range(normal_states)
        ]
        # Anomalous "attractive action" states are visually *similar* to a
        # normal state (blended signature) but far more attractive to the
        # audience; their distinctiveness lives mostly in the reaction.
        self.anomalous_states: List[ActionState] = [
            ActionState(
                name=f"attractive_{i}",
                signature=self._blend_signature(signature_concentration),
                attractiveness=float(self._signature_rng.uniform(0.7, 1.0)),
                is_anomalous=True,
            )
            for i in range(max(1, normal_states // 2))
        ]
        # Distractor states: visually unusual (though less so than anomalous
        # actions), without the audience appeal, and labelled normal.
        self.distractor_states: List[ActionState] = [
            ActionState(
                name=f"distractor_{i}",
                signature=self._blend_signature(signature_concentration, shift_scale=0.6),
                attractiveness=float(self._signature_rng.uniform(0.05, 0.2)),
            )
            for i in range(max(1, normal_states // 2))
        ]
        # The "responsive" state is the style the influencer falls into when the
        # chat heats up (e.g. reading comments, thanking viewers).  Because the
        # audience history makes this switch predictable, models that see the
        # audience stream (CLSTM) can anticipate it while visual-only or
        # one-way models cannot — the mutual-influence pathway of Fig. 3(b).
        self.responsive_state = self.normal_states[-1]
        self._current = self.normal_states[0]
        self._anomaly_seconds_left = 0.0
        self._distractor_seconds_left = 0.0

    # ------------------------------------------------------------------ #
    # State evolution
    # ------------------------------------------------------------------ #
    def step(self, audience_pressure: float = 0.0, anomaly_rate_scale: float = 1.0) -> ActionState:
        """Advance the behaviour process by one second.

        Parameters
        ----------
        audience_pressure:
            Normalised measure in [0, 1] of how strongly the audience reacted
            during the previous second.  With two-way coupling a high value
            makes a state switch more likely (the influencer adapts to the
            chat), mirroring Fig. 3(b) of the paper.
        anomaly_rate_scale:
            Multiplier on the per-second anomaly start probability for this
            step.  Scenario schedules use it to suppress (``0.0``, e.g. the
            label-free prefix of a cold start) or concentrate anomalous
            actions in parts of a stream; ``1.0`` is the profile behaviour.
        """
        if anomaly_rate_scale < 0:
            raise ValueError("anomaly_rate_scale must be non-negative")
        audience_pressure = float(np.clip(audience_pressure, 0.0, 1.0))
        if self._anomaly_seconds_left > 0:
            self._anomaly_seconds_left -= 1.0
            if self._anomaly_seconds_left <= 0:
                self._current = self._pick_normal_state()
            return self._current
        if self._distractor_seconds_left > 0:
            self._distractor_seconds_left -= 1.0
            if self._distractor_seconds_left <= 0:
                self._current = self._pick_normal_state()
            return self._current

        if self._rng.random() < min(1.0, self.anomaly_rate * anomaly_rate_scale):
            self._current = self.anomalous_states[self._rng.integers(len(self.anomalous_states))]
            self._anomaly_seconds_left = max(1.0, self._rng.exponential(self.anomaly_duration))
            return self._current

        if self.distractor_rate > 0 and self._rng.random() < self.distractor_rate:
            self._current = self.distractor_states[self._rng.integers(len(self.distractor_states))]
            self._distractor_seconds_left = max(1.0, self._rng.exponential(self.distractor_duration))
            return self._current

        # Two-way coupling: strong audience pressure (a burst, not background
        # chatter) pulls the influencer into the responsive style, a switch
        # that is predictable from the audience history alone.
        if self.audience_reactivity > 0 and audience_pressure > 0.6:
            if self._rng.random() < self.audience_reactivity:
                self._current = self.responsive_state
                return self._current

        switch_probability = self.switch_probability
        switch_probability += self.audience_reactivity * audience_pressure * 0.1
        if self._rng.random() < switch_probability:
            self._current = self._pick_normal_state()
        return self._current

    def force_anomaly(self, duration_seconds: float) -> ActionState:
        """Start an anomalous (attractive) action right now, deterministically.

        Scenario schedules use this to place a sustained burst at a known
        stream time (e.g. after a deliberately quiet prefix) instead of
        waiting for the Markov process to draw one.  The action runs for
        ``duration_seconds`` seconds unless a later :meth:`step` ends it.
        """
        if duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        self._current = self.anomalous_states[self._rng.integers(len(self.anomalous_states))]
        self._anomaly_seconds_left = float(duration_seconds)
        self._distractor_seconds_left = 0.0
        return self._current

    def shift_regime(self) -> None:
        """Redraw every state's motion signature (a regime switch).

        Models a persistent change of presentation style mid-stream — new
        camera setup, new game, new show format.  Fresh signatures are drawn
        from the signature generator, so the post-switch visual distribution
        is decorrelated from the one any detector trained on; attractiveness
        levels and state names are redrawn with them.  Segments already
        emitted keep the old signatures (states are immutable snapshots).
        """
        concentration = 0.5
        self.normal_states = [
            ActionState(
                name=f"regime_{i}",
                signature=self._draw_signature(concentration),
                attractiveness=float(self._signature_rng.uniform(0.05, 0.25)),
            )
            for i in range(len(self.normal_states))
        ]
        self.anomalous_states = [
            ActionState(
                name=f"regime_attractive_{i}",
                signature=self._blend_signature(concentration),
                attractiveness=float(self._signature_rng.uniform(0.7, 1.0)),
                is_anomalous=True,
            )
            for i in range(len(self.anomalous_states))
        ]
        self.distractor_states = [
            ActionState(
                name=f"regime_distractor_{i}",
                signature=self._blend_signature(concentration, shift_scale=0.6),
                attractiveness=float(self._signature_rng.uniform(0.05, 0.2)),
            )
            for i in range(len(self.distractor_states))
        ]
        self.responsive_state = self.normal_states[-1]
        self._current = self.normal_states[0]
        self._anomaly_seconds_left = 0.0
        self._distractor_seconds_left = 0.0

    def motion_frames(self, state: ActionState, frames: int, noise: float = 0.05) -> np.ndarray:
        """Per-frame motion content for ``frames`` frames of ``state``.

        Each frame is the state signature plus truncated Gaussian noise,
        renormalised so frames remain distributions over motion channels.
        """
        if frames <= 0:
            raise ValueError("frames must be positive")
        base = np.tile(state.signature, (frames, 1))
        noisy = base + self._rng.normal(0.0, noise, size=base.shape)
        noisy = np.clip(noisy, 1e-6, None)
        return noisy / noisy.sum(axis=1, keepdims=True)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _draw_signature(self, concentration: float) -> np.ndarray:
        alpha = np.full(self.motion_channels, max(concentration, 1e-3))
        return self._signature_rng.dirichlet(alpha)

    def _blend_signature(self, concentration: float, shift_scale: float = 1.0) -> np.ndarray:
        """Signature that is a moderate perturbation of a random normal state."""
        base = self.normal_states[self._signature_rng.integers(len(self.normal_states))].signature
        novel = self._draw_signature(concentration)
        shift = float(np.clip(self.anomaly_visual_shift * shift_scale, 0.0, 1.0))
        blended = (1.0 - shift) * base + shift * novel
        blended = np.clip(blended, 1e-9, None)
        return blended / blended.sum()

    def _pick_normal_state(self) -> ActionState:
        candidates = [s for s in self.normal_states if s.name != self._current.name]
        if not candidates:
            return self.normal_states[0]
        return candidates[self._rng.integers(len(candidates))]
