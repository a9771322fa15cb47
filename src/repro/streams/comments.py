"""Audience comment process and synthetic comment text.

The audience side of a live social video stream is modelled as a marked point
process over one-second slots:

* a *base rate* of background chatter (negative-binomial counts, which match
  the bursty, over-dispersed nature of real bullet-comment traffic better than
  a plain Poisson);
* a *delayed excitement response*: when the influencer performs an attractive
  action, the expected comment rate is multiplied for the following seconds,
  decaying exponentially — this reproduces the "abrupt quantity changes of
  real-time comments" the paper describes (Fig. 2a, Fig. 3);
* comment *text* drawn from a small vocabulary whose sentiment skews positive
  during excitement bursts, so the word-embedding and sentiment features carry
  signal about the anomaly as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .events import Comment

__all__ = ["AudienceModel", "CommentTextGenerator"]


class CommentTextGenerator:
    """Generates short synthetic comment strings with controllable sentiment."""

    NEUTRAL = [
        "hello everyone",
        "watching from home",
        "what product is this",
        "stream quality is fine",
        "hi streamer",
        "first time here",
        "what time does it end",
        "is this live",
    ]
    POSITIVE = [
        "wow amazing",
        "this is awesome",
        "love it so much",
        "great great great",
        "take my money",
        "best stream ever",
        "so cool wow",
        "buying this now",
    ]
    NEGATIVE = [
        "this is boring",
        "not interested",
        "bad audio today",
        "too expensive",
        "skip this part",
        "disappointing demo",
    ]

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def generate(self, excitement: float) -> tuple[str, float]:
        """Draw one comment.

        Parameters
        ----------
        excitement:
            Value in [0, 1]; higher excitement makes positive, enthusiastic
            comments more likely.

        Returns
        -------
        (text, sentiment)
            The comment text and the latent sentiment in [-1, 1] of the pool
            it was drawn from.
        """
        excitement = float(np.clip(excitement, 0.0, 1.0))
        positive_probability = 0.2 + 0.7 * excitement
        negative_probability = 0.15 * (1.0 - excitement)
        draw = self._rng.random()
        if draw < positive_probability:
            pool, sentiment = self.POSITIVE, 0.8
        elif draw < positive_probability + negative_probability:
            pool, sentiment = self.NEGATIVE, -0.6
        else:
            pool, sentiment = self.NEUTRAL, 0.0
        text = pool[self._rng.integers(len(pool))]
        return text, sentiment

    def generate_directed(self, sentiment: float) -> tuple[str, float]:
        """Draw one comment from the pool matching a target sentiment.

        Scenario injections (flash crowds, coordinated raids) need comments
        with a *chosen* polarity rather than the excitement-driven mixture:
        a raid floods negative lines, a flash crowd mostly positive ones.
        ``sentiment`` above ``0.3`` selects the positive pool, below ``-0.3``
        the negative pool, anything between the neutral pool; the latent
        sentiment of the chosen pool is returned alongside the text.
        """
        if sentiment > 0.3:
            pool, latent = self.POSITIVE, 0.8
        elif sentiment < -0.3:
            pool, latent = self.NEGATIVE, -0.6
        else:
            pool, latent = self.NEUTRAL, 0.0
        text = pool[self._rng.integers(len(pool))]
        return text, latent


@dataclass
class _ExcitementState:
    """Internal exponential-decay excitement level of the audience."""

    level: float = 0.0
    decay: float = 0.75

    def update(self, stimulus: float) -> float:
        self.level = self.level * self.decay + stimulus
        return self.level


class AudienceModel:
    """Audience reaction process producing per-second comment counts and text.

    Parameters
    ----------
    base_rate:
        Mean number of background comments per second.
    burst_gain:
        Multiplier applied to the rate at full excitement.
    reaction_delay:
        Delay, in seconds, between an attractive action and the audience
        response peak (paper: comments to an action "could appear over a
        period" after it).
    dispersion:
        Negative-binomial dispersion (smaller = burstier counts).
    interactivity:
        Overall scale of audience participation (TWI > INF > TED > SPE).
    rng:
        Random generator.
    """

    def __init__(
        self,
        base_rate: float = 2.0,
        burst_gain: float = 8.0,
        reaction_delay: int = 2,
        dispersion: float = 5.0,
        interactivity: float = 1.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if base_rate < 0:
            raise ValueError("base_rate must be non-negative")
        if burst_gain < 1.0:
            raise ValueError("burst_gain must be at least 1")
        if reaction_delay < 0:
            raise ValueError("reaction_delay must be non-negative")
        if dispersion <= 0:
            raise ValueError("dispersion must be positive")
        self.base_rate = base_rate
        self.burst_gain = burst_gain
        self.reaction_delay = int(reaction_delay)
        self.dispersion = dispersion
        self.interactivity = interactivity
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._text = CommentTextGenerator(self._rng)
        self._excitement = _ExcitementState()
        self._pending_stimuli: List[float] = []

    # ------------------------------------------------------------------ #
    # Per-second simulation
    # ------------------------------------------------------------------ #
    def step(self, attractiveness: float, second: int) -> tuple[int, List[Comment]]:
        """Simulate one second of audience behaviour.

        Parameters
        ----------
        attractiveness:
            The influencer's current action attractiveness in [0, 1].
        second:
            Absolute stream time of this slot (used for comment timestamps).

        Returns
        -------
        (count, comments)
            The number of comments posted during this second and the comment
            records themselves.
        """
        attractiveness = float(np.clip(attractiveness, 0.0, 1.0))
        # The stimulus created *now* only reaches the excitement level after
        # ``reaction_delay`` seconds (typing delay of the audience).
        self._pending_stimuli.append(attractiveness)
        if len(self._pending_stimuli) > self.reaction_delay:
            stimulus = self._pending_stimuli.pop(0)
        else:
            stimulus = 0.0
        excitement = self._excitement.update(stimulus)
        excitement = float(np.clip(excitement, 0.0, 2.0)) / 2.0

        rate = self.interactivity * self.base_rate * (1.0 + (self.burst_gain - 1.0) * excitement)
        count = int(self._negative_binomial(rate))
        comments = []
        for _ in range(count):
            text, sentiment = self._text.generate(excitement)
            timestamp = second + float(self._rng.random())
            comments.append(Comment(timestamp=timestamp, text=text, sentiment=sentiment))
        return count, comments

    def current_excitement(self) -> float:
        """Current (normalised) audience excitement level."""
        return float(np.clip(self._excitement.level, 0.0, 2.0)) / 2.0

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _negative_binomial(self, mean: float) -> int:
        """Draw an over-dispersed count with the given mean."""
        if mean <= 0:
            return 0
        # Parameterise NB by mean and dispersion r: p = r / (r + mean).
        r = self.dispersion
        p = r / (r + mean)
        return int(self._rng.negative_binomial(r, p))
