"""Declarative adversarial scenario configurations.

A :class:`ScenarioConfig` describes one adversarial stream condition the
paper's stationary/drift evaluation never exercises — flash crowds,
coordinated raid bursts, regime switches, heavy-tailed stream fan-in,
stalled/skewed clocks and label-free cold starts.  Each configuration is a
flat, JSON-able :class:`~repro.utils.config.ConfigBase` dataclass that
compiles into a :class:`~repro.streams.generator.ProfilePerturbation`
schedule applied to the *test* stream of the scenario (training streams stay
clean: the detectors must learn "normal" from ordinary traffic and then face
the adversarial condition cold).

:func:`standard_suite` returns the seven-scenario suite the leaderboard
harness (:mod:`repro.scenarios.leaderboard`) and the CI scenario gates sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..streams.generator import ProfilePerturbation
from ..utils.config import ConfigBase, checked

__all__ = ["SCENARIO_KINDS", "ScenarioConfig", "standard_suite"]


SCENARIO_KINDS: Tuple[str, ...] = (
    "stationary",
    "flash_crowd",
    "raid",
    "regime_switch",
    "heavy_tail",
    "clock_skew",
    "cold_start",
)
"""Every scenario family the library implements, in presentation order."""


@dataclass(frozen=True)
class ScenarioConfig(ConfigBase):
    """One adversarial streaming scenario, fully described by flat scalars.

    The scalar-only shape is deliberate: it keeps the strict
    ``from_dict``/``to_json`` round-trip of :class:`ConfigBase` (unknown
    fields and wrong types fail naming ``ScenarioConfig.field``) without
    needing nested schedule documents — the perturbation schedule is
    *compiled* from these scalars by :meth:`perturbations`.
    """

    name: str = checked(nonempty=True)
    """Scenario identifier used in leaderboard rows and artifacts."""

    kind: str = checked(one_of=SCENARIO_KINDS)
    """Scenario family; one of :data:`SCENARIO_KINDS`."""

    base_profile: str = "INF"
    """Dataset preset (INF/SPE/TED/TWI) supplying the base stream dynamics."""

    train_seconds: float = checked(160.0, gt=0)
    """Length of the clean training stream."""

    test_seconds: float = checked(120.0, gt=0)
    """Length of the (perturbed) test stream."""

    seed: int = 7
    """Stream seed; the test stream uses ``seed + 1`` so train/test are
    independent trajectories of the same simulated presenters."""

    intensity: float = checked(1.0, gt=0)
    """Strength multiplier of the perturbation (injected comment rates,
    anomaly-rate scaling)."""

    onset_fraction: float = checked(0.4, ge=0, lt=1)
    """Where in the test stream the perturbation window opens, as a fraction
    of ``test_seconds``."""

    duration_fraction: float = checked(0.4, gt=0, le=1)
    """Length of the perturbation window as a fraction of ``test_seconds``.
    Sustained scenarios (regime switch) run from onset to the end of the
    stream regardless."""

    clock_stall_seconds: float = checked(0.0, ge=0)
    """``clock_skew`` only: how long the driver's :class:`ManualClock` stalls
    at the perturbation onset before resuming."""

    clock_rate: float = checked(1.0, gt=0)
    """``clock_skew`` only: clock seconds advanced per ingested tick once the
    stall ends (``2.0`` = a fast clock, ``0.5`` = a slow one)."""

    fan_in_streams: int = checked(1, ge=1)
    """``heavy_tail`` only: number of concurrent stream ids the driver fans
    the test segments across (with Pareto-weighted assignment)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.onset_fraction + self.duration_fraction <= 1.0 + 1e-9:
            raise ValueError(
                f"ScenarioConfig.duration_fraction must be <= 1 - onset_fraction "
                f"({self.onset_fraction}), got {self.duration_fraction!r}"
            )

    # ------------------------------------------------------------------ #
    # Schedule compilation
    # ------------------------------------------------------------------ #
    @property
    def onset_second(self) -> float:
        """Absolute perturbation onset within the test stream."""
        return self.onset_fraction * self.test_seconds

    @property
    def offset_second(self) -> float:
        """Absolute perturbation end within the test stream."""
        return min(
            self.test_seconds,
            (self.onset_fraction + self.duration_fraction) * self.test_seconds,
        )

    def perturbations(self) -> Tuple[ProfilePerturbation, ...]:
        """Compile this scenario into its test-stream perturbation schedule."""
        start, end = self.onset_second, self.offset_second
        if self.kind == "stationary" or self.kind == "clock_skew":
            # Clock skew perturbs *time*, not content — the driver handles it.
            return ()
        if self.kind == "flash_crowd":
            # An attractive action draws a crowd that keeps growing: the
            # forced anomaly supplies Definition 1's action half, the ramped
            # positive comment flood supplies the reaction half.
            return (
                ProfilePerturbation(
                    start_second=start,
                    end_second=end,
                    ramp="linear",
                    comment_rate_add=12.0 * self.intensity,
                    injected_sentiment=0.8,
                    force_anomaly=True,
                ),
            )
        if self.kind == "raid":
            # A coordinated burst of hostile comments with *no* attractive
            # action behind it: a detector that scores on comment volume
            # alone false-positives here.
            return (
                ProfilePerturbation(
                    start_second=start,
                    end_second=end,
                    ramp="step",
                    comment_rate_add=20.0 * self.intensity,
                    injected_sentiment=-0.8,
                    anomaly_rate_multiplier=0.0,
                ),
            )
        if self.kind == "regime_switch":
            # The influencer's visual style changes for good and the audience
            # settles at a permanently higher chatter level.  Under the old
            # whole-stream-mean label baseline this sustained elevation
            # inflated the baseline and silently suppressed labels in the
            # pre-switch prefix; the causal running baseline keeps prefix
            # labels invariant.
            return (
                ProfilePerturbation(
                    start_second=start,
                    end_second=self.test_seconds,
                    ramp="step",
                    comment_rate_add=6.0 * self.intensity,
                    injected_sentiment=0.0,
                    anomaly_rate_multiplier=2.0,
                    regime_shift=True,
                ),
            )
        if self.kind == "heavy_tail":
            return (
                ProfilePerturbation(
                    start_second=start,
                    end_second=end,
                    ramp="step",
                    comment_rate_add=8.0 * self.intensity,
                    heavy_tail_alpha=1.3,
                    injected_sentiment=0.3,
                ),
            )
        # cold_start: a quiet, anomaly-free warmup prefix before ordinary
        # traffic resumes — the detector sees no labelled bursts early on.
        return (
            ProfilePerturbation(
                start_second=0.0,
                end_second=max(start, 1.0),
                ramp="step",
                anomaly_rate_multiplier=0.0,
            ),
        )


def standard_suite(
    train_seconds: float = 160.0,
    test_seconds: float = 120.0,
    seed: int = 7,
) -> Tuple[ScenarioConfig, ...]:
    """The seven-scenario suite swept by the leaderboard and the CI gates."""
    common = dict(train_seconds=train_seconds, test_seconds=test_seconds, seed=seed)
    return (
        ScenarioConfig(name="stationary", kind="stationary", **common),
        ScenarioConfig(name="flash_crowd", kind="flash_crowd", intensity=1.5, **common),
        ScenarioConfig(name="raid_burst", kind="raid", duration_fraction=0.2, **common),
        ScenarioConfig(name="regime_switch", kind="regime_switch", onset_fraction=0.5, **common),
        ScenarioConfig(
            name="heavy_tail_fanin", kind="heavy_tail", fan_in_streams=3, **common
        ),
        ScenarioConfig(
            name="clock_skew",
            kind="clock_skew",
            clock_stall_seconds=30.0,
            clock_rate=2.0,
            **common,
        ),
        ScenarioConfig(
            name="cold_start",
            kind="cold_start",
            train_seconds=max(80.0, train_seconds / 2),
            test_seconds=test_seconds,
            seed=seed,
        ),
    )

