"""Dataset presets mirroring the paper's four evaluation datasets.

The paper evaluates on 212 hours of Bilibili and Twitch recordings organised
into four datasets:

* **INF** — 31 h of influencer (live-commerce) videos, highly interactive;
* **SPE** — 21 h of speech videos, formal talks, speakers do not follow chat;
* **TED** — 32 h of TED-style talks, also one-way;
* **TWI** — 128 h of Twitch gaming streams, the largest and most interactive.

The recordings themselves are not redistributable and cannot be processed
offline, so each preset maps to a :class:`repro.streams.generator.StreamProfile`
that reproduces the dataset's *structural* characteristics: interactivity
level, whether the presenter reacts to the audience, anomaly density and
presentation-style variety.  Durations default to a laptop-scale fraction of
the paper's hours (the ratio between datasets is preserved) and can be scaled
up through ``duration_scale``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..utils.config import StreamProtocol
from .events import SocialVideoStream
from .generator import SocialStreamGenerator, StreamProfile

__all__ = [
    "DATASET_NAMES",
    "DatasetSpec",
    "dataset_profile",
    "load_dataset",
    "load_all_datasets",
]

DATASET_NAMES: Tuple[str, ...] = ("INF", "SPE", "TED", "TWI")

#: Hours in the paper for each dataset; used only to keep relative sizes.
_PAPER_HOURS: Dict[str, float] = {"INF": 31.0, "SPE": 21.0, "TED": 32.0, "TWI": 128.0}

#: Hours of each dataset used for the paper's test streams (Section VI-A).
_PAPER_TEST_HOURS: Dict[str, float] = {"INF": 6.0, "SPE": 4.0, "TED": 6.0, "TWI": 24.0}

_PROFILES: Dict[str, StreamProfile] = {
    # Live-commerce influencers: frequent attractive actions, strong two-way
    # coupling, lively chat.
    "INF": StreamProfile(
        name="INF",
        normal_states=4,
        anomaly_rate=0.010,
        anomaly_duration=8.0,
        switch_probability=0.015,
        audience_reactivity=0.5,
        base_comment_rate=2.5,
        burst_gain=9.0,
        reaction_delay=2,
        interactivity=1.0,
        anomaly_visual_shift=0.10,
        distractor_rate=0.015,
    ),
    # Formal speeches: few style changes, speaker ignores chat, quiet audience.
    "SPE": StreamProfile(
        name="SPE",
        normal_states=3,
        anomaly_rate=0.012,
        anomaly_duration=7.0,
        switch_probability=0.006,
        audience_reactivity=0.0,
        base_comment_rate=1.0,
        burst_gain=9.0,
        reaction_delay=2,
        interactivity=0.6,
        anomaly_visual_shift=0.12,
        distractor_rate=0.008,
    ),
    # TED-style talks: polished delivery, one-way, moderate audience.
    "TED": StreamProfile(
        name="TED",
        normal_states=3,
        anomaly_rate=0.012,
        anomaly_duration=7.0,
        switch_probability=0.008,
        audience_reactivity=0.0,
        base_comment_rate=1.5,
        burst_gain=9.0,
        reaction_delay=2,
        interactivity=0.8,
        anomaly_visual_shift=0.12,
        distractor_rate=0.008,
    ),
    # Twitch gaming: most interactive, fast chat, frequent hype moments.
    "TWI": StreamProfile(
        name="TWI",
        normal_states=5,
        anomaly_rate=0.012,
        anomaly_duration=10.0,
        switch_probability=0.020,
        audience_reactivity=0.6,
        base_comment_rate=4.0,
        burst_gain=10.0,
        reaction_delay=1,
        interactivity=1.4,
        anomaly_visual_shift=0.10,
        distractor_rate=0.02,
    ),
}


@dataclass(frozen=True)
class DatasetSpec:
    """A fully materialised dataset: train and test streams plus its profile."""

    name: str
    profile: StreamProfile
    train: SocialVideoStream
    test: SocialVideoStream

    @property
    def description(self) -> str:
        return (
            f"{self.name}: train {self.train.duration:.0f}s "
            f"({self.train.num_segments} segments), test {self.test.duration:.0f}s "
            f"({self.test.num_segments} segments, anomaly rate {self.test.anomaly_rate:.3f})"
        )


def dataset_profile(name: str) -> StreamProfile:
    """Return the :class:`StreamProfile` preset for a dataset name."""
    key = name.upper()
    if key not in _PROFILES:
        raise KeyError(f"unknown dataset '{name}'; options: {DATASET_NAMES}")
    return _PROFILES[key]


def load_dataset(
    name: str,
    duration_scale: float = 1.0,
    base_train_seconds: float = 600.0,
    base_test_seconds: float = 300.0,
    protocol: StreamProtocol | None = None,
    seed: int = 7,
) -> DatasetSpec:
    """Simulate one dataset (train + test streams).

    Parameters
    ----------
    name:
        One of ``INF``, ``SPE``, ``TED``, ``TWI``.
    duration_scale:
        Multiplier on the base durations; ``1.0`` yields laptop-scale streams,
        larger values approach the paper's hours.
    base_train_seconds / base_test_seconds:
        Durations (before scaling) of the INF-sized dataset; the other
        datasets are scaled by their share of the paper's hours.
    protocol:
        Segmentation protocol; defaults to the paper's (64-frame windows,
        25-frame stride, 25 fps).
    seed:
        Base random seed; train and test streams use different derived seeds.
    """
    key = name.upper()
    profile = dataset_profile(key)
    hours_ratio = _PAPER_HOURS[key] / _PAPER_HOURS["INF"]
    test_ratio = max(1.0, _PAPER_TEST_HOURS[key] / _PAPER_TEST_HOURS["INF"])
    train_seconds = max(64.0, base_train_seconds * duration_scale * hours_ratio)
    test_seconds = max(64.0, base_test_seconds * duration_scale * test_ratio)

    generator = SocialStreamGenerator(profile, protocol=protocol, seed=seed)
    train = generator.generate(train_seconds, name=f"{key}-train", seed=seed * 1000 + 1)
    test = generator.generate(test_seconds, name=f"{key}-test", seed=seed * 1000 + 2)
    return DatasetSpec(name=key, profile=profile, train=train, test=test)


def load_all_datasets(
    duration_scale: float = 1.0,
    base_train_seconds: float = 600.0,
    base_test_seconds: float = 300.0,
    protocol: StreamProtocol | None = None,
    seed: int = 7,
) -> Dict[str, DatasetSpec]:
    """Simulate all four datasets with consistent settings."""
    return {
        name: load_dataset(
            name,
            duration_scale=duration_scale,
            base_train_seconds=base_train_seconds,
            base_test_seconds=base_test_seconds,
            protocol=protocol,
            seed=seed + index,
        )
        for index, name in enumerate(DATASET_NAMES)
    }
