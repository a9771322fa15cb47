"""Turn a :class:`ScenarioConfig` into simulated streams.

Both streams come from the scenario's base profile, so the training stream
carries the profile's own Definition-1 anomalies: it is not clean (over seeds
7-26 the ``stationary`` train stream is 0-27% anomalous).  A declared training
contamination is ROADMAP item 15.  The perturbation schedule compiled by
:meth:`ScenarioConfig.perturbations` is applied to the test stream only.
Generation is fully deterministic in the scenario seed: the same
configuration yields bitwise-identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..streams.datasets import DatasetSpec, dataset_profile
from ..streams.events import SocialVideoStream
from ..streams.generator import ProfilePerturbation, SocialStreamGenerator
from ..utils.config import StreamProtocol
from .config import ScenarioConfig

__all__ = ["ScenarioStreams", "generate_scenario"]


@dataclass(frozen=True)
class ScenarioStreams:
    """The simulated train/test pair of one scenario."""

    config: ScenarioConfig
    train: SocialVideoStream
    test: SocialVideoStream
    perturbations: Tuple[ProfilePerturbation, ...]

    @property
    def onset_second(self) -> float:
        """Perturbation onset within the test stream."""
        return self.config.onset_second

    @property
    def spec(self) -> DatasetSpec:
        """The pair as a dataset of the scenario's base profile."""
        return DatasetSpec(self.config.name, dataset_profile(self.config.base_profile), self.train, self.test)


def generate_scenario(
    config: ScenarioConfig, protocol: StreamProtocol | None = None
) -> ScenarioStreams:
    """Simulate the train/test streams of one scenario deterministically."""
    profile = dataset_profile(config.base_profile)
    generator = SocialStreamGenerator(profile, protocol=protocol, seed=config.seed)
    schedule = config.perturbations()
    train = generator.generate(
        config.train_seconds, name=f"{config.name}-train", seed=config.seed
    )
    test = generator.generate(
        config.test_seconds,
        name=f"{config.name}-test",
        seed=config.seed + 1,
        perturbations=schedule,
    )
    return ScenarioStreams(config=config, train=train, test=test, perturbations=schedule)
