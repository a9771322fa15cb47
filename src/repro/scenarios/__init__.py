"""Adversarial scenario library and leaderboard harness.

The paper's evaluation covers stationary and drifting streams; production
social video platforms also bring flash crowds, coordinated raids, regime
switches, heavy-tailed fan-in, skewed clocks and label-free cold starts.
This package makes those conditions first-class:

* :class:`ScenarioConfig` — a flat, JSON-able description of one adversarial
  condition, compiled into a
  :class:`~repro.streams.generator.ProfilePerturbation` schedule;
* :func:`generate_scenario` — deterministic train/test stream simulation;
* :func:`run_scenario_suite` — the leaderboard sweep: every detector variant
  on every scenario, AUROC / TPR@FPR / detection-latency per cell, ranked;
* :func:`drive_runtime` — the same scenarios replayed through the online
  :class:`~repro.runtime.Runtime` (micro-batching, ``ManualClock`` skew,
  heavy-tail fan-in across stream ids).
"""

from .config import SCENARIO_KINDS, ScenarioConfig, standard_suite
from .driver import RuntimeDriveReport, drive_runtime
from .generate import ScenarioStreams, generate_scenario
from .leaderboard import (
    DriftComparison,
    ScenarioCell,
    ScenarioLeaderboard,
    run_scenario_suite,
)

__all__ = [
    "SCENARIO_KINDS",
    "ScenarioConfig",
    "standard_suite",
    "ScenarioStreams",
    "generate_scenario",
    "ScenarioCell",
    "DriftComparison",
    "ScenarioLeaderboard",
    "run_scenario_suite",
    "RuntimeDriveReport",
    "drive_runtime",
]
