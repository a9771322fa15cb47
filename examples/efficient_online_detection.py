"""Efficiency deep-dive: ADG bounds, ADOS filtering and their filtering power.

Section V of the paper accelerates online detection by avoiding the exact
400-dimensional Jensen–Shannon computation whenever a cheaper bound can decide
a segment.  This example trains one CLSTM on a TWI-style stream (the paper's
largest, most chat-heavy dataset), then compares four detection strategies:

* exact scoring without bounds,
* the L1-based JS bounds alone,
* L1 bounds + the ADG group bound,
* ADOS (adaptive bound selection).

It reports the per-segment cost of each cascade next to the CLSTM forward all
four share, the filtering power of each bound, and verifies that every
strategy reaches exactly the same detection decisions.  What reproduces is the
filtering power; the exact JS the bounds skip is a few percent of the forward,
so the wall-clock of the four strategies is at parity.

Run with::

    python examples/efficient_online_detection.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import AOVLIS, FeaturePipeline, FilteredDetector, load_dataset
from repro.optimization.filtering import evaluate_filtering_power
from repro.utils.config import TrainingConfig


def main() -> None:
    spec = load_dataset("TWI", base_train_seconds=240, base_test_seconds=180, seed=3)
    pipeline = FeaturePipeline(action_dim=200, motion_channels=spec.profile.motion_channels, seed=3)
    train = pipeline.extract(spec.train)
    test = pipeline.extract(spec.test)

    model = AOVLIS(
        sequence_length=9,
        action_hidden=48,
        interaction_hidden=24,
        training=TrainingConfig(epochs=10, batch_size=32, checkpoint_every=5, seed=3),
    )
    model.fit(train)
    batch = test.sequences(model.sequence_length)
    print(f"Trained on {train.num_segments} segments; scoring {len(batch)} live segments\n")

    strategies = {
        "No bound (exact)": dict(use_l1_bounds=False, use_adg_bound=False, adaptive=False),
        "JSmin + JSmax": dict(use_l1_bounds=True, use_adg_bound=False, adaptive=False),
        "JSmin + JSmax + RE_G": dict(use_l1_bounds=True, use_adg_bound=True, adaptive=False),
        "ADOS (adaptive)": dict(use_l1_bounds=True, use_adg_bound=True, adaptive=True),
    }

    def microseconds_per_segment(call) -> float:
        start = time.perf_counter()
        call()
        return (time.perf_counter() - start) / max(len(batch), 1) * 1e6

    # The forward is the same whatever the strategy: run it once for the timings.
    reference = FilteredDetector(model.detector)
    reconstructions, interaction_errors = reference.reconstruct(batch)

    reference_decisions = None
    print(f"{'strategy':24s} {'cascade us/segment':>19s} {'filtered':>9s} {'exact JS calls':>15s}")
    for name, flags in strategies.items():
        detector = FilteredDetector(model.detector, **flags)
        result = detector.detect(batch)
        elapsed = microseconds_per_segment(
            lambda: detector.filter.decide_batch(batch.action_targets, reconstructions, interaction_errors)
        )
        decisions = result.decisions
        if reference_decisions is None:
            reference_decisions = decisions
        agreement = bool(np.array_equal(decisions, reference_decisions))
        print(
            f"{name:24s} {elapsed:19.2f} {result.filtering_power():9.1%} "
            f"{result.exact_computations():15d}   decisions match exact: {agreement}"
        )

    forward = microseconds_per_segment(lambda: reference.reconstruct(batch))
    print(f"{'(shared CLSTM forward)':24s} {forward:19.2f}")

    print("\nFiltering power of each bound (fraction of segments it can decide alone):")
    report = evaluate_filtering_power(model.detector, batch)
    for bound_name, power in report.as_dict().items():
        print(f"  {bound_name:20s} {power:6.1%}")


if __name__ == "__main__":
    main()
