"""Table III / Section VI-C.6 — incremental model update vs. full re-training.

Paper reference values (update frequency 1 h, AUROC %): incremental update
83.33 / 75.06 / 81.75 / 79.42 vs. re-training 76.21 / 70.33 / 73.11 / 73.56 on
INF / SPE / TED / TWI; incremental stays ahead at every frequency.  Its
model-update time is 174 s / 130 s / 144 s / 183 s against 5.2 h / 2.4 h /
6.0 h / 20.5 h of re-training — up to a 403x improvement.

The incremental arm is the served loop: a ``Runtime`` replays the test stream
and its ``UpdatePlane`` retrains, merges, re-calibrates and publishes; its
seconds are the sum of ``UpdateReport.seconds``.  ``updates`` is the number of
versions it published — a row reading 0 never ran the code under test.

Expected shape on the simulated datasets: the incremental strategy's AUROC is
at least comparable to full re-training while its maintenance cost (seconds)
is far lower (absolute numbers are laptop-scale).
"""

from __future__ import annotations

import numpy as np

import common


def run_experiment():
    harness = common.light_harness()
    results = {
        name: harness.incremental_update_experiment(name, chunks=3) for name in common.DATASETS
    }
    rows = []
    for name, payload in results.items():
        incremental, retraining = payload["incremental"], payload["retraining"]
        speed_up = (
            retraining["maintenance_seconds"] / incremental["maintenance_seconds"]
            if incremental["maintenance_seconds"] > 0
            else float("inf")
        )
        rows.append(
            [
                name,
                common.percent(incremental["auroc"]),
                common.percent(retraining["auroc"]),
                incremental["updates"],
                f"{incremental['maintenance_seconds']:.2f}",
                f"{retraining['maintenance_seconds']:.2f}",
                f"{speed_up:.1f}x",
            ]
        )
    common.table(
        "table3_incremental_update",
        [
            "dataset",
            "incremental AUROC",
            "re-training AUROC",
            "updates",
            "incremental s",
            "re-training s",
            "speed-up",
        ],
        rows,
        title="Table III / Sec. VI-C.6 — incremental update vs re-training",
    )
    return results


def test_table3_incremental_update(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # An arm that never published costs 0 s and would pass the ratio below.
    assert all(payload["incremental"]["updates"] >= 1 for payload in results.values())
    maintenance_ratios = []
    for payload in results.values():
        incremental = payload["incremental"]["maintenance_seconds"]
        retraining = payload["retraining"]["maintenance_seconds"]
        if retraining > 0:
            maintenance_ratios.append(incremental / retraining)
    # Incremental maintenance must be substantially cheaper than re-training.
    assert np.median(maintenance_ratios) < 1.0
