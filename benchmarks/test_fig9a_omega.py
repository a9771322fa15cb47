"""Fig. 9(a) — effect of the action-branch weight omega on AUROC.

The paper sweeps omega from 0 to 1 and finds the optimum at 0.8 for INF and
0.9 for SPE/TED/TWI; both extremes (omega = 0: interaction only, omega = 1:
action only) are clearly worse than the optimum.

Expected shape here: a weighted combination (0 < omega < 1) achieves the best
AUROC on the interactive datasets — fusing both branches beats either branch
alone.
"""

from __future__ import annotations

import common

OMEGAS = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)


def run_experiment():
    results = common.harness().omega_sweep(omegas=list(OMEGAS), dataset_names=list(common.DATASETS))
    rows = []
    for name, sweep in results.items():
        rows.append([name] + [common.percent(sweep[omega]) for omega in OMEGAS])
    common.table(
        "fig9a_omega",
        ["dataset", *[f"w={omega}" for omega in OMEGAS]],
        rows,
        title="Fig. 9(a) — AUROC (%) vs action-branch weight omega",
    )
    return results


def test_fig9a_omega_sweep(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    better_than_extreme = 0
    for sweep in results.values():
        interior_best = max(value for omega, value in sweep.items() if 0.0 < omega < 1.0)
        if interior_best >= max(sweep[0.0], sweep[1.0]) - 0.02:
            better_than_extreme += 1
    # On most datasets mixing both branches should match or beat either branch alone.
    assert better_than_extreme >= len(results) - 1
