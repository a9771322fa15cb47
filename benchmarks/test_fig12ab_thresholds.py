"""Fig. 12(a)/(b) — effect of the ADOS trigger thresholds T1 and T2.

The paper sweeps T1 over [1.1, 2.0] and T2 over [0, 0.6] and reports the
per-segment detection time: both too-small and too-large values waste work
(bounds are computed when they cannot filter, or skipped when they could), so
the curve dips at an intermediate optimum (T1 ~ 1.6-1.8, T2 ~ 0.45-0.5).

What is measured: the ADOS cascade alone per threshold value (median of 15
repeats over the same reconstructions), with the forward every setting shares
as its own column.

Verdict here: detection remains correct for every threshold value, and the
sweep is flat — every setting costs a few µs per segment next to a ~40 µs
forward, so there is no optimum to locate.  The thresholds only move rows
between bounds and an exact JS that all cost a few µs or less.
"""

from __future__ import annotations

import numpy as np

import common
from repro.evaluation.harness import FORWARD

T1_VALUES = (1.1, 1.3, 1.5, 1.7, 1.9)
T2_VALUES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


def run_experiment():
    results = {}
    for name in ("INF", "TWI"):
        model = common.trained_clstm(name)
        results[name] = common.harness().ados_threshold_sweep(
            name, t1_values=list(T1_VALUES), t2_values=list(T2_VALUES), model=model
        )
    for figure, sweep, values in (("a", "T1", T1_VALUES), ("b", "T2", T2_VALUES)):
        rows = [
            [name, common.microseconds(results[name][FORWARD])]
            + [common.microseconds(results[name][sweep][value]) for value in values]
            for name in results
        ]
        common.table(
            f"fig12{figure}_{sweep.lower()}_sweep",
            ["dataset (us/segment)", "forward", *[f"{sweep}={value}" for value in values]],
            rows,
            title=f"Fig. 12({figure}) — effect of ADOS threshold {sweep} on the ADOS cascade's time",
        )
    return results


def test_fig12ab_threshold_sweeps(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for sweep in results.values():
        assert all(np.isfinite(list(sweep["T1"].values())))
        assert all(np.isfinite(list(sweep["T2"].values())))
        assert all(value > 0 for value in sweep["T1"].values())
        assert all(value > 0 for value in sweep["T2"].values())
        # Flat: no threshold makes the cascade cost a meaningful share of the forward.
        assert max(*sweep["T1"].values(), *sweep["T2"].values()) <= 0.5 * sweep[FORWARD]
