"""Fig. 11(b) — detection time of the different optimisation strategies.

The paper compares per-segment detection time for: the naive combination of
all bounds (JSmin+JSmax, JSmin+JSmax+RE^G_I), no bounds at all, and ADOS; ADOS
is the fastest because it skips bound computations that cannot decide a
segment.

What is measured: the CLSTM forward is identical for every strategy, so it is
timed once and reported as its own row; each strategy row is the cascade alone
(median of 15 repeats over the same reconstructions), next to the number of
exact ``RE_I`` computations it still needed.

Verdict here: the *counts* reproduce the paper's ordering (ADOS ≈ full
combination < L1-only < none: 20-33% of the segments still need the exact JS);
the *wall-clock* cannot, beyond parity.  The exact JS the bounds skip is one
vectorised call of ~1 µs per segment next to a ~40 µs forward, and the group
bound that skips it costs 3-5x what computing it does, so every cascade is
within 2x of "No Bound" and within a few percent of the segment's total.  (Up
to PR 23 this table read ADOS 2x *slower*: that was a per-(row, group) Python
loop inside the group bound, not ADOS.)
"""

from __future__ import annotations

import common
from repro.evaluation.harness import FORWARD

STRATEGIES = ("No Bound", "JSmin+JSmax", "JSmin+JSmax+REG", "ADOS")


def run_experiment():
    times, exact = {}, {}
    for name in common.DATASETS:
        times[name], exact[name] = common.harness().optimisation_strategy_times(
            name, model=common.trained_clstm(name)
        )
    rows = [
        [f"{row} (us/segment)"] + [common.microseconds(times[d][row]) for d in common.DATASETS]
        for row in (FORWARD, *STRATEGIES)
    ]
    rows += [
        [f"{strategy} (exact RE_I computed)"] + [exact[d][strategy] for d in common.DATASETS]
        for strategy in STRATEGIES
    ]
    common.table(
        "fig11b_optimisation_time",
        ["forward, then cascade alone", *common.DATASETS],
        rows,
        title="Fig. 11(b) — time cost of optimisation strategies",
    )
    return times, exact


def test_fig11b_optimisation_time(benchmark):
    times, exact = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for name in common.DATASETS:
        counts = exact[name]
        # The full cascade tries every bound ADOS can try, so it never needs
        # more exact computations; ADOS gives up only a few rows for its skips.
        assert counts["JSmin+JSmax+REG"] <= counts["ADOS"] <= counts["JSmin+JSmax+REG"] * 1.15 + 1
        assert counts["ADOS"] <= counts["JSmin+JSmax"] < counts["No Bound"]
        assert times[name]["ADOS"] <= 2.0 * times[name]["No Bound"], (
            f"the ADOS cascade should stay within 2x of exact scoring on {name}"
        )
