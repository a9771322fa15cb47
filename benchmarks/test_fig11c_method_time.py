"""Fig. 11(c) — per-segment detection time of the different methods.

The paper compares LTR, VEC, RTFM, CLSTM and CLSTM-ADOS: CLSTM is much faster
than VEC and RTFM, comparable to LTR, and CLSTM-ADOS is the fastest thanks to
bound filtering.

Verdict here: CLSTM's scoring cost per segment is of the same order as the
LSTM baseline (both are one recurrent forward) and CLSTM-ADOS is at parity
with CLSTM, not faster: what ADOS skips is ~1 µs of exact JS in a ~40 µs
segment.  Every row is the median of 15 interleaved repeats of the method's
whole scoring call (``ExperimentHarness.method_detection_times``); for
CLSTM-ADOS that is the forward plus the ADOS cascade.
(Absolute times depend on the NumPy substrate, not on the paper's GPU
testbed; the non-recurrent baselines are cheaper here than a CLSTM forward.)
"""

from __future__ import annotations

import common

METHODS = ("LTR", "VEC", "LSTM", "RTFM", "CLSTM-S", "CLSTM", "CLSTM-ADOS")


def run_experiment():
    results = {
        name: common.harness().method_detection_times(name, suite=common.fitted_suite(name))
        for name in common.DATASETS
    }
    rows = []
    for method in METHODS:
        rows.append([method] + [common.microseconds(results[d][method]) for d in common.DATASETS])
    common.table(
        "fig11c_method_time",
        ["method (us/segment)", *common.DATASETS],
        rows,
        title="Fig. 11(c) — detection time comparison with existing methods",
    )
    return results


def test_fig11c_method_time(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for name, times in results.items():
        assert all(value > 0 for value in times.values())
        assert times["CLSTM-ADOS"] <= 1.3 * times["CLSTM"], (
            f"CLSTM-ADOS should be at parity with CLSTM on {name}"
        )
