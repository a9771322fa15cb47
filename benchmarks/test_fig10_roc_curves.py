"""Fig. 10 — ROC curves of all methods on the four datasets.

The paper plots TPR against FPR for every method; CLSTM dominates the other
curves (highest TPR at every FPR level), with CLSTM-S closest to it.

This benchmark regenerates the curves (as TPR values sampled at fixed FPR
points) from the same fitted models used for Fig. 9(b) and checks that the
CLSTM curve dominates the visual-only LSTM curve on the interactive datasets.
"""

from __future__ import annotations

import numpy as np

import common

FPR_GRID = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8)


def run_experiment():
    curves = {
        dataset_name: {method: record.roc() for method, record in common.suite_records(dataset_name).items()}
        for dataset_name in common.DATASETS
    }
    for dataset_name, method_curves in curves.items():
        rows = []
        for method in common.METHOD_ORDER:
            curve = method_curves[method]
            rows.append([method] + [f"{curve.tpr_at_fpr(f):.3f}" for f in FPR_GRID])
        common.table(
            f"fig10_roc_{dataset_name.lower()}",
            ["method", *[f"TPR@FPR={f}" for f in FPR_GRID]],
            rows,
            title=f"Fig. 10 — ROC curve samples on {dataset_name}",
        )
    return curves


def test_fig10_roc_curves(benchmark):
    curves = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for dataset_name in ("INF", "TWI"):
        clstm = curves[dataset_name]["CLSTM"]
        lstm = curves[dataset_name]["LSTM"]
        clstm_mean = np.mean([clstm.tpr_at_fpr(f) for f in FPR_GRID])
        lstm_mean = np.mean([lstm.tpr_at_fpr(f) for f in FPR_GRID])
        assert clstm_mean >= lstm_mean - 0.05, (
            f"CLSTM's ROC curve should dominate the visual-only LSTM curve on {dataset_name}"
        )
