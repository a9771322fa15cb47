"""Table IV — case study: per-segment scores and decisions of every method.

The paper samples 15 segments from an INF test stream and reports, for each of
LTR / VEC / LSTM / RTFM / CLSTM-S / CLSTM, the anomaly score, the predicted
label and the ground-truth label; CLSTM and CLSTM-S make a single wrong call
while the competitors make 3-5.

Expected shape here: CLSTM's number of wrong decisions on the sampled segments
is no larger than the worst competitor's.
"""

from __future__ import annotations

import common


def run_experiment():
    study = common.harness().case_study(common.suite_records("INF"), num_samples=15)
    samples = study["samples"]
    headers = ["Si", "Lg"]
    for method in common.METHOD_ORDER:
        headers.extend([f"{method} score", f"{method} Lp"])
    rows = []
    for row in samples:
        cells = [row["sample"], row["ground_truth"]]
        for method in common.METHOD_ORDER:
            cells.extend([f"{row[f'{method}_score']:.3f}", row[f"{method}_label"]])
        rows.append(cells)
    common.table(
        "table4_case_study",
        headers,
        rows,
        title="Table IV — anomaly detection results of video segment samples (INF)",
    )
    return samples


def count_errors(samples, method):
    return sum(1 for row in samples if row[f"{method}_label"] != row["ground_truth"])


def test_table4_case_study(benchmark):
    samples = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    assert samples, "case study must produce sample rows"
    errors = {method: count_errors(samples, method) for method in common.METHOD_ORDER}
    common.write_result(
        "table4_case_study_errors",
        "wrong decisions per method: " + ", ".join(f"{m}={e}" for m, e in errors.items()),
    )
    assert errors["CLSTM"] <= max(errors.values())
