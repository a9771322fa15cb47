"""Fig. 12(c) — effect of the number of exactly-evaluated sparse groups N_sg.

The paper refines the ADG bound by computing the N_sg sparsest dimension
groups exactly (their partial sums are reused if the full RE_I is needed) and
finds an optimum around N_sg = 10-12: too few leaves the bound loose, too many
approaches the cost of the exact computation.

What is measured: the ADOS cascade alone per N_sg (median of 15 repeats over
the same reconstructions), the forward every setting shares, and the exact
``RE_I`` computations each setting still needed.

Verdict here: increasing N_sg tightens the ADG bound (never loosens it) and
so lowers the exact count, and the cascade's time is flat in N_sg: the exact
sparse-group term is one weighted ``bincount`` whatever N_sg is.  (Up to
PR 23 the times rose with N_sg; that was a Python loop with one
``js_divergence`` call per (row, group), not the cost of the groups.)
"""

from __future__ import annotations

import numpy as np

import common
from repro.evaluation.harness import FORWARD
from repro.optimization.bounds import adg_upper_bounds

GROUP_COUNTS = (0, 2, 4, 6, 8, 10, 12, 14)


def run_experiment():
    times, exact = {}, {}
    for name in ("INF", "TWI"):
        times[name], exact[name] = common.harness().sparse_group_sweep(
            name, group_counts=list(GROUP_COUNTS), model=common.trained_clstm(name)
        )
    rows = []
    for name in times:
        rows.append(
            [f"{name} (us/segment)", common.microseconds(times[name][FORWARD])]
            + [common.microseconds(times[name][count]) for count in GROUP_COUNTS]
        )
        rows.append([f"{name} (exact RE_I computed)", "-"] + [exact[name][count] for count in GROUP_COUNTS])
    common.table(
        "fig12c_sparse_groups",
        ["dataset", "forward", *[f"Nsg={count}" for count in GROUP_COUNTS]],
        rows,
        title="Fig. 12(c) — effect of the number of exact sparse groups N_sg on the ADOS cascade",
    )
    return times, exact


def test_fig12c_sparse_group_sweep(benchmark):
    times, exact = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for name, sweep in times.items():
        assert all(value > 0 for value in sweep.values())
        # Flat in N_sg: the exact-group term is one reduction, not a loop.
        assert sweep[GROUP_COUNTS[-1]] <= 3.0 * sweep[0]
        counts = [exact[name][count] for count in GROUP_COUNTS]
        assert all(later <= earlier for earlier, later in zip(counts, counts[1:]))

    # The bound itself must tighten monotonically as more groups are
    # evaluated exactly.
    features = common.dataset("INF").test.action[:20]
    others = features[np.random.default_rng(0).integers(len(features), size=len(features))]
    bounds = [adg_upper_bounds(features, others, exact_groups=count) for count in GROUP_COUNTS]
    for looser, tighter in zip(bounds, bounds[1:]):
        assert np.all(tighter <= looser + 1e-9)
