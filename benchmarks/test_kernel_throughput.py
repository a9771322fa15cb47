"""Kernel throughput — float32 fused serving, workspace/weight-cache reuse,
and truncated-BPTT retrain cost.

Three gates guard the kernel-level optimisations behind the serving path
(all at the paper's INF model shape — 400-dim actions, 128/32 hidden,
9-step sequences):

* ``test_float32_serving_speedup`` — the opt-in float32 fused forward must
  reach ≥1.5x the float64 throughput on the serving workload (micro-batches
  of 64), with outputs inside the pinned float32 tolerance of the float64
  oracle.
* ``test_workspace_reuse_speedup`` — steady-state serving (warm workspace
  pool + cached stacked weights) must be ≥1.3x faster on small-batch
  workloads than the no-reuse baseline, which rebuilds the stacked gate
  weights and scratch buffers every batch the way a cache-less
  implementation would.  The outputs are bitwise identical, and the
  workspace counters must show zero steady-state buffer creation.
* ``test_tbptt_retrain_sublinear`` — a ``tbptt_window=8`` retrain step must
  grow sublinearly in history length where full BPTT grows linearly, and a
  window that covers the whole history must reproduce the full-BPTT loss
  bitwise.

Every experiment appends its numbers (per-precision throughput,
allocation counters, timings) to ``benchmarks/results/BENCH_kernels.json``
so CI can track them as an artifact.
"""

from __future__ import annotations

import json
import time

import numpy as np

import common
from repro.core.clstm import CLSTM
from repro.nn.backend import FLOAT32_ATOL, FLOAT32_RTOL
from repro.nn.fused import (
    coupled_pair_forward_fused,
    reset_workspace_stats,
    workspace_stats,
)
from repro.nn.recurrent import CoupledLSTMCell

# Paper INF shape: 400-dim action vocabulary, 32-dim interactions,
# 128/32 hidden units, 9-step sequences.
ACTION_DIM, INTERACTION_DIM = 400, 32
ACTION_HIDDEN, INTERACTION_HIDDEN = 128, 32
TIME_STEPS = 9

SERVING_BATCH = 64
FLOAT32_REQUIRED_SPEEDUP = 1.5
SMALL_BATCHES = (1, 2, 4, 8)
WORKSPACE_REQUIRED_SPEEDUP = 1.3
TBPTT_WINDOW = 8
TBPTT_HISTORIES = (16, 64)
TBPTT_REQUIRED_SPEEDUP = 1.4
TBPTT_SUBLINEARITY = 0.85  # windowed growth must be < 85% of the history growth

JSON_NAME = "BENCH_kernels.json"


def _merge_json(section: str, payload: dict) -> None:
    """Merge one experiment's numbers into the shared JSON artifact."""
    common.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = common.RESULTS_DIR / JSON_NAME
    document = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    document[section] = payload
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def _median_seconds(call, repeats: int, prepare=None) -> float:
    call()  # warm caches/pools outside the timed region
    samples = []
    for _ in range(repeats):
        if prepare is not None:
            prepare()
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def _paper_pair():
    influencer = CoupledLSTMCell(
        ACTION_DIM, ACTION_HIDDEN, INTERACTION_HIDDEN, rng=np.random.default_rng(1)
    )
    audience = CoupledLSTMCell(
        INTERACTION_DIM, INTERACTION_HIDDEN, ACTION_HIDDEN, rng=np.random.default_rng(2)
    )
    return influencer, audience


def _sequences(rng, batch):
    return (
        rng.standard_normal((batch, TIME_STEPS, ACTION_DIM)),
        rng.standard_normal((batch, TIME_STEPS, INTERACTION_DIM)),
    )


# --------------------------------------------------------------------- #
# float32 fused serving vs the float64 oracle
# --------------------------------------------------------------------- #
def run_float32_experiment():
    influencer, audience = _paper_pair()
    actions, interactions = _sequences(np.random.default_rng(3), SERVING_BATCH)

    h64, g64 = coupled_pair_forward_fused(influencer, audience, actions, interactions)
    h32, g32 = coupled_pair_forward_fused(
        influencer, audience, actions, interactions, dtype=np.float32
    )
    np.testing.assert_allclose(h32, h64, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)
    np.testing.assert_allclose(g32, g64, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)

    seconds64 = _median_seconds(
        lambda: coupled_pair_forward_fused(influencer, audience, actions, interactions),
        repeats=50,
    )
    seconds32 = _median_seconds(
        lambda: coupled_pair_forward_fused(
            influencer, audience, actions, interactions, dtype=np.float32
        ),
        repeats=50,
    )
    speedup = seconds64 / seconds32
    throughput64 = SERVING_BATCH / seconds64
    throughput32 = SERVING_BATCH / seconds32

    common.table(
        "kernel_float32",
        ["precision", "segments/s", "ms/batch"],
        [
            ["float64", f"{throughput64:.0f}", f"{seconds64 * 1e3:.3f}"],
            ["float32", f"{throughput32:.0f}", f"{seconds32 * 1e3:.3f}"],
            ["speed-up", f"{speedup:.2f}x", ""],
        ],
        title=(
            f"float32 fused serving forward — batch {SERVING_BATCH}, "
            f"{TIME_STEPS} steps, paper INF shape"
        ),
    )
    _merge_json(
        "float32_serving",
        {
            "batch": SERVING_BATCH,
            "time_steps": TIME_STEPS,
            "throughput": {"float64": throughput64, "float32": throughput32},
            "seconds_per_batch": {"float64": seconds64, "float32": seconds32},
            "speedup": speedup,
            "rtol": FLOAT32_RTOL,
            "atol": FLOAT32_ATOL,
        },
    )
    return {"speedup": speedup}


def test_float32_serving_speedup(benchmark):
    results = benchmark.pedantic(run_float32_experiment, rounds=1, iterations=1)
    assert results["speedup"] >= FLOAT32_REQUIRED_SPEEDUP, (
        f"float32 fused forward reached only {results['speedup']:.2f}x over "
        f"float64 (required: {FLOAT32_REQUIRED_SPEEDUP}x)"
    )


# --------------------------------------------------------------------- #
# Workspace + stacked-weight reuse vs the cache-less baseline
# --------------------------------------------------------------------- #
def run_workspace_experiment():
    influencer, audience = _paper_pair()
    rng = np.random.default_rng(4)

    def drop_caches():
        for cell in (influencer, audience):
            getattr(cell, "_fused_workspaces", {}).clear()
            cell._fused_cache = None

    rows, per_batch, best_speedup = [], {}, 0.0
    for batch in SMALL_BATCHES:
        actions, interactions = _sequences(rng, batch)

        call = lambda: coupled_pair_forward_fused(
            influencer, audience, actions, interactions
        )
        warm_output = call()
        drop_caches()
        cold_output = coupled_pair_forward_fused(
            influencer, audience, actions, interactions
        )
        # Reuse is purely an allocation optimisation — bitwise identical.
        assert np.array_equal(warm_output[0], cold_output[0])
        assert np.array_equal(warm_output[1], cold_output[1])

        warm = _median_seconds(call, repeats=120)
        cold = _median_seconds(call, repeats=120, prepare=drop_caches)
        speedup = cold / warm
        best_speedup = max(best_speedup, speedup)
        per_batch[str(batch)] = {
            "warm_seconds": warm,
            "cold_seconds": cold,
            "speedup": speedup,
        }
        rows.append(
            [str(batch), f"{warm * 1e6:.0f}", f"{cold * 1e6:.0f}", f"{speedup:.2f}x"]
        )

    # Steady state must not create buffers: one workspace per geometry, every
    # later batch of that geometry reuses it.
    drop_caches()
    reset_workspace_stats()
    actions, interactions = _sequences(rng, SMALL_BATCHES[0])
    for _ in range(5):
        coupled_pair_forward_fused(influencer, audience, actions, interactions)
    counters = workspace_stats()

    common.table(
        "kernel_workspace_reuse",
        ["batch", "warm us/batch", "cold us/batch", "speed-up"],
        rows,
        title=(
            "Workspace + stacked-weight reuse vs per-batch rebuild — "
            f"{TIME_STEPS}-step sequences, paper INF shape"
        ),
    )
    _merge_json(
        "workspace_reuse",
        {
            "time_steps": TIME_STEPS,
            "per_batch": per_batch,
            "best_speedup": best_speedup,
            "steady_state_counters": counters,
        },
    )
    return {"best_speedup": best_speedup, "counters": counters}


def test_workspace_reuse_speedup(benchmark):
    results = benchmark.pedantic(run_workspace_experiment, rounds=1, iterations=1)
    counters = results["counters"]
    assert counters["created"] == 1, counters
    assert counters["reused"] == 4, counters
    assert results["best_speedup"] >= WORKSPACE_REQUIRED_SPEEDUP, (
        f"workspace reuse reached only {results['best_speedup']:.2f}x over the "
        f"rebuild-every-batch baseline (required: {WORKSPACE_REQUIRED_SPEEDUP}x)"
    )


# --------------------------------------------------------------------- #
# Truncated BPTT — retrain cost sublinear in history length
# --------------------------------------------------------------------- #
def run_tbptt_experiment():
    model = CLSTM(
        action_dim=ACTION_DIM,
        interaction_dim=INTERACTION_DIM,
        action_hidden=ACTION_HIDDEN,
        interaction_hidden=INTERACTION_HIDDEN,
        seed=5,
    )
    rng = np.random.default_rng(6)

    def history(length, count=16):
        actions = rng.standard_normal((count, length, ACTION_DIM))
        interactions = rng.standard_normal((count, length, INTERACTION_DIM))
        targets_a = np.abs(rng.standard_normal((count, ACTION_DIM)))
        targets_a /= targets_a.sum(axis=1, keepdims=True)
        targets_i = rng.standard_normal((count, INTERACTION_DIM))
        return actions, interactions, targets_a, targets_i

    # A window covering the whole history IS full BPTT, bitwise.
    short = history(TBPTT_WINDOW)
    loss_full = model.fused_training_step(*short, omega=0.8)
    loss_windowed = model.fused_training_step(*short, omega=0.8, tbptt_window=TBPTT_WINDOW)
    assert loss_full == loss_windowed

    rows, timings = [], {}
    for length in TBPTT_HISTORIES:
        batch = history(length)
        full = _median_seconds(
            lambda: model.fused_training_step(*batch, omega=0.8), repeats=9
        )
        windowed = _median_seconds(
            lambda: model.fused_training_step(
                *batch, omega=0.8, tbptt_window=TBPTT_WINDOW
            ),
            repeats=9,
        )
        timings[str(length)] = {"full_seconds": full, "windowed_seconds": windowed}
        rows.append(
            [
                str(length),
                f"{full * 1e3:.1f}",
                f"{windowed * 1e3:.1f}",
                f"{full / windowed:.2f}x",
            ]
        )

    short_t, long_t = (timings[str(length)] for length in TBPTT_HISTORIES)
    growth_full = long_t["full_seconds"] / short_t["full_seconds"]
    growth_windowed = long_t["windowed_seconds"] / short_t["windowed_seconds"]
    long_speedup = long_t["full_seconds"] / long_t["windowed_seconds"]

    common.table(
        "kernel_tbptt",
        ["history T", "full ms/step", f"window={TBPTT_WINDOW} ms/step", "speed-up"],
        rows,
        title="Truncated-BPTT retrain step — paper INF shape, 16 sequences",
    )
    _merge_json(
        "tbptt",
        {
            "window": TBPTT_WINDOW,
            "timings": timings,
            "growth_full": growth_full,
            "growth_windowed": growth_windowed,
            "long_history_speedup": long_speedup,
        },
    )
    return {
        "growth_full": growth_full,
        "growth_windowed": growth_windowed,
        "long_speedup": long_speedup,
    }


def test_tbptt_retrain_sublinear(benchmark):
    results = benchmark.pedantic(run_tbptt_experiment, rounds=1, iterations=1)
    history_growth = TBPTT_HISTORIES[-1] / TBPTT_HISTORIES[0]
    assert results["growth_windowed"] <= TBPTT_SUBLINEARITY * history_growth, (
        f"windowed retrain grew {results['growth_windowed']:.2f}x over a "
        f"{history_growth:.0f}x history increase — not sublinear"
    )
    assert results["long_speedup"] >= TBPTT_REQUIRED_SPEEDUP, (
        f"tbptt window={TBPTT_WINDOW} reached only {results['long_speedup']:.2f}x "
        f"over full BPTT at T={TBPTT_HISTORIES[-1]} "
        f"(required: {TBPTT_REQUIRED_SPEEDUP}x)"
    )
