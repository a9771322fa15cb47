"""The four ledger workloads: sizes, seeded inputs, and the runtime each builds.

Every size lives here as a constant.  The pace constants (`slices_per_second`,
`ticks per slice`) were measured on the 2-core reference box so that
``--seconds 20`` measures for about 20 s; the *work* of a window is a
function of ``--seconds`` alone, which is what lets the exact counts of a run
be compared between two runs of the same seed.

Inputs are drawn from ``--seed`` only.  A stream's segment ``j`` is
``pool[j % pool_ticks]`` — every tick (library workloads) or round (HTTP)
carries one segment of every stream — so the checker can rebuild any
stream's last ``q`` segments without a copy of what the SUT saw.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

SEQUENCE_LENGTH = 9
TRAIN_SEGMENTS = 240
PROBE_STREAM = 0
"""Index of the stream the HTTP long-poll connection follows."""

PAPER_MODEL = dict(action_dim=400, interaction_dim=32, action_hidden=128, interaction_hidden=32)
SMALL_MODEL = dict(action_dim=64, interaction_dim=16, action_hidden=32, interaction_hidden=16)

DRIFT_BLOCKS = 4
DRIFT_BOOST = 3.0


@dataclass(frozen=True)
class Workload:
    """One named workload; ``BENCHMARK.json`` and README.md say why each exists."""

    name: str
    model: dict
    streams: int
    shards: int
    pool_ticks: int
    """Distinct ticks generated; tick ``t`` replays ``pool[t % pool_ticks]``."""
    slice_ticks: int
    """Ticks per throughput slice (library workloads)."""
    slices_per_second: float
    """Reference-box pace: a window is ``round(seconds * this)`` slices."""
    smoke_slice_ticks: int
    warmup_ticks: int = 20
    updates: bool = False
    durable: bool = False
    http: bool = False
    regime_ticks: int = 0
    """drift_update: ticks per input regime (boosted block = regime % 4)."""
    smoke_regime_ticks: int = 0

    # HTTP ladder (http_fanin only).
    rates: Tuple[int, ...] = ()
    """Offered segments/s per rung; the first is the reference rung."""
    rung_shares: Tuple[float, ...] = ()
    """Share of ``--seconds`` each rung is offered for."""
    segments_per_request: int = 8
    warmup_requests: int = 200


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lib_gemm",
            model=PAPER_MODEL,
            streams=64,
            shards=2,
            pool_ticks=64,
            slice_ticks=64,
            slices_per_second=0.85,
            smoke_slice_ticks=8,
        ),
        Workload(
            name="http_fanin",
            model=SMALL_MODEL,
            streams=64,
            shards=1,
            pool_ticks=64,
            slice_ticks=0,
            slices_per_second=0.0,
            smoke_slice_ticks=0,
            http=True,
            # Both rungs sit well clear of the ~5k segments/s capacity: what a
            # rung near or past it scores, and whether it keeps a latency
            # limit, depends on how the handler and batcher threads happen to
            # share the GIL in that process (3.4k-5.3k scored at 7,000 offered).
            rates=(2000, 3000),
            rung_shares=(0.7, 0.25),
        ),
        Workload(
            name="durable_ingest",
            model=SMALL_MODEL,
            streams=64,
            shards=2,
            pool_ticks=64,
            slice_ticks=250,
            slices_per_second=0.5,
            smoke_slice_ticks=60,
            durable=True,
        ),
        Workload(
            name="drift_update",
            model=SMALL_MODEL,
            streams=32,
            shards=1,
            pool_ticks=240,
            slice_ticks=240,
            slices_per_second=0.15,
            smoke_slice_ticks=80,
            updates=True,
            regime_ticks=60,
            smoke_regime_ticks=20,
        ),
    )
}


@dataclass(frozen=True)
class Sizes:
    """What one run of a workload does, derived from ``--seconds``."""

    slice_ticks: int
    slices: int
    pool_ticks: int
    regime_ticks: int
    warmup_ticks: int
    tail_ticks: int
    """durable_ingest: ticks after the last slice, leaving half a slice of
    records in the WAL behind the last checkpoint cut."""
    checkpoint_every_records: Optional[int]
    rung_requests: Tuple[int, ...]
    warmup_requests: int
    restart_ticks: int
    """durable_ingest: ticks the recovered runtime ingests to show every
    stream continues where the crashed one stopped."""


def sizes(w: Workload, seconds: float, smoke: bool) -> Sizes:
    slice_ticks = w.smoke_slice_ticks if smoke else w.slice_ticks
    regime = w.smoke_regime_ticks if smoke else w.regime_ticks
    slices = 2 if smoke else max(3, round(seconds * w.slices_per_second))
    pool_ticks = DRIFT_BLOCKS * regime if regime else w.pool_ticks
    rung_requests: Tuple[int, ...] = ()
    warmup_requests = 0
    if w.http:
        slices = 0
        duration = 1.5 if smoke else seconds
        rung_requests = tuple(
            max(1, round(rate * share * duration / w.segments_per_request))
            for rate, share in zip(w.rates, w.rung_shares)
        )
        warmup_requests = w.warmup_requests
    tail = checkpoint_every = None
    if w.durable:
        # One checkpoint cut per slice; the run ends half a slice past a cut.
        checkpoint_every = slice_ticks * w.streams
        tail = slice_ticks // 2 - w.warmup_ticks
    return Sizes(
        slice_ticks=slice_ticks,
        slices=slices,
        pool_ticks=pool_ticks,
        regime_ticks=regime,
        warmup_ticks=w.warmup_ticks,
        tail_ticks=tail or 0,
        checkpoint_every_records=checkpoint_every,
        rung_requests=rung_requests,
        warmup_requests=warmup_requests,
        restart_ticks=16,
    )


def stream_names(w: Workload) -> List[str]:
    return [f"cam-{index:02d}" for index in range(w.streams)]


@dataclass(frozen=True)
class Inputs:
    """Everything generated from the seed for one workload."""

    train_action: np.ndarray
    train_interaction: np.ndarray
    train_level: np.ndarray
    action: np.ndarray
    """``(pool_ticks, streams, action_dim)``"""
    interaction: np.ndarray
    level: np.ndarray
    orders: np.ndarray
    """``(pool_ticks, streams)``: round ``r`` sends its streams in
    ``orders[r % pool_ticks]`` order (a seeded permutation, so the probe
    stream's position in a batch is uniform instead of fixed)."""
    gaps: np.ndarray
    """Unit-mean exponential gaps: open-loop request ``i`` of a rung is due
    ``gaps[i] / rate`` after request ``i - 1`` (independent senders make a
    Poisson stream; a fixed 4 ms grid puts the probe's wait on an 8-point
    lattice whose median flips between two values)."""
    sha256: str

    def ticks(self, w: Workload) -> List[List[tuple]]:
        """``pool[t]``: the ``ingest_many`` submissions of pool tick ``t``."""
        names = stream_names(w)
        return [
            [
                (names[s], self.action[t, s], self.interaction[t, s], float(self.level[t, s]))
                for s in range(w.streams)
            ]
            for t in range(self.action.shape[0])
        ]

    def bodies(self, w: Workload) -> List[List[bytes]]:
        """``bodies[r][k]``: the pre-serialised ingest request ``k`` of round ``r``."""
        names = stream_names(w)
        per = w.segments_per_request
        rounds = []
        for r in range(self.action.shape[0]):
            order = self.orders[r]
            requests = []
            for start in range(0, w.streams, per):
                segments = [
                    {
                        "stream": names[s],
                        "action": self.action[r, s].tolist(),
                        "interaction": self.interaction[r, s].tolist(),
                        "level": float(self.level[r, s]),
                    }
                    for s in order[start : start + per]
                ]
                requests.append(json.dumps({"segments": segments}).encode("utf-8"))
            rounds.append(requests)
        return rounds


def _l1_rows(values: np.ndarray) -> np.ndarray:
    return values / values.sum(axis=-1, keepdims=True)


def make_inputs(w: Workload, seed: int, size: Sizes) -> Inputs:
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode("utf-8"))])
    d1, d2 = w.model["action_dim"], w.model["interaction_dim"]
    train_action = rng.random((TRAIN_SEGMENTS, d1)) + 1e-3
    action = rng.random((size.pool_ticks, w.streams, d1)) + 1e-3
    if size.regime_ticks:
        # One contiguous quarter of the action dimensions is boosted; which
        # quarter changes every regime.  The model is trained on block 0.
        width = d1 // DRIFT_BLOCKS
        train_action[:, :width] += DRIFT_BOOST
        for tick in range(size.pool_ticks):
            block = (tick // size.regime_ticks) % DRIFT_BLOCKS
            action[tick, :, block * width : (block + 1) * width] += DRIFT_BOOST
    arrays = dict(
        train_action=_l1_rows(train_action),
        train_interaction=rng.random((TRAIN_SEGMENTS, d2)),
        train_level=rng.random(TRAIN_SEGMENTS),
        action=_l1_rows(action),
        interaction=rng.random((size.pool_ticks, w.streams, d2)),
        level=rng.random((size.pool_ticks, w.streams)),
        orders=np.stack([rng.permutation(w.streams) for _ in range(size.pool_ticks)]),
        gaps=rng.exponential(1.0, size=max(size.rung_requests, default=0)),
    )
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    return Inputs(sha256=digest.hexdigest(), **arrays)


def runtime_config(w: Workload, size: Sizes, durability_dir: Optional[str]):
    """The ``RuntimeConfig`` of one workload (imports the SUT lazily)."""
    from repro import RuntimeConfig
    from repro.utils.config import (
        DurabilityConfig,
        ExecutorConfig,
        ModelConfig,
        ServerConfig,
        ServingConfig,
        TrainingConfig,
        UpdateConfig,
    )

    extra = {}
    if w.updates:
        extra.update(
            update=UpdateConfig(
                buffer_size=300, drift_statistic="centered", drift_threshold=0.4, update_epochs=20
            ),
            max_versions=4,
            max_history=3000,
        )
    if w.durable:
        extra.update(
            durability=DurabilityConfig(
                directory=durability_dir,
                wal_fsync_every=1,
                checkpoint_every_records=size.checkpoint_every_records,
            )
        )
    if w.http:
        extra.update(server=ServerConfig(poll_interval_ms=5.0, max_pending=8192))
    return RuntimeConfig(
        model=ModelConfig(**w.model),
        training=TrainingConfig(epochs=2, batch_size=32, checkpoint_every=1, seed=7),
        serving=ServingConfig(
            num_shards=w.shards,
            max_batch_size=64,
            max_batch_delay_ms=50.0 if w.http else None,
        ),
        executor=ExecutorConfig(mode="serial", background_updates=False),
        sequence_length=SEQUENCE_LENGTH,
        enable_updates=w.updates,
        **extra,
    )


def fit_runtime(w: Workload, size: Sizes, inputs: Inputs, durability_dir: Optional[str]):
    from repro import Runtime, StreamFeatures

    features = StreamFeatures(
        name="train",
        action=inputs.train_action,
        interaction=inputs.train_interaction,
        labels=np.zeros(TRAIN_SEGMENTS, dtype=np.int64),
        normalised_interaction=inputs.train_level,
    )
    return Runtime.from_config(runtime_config(w, size, durability_dir)).fit(features)
