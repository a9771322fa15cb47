"""Durability plane: write-ahead ingest log, checkpoint policy, delta
checkpoints and Prometheus metrics export.

The runtime's crash-recovery story before this package was "whatever you
checkpointed by hand": full-size snapshots on demand, everything ingested
since lost on a crash.  This package closes the gap end to end:

* :mod:`~repro.durability.wal` — an append-only, CRC-framed, fsync-batched
  record of every ingest call, rotated at checkpoint boundaries, so recovery
  replays the tail on top of the latest checkpoint and lands on
  **bitwise-identical** detections (the determinism contract from PR 4,
  extended past the last checkpoint).
* :mod:`~repro.durability.policy` — :class:`CheckpointPolicy`: checkpoint
  every K records / U publishes / T seconds through the runtime's injectable
  clock.
* :mod:`~repro.durability.checkpoints` — the checkpoint format's one home:
  ``write_checkpoint``/``read_checkpoint`` (the only writer and reader of a
  checkpoint directory) and :class:`CheckpointStore`: manifest-chained
  *delta* checkpoints (only model versions absent from the parent are
  rewritten), compaction back to a full checkpoint every N deltas,
  retention of exactly the live chain, and write-time-loud failure when a
  chain's files have gone missing.
* :mod:`~repro.durability.metrics` — a dependency-free Prometheus
  text-format renderer over every counter the runtime exposes, served at
  ``GET /metrics`` by :mod:`repro.server`.

Everything is driven through :class:`~repro.runtime.Runtime`: set
``RuntimeConfig.durability.directory`` and the runtime logs, checkpoints and
recovers (:meth:`Runtime.recover`) on its own.  The runtime only takes the
checkpoint's cut (WAL rotation, registry snapshot, serving state); what lands
on disk is decided here.
"""

from .checkpoints import CheckpointStore, DeltaSourceError, StoredCheckpoint
from .metrics import (
    CONTENT_TYPE,
    PrometheusRenderer,
    render_runtime_metrics,
    render_server_metrics,
)
from .policy import CheckpointPolicy
from .wal import (
    ReplayTail,
    WalPosition,
    WalRecord,
    WriteAheadLog,
    list_segments,
    read_segment,
    read_tail,
)

__all__ = [
    "CheckpointPolicy",
    "CheckpointStore",
    "DeltaSourceError",
    "StoredCheckpoint",
    "PrometheusRenderer",
    "CONTENT_TYPE",
    "render_runtime_metrics",
    "render_server_metrics",
    "ReplayTail",
    "WalPosition",
    "WalRecord",
    "WriteAheadLog",
    "list_segments",
    "read_segment",
    "read_tail",
]
