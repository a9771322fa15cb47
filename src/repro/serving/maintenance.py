"""In-service incremental updates: the paper's Fig. 5 loop inside the runtime.

Section IV-D keeps the CLSTM fresh by buffering presumed-normal segments,
checking drift of their hidden states (Eq. 17), and — when drift is detected
— training a new model on the buffer and merging it with the previous one.
PR 1 gave the serving tier the *detection* half (the scoring service emits
:class:`~repro.serving.service.UpdateTrigger` events) and the core library
has long had the *reaction* half (:mod:`repro.core.update`), but no code
path connected them.

The :class:`UpdatePlane` is that connection.  Attached to a scoring service,
it consumes each drift trigger together with the service's drained
presumed-normal sample buffer and

1. trains a fresh CLSTM on the buffered windows through the fused training
   engine (the short-budget config of
   :func:`~repro.core.update.incremental_training_config`);
2. merges it with the currently published model
   (``merge(CLSTM_new, CLSTM_{t-1})``, convex parameter combination);
3. re-calibrates the anomaly threshold ``T_a`` by scoring the buffer through
   the merged model (the old threshold was calibrated against the old
   model's score distribution) — unless an explicit
   ``DetectionConfig.threshold`` pins it;
4. publishes the result through the :class:`ModelRegistry`, so the swap is
   an atomic version-pointer move and in-flight batches finish on their
   pinned snapshot.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.detector import AnomalyDetector
from ..core.update import incremental_training_config, merge_models, train_incremental
from ..features.sequences import SequenceBatch
from ..utils.config import TrainingConfig, UpdateConfig
from ..utils.timer import Stopwatch
from .microbatch import MicroBatcher, ScoreRequest
from .registry import ModelRegistry, ModelSnapshot
from .service import UpdateTrigger

__all__ = ["UpdateReport", "UpdatePlane"]


@dataclass(frozen=True)
class UpdateReport:
    """Outcome of one in-service incremental update."""

    version: int
    """Version number of the newly published snapshot."""

    previous_version: int
    """Version the update was based on (and merged with)."""

    trigger: UpdateTrigger
    """The drift trigger that caused the update."""

    samples: int
    """Number of buffered presumed-normal segments trained on."""

    previous_threshold: float
    threshold: float
    """``T_a`` before and after re-calibration."""

    seconds: float
    """Wall-clock cost of assemble + train + merge + re-calibrate + publish."""


class UpdatePlane:
    """Consumes drift triggers and publishes merged model versions.

    Thread-safety contract: :meth:`handle_trigger` runs the whole update
    transaction under one plane-level lock, so two shards sharing this plane
    (the shared-registry deployment, where each shard has its own drift
    monitor) can trigger concurrently from worker threads and still produce
    a serialised version lineage with deterministic per-update RNG seeds —
    the second trigger trains against the version the first one published.
    The registry's own lock makes the final publish atomic either way.  The
    transaction runs on the *calling* thread (the scoring path); wrap the
    plane in a :class:`~repro.serving.executor.BackgroundUpdatePlane` to move
    it onto a maintenance thread instead.

    Parameters
    ----------
    registry:
        The registry the serving shard reads from; updates are published back
        into it.  A service only accepts a plane wired to its own registry.
    update_config:
        Merge weight and update-epoch budget (Section IV-D parameters).
    training_config:
        Base training configuration the short update budget is derived from
        (fused-engine switch, learning rate, losses...).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        update_config: Optional[UpdateConfig] = None,
        training_config: Optional[TrainingConfig] = None,
    ) -> None:
        self.registry = registry
        self.update_config = update_config if update_config is not None else UpdateConfig()
        self.training_config = incremental_training_config(training_config, self.update_config)
        self.reports: List[UpdateReport] = []
        self.total_update_seconds = 0.0
        self._restored_updates = 0
        # Serialises whole update transactions; see the class docstring.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    @property
    def updates_performed(self) -> int:
        """Total updates across this plane's lifetime, including the ones a
        restored plane inherited from before its checkpoint.  The count seeds
        the per-update training RNG, so resuming from a checkpoint retrains
        with exactly the seeds the original plane would have used."""
        return self._restored_updates + len(self.reports)

    def restore_update_count(self, count: int) -> None:
        """Adopt the update count of a checkpointed plane (restore path)."""
        if count < 0:
            raise ValueError(f"update count must be non-negative, got {count}")
        if self.reports:
            raise RuntimeError("restore_update_count requires a plane with no updates yet")
        self._restored_updates = int(count)

    @staticmethod
    def assemble_samples(samples: Sequence[ScoreRequest]) -> SequenceBatch:
        """Stack buffered score requests into a training batch.

        Each presumed-normal request already carries exactly what training
        needs: its ``q``-segment history window as the input sequence and the
        observed incoming segment as the reconstruction target.
        """
        samples = list(samples)
        _, action_targets, interaction_targets, indices = MicroBatcher.assemble(samples)
        return SequenceBatch(
            np.stack([sample.action_history for sample in samples], axis=0),
            np.stack([sample.interaction_history for sample in samples], axis=0),
            action_targets,
            interaction_targets,
            indices,
        )

    def handle_trigger(
        self, trigger: UpdateTrigger, samples: Sequence[ScoreRequest]
    ) -> UpdateReport:
        """Run one full update: train on ``samples``, merge, re-calibrate, publish.

        The transaction is atomic with respect to other triggers on this
        plane (plane lock) and other publishers of the registry (registry
        lock): read latest → train → merge → re-calibrate → publish next
        version.
        """
        with self._lock:
            # Timed from the start of the transaction: stacking the buffered
            # lazy windows is part of the stall the scoring path sees.
            stopwatch = Stopwatch().start()
            batch = self.assemble_samples(samples)
            base = self.registry.latest()

            new_model = train_incremental(
                base.model, batch, self.training_config, seed=self.updates_performed + 1
            )
            merged = merge_models(
                base.model, new_model, new_weight=self.update_config.merge_weight
            )
            threshold = self._recalibrate(base, merged, batch)

            snapshot = self.registry.publish(
                merged,
                threshold,
                reason="incremental-update",
                metadata={
                    "similarity": trigger.similarity,
                    "trigger_segment": float(trigger.segment_index),
                    "samples": float(len(samples)),
                },
                # merge_models already built a private model; adopting it avoids
                # one more full parameter copy per swap.
                copy=False,
            )
            elapsed = stopwatch.stop()
            report = UpdateReport(
                version=snapshot.version,
                previous_version=base.version,
                trigger=trigger,
                samples=len(samples),
                previous_threshold=base.threshold,
                threshold=threshold,
                seconds=elapsed,
            )
            self.reports.append(report)
            self.total_update_seconds += elapsed
            return report

    def quiesce(self) -> None:
        """Synchronous planes have no in-flight work; uniform no-op.

        Exists so the sharded service and the runtime facade can quiesce any
        plane — this one or a :class:`~repro.serving.executor.
        BackgroundUpdatePlane` — without caring which they hold.
        """

    def pause(self) -> None:
        """Synchronous planes run updates in-line; nothing to pause."""

    def resume(self) -> None:
        """Counterpart of the no-op :meth:`pause`."""

    def pending_jobs(self) -> List[tuple]:
        """Synchronous planes never queue work; always empty."""
        return []

    def close(self) -> None:
        """Synchronous planes hold no thread to stop; uniform no-op."""

    # ------------------------------------------------------------------ #
    def _recalibrate(self, base: ModelSnapshot, merged, batch: SequenceBatch) -> float:
        """New ``T_a`` for the merged model (explicit config threshold wins)."""
        config = self.registry.detection_config
        if config.threshold is not None:
            return float(config.threshold)
        probe = AnomalyDetector(merged, config)
        return probe.recalibrate(batch)
