"""Versioned model registry for the online-learning serving runtime.

The scoring service must keep serving while the maintenance plane retrains
and merges models.  A single shared mutable :class:`~repro.core.clstm.CLSTM`
makes that unsafe twice over: a hot swap can land between the forward pass
and the threshold decision of one micro-batch, and the fused-weight caches
of the old model can be rebuilt mid-request while its parameters are being
overwritten.

The registry removes both hazards with copy-on-write publishing:

* :meth:`ModelRegistry.publish` snapshots the model (independent parameter
  arrays via ``CLSTM.snapshot``), prewarms its fused-weight caches, wraps it
  with a calibrated :class:`~repro.core.detector.AnomalyDetector`, and
  assigns the next version number.  Published snapshots are immutable by
  contract — nothing in the runtime writes to them.
* a swap is an atomic pointer move (``self._latest = snapshot``): readers
  that already pinned a snapshot keep scoring against it, readers that pin
  afterwards see the new version.  There is no partially-updated state to
  observe.
* every shard of the serving runtime holds a :class:`RegistryHandle` and
  pins the latest snapshot once per micro-batch, so a batch's forward pass,
  score combination and threshold decision always come from one version.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..core.clstm import CLSTM
from ..core.detector import AnomalyDetector
from ..utils.config import DetectionConfig

__all__ = ["ModelSnapshot", "ModelRegistry", "RegistryHandle"]


@dataclass(frozen=True, eq=False)
class ModelSnapshot:
    """One immutable published model version.

    Attributes
    ----------
    version:
        Monotonically increasing version number (1 for the first publish).
    model:
        Private CLSTM copy with prewarmed fused-weight caches, sealed
        (:meth:`~repro.core.clstm.CLSTM.seal`): immutable after publish, so
        its serving batches resolve their kernel context once per shape;
        :meth:`fused_fresh` checks the invariant.
    threshold:
        The calibrated anomaly threshold ``T_a`` this version serves with.
    detector:
        An :class:`AnomalyDetector` bound to ``model`` and ``threshold``;
        this is what the serving shards score through.
    reason:
        Why the version exists (``"publish"`` for explicit publishes,
        ``"incremental-update"`` for update-plane swaps).
    metadata:
        Free-form numeric annotations (drift similarity, trigger segment...).
    """

    version: int
    model: CLSTM
    threshold: float
    detector: AnomalyDetector
    reason: str = "publish"
    metadata: Mapping[str, float] = field(default_factory=dict)

    def fused_fresh(self) -> bool:
        """Whether the snapshot's fused caches still match its parameters."""
        return self.model.fused_fresh()


class ModelRegistry:
    """Append-only store of :class:`ModelSnapshot` versions.

    Thread-safety contract
    ----------------------
    The registry is fully thread-safe: every publish/evict and every read of
    the version table or the latest pointer happens under one internal
    re-entrant lock, so concurrent publishers (two shards' update planes, a
    background maintenance thread) are serialised into a coherent,
    monotonically numbered lineage and a reader can never observe a
    partially-inserted version.

    Memory visibility: a snapshot is fully constructed — private parameter
    copies made, fused caches prewarmed, detector bound — *before* the locked
    pointer swap, and readers pin under the same lock.  In CPython the lock
    acquire/release pairs are full memory barriers, so a pinned
    :class:`ModelSnapshot` and everything reachable from it is completely
    visible to the pinning thread; snapshots are immutable by contract after
    publish, so no further synchronisation is needed to *use* one.

    Parameters
    ----------
    detection_config:
        The :class:`DetectionConfig` every published snapshot's detector is
        built with (``omega``, filtering thresholds...).  ``top_k`` must be
        unset: ranking is batch-relative and incompatible with serving.
    max_versions:
        Optional keep-last-K bound on retained snapshots.  Each snapshot
        holds full private copies of the model parameters, so a long-running
        service whose update plane publishes on every drift trigger would
        otherwise grow without bound.  Version numbers stay monotonic;
        evicted versions are no longer reachable via :meth:`get` (a reader
        that already pinned one keeps its reference alive).  ``None`` keeps
        the full history.
    """

    def __init__(
        self,
        detection_config: Optional[DetectionConfig] = None,
        max_versions: Optional[int] = None,
    ) -> None:
        config = detection_config if detection_config is not None else DetectionConfig()
        if config.top_k is not None:
            raise ValueError(
                "ModelRegistry needs absolute thresholds; top_k ranking is "
                "batch-relative and incompatible with micro-batched serving"
            )
        if max_versions is not None and max_versions < 1:
            raise ValueError("max_versions must be positive when set")
        self.detection_config = config
        self.max_versions = max_versions
        # One re-entrant lock serialises publishes and guards every read of
        # the version table; see the class docstring for the full contract.
        self._lock = threading.RLock()
        self._snapshots: Dict[int, ModelSnapshot] = {}
        self._published = 0
        self._latest: Optional[ModelSnapshot] = None

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #
    def publish(
        self,
        model: CLSTM,
        threshold: float,
        *,
        reason: str = "publish",
        metadata: Optional[Mapping[str, float]] = None,
        copy: bool = True,
    ) -> ModelSnapshot:
        """Publish ``model`` as the next version (copy-on-write).

        By default the model is snapshotted — the registry's copy owns its
        parameter arrays and prewarmed fused caches, so the caller is free to
        keep training or merging the original.  ``copy=False`` adopts the
        instance directly (the caller then promises never to mutate it);
        its caches are still prewarmed here.

        Safe to call from any thread: concurrent publishes are serialised by
        the registry lock and receive consecutive version numbers.
        """
        with self._lock:
            return self._insert(
                self._published + 1, model, threshold, reason=reason, metadata=metadata, copy=copy
            )

    def restore(
        self,
        version: int,
        model: CLSTM,
        threshold: float,
        *,
        reason: str = "publish",
        metadata: Optional[Mapping[str, float]] = None,
    ) -> ModelSnapshot:
        """Re-insert a snapshot under its **original** version number.

        The checkpoint-restore path replays retained snapshots in ascending
        order; re-numbering them from 1 would collide with version numbers
        already handed out (and possibly evicted) before the checkpoint, so
        ``version`` must strictly exceed every version this registry has ever
        published.  The model is adopted (no copy) and its fused caches are
        prewarmed, exactly like ``publish(copy=False)``.
        """
        version = int(version)
        with self._lock:
            if version <= self._published:
                raise ValueError(
                    f"restore version {version} must exceed the highest version "
                    f"ever published ({self._published})"
                )
            return self._insert(
                version, model, threshold, reason=reason, metadata=metadata, copy=False
            )

    def _insert(
        self,
        version: int,
        model: CLSTM,
        threshold: float,
        *,
        reason: str,
        metadata: Optional[Mapping[str, float]],
        copy: bool,
    ) -> ModelSnapshot:
        threshold = float(threshold)
        if not np.isfinite(threshold):
            raise ValueError(f"threshold must be finite, got {threshold}")
        with self._lock:
            if copy:
                published = model.snapshot()
            else:
                published = model
                published.prewarm_fused()
            published.seal()
            detector = AnomalyDetector(published, self.detection_config, threshold=threshold)
            self._published = version
            snapshot = ModelSnapshot(
                version=version,
                model=published,
                threshold=threshold,
                detector=detector,
                reason=reason,
                metadata=dict(metadata) if metadata else {},
            )
            self._snapshots[snapshot.version] = snapshot
            # The swap: one atomic pointer move, fully inside the lock, after
            # the snapshot is completely built.  Pinned readers are unaffected.
            self._latest = snapshot
            if self.max_versions is not None:
                while len(self._snapshots) > self.max_versions:
                    oldest = min(self._snapshots)
                    if oldest == snapshot.version:
                        # Never evict the snapshot being published: with
                        # max_versions=1 the latest version must stay reachable,
                        # or a checkpoint taken mid-publish (e.g. inside an
                        # update-trigger callback) would enumerate an empty or
                        # stale registry.
                        break
                    self._snapshots.pop(oldest)
            return snapshot

    @classmethod
    def from_detector(
        cls,
        detector: AnomalyDetector,
        *,
        copy: bool = True,
        max_versions: Optional[int] = None,
    ) -> "ModelRegistry":
        """Bootstrap a registry from a calibrated detector (version 1).

        This is the compatibility path the scoring service uses when handed a
        bare detector.  Version 1 is a full copy-on-write snapshot: mutating
        the caller's detector afterwards (re-calibrating its threshold,
        loading merged weights into its model) does **not** change what is
        served — a half-shared snapshot that tracked weight writes but froze
        the threshold would be worse than either extreme.  Callers that want
        the service to follow their updates publish new versions explicitly
        (or attach an :class:`~repro.serving.maintenance.UpdatePlane`).
        ``copy=False`` restores the shared-model behaviour for callers that
        promise not to mutate the model after bootstrap.
        """
        if detector.anomaly_threshold is None:
            raise ValueError(
                "registry bootstrap requires a calibrated detector (call "
                "AnomalyDetector.calibrate or set DetectionConfig.threshold)"
            )
        registry = cls(detection_config=detector.config, max_versions=max_versions)
        registry.publish(
            detector.model, detector.anomaly_threshold, reason="initial", copy=copy
        )
        return registry

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def latest(self) -> ModelSnapshot:
        """The currently published snapshot."""
        with self._lock:
            if self._latest is None:
                raise LookupError("registry is empty; publish a model first")
            return self._latest

    def get(self, version: int) -> ModelSnapshot:
        """The snapshot of a specific version.

        Old versions stay readable until evicted by ``max_versions``.
        """
        with self._lock:
            try:
                return self._snapshots[version]
            except KeyError:
                raise KeyError(f"unknown (or evicted) model version {version}") from None

    def versions(self) -> List[int]:
        """All retained version numbers, ascending."""
        with self._lock:
            return sorted(self._snapshots)

    def retained(self) -> List[ModelSnapshot]:
        """All retained snapshots in ascending version order.

        This is the consistent enumeration the checkpoint path walks: it can
        never surface an evicted version, and — because eviction in
        :meth:`publish` keeps the just-published latest — it always contains
        :meth:`latest`, even with ``max_versions=1`` mid-update.  Taken as one
        locked read, so a concurrent publish is either entirely in or
        entirely out of the enumeration.
        """
        with self._lock:
            return [self._snapshots[version] for version in sorted(self._snapshots)]

    @property
    def highest_published(self) -> int:
        """The highest version number ever handed out (0 before any publish)."""
        with self._lock:
            return self._published

    def __len__(self) -> int:
        with self._lock:
            return len(self._snapshots)

    def handle(self) -> "RegistryHandle":
        """A reader-side handle (one per serving shard)."""
        return RegistryHandle(self)


class RegistryHandle:
    """A reader's view of the registry with per-batch snapshot pinning.

    A shard calls :meth:`pin` exactly once per micro-batch, before the
    forward pass, and uses the returned snapshot for everything the batch
    needs (model, detector, threshold, version tag).  A publish that happens
    while the batch is being scored — e.g. the update plane running inside a
    drift-trigger callback, or a background maintenance thread — is only
    observed by the *next* ``pin``.

    Thread-safety contract: :meth:`pin` reads the latest pointer under the
    registry lock, so it can never observe a half-published snapshot; the
    handle's *own* fields (``pinned``, ``swaps_observed``) are deliberately
    unsynchronised because a handle belongs to exactly one shard and every
    pin happens under that shard's scoring lock.  Do not share one handle
    between shards — take one :meth:`ModelRegistry.handle` per reader.
    """

    def __init__(self, registry: ModelRegistry) -> None:
        self.registry = registry
        self._pinned: Optional[ModelSnapshot] = None
        self.swaps_observed = 0

    def pin(self) -> ModelSnapshot:
        """Pin and return the latest snapshot for the next unit of work."""
        snapshot = self.registry.latest()
        if self._pinned is not None and snapshot.version != self._pinned.version:
            self.swaps_observed += 1
        self._pinned = snapshot
        return snapshot

    @property
    def pinned(self) -> Optional[ModelSnapshot]:
        """The snapshot of the most recent :meth:`pin` (None before any)."""
        return self._pinned

    @property
    def version(self) -> Optional[int]:
        return self._pinned.version if self._pinned is not None else None
