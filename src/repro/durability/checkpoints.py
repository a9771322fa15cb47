"""The checkpoint on-disk format and the durable store of chained checkpoints.

This module is the format's one home: :func:`write_checkpoint` is the only
writer and :func:`read_checkpoint` the only reader of a checkpoint directory
(``runtime.json`` manifest, one ``version_<n>.npz`` per retained model
version, ``state.npz``), whether it lives at an explicit path or in a store.

Layout of a durability directory::

    <root>/
      checkpoints/
        ckpt-000001/          full:  runtime.json + state.npz + version_*.npz
        ckpt-000002/          delta: runtime.json + state.npz + only the
        ckpt-000003/                 version files absent from its parent
      wal/
        wal-000003-0000.log   (see repro.durability.wal)

Every checkpoint directory is self-describing through its ``runtime.json``
manifest: a *delta* manifest still lists the **complete** retained version
set, but entries whose weights live in an ancestor carry a ``"source"``
field naming the sibling directory that holds the file.  Sources are
recorded fully resolved — a delta's entry points at the directory that
physically holds the ``.npz``, never at an intermediate delta — so restoring
any checkpoint touches at most one level of indirection and never walks the
chain.

The store's job is bookkeeping around those directories: allocate ids, find
the latest valid checkpoint, plan whether the next one is full or a delta
and which version files it may reuse (failing **loudly at write time** when
an ancestor's file has gone missing — the eviction/compaction interplay must
never surface at restore time), and prune directories that fell off the
live chain after a compaction back to a full checkpoint.
:func:`pack_state`/:func:`unpack_state` are the codec of a checkpoint's
``state.npz``: one raw buffer per dtype.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import warnings
from pathlib import Path
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn.serialization import load_state, save_module, save_state
from .wal import fsync_path

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointStore",
    "DeltaSourceError",
    "StoredCheckpoint",
    "pack_state",
    "read_checkpoint",
    "unpack_state",
    "write_checkpoint",
]

CHECKPOINT_FORMAT = 4
"""Version tag written into every checkpoint manifest.

Format 4 writes uncompressed archives, and ``state.npz`` as raw per-dtype
state buffers plus a ``(buffer, offset, shape)`` leaf table
(:func:`pack_state`).  Format 3 added the
durability plane's fields: ``kind`` (``"full"`` |
``"delta"``), ``checkpoint_id``/``parent``/``delta_depth`` (the delta chain)
and ``wal`` (the write-ahead-log position to replay from) — plus per-version
``source`` entries pointing at the sibling checkpoint that physically holds
a delta's reused weight files.  Format 2 added ``plane_pending``
(queued-but-not-started background retrains, persisted instead of
force-executed at checkpoint time) and the manifest's ``pending_updates``
count.  Formats 1–3 are still readable, and a delta chain may mix them."""

_READABLE_FORMATS = (1, 2, 3, 4)

_PREFIX = "ckpt-"
_MANIFEST_FILE = "runtime.json"
_STATE_FILE = "state.npz"


class DeltaSourceError(ValueError):
    """A delta checkpoint referenced parent version files that do not exist.

    Raised at *write* time, naming the offending version ids, so an
    inconsistent chain (evicted/compacted/tampered ancestors) can never be
    written and discovered only at restore.
    """

    def __init__(self, missing: Dict[int, str]) -> None:
        self.missing = dict(missing)
        listing = ", ".join(
            f"version {version} (expected at {where})"
            for version, where in sorted(self.missing.items())
        )
        super().__init__(
            f"cannot write delta checkpoint: parent chain no longer holds "
            f"{listing}; take a full checkpoint instead"
        )


class StoredCheckpoint(NamedTuple):
    """One valid checkpoint directory of the store."""

    checkpoint_id: int
    path: Path
    manifest: dict


def _checkpoint_name(checkpoint_id: int) -> str:
    return f"{_PREFIX}{checkpoint_id:06d}"


def _parse_checkpoint_name(name: str) -> Optional[int]:
    if not name.startswith(_PREFIX):
        return None
    tail = name[len(_PREFIX) :]
    return int(tail) if tail.isdigit() else None


def _load_manifest(directory: Path) -> dict:
    return json.loads((directory / _MANIFEST_FILE).read_text(encoding="utf-8"))


def _weights_path(directory: Path, entry: Mapping[str, Any]) -> Path:
    """Where a manifest entry's weights live: in ``directory``, or — a
    delta's reused file — in the sibling directory its ``source`` names."""
    return directory.parent / (entry.get("source") or directory.name) / entry["file"]


class CheckpointStore:
    """Id allocation, chain resolution and retention over one root directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.checkpoints_dir = self.root / "checkpoints"
        self.wal_dir = self.root / "wal"
        self._allocated = 0
        # Per-process write counters (exported via stats()/Prometheus).
        self.written_full = 0
        self.written_delta = 0

    def ensure_layout(self) -> None:
        self.checkpoints_dir.mkdir(parents=True, exist_ok=True)
        self.wal_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Discovery
    # ------------------------------------------------------------------ #
    def list_ids(self) -> List[int]:
        """Ids of every directory shaped like a checkpoint (valid or not)."""
        if not self.checkpoints_dir.is_dir():
            return []
        ids = []
        for path in self.checkpoints_dir.iterdir():
            checkpoint_id = _parse_checkpoint_name(path.name)
            if checkpoint_id is not None and path.is_dir():
                ids.append(checkpoint_id)
        return sorted(ids)

    def directory_for(self, checkpoint_id: int) -> Path:
        return self.checkpoints_dir / _checkpoint_name(checkpoint_id)

    def manifest_of(self, path: Path) -> Optional[dict]:
        """The checkpoint manifest at ``path``, or None if absent/unreadable."""
        try:
            return _load_manifest(path)
        except (OSError, json.JSONDecodeError):
            return None

    def latest(self) -> Optional[StoredCheckpoint]:
        """The highest-id checkpoint with a readable manifest.

        A directory without one is a crash artefact (the manifest is written
        last, before the atomic rename publishes the directory — but a copy
        of a half-pruned store can still present one) and is skipped.
        """
        for checkpoint_id in reversed(self.list_ids()):
            path = self.directory_for(checkpoint_id)
            manifest = self.manifest_of(path)
            if manifest is not None:
                return StoredCheckpoint(checkpoint_id, path, manifest)
        return None

    def allocate_id(self) -> int:
        """The next unused checkpoint id (monotone across the store)."""
        ids = self.list_ids()
        self._allocated = max(self._allocated, ids[-1] if ids else 0) + 1
        return self._allocated

    # ------------------------------------------------------------------ #
    # Delta planning
    # ------------------------------------------------------------------ #
    def plan(
        self, retained: Sequence[Any], full_every: int
    ) -> Tuple[Optional[StoredCheckpoint], Dict[int, Tuple[str, str]]]:
        """``(parent, reuse)`` for the next store checkpoint of ``retained``.

        A delta on the latest checkpoint while its chain is shorter than
        ``full_every``, otherwise a full checkpoint (``(None, {})``).  Decided
        before anything is staged.  When the parent chain has lost version
        files (eviction, tampering, a half-copied store) the checkpoint
        compacts to a self-contained full one instead of rethrowing the same
        :class:`DeltaSourceError` out of every future auto-checkpoint —
        loudly, with a :class:`RuntimeWarning`, because the chain damage
        itself still deserves an operator's attention.
        """
        parent = self.latest()
        if parent is None or int(parent.manifest.get("delta_depth", 0)) + 1 >= full_every:
            return None, {}
        try:
            return parent, self.delta_plan(parent, [snapshot.version for snapshot in retained])
        except DeltaSourceError as error:
            warnings.warn(
                f"compacting to a full checkpoint: {error}", RuntimeWarning, stacklevel=3
            )
            return None, {}

    def delta_plan(
        self, parent: StoredCheckpoint, retained_versions: Sequence[int]
    ) -> Dict[int, Tuple[str, str]]:
        """Which of ``retained_versions`` a delta on ``parent`` may reuse.

        Returns ``{version: (source_dirname, filename)}`` for every retained
        version the parent manifest already covers, with each source resolved
        to the directory that physically holds the file and **verified to
        exist**.  Versions the parent covers on paper but whose files are
        gone raise :class:`DeltaSourceError` naming them — the
        write-time-loud contract.
        """
        available = {
            int(entry["version"]): _weights_path(parent.path, entry)
            for entry in parent.manifest.get("versions", ())
        }
        plan: Dict[int, Tuple[str, str]] = {}
        missing: Dict[int, str] = {}
        for version in retained_versions:
            if version not in available:
                continue  # new since the parent: the delta writes it itself
            path = available[version]
            if path.is_file():
                plan[version] = (path.parent.name, path.name)
            else:
                missing[version] = f"{path.parent.name}/{path.name}"
        if missing:
            raise DeltaSourceError(missing)
        return plan

    def chain_of(self, checkpoint: StoredCheckpoint) -> List[str]:
        """Directory names of ``checkpoint``'s live chain (its deps + parents).

        The set a restore of this checkpoint (or any of its ancestors) can
        touch: the checkpoint itself, every ``source`` its entries name, and
        the parent chain up to the full root.
        """
        keep: List[str] = [checkpoint.path.name]
        walked: set = set()  # parent links only: sources may legally repeat
        current: Optional[dict] = checkpoint.manifest
        while current is not None:
            for entry in current.get("versions", ()):
                source = entry.get("source")
                if source and source not in keep:
                    keep.append(source)
            parent = current.get("parent")
            if not parent:
                break
            if parent in walked:
                raise ValueError(f"checkpoint parent chain contains a cycle at {parent}")
            walked.add(parent)
            if parent not in keep:
                keep.append(parent)
            current = self.manifest_of(self.checkpoints_dir / parent)
        return keep

    # ------------------------------------------------------------------ #
    # Retention
    # ------------------------------------------------------------------ #
    def commit(self, manifest: Mapping[str, Any]) -> None:
        """Count a just-published store checkpoint, then :meth:`prune`."""
        if manifest["kind"] == "delta":
            self.written_delta += 1
        else:
            self.written_full += 1
        self.prune()

    def prune(self) -> List[str]:
        """Remove checkpoint directories off the latest checkpoint's chain.

        Also clears crash-leftover staging directories.  Returns the removed
        directory names.
        """
        latest = self.latest()
        keep = set(self.chain_of(latest)) if latest is not None else set()
        removed: List[str] = []
        if not self.checkpoints_dir.is_dir():
            return removed
        for path in sorted(self.checkpoints_dir.iterdir()):
            is_staging = path.name.startswith(".") and path.name.endswith(".staging")
            is_checkpoint = _parse_checkpoint_name(path.name) is not None
            if (is_staging or is_checkpoint) and path.name not in keep:
                shutil.rmtree(path)
                removed.append(path.name)
        return removed

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """JSON-safe view for ``/stats`` and the Prometheus renderer."""
        latest = self.latest()
        return {
            "written_full": self.written_full,
            "written_delta": self.written_delta,
            "latest_id": latest.checkpoint_id if latest else None,
            "latest_kind": latest.manifest.get("kind", "full") if latest else None,
            "delta_chain_depth": latest.manifest.get("delta_depth", 0) if latest else 0,
            "directories": len(self.list_ids()),
        }


# ---------------------------------------------------------------------- #
# The one writer and the one reader
# ---------------------------------------------------------------------- #
def write_checkpoint(
    target: Path,
    retained: Sequence[Any],
    state: Any,
    manifest_fields: Mapping[str, Any],
    *,
    reuse: Optional[Mapping[int, Tuple[str, str]]] = None,
    parent: Optional[StoredCheckpoint] = None,
) -> dict:
    """Write one checkpoint directory at ``target``; returns its manifest.

    ``retained`` is one consistent registry cut (ascending snapshots, the
    latest last): its highest version is the manifest's version pointer.
    Each snapshot gets a ``version_<n>.npz`` unless ``reuse`` maps its
    version to ``(source_dirname, filename)`` in a sibling directory — a
    *delta* on ``parent``.  ``state`` is the serving state
    (:func:`pack_state` into ``state.npz``); ``manifest_fields`` carries
    ``config``, ``num_shards``, ``checkpoint_id`` and ``wal``.

    The write is crash-safe: everything lands in a staging directory that is
    swapped over ``target`` only once complete, so re-checkpointing to the
    same location (the periodic-checkpoint pattern) can never leave a
    readable-but-inconsistent mix of old and new files — a crash leaves
    either the previous checkpoint or, in the narrow window between the two
    renames, no checkpoint (which fails loudly).  Every written file and the
    directories the renames mutate are ``fsync``\\ ed, so the "previous
    checkpoint or loud failure" guarantee holds through power failure, not
    just process death.
    """
    reuse = reuse or {}
    staging = target.parent / f".{target.name}.staging"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    try:
        versions: List[Dict[str, Any]] = []
        for snapshot in retained:
            entry: Dict[str, Any] = {
                "version": snapshot.version,
                "threshold": snapshot.threshold,
                "reason": snapshot.reason,
                "metadata": dict(snapshot.metadata),
            }
            if snapshot.version in reuse:
                source, filename = reuse[snapshot.version]
                entry.update(file=filename, source=source)
            else:
                filename = f"version_{snapshot.version:06d}.npz"
                save_module(snapshot.model, staging / filename, metadata=dict(entry))
                fsync_path(staging / filename)
                entry["file"] = filename
            versions.append(entry)

        arrays, metadata = pack_state(state)
        save_state(staging / _STATE_FILE, arrays, metadata=metadata)
        fsync_path(staging / _STATE_FILE)

        wal = manifest_fields["wal"]
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "config": manifest_fields["config"],
            # Eviction always keeps the just-published latest, so the highest
            # retained version IS the version pointer of this registry cut.
            "published": versions[-1]["version"],
            "versions": versions,
            "pending_updates": sum(len(jobs) for jobs in state["plane_pending"]),
            # Live shard count (may exceed config.serving.num_shards after
            # rebalancer splits); the reader's caller rebuilds this topology.
            "num_shards": manifest_fields["num_shards"],
            "kind": "full" if parent is None else "delta",
            "checkpoint_id": manifest_fields["checkpoint_id"],
            "parent": None if parent is None else parent.path.name,
            "delta_depth": 0 if parent is None else int(parent.manifest.get("delta_depth", 0)) + 1,
            "wal": None if wal is None else wal._asdict(),
        }
        manifest_path = staging / _MANIFEST_FILE
        manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        fsync_path(manifest_path)
        # The directory's entry list (every name written above) must be
        # durable before the rename publishes it.
        fsync_path(staging)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    # Atomic swap: the complete staging directory replaces the target.
    if target.exists():
        discarded = target.parent / f".{target.name}.discarded"
        if discarded.exists():
            shutil.rmtree(discarded)
        os.replace(target, discarded)
        os.replace(staging, target)
        shutil.rmtree(discarded)
    else:
        os.replace(staging, target)
    # The renames live in the parent directory's entries; without this
    # fsync a power cut can roll the whole swap back.
    fsync_path(target.parent)
    return manifest


def read_checkpoint(
    directory: Union[str, Path],
) -> Tuple[dict, List[Tuple[dict, Dict[str, np.ndarray]]], Any]:
    """Read a :func:`write_checkpoint` directory (formats 1–4).

    Returns ``(manifest, versions, state)``: ``versions`` is one
    ``(entry, weights)`` pair per retained model version in ascending order
    (``weights`` a module state dict), ``state`` the unpacked serving state.
    A delta's reused weights resolve from the sibling directory its entry
    names (one level of indirection); a broken chain raises
    :class:`FileNotFoundError` naming the missing file.
    """
    directory = Path(directory)
    if not (directory / _MANIFEST_FILE).exists():
        raise FileNotFoundError(f"no runtime checkpoint at {directory}")
    manifest = _load_manifest(directory)
    if manifest.get("format") not in _READABLE_FORMATS:
        raise ValueError(
            f"unsupported checkpoint format {manifest.get('format')!r}; "
            f"this build reads formats {list(_READABLE_FORMATS)}"
        )
    entries = sorted(manifest["versions"], key=lambda entry: entry["version"])
    if not entries:
        raise ValueError(f"checkpoint at {directory} holds no model versions")
    if entries[-1]["version"] != manifest["published"]:
        raise ValueError(
            f"inconsistent checkpoint: manifest version pointer is "
            f"{manifest['published']}, its weights end at "
            f"{entries[-1]['version']}"
        )
    versions = []
    for entry in entries:
        weights_path = _weights_path(directory, entry)
        if not weights_path.is_file():
            raise FileNotFoundError(
                f"checkpoint at {directory} references version "
                f"{entry['version']} weights at {weights_path}, which do "
                f"not exist (broken delta chain)"
            )
        versions.append((entry, load_state(weights_path)[0]))
    arrays, metadata = load_state(directory / _STATE_FILE)
    return manifest, versions, unpack_state(metadata, arrays)


# ---------------------------------------------------------------------- #
# State codec: JSON structure + one raw buffer per dtype
# ---------------------------------------------------------------------- #
_ARRAY_KEY = "__ndarray__"


def pack_state(state: Any) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Split a nested state structure into raw buffers plus JSON metadata.

    Every ndarray leaf becomes ``{"__ndarray__": i}``, ``i`` indexing the
    metadata's ``leaves`` table of ``[buffer, offset, shape]`` rows, and its
    elements are appended to one flat buffer per dtype — the archive holds
    one entry per dtype however many leaves the state has.  Everything else
    must be JSON-representable.  :func:`unpack_state` is the exact inverse.
    """
    groups: Dict[np.dtype, List[np.ndarray]] = {}
    sizes: Dict[np.dtype, int] = {}
    leaves: List[list] = []

    def pack(value: Any) -> Any:
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, np.ndarray):
            dtype = value.dtype
            groups.setdefault(dtype, []).append(value.reshape(-1))
            offset = sizes.get(dtype, 0)
            sizes[dtype] = offset + value.size
            leaves.append([f"b{list(groups).index(dtype)}", offset, list(value.shape)])
            return {_ARRAY_KEY: len(leaves) - 1}
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, Mapping):
            if _ARRAY_KEY in value:
                raise ValueError(f"'{_ARRAY_KEY}' is a reserved key in checkpoint state")
            return {str(key): pack(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [pack(item) for item in value]
        raise TypeError(f"cannot checkpoint value of type {type(value).__name__}")

    structure = pack(state)
    arrays = {f"b{index}": np.concatenate(parts) for index, parts in enumerate(groups.values())}
    return arrays, {"state": structure, "leaves": leaves}


def unpack_state(metadata: Mapping[str, Any], arrays: Mapping[str, np.ndarray]) -> Any:
    """Inverse of :func:`pack_state`.

    A marker holding a string is the older layout (checkpoint formats 1–3):
    it names its own archive entry.
    """
    leaves = metadata.get("leaves")

    def unpack(value: Any) -> Any:
        if isinstance(value, dict):
            if set(value) == {_ARRAY_KEY}:
                marker = value[_ARRAY_KEY]
                if isinstance(marker, str):
                    return arrays[marker]
                name, offset, shape = leaves[marker]
                return arrays[name][offset : offset + math.prod(shape)].reshape(shape)
            return {key: unpack(item) for key, item in value.items()}
        if isinstance(value, list):
            return [unpack(item) for item in value]
        return value

    return unpack(metadata["state"])
