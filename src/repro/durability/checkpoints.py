"""The durable checkpoint store: chained delta checkpoints under one root.

Layout of a durability directory::

    <root>/
      checkpoints/
        ckpt-000001/          full:  runtime.json + state.npz + version_*.npz
        ckpt-000002/          delta: runtime.json + state.npz + only the
        ckpt-000003/                 version files absent from its parent
      wal/
        wal-000003-0000.log   (see repro.durability.wal)

Every checkpoint directory is self-describing through its ``runtime.json``
manifest (the same format :meth:`Runtime.from_checkpoint` reads): a *delta*
manifest still lists the **complete** retained version set, but entries whose
weights live in an ancestor carry a ``"source"`` field naming the sibling
directory that holds the file.  Sources are recorded fully resolved — a
delta's entry points at the directory that physically holds the ``.npz``,
never at an intermediate delta — so restoring any checkpoint touches at most
one level of indirection and never walks the chain.

The store's job is bookkeeping around those directories: allocate ids, find
the latest valid checkpoint, plan which version files a new delta may reuse
(failing **loudly at write time** when an ancestor's file has gone missing —
the eviction/compaction interplay must never surface at restore time), and
prune directories that fell off the live chain after a compaction back to a
full checkpoint.  :func:`pack_state`/:func:`unpack_state` are the codec of
a checkpoint's ``state.npz``: one raw buffer per dtype.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["CheckpointStore", "DeltaSourceError", "StoredCheckpoint", "pack_state", "unpack_state"]

_PREFIX = "ckpt-"
_MANIFEST_FILE = "runtime.json"


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
        manifest_path = path / _MANIFEST_FILE
        if not manifest_path.is_file():
            return None
        try:
            return json.loads(manifest_path.read_text(encoding="utf-8"))
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
        available: Dict[int, Tuple[str, str]] = {}
        for entry in parent.manifest.get("versions", ()):
            source = entry.get("source") or parent.path.name
            available[int(entry["version"])] = (source, entry["file"])
        plan: Dict[int, Tuple[str, str]] = {}
        missing: Dict[int, str] = {}
        for version in retained_versions:
            if version not in available:
                continue  # new since the parent: the delta writes it itself
            source, filename = available[version]
            if (self.checkpoints_dir / source / filename).is_file():
                plan[version] = (source, filename)
            else:
                missing[version] = f"{source}/{filename}"
        if missing:
            raise DeltaSourceError(missing)
        return plan

    def chain_of(self, manifest: dict) -> List[str]:
        """Directory names of ``manifest``'s live chain (leaf's deps + parents).

        The set a restore of this checkpoint (or any of its ancestors) can
        touch: the checkpoint itself, every ``source`` its entries name, and
        the parent chain up to the full root.
        """
        keep: List[str] = []
        walked: set = set()  # parent links only: sources may legally repeat
        current: Optional[dict] = manifest
        guard = 0
        while current is not None:
            guard += 1
            if guard > 10_000:
                raise ValueError("checkpoint parent chain does not terminate")
            name = current.get("checkpoint_name")
            if name:
                keep.append(name)
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
    def prune(self) -> List[str]:
        """Remove checkpoint directories off the latest checkpoint's chain.

        Also clears crash-leftover staging directories.  Returns the removed
        directory names.
        """
        latest = self.latest()
        keep = set()
        if latest is not None:
            manifest = dict(latest.manifest)
            manifest.setdefault("checkpoint_name", latest.path.name)
            keep = set(self.chain_of(manifest))
        removed: List[str] = []
        if not self.checkpoints_dir.is_dir():
            return removed
        for path in sorted(self.checkpoints_dir.iterdir()):
            is_staging = path.name.startswith(".") and path.name.endswith(".staging")
            is_checkpoint = _parse_checkpoint_name(path.name) is not None
            if not (is_staging or is_checkpoint):
                continue
            if path.name in keep:
                continue
            if latest is not None and path.name == latest.path.name:
                continue
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
