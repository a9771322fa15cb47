"""Saving and loading model parameters.

AOVLIS maintains its model over long-running streams (Section IV-D), so being
able to checkpoint the CLSTM and restore it later is part of the production
surface.  Checkpoints are plain ``.npz`` archives of the module's state dict
plus a JSON metadata blob, which keeps them portable and dependency-free.
They are uncompressed: zlib shrinks float64 weights by ~1% at 7× the write time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from .module import Module

__all__ = ["save_state", "save_module", "load_state"]

_METADATA_KEY = "__metadata__"


def save_state(
    path: Union[str, Path],
    state: Dict[str, np.ndarray],
    metadata: Optional[Dict[str, Any]] = None,
) -> Path:
    """Persist a name → array mapping plus JSON metadata to ``path`` (``.npz``).

    The archive format shared by module checkpoints (:func:`save_module`) and
    the runtime's serving-state checkpoints: float64 arrays round-trip
    bitwise, and the metadata blob carries any JSON-serialisable structure.
    Read it back with :func:`load_state`.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    if _METADATA_KEY in state:
        raise ValueError(f"'{_METADATA_KEY}' is reserved for the metadata blob")
    payload = dict(state)
    payload[_METADATA_KEY] = np.frombuffer(
        json.dumps(metadata or {}).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **payload)
    return path


def save_module(module: Module, path: Union[str, Path], metadata: Optional[Dict[str, Any]] = None) -> Path:
    """Persist a module's parameters to ``path`` (``.npz``).

    Parameters
    ----------
    module:
        Any :class:`repro.nn.Module`.
    path:
        Destination file; the ``.npz`` suffix is appended when missing.
    metadata:
        Optional JSON-serialisable dictionary stored alongside the weights
        (e.g. training configuration, dataset name, update counters).
    """
    return save_state(path, module.state_dict(), metadata)


def load_state(path: Union[str, Path]) -> tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Load a checkpoint and return ``(state_dict, metadata)``."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with np.load(path, allow_pickle=False) as archive:
        state = {name: archive[name] for name in archive.files if name != _METADATA_KEY}
        metadata: Dict[str, Any] = {}
        if _METADATA_KEY in archive.files:
            raw = archive[_METADATA_KEY].tobytes().decode("utf-8")
            metadata = json.loads(raw) if raw else {}
    return state, metadata

