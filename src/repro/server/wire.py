"""JSON wire protocol of the HTTP ingest tier.

One request shape in, one detection shape out:

* **Ingest** (``POST /v1/ingest``)::

      {"segments": [{"stream": "tenant-a/cam-1",
                     "action": [...],          # finite numbers
                     "interaction": [...],     # finite numbers
                     "level": 0.41},           # optional; null/absent = unknown
                    ...]}

  :func:`parse_ingest` turns one body into one
  :class:`~repro.serving.service.Tick`: one float64 ``(n, d)`` array per
  feature field, built by one ``np.array`` and checked by one ``isfinite``
  (:func:`~repro.serving.service.validate_features`).  That tick is what the
  server admits and what the batcher hands to ``Runtime.ingest_many``, which
  takes a built tick as it is — a request is validated and copied once.
  All segments of one request carry the same ``action`` width and the same
  ``interaction`` width.

* **Detection** (``GET /v1/detections``) — each element is
  :func:`detection_to_json` of one
  :class:`~repro.serving.service.StreamDetection`.

Validation is strict and happens *before* admission: a request that would
poison the runtime (non-finite features, a non-finite interaction level —
Python's ``json`` accepts ``NaN``/``Infinity`` literals, so the wire *can*
deliver them — missing fields, wrong types) is rejected with a 400 carrying
the offending segment's position, and nothing of the request is enqueued.
Only a refused body is walked segment by segment, to find that position.
Floats round-trip exactly: ``json`` serialises via ``repr``, which is
lossless for IEEE-754 doubles, so detections read over the wire compare
bitwise-equal to detections read from the library API.
"""

from __future__ import annotations

import json
import math
from typing import Any, List, NoReturn, Optional

import numpy as np

from ..serving.service import StreamDetection, Tick, validate_features

__all__ = ["WireError", "parse_ingest", "detection_to_json"]

_LEVEL_TYPES = frozenset((float, int, type(None)))


class WireError(Exception):
    """A client-attributable protocol violation, mapped to an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.message = message


def parse_ingest(body: bytes, *, max_items: Optional[int] = None) -> Tick:
    """Parse and validate one ingest request body into one :class:`Tick`.

    Rows keep request order.  Raises :class:`WireError` — 400 on any
    malformed, non-finite or ragged input, 413 when the body carries more
    than ``max_items`` segments; the whole request is rejected as a unit —
    ingest is all-or-nothing at the protocol layer too, matching the
    admission controller's contract.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(400, f"request body is not valid JSON: {error}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("segments"), list):
        raise WireError(400, "request body must be {\"segments\": [...]}")
    segments = payload["segments"]
    if not segments:
        raise WireError(400, "segments must not be empty")
    if max_items is not None and len(segments) > max_items:
        raise WireError(
            413, f"request carries {len(segments)} segments; limit is {max_items}"
        )
    tick = _columns(segments)
    if tick is None:
        _refuse(segments)
    return tick


def _columns(segments: List[Any]) -> Optional[Tick]:
    """``segments`` as one validated tick, or ``None`` when anything is off
    (:func:`_refuse` then names it).  JSON holds no sequence but a list,
    so a 2-D stack means every row was a flat number list."""
    try:
        stream_ids = [entry["stream"] for entry in segments]
        actions = np.array([entry["action"] for entry in segments], dtype=np.float64)
        interactions = np.array(
            [entry["interaction"] for entry in segments], dtype=np.float64
        )
        levels = [entry.get("level") for entry in segments]
        kinds = set(map(type, levels))
        if not (
            actions.ndim == interactions.ndim == 2
            and actions.shape[1]
            and interactions.shape[1]
            and set(map(type, stream_ids)) == {str}
            and all(stream_ids)
            and kinds <= _LEVEL_TYPES
            # filter(None, ...) skips only None and zeros: unknown or finite.
            and all(map(math.isfinite, filter(None, levels)))
        ):
            return None
        if int in kinds:
            levels = [None if level is None else float(level) for level in levels]
        tick = Tick(stream_ids, actions, interactions, levels)
        validate_features(tick)
    except (TypeError, KeyError, ValueError, OverflowError):
        return None
    return tick


def _finite_vector(value: Any, field: str, position: int) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise WireError(
            400, f"segments[{position}].{field} must be a non-empty number list"
        )
    try:
        vector = np.asarray(value, dtype=np.float64)
    except OverflowError:
        raise WireError(
            400, f"segments[{position}].{field} contains non-finite values"
        ) from None
    except (TypeError, ValueError):
        raise WireError(
            400, f"segments[{position}].{field} must contain only numbers"
        ) from None
    if vector.ndim != 1:
        raise WireError(400, f"segments[{position}].{field} must be a flat list")
    if not np.isfinite(vector).all():
        raise WireError(
            400, f"segments[{position}].{field} contains non-finite values"
        )
    return vector


def _refuse(segments: List[Any]) -> NoReturn:
    """Raise the error naming the first segment :func:`_columns` could not
    take: the per-segment checks, run only on a refused body."""
    widths = None
    for position, entry in enumerate(segments):
        if not isinstance(entry, dict):
            raise WireError(400, f"segments[{position}] must be an object")
        stream_id = entry.get("stream")
        if not isinstance(stream_id, str) or not stream_id:
            raise WireError(
                400, f"segments[{position}].stream must be a non-empty string"
            )
        action = _finite_vector(entry.get("action"), "action", position)
        interaction = _finite_vector(entry.get("interaction"), "interaction", position)
        level = entry.get("level")
        if level is not None:
            if isinstance(level, bool) or not isinstance(level, (int, float)):
                raise WireError(
                    400, f"segments[{position}].level must be a number or null"
                )
            try:
                finite = math.isfinite(level)
            except OverflowError:  # an integer past the float64 range
                finite = False
            if not finite:
                raise WireError(
                    400,
                    f"segments[{position}].level must be finite "
                    "(use null to mark the level unknown)",
                )
        shape = (action.shape[0], interaction.shape[0])
        if widths is None:
            widths = shape
        elif shape != widths:
            raise WireError(
                400,
                f"segments[{position}] has {shape[0]} action and {shape[1]} "
                f"interaction features, segments[0] has {widths[0]} and "
                f"{widths[1]}: one request carries one width per field",
            )
    raise WireError(400, "segments do not form one tick")


def detection_to_json(detection: StreamDetection) -> dict:
    """One :class:`StreamDetection` as a JSON-serialisable dict (lossless)."""
    return {
        "stream": detection.stream_id,
        "segment_index": detection.segment_index,
        "score": detection.score,
        "action_error": detection.action_error,
        "interaction_error": detection.interaction_error,
        "is_anomaly": detection.is_anomaly,
        "threshold": detection.threshold,
        "model_version": detection.model_version,
        "precision": detection.precision,
    }
