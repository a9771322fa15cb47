"""Correctness of a run: every accepted segment scored once, and scored right.

Three checks over the detections a run (and its restart) produced:

* **exactly once** — each stream has one detection for every accepted segment
  past its ``q`` warm-up segments, with consecutive ``segment_index``; a
  missing or a duplicated detection is a failure.  Where the restarted
  runtime re-derives detections the crashed one already emitted
  (``durable_ingest`` replays its WAL tail), the two copies must be bitwise
  equal and count once.
* **reference** — a seeded sample of version-1 detections is re-scored
  offline with ``AnomalyDetector.score_arrays`` on the stream's own last ``q``
  generated segments under the saved version-1 weights; ``score`` must match
  to 1e-9 relative and ``is_anomaly`` exactly (unless the score sits within
  1e-9 of the threshold).
* the caller adds the exact-count checks (``run.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from workloads import SEQUENCE_LENGTH, Inputs, Workload

SAMPLE = 4096
RTOL = 1e-9
_CHUNK = 512


@dataclass
class Verdict:
    missing: int = 0
    duplicated: int = 0
    mismatched: int = 0
    sampled: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.missing + self.duplicated + self.mismatched


def load_reference(w: Workload, weights: Path, threshold: float):
    from repro.core.clstm import CLSTM
    from repro.core.detector import AnomalyDetector
    from repro.nn.serialization import load_state
    from repro.utils.config import DetectionConfig, ModelConfig

    model = CLSTM.from_config(ModelConfig(**w.model), coupling="both", seed=0)
    state, _ = load_state(weights)
    model.load_state_dict(state)
    return AnomalyDetector(model, DetectionConfig(), threshold=threshold)


def _keys(detections: Dict[str, np.ndarray]) -> np.ndarray:
    return detections["stream"].astype(np.int64) << 32 | detections["segment_index"]


def verify(
    w: Workload,
    inputs: Inputs,
    accepted: np.ndarray,
    run: Dict[str, np.ndarray],
    restart: Optional[Dict[str, np.ndarray]],
    detector,
    *,
    seed: int,
    origin: Optional[List[np.ndarray]] = None,
) -> Verdict:
    """Check the detections of one run.

    ``accepted[s]`` is how many segments of stream ``s`` the SUT accepted in
    total; ``origin[s][j]`` the pool tick that stream's ``j``-th accepted
    segment came from (identity when ``None`` — no request was refused).
    """
    verdict = Verdict()
    keys = _keys(run)
    unique, first, counts = np.unique(keys, return_index=True, return_counts=True)
    verdict.duplicated += int((counts - 1).sum())
    if restart is not None and len(restart["stream"]):
        again = _keys(restart)
        again_unique, again_first, again_counts = np.unique(
            again, return_index=True, return_counts=True
        )
        verdict.duplicated += int((again_counts - 1).sum())
        _, left, right = np.intersect1d(unique, again_unique, return_indices=True)
        for column in ("score", "is_anomaly", "threshold", "model_version"):
            differs = run[column][first[left]] != restart[column][again_first[right]]
            if differs.any():
                verdict.mismatched += int(differs.sum())
                verdict.notes.append(f"{int(differs.sum())} replayed detections differ in {column}")
                break
        unique = np.union1d(unique, again_unique)
    expected = np.concatenate(
        [
            (np.int64(s) << 32) | np.arange(SEQUENCE_LENGTH, count, dtype=np.int64)
            for s, count in enumerate(accepted)
        ]
    )
    verdict.missing += int(len(np.setdiff1d(expected, unique)))
    verdict.duplicated += int(len(np.setdiff1d(unique, expected)))  # never asked for

    # Offline reference over a seeded sample of version-1 detections.
    candidates = first[run["model_version"][first] == 1]
    rng = np.random.default_rng([seed, 0xC4EC])
    rows = rng.choice(candidates, size=min(SAMPLE, len(candidates)), replace=False)
    verdict.sampled = len(rows)
    streams = run["stream"][rows]
    indices = run["segment_index"][rows]
    pool = inputs.action.shape[0]
    steps = np.arange(-SEQUENCE_LENGTH, 1)
    for start in range(0, len(rows), _CHUNK):
        s = streams[start : start + _CHUNK]
        window = indices[start : start + _CHUNK, None] + steps[None, :]
        if origin is not None:
            window = np.stack([origin[stream][row] for stream, row in zip(s, window)])
        ticks = window % pool
        action = inputs.action[ticks, s[:, None]]
        interaction = inputs.interaction[ticks, s[:, None]]
        result = detector.score_arrays(
            action[:, :-1], interaction[:, :-1], action[:, -1], interaction[:, -1],
            indices[start : start + _CHUNK],
        )
        chunk = rows[start : start + _CHUNK]
        score = run["score"][chunk]
        wrong = ~np.isclose(score, result.scores, rtol=RTOL, atol=0.0)
        decided = np.abs(result.scores - result.threshold) >= RTOL
        wrong |= decided & (run["is_anomaly"][chunk] != result.is_anomaly)
        wrong |= run["threshold"][chunk] != result.threshold
        verdict.mismatched += int(wrong.sum())
    if verdict.failed:
        verdict.notes.append(
            f"missing={verdict.missing} duplicated={verdict.duplicated} "
            f"mismatched={verdict.mismatched} of {len(expected)} expected"
        )
    return verdict
