"""Sequence construction for CLSTM training and online scoring.

Given per-segment feature matrices ``I`` (action) and ``A`` (interaction) the
paper builds, for every time point ``t`` with enough history, the sequences

``s_t = {x_{t-q}, ..., x_{t-1}}``

of length ``q`` (q = 9 covers one 250-frame time slot) and trains CLSTM to
predict/reconstruct the features of segment ``t`` from them.  The same
construction is used online: the most recent ``q`` segments predict the
incoming one, and the reconstruction error of that prediction is the anomaly
evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["SequenceBatch", "build_sequences", "latest_sequence"]


@dataclass(frozen=True)
class SequenceBatch:
    """Aligned CLSTM input sequences and prediction targets.

    Attributes
    ----------
    action_sequences:
        ``(N, q, d1)`` action-feature history windows (``S_I`` in the paper).
    interaction_sequences:
        ``(N, q, d2)`` interaction-feature history windows (``S_A``).
    action_targets:
        ``(N, d1)`` true action features of the predicted segments.
    interaction_targets:
        ``(N, d2)`` true interaction features of the predicted segments.
    target_indices:
        ``(N,)`` segment indices the predictions refer to (index into the
        original stream), used to align anomaly scores with labels.
    """

    action_sequences: np.ndarray
    interaction_sequences: np.ndarray
    action_targets: np.ndarray
    interaction_targets: np.ndarray
    target_indices: np.ndarray

    def __len__(self) -> int:
        return self.action_sequences.shape[0]

    @property
    def sequence_length(self) -> int:
        return self.action_sequences.shape[1]

    def subset(self, mask: np.ndarray) -> "SequenceBatch":
        """Return the batch restricted to the boolean or index ``mask``."""
        return SequenceBatch(
            action_sequences=self.action_sequences[mask],
            interaction_sequences=self.interaction_sequences[mask],
            action_targets=self.action_targets[mask],
            interaction_targets=self.interaction_targets[mask],
            target_indices=self.target_indices[mask],
        )


def build_sequences(
    action_features: np.ndarray,
    interaction_features: np.ndarray,
    sequence_length: int,
) -> SequenceBatch:
    """Build every available ``(history, next-segment)`` pair from a stream.

    Parameters
    ----------
    action_features:
        ``(M, d1)`` matrix of per-segment action features.
    interaction_features:
        ``(M, d2)`` matrix of per-segment interaction features; must share the
        leading dimension with ``action_features``.
    sequence_length:
        History length ``q``.  A stream of ``M`` segments yields
        ``N = M - q`` sequences.

    The ``(N, q, d)`` windows are read-only views of the feature matrices
    (window ``i`` is rows ``i .. i+q-1``), not ``N·q`` copied rows: they
    cost no memory, and they show any later in-place write to the matrices.
    Copy a window set (``np.array``, :meth:`SequenceBatch.subset`) to own it.
    """
    action_features = np.asarray(action_features, dtype=np.float64)
    interaction_features = np.asarray(interaction_features, dtype=np.float64)
    if action_features.ndim != 2 or interaction_features.ndim != 2:
        raise ValueError("feature matrices must be 2-D")
    if action_features.shape[0] != interaction_features.shape[0]:
        raise ValueError(
            "action and interaction features must describe the same segments "
            f"({action_features.shape[0]} vs {interaction_features.shape[0]})"
        )
    if sequence_length < 1:
        raise ValueError("sequence_length must be positive")
    num_segments = action_features.shape[0]
    num_sequences = num_segments - sequence_length
    if num_sequences <= 0:
        d1 = action_features.shape[1]
        d2 = interaction_features.shape[1]
        return SequenceBatch(
            action_sequences=np.zeros((0, sequence_length, d1)),
            interaction_sequences=np.zeros((0, sequence_length, d2)),
            action_targets=np.zeros((0, d1)),
            interaction_targets=np.zeros((0, d2)),
            target_indices=np.zeros(0, dtype=np.int64),
        )

    target_indices = np.arange(sequence_length, num_segments, dtype=np.int64)
    return SequenceBatch(
        action_sequences=_windows(action_features, sequence_length, num_sequences),
        interaction_sequences=_windows(interaction_features, sequence_length, num_sequences),
        action_targets=action_features[sequence_length:],
        interaction_targets=interaction_features[sequence_length:],
        target_indices=target_indices,
    )


def _windows(features: np.ndarray, sequence_length: int, count: int) -> np.ndarray:
    """The first ``count`` length-``sequence_length`` windows of ``features``
    ``(M, d)`` as a read-only ``(count, q, d)`` view."""
    windows = np.lib.stride_tricks.sliding_window_view(features, sequence_length, axis=0)
    return windows[:count].transpose(0, 2, 1)


def latest_sequence(
    action_features: np.ndarray,
    interaction_features: np.ndarray,
    sequence_length: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return the most recent history window ``(1, q, d)`` for online scoring.

    Used when a new segment arrives over the stream: the previous ``q``
    segments form the input from which CLSTM predicts the incoming one.
    """
    action_features = np.asarray(action_features, dtype=np.float64)
    interaction_features = np.asarray(interaction_features, dtype=np.float64)
    if action_features.shape[0] < sequence_length:
        raise ValueError(
            f"need at least {sequence_length} historical segments, have {action_features.shape[0]}"
        )
    return (
        action_features[-sequence_length:][None, :, :],
        interaction_features[-sequence_length:][None, :, :],
    )
