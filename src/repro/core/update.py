"""Dynamic model maintenance over streams (Section IV-D of the paper).

Long live streams drift: the influencer's presentation style evolves and what
used to excite the audience stops doing so.  The paper keeps the CLSTM fresh
with an *incremental* update scheme (Fig. 5).  The loop itself runs in one
place, the serving runtime (:class:`repro.runtime.Runtime`); each step below
names where:

1. every incoming segment is pushed through the current model to obtain its
   ``LSTM_I`` hidden state ``h_i`` — ``ScoringService._score_requests``
   (:mod:`repro.serving.service`) takes it from the same fused forward that
   scores the segment;
2. segments whose normalised audience interaction is below a threshold ``T``
   (by default the mean of the levels observed before the current
   micro-batch) are presumed normal and buffered, segment and hidden state —
   ``DriftMonitor.observe`` (:mod:`repro.serving.service`);
3. once the hidden-state buffer ``S_n`` reaches its maximal length ``l_s`` the
   drift trigger compares it with the historical hidden states ``S_h``
   (Eq. 17, :func:`hidden_set_similarity`) and the history set absorbs the
   buffer — also ``DriftMonitor.observe``.  ``S_h`` and ``S_n`` hold hidden
   states of one model version: a hidden state is a function of the model,
   so after a publish both are dropped, the next full buffer seeds the new
   version's ``S_h`` and comparisons resume from the one after it;
4. if the similarity is above ``tau_u`` the model is kept; otherwise a new
   CLSTM is trained on the buffered segments (:func:`train_incremental`),
   *merged* with the previous model (:func:`merge_models`), ``T_a`` is
   re-derived and the result is published —
   ``UpdatePlane.handle_trigger`` (:mod:`repro.serving.maintenance`).

This module holds the pieces that loop shares — the drift statistic, the
short-budget training config, the retrain and the merge — and
:func:`retrain_model`, the full re-training baseline of Table III.  There is
no offline update path: what Table III and the ledger's ``drift_update``
measure is the code the server runs.

The merge operation is a convex combination of the two models' parameters,
which realises the paper's ``merge(CLSTM_new, CLSTM_{t-1})`` while keeping the
old knowledge (re-training from scratch on all data is the expensive
alternative benchmarked in Table III and Section VI-C.6).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

import numpy as np

from ..features.pipeline import StreamFeatures
from ..features.sequences import SequenceBatch, build_sequences
from ..utils.config import TrainingConfig, UpdateConfig
from ..utils.timer import Stopwatch
from .clstm import CLSTM
from .training import CLSTMTrainer

__all__ = [
    "hidden_set_similarity",
    "merge_models",
    "incremental_training_config",
    "train_incremental",
    "retrain_model",
]


def incremental_training_config(
    base: TrainingConfig | None, update: UpdateConfig
) -> TrainingConfig:
    """Derive the short-budget training config used for incremental updates.

    Incremental updates train fewer epochs on much less data; everything else
    (including ``tbptt_window`` — the truncated BPTT that keeps per-retrain
    cost O(window) instead of O(sequence length))
    is inherited from ``base`` via :func:`dataclasses.replace`.  Used by the
    in-service :class:`~repro.serving.maintenance.UpdatePlane`.
    """
    base = base if base is not None else TrainingConfig()
    return replace(
        base,
        epochs=update.update_epochs,
        checkpoint_every=max(1, update.update_epochs // 2),
    )


def train_incremental(base: CLSTM, batch: SequenceBatch, config: TrainingConfig, seed: int) -> CLSTM:
    """Train a fresh same-architecture CLSTM on buffered presumed-normal data.

    Returns the newly trained model (``CLSTM_new`` of Fig. 5); the caller
    merges it with the previous model via :func:`merge_models`.  Nobody reads
    a retrain's Fig. 8 curves, so validation runs on checkpoint epochs only.
    """
    new_model = base.clone_architecture(seed=seed)
    CLSTMTrainer(new_model, config).fit(batch, curves=False)
    return new_model


def _mean_unit(matrix: np.ndarray) -> np.ndarray:
    """Mean of the unit-normalised rows (zero rows contribute zero)."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms = np.where(norms > 0, norms, 1.0)
    return (matrix / norms).mean(axis=0)


def hidden_set_similarity(
    historical: np.ndarray, incoming: np.ndarray, *, statistic: str = "cosine"
) -> float:
    """Similarity between the historical and buffered hidden-state sets.

    ``statistic="cosine"`` is Eq. 17: the mean pairwise cosine similarity,
    computed in O(|S_h| + |S_n|) by averaging the unit-normalised vectors of
    each set first — the mean of all pairwise cosines equals the dot product
    of the two mean unit vectors.

    Eq. 17 saturates in practice: LSTM hidden states share a large common
    (mean) component, so *every* pairwise cosine sits near 1.0 on stationary
    streams and the trigger threshold ``tau_u`` has almost no dynamic range —
    stationary traffic reads ~0.999 and heavy drift still reads ~0.98.
    ``statistic="centered"`` removes that shared component before
    normalising: each incoming state is centered by the historical mean, the
    centered rows are unit-normalised, and the similarity is ``1 - R`` where
    ``R`` is the length of their mean (the mean resultant length of
    directional statistics).  Stationary buffers deviate from the historical
    mean in incoherent directions (``R ~ 1/sqrt(n)``, similarity near 1.0);
    a drifted buffer deviates coherently (``R -> 1``, similarity near 0.0) —
    the same "1.0 = same distribution, 0.0 = drifted" orientation as Eq. 17,
    with genuine headroom around the default ``tau_u = 0.4``.
    """
    historical = np.asarray(historical, dtype=np.float64)
    incoming = np.asarray(incoming, dtype=np.float64)
    if historical.ndim != 2 or incoming.ndim != 2:
        raise ValueError("hidden-state sets must be 2-D arrays")
    if historical.shape[0] == 0 or incoming.shape[0] == 0:
        raise ValueError("hidden-state sets must be non-empty")
    if statistic == "cosine":
        return float(np.dot(_mean_unit(historical), _mean_unit(incoming)))
    if statistic == "centered":
        deviations = incoming - historical.mean(axis=0)
        return float(1.0 - np.linalg.norm(_mean_unit(deviations)))
    raise ValueError(
        f"statistic must be 'cosine' or 'centered', got {statistic!r}"
    )


def merge_models(previous: CLSTM, new: CLSTM, new_weight: float = 0.5) -> CLSTM:
    """Merge two CLSTMs by convex combination of their parameters.

    ``new_weight`` is the weight of the freshly trained model; the merged
    model is written into a clone of ``previous`` so neither input is mutated.
    """
    if not 0.0 <= new_weight <= 1.0:
        raise ValueError("new_weight must be in [0, 1]")
    previous_state = previous.state_dict()
    new_state = new.state_dict()
    if set(previous_state) != set(new_state):
        raise ValueError("models to merge must share the same architecture")
    merged_state = {
        name: (1.0 - new_weight) * previous_state[name] + new_weight * new_state[name]
        for name in previous_state
    }
    merged = previous.clone_architecture(seed=0)
    merged.load_state_dict(merged_state)
    return merged


def retrain_model(
    model: CLSTM,
    all_features: List[StreamFeatures],
    sequence_length: int,
    training_config: TrainingConfig | None = None,
) -> tuple[CLSTM, float]:
    """Full re-training baseline used by Table III / Section VI-C.6.

    Trains a fresh CLSTM on the concatenation of every provided feature chunk
    (old + new data mixed, "treated equally") and returns it together with the
    wall-clock time the re-training took.
    """
    config = training_config if training_config is not None else TrainingConfig()
    action = np.concatenate([f.action for f in all_features], axis=0)
    interaction = np.concatenate([f.interaction for f in all_features], axis=0)
    batch = build_sequences(action, interaction, sequence_length)
    fresh = model.clone_architecture(seed=config.seed)
    stopwatch = Stopwatch().start()
    CLSTMTrainer(fresh, config).fit(batch)
    elapsed = stopwatch.stop()
    return fresh, elapsed

