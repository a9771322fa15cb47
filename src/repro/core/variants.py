"""CLSTM ablation variants evaluated in the paper.

Two ablations accompany the full CLSTM in every effectiveness experiment
(Fig. 9b, Fig. 10, Table IV):

* **LSTM** — a single LSTM over the action-recognition features only; the
  audience is ignored entirely.  Scores are the JS reconstruction error of
  the action feature (there is no interaction branch).
* **CLSTM-S** — the coupled model with only one coupling direction: the
  audience layer sees the influencer's hidden state, but the influencer layer
  does not see the audience's.  This isolates the value of the full mutual
  coupling.

Both are thin configurations of the machinery in :mod:`repro.core.clstm`; the
classes below wrap them in the common :class:`StreamAnomalyDetector`
interface.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..features.pipeline import StreamFeatures
from ..features.sequences import SequenceBatch
from ..nn.backprop import (
    TrainingArena,
    feature_major,
    js_loss_grad,
    softmax_backward,
    softmax_forward,
)
from ..nn.recurrent import LSTMCell, run_lstm
from ..nn.tensor import Tensor
from ..utils.config import DetectionConfig, TrainingConfig
from .base import ScoredStream, StreamAnomalyDetector
from .clstm import CLSTM
from .detector import AnomalyDetector
from .scoring import action_reconstruction_error
from .training import CLSTMTrainer

__all__ = ["LSTMOnlyDetector", "CLSTMSingleCouplingDetector", "make_clstm_variant"]


def make_clstm_variant(
    action_dim: int,
    interaction_dim: int,
    variant: str,
    action_hidden: int = 64,
    interaction_hidden: int = 32,
    seed: int = 0,
) -> CLSTM:
    """Instantiate a CLSTM with the coupling mode of a named variant.

    ``variant`` is one of ``"clstm"`` (two-way), ``"clstm-s"`` (one-way) or
    ``"uncoupled"`` (no coupling).
    """
    mapping = {
        "clstm": "both",
        "clstm-s": "influencer_to_audience",
        "uncoupled": "none",
    }
    key = variant.lower()
    if key not in mapping:
        raise ValueError(f"unknown CLSTM variant '{variant}'; options: {sorted(mapping)}")
    return CLSTM(
        action_dim=action_dim,
        interaction_dim=interaction_dim,
        action_hidden=action_hidden,
        interaction_hidden=interaction_hidden,
        coupling=mapping[key],
        seed=seed,
    )


class _LSTMOnlyModel(nn.Module):
    """Single-stream LSTM with a softmax decoder over action features."""

    def __init__(self, action_dim: int, hidden_size: int, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.cell = LSTMCell(action_dim, hidden_size, rng=rng)
        self.decoder = nn.Sequential(nn.Linear(hidden_size, action_dim, rng=rng), nn.SoftmaxHead())

    def forward(self, action_sequences) -> Tensor:
        hiddens, state = run_lstm(self.cell, Tensor.ensure(action_sequences))
        return self.decoder(state[0])

    def fused_training_step(self, action_sequences: np.ndarray, action_targets: np.ndarray) -> float:
        """One tape-free training step on the JS reconstruction loss.

        Mirrors ``js_divergence_loss(self(x), targets).backward()`` but runs
        the cached fused forward and the analytic BPTT
        (:mod:`repro.nn.backprop`).  Gradients accumulate into ``.grad``; the
        JS loss value is returned.
        """
        arena = TrainingArena((self.cell,), (list(self.decoder)[0],))
        final_hidden, cache = arena.forward((feature_major(action_sequences),))
        softmax_out = softmax_forward(arena.head_forward(0, final_hidden))
        loss, d_softmax = js_loss_grad(softmax_out, np.asarray(action_targets, dtype=np.float64))
        arena.head_backward(0, final_hidden, softmax_backward(softmax_out, d_softmax), cache.d_final)
        arena.backward(cache, cache.d_final)
        arena.accumulate_grads()
        return loss


class LSTMOnlyDetector(StreamAnomalyDetector):
    """The paper's "LSTM" competitor: action features only, no audience."""

    name = "LSTM"

    def __init__(
        self,
        sequence_length: int = 9,
        hidden_size: int = 64,
        training: TrainingConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.sequence_length = sequence_length
        self.hidden_size = hidden_size
        self.training = training if training is not None else TrainingConfig()
        self.seed = seed
        self._model: Optional[_LSTMOnlyModel] = None

    def fit(self, features: StreamFeatures) -> "LSTMOnlyDetector":
        batch = features.sequences(self.sequence_length)
        labels = features.sequence_labels(self.sequence_length)
        normal = batch.subset(labels == 0)
        if len(normal) == 0:
            raise ValueError("no normal sequences available for training")
        self._model = _LSTMOnlyModel(features.action_dim, self.hidden_size, seed=self.seed)
        self._train(normal)
        return self

    def score_stream(self, features: StreamFeatures) -> ScoredStream:
        if self._model is None:
            raise RuntimeError("fit() must be called before score_stream()")
        batch = features.sequences(self.sequence_length)
        with nn.no_grad():
            reconstruction = self._model(batch.action_sequences).numpy()
        scores = action_reconstruction_error(batch.action_targets, reconstruction)
        return ScoredStream(segment_indices=batch.target_indices, scores=scores)

    # ------------------------------------------------------------------ #
    def _train(self, batch: SequenceBatch) -> None:
        config = self.training
        optimizer = nn.Adam(self._model.parameters(), lr=config.learning_rate)
        rng = np.random.default_rng(config.seed)
        for _ in range(config.epochs):
            order = rng.permutation(len(batch))
            for start in range(0, len(batch), config.batch_size):
                indices = order[start : start + config.batch_size]
                mini = batch.subset(indices)
                optimizer.zero_grad()
                self._model.fused_training_step(mini.action_sequences, mini.action_targets)
                nn.clip_grad_norm(self._model.parameters(), config.gradient_clip)
                optimizer.step()


class CLSTMSingleCouplingDetector(StreamAnomalyDetector):
    """The paper's "CLSTM-S" ablation (influencer -> audience coupling only)."""

    name = "CLSTM-S"

    def __init__(
        self,
        sequence_length: int = 9,
        action_hidden: int = 64,
        interaction_hidden: int = 32,
        training: TrainingConfig | None = None,
        detection: DetectionConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.sequence_length = sequence_length
        self.action_hidden = action_hidden
        self.interaction_hidden = interaction_hidden
        self.training = training if training is not None else TrainingConfig()
        self.detection = detection if detection is not None else DetectionConfig()
        self.seed = seed
        self._detector: Optional[AnomalyDetector] = None

    def fit(self, features: StreamFeatures) -> "CLSTMSingleCouplingDetector":
        model = make_clstm_variant(
            features.action_dim,
            features.interaction_dim,
            "clstm-s",
            action_hidden=self.action_hidden,
            interaction_hidden=self.interaction_hidden,
            seed=self.seed,
        )
        batch = features.sequences(self.sequence_length)
        labels = features.sequence_labels(self.sequence_length)
        normal = batch.subset(labels == 0)
        if len(normal) == 0:
            raise ValueError("no normal sequences available for training")
        CLSTMTrainer(model, self.training).fit(normal)
        self._detector = AnomalyDetector(model, self.detection)
        self._detector.calibrate(normal)
        return self

    def score_stream(self, features: StreamFeatures) -> ScoredStream:
        if self._detector is None:
            raise RuntimeError("fit() must be called before score_stream()")
        batch = features.sequences(self.sequence_length)
        result = self._detector.score(batch)
        return ScoredStream(segment_indices=result.segment_indices, scores=result.scores)
