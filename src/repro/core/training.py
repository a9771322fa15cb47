"""Training loop for CLSTM and its variants.

Implements the training strategy of Section IV-B3:

* the normal segments of the training stream are split 75 % / 25 % into a
  training and a validation set;
* CLSTM is optimised with Adam (learning rate 0.001) on the fused
  reconstruction loss ``l(I, A) = w * JSE + (1 - w) * MSE`` (Eq. 13) — the
  action-branch loss can be switched to KL or L2 to reproduce Table I;
* every step runs through the analytic fused BPTT engine
  (:mod:`repro.nn.backprop`): tape-free cached forward, hand-derived backward
  and the flat-buffer Adam.  The per-op autograd tape is the gradient oracle
  the tests call directly (the two agree to ≤1e-8, see
  ``tests/test_fused_training.py``); nothing here selects it;
* the model is checkpointed every ``checkpoint_every`` epochs and the
  checkpoint with the lowest validation loss is kept as the final model,
  matching the paper's "save the model every 50 epochs and test on valid set"
  protocol;
* per-epoch reconstruction errors on the training, validation and (optional)
  anomalous test sequences are recorded, which is exactly the data Fig. 8
  plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .. import nn
from ..features.sequences import SequenceBatch
from ..utils.config import TrainingConfig
from .clstm import CLSTM

__all__ = ["EpochRecord", "TrainingHistory", "CLSTMTrainer"]


@dataclass(frozen=True)
class EpochRecord:
    """Loss values recorded after one training epoch."""

    epoch: int
    train_loss: float
    validation_loss: float
    test_loss: Optional[float] = None


@dataclass
class TrainingHistory:
    """Complete training trace (consumed by the Fig. 8 benchmark)."""

    records: List[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_validation_loss: float = float("inf")

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    @property
    def train_curve(self) -> np.ndarray:
        return np.array([r.train_loss for r in self.records])

    @property
    def validation_curve(self) -> np.ndarray:
        return np.array([r.validation_loss for r in self.records])

    @property
    def test_curve(self) -> np.ndarray:
        return np.array([r.test_loss if r.test_loss is not None else np.nan for r in self.records])

    def as_dict(self) -> Dict[str, list]:
        return {
            "epoch": [r.epoch for r in self.records],
            "train": [r.train_loss for r in self.records],
            "validation": [r.validation_loss for r in self.records],
            "test": [r.test_loss for r in self.records],
            "best_epoch": self.best_epoch,
        }


class CLSTMTrainer:
    """Trains a :class:`~repro.core.clstm.CLSTM` on normal-segment sequences."""

    def __init__(self, model: CLSTM, config: TrainingConfig | None = None) -> None:
        # The backward is hand-derived for CLSTM.forward and the stock decoder
        # heads; on anything else it would optimise a different objective.
        kind = type(model)
        if not model.supports_fused_training:
            raise TypeError(f"{kind.__name__} replaces a decoder head the analytic engine cannot train")
        if kind.forward is not CLSTM.forward and kind.fused_training_step is CLSTM.fused_training_step:
            raise TypeError(f"{kind.__name__} overrides forward without its own fused_training_step")
        self.model = model
        self.config = config if config is not None else TrainingConfig()
        self.history = TrainingHistory()
        self._best_state: Optional[Dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def fit(
        self,
        sequences: SequenceBatch,
        anomalous_sequences: Optional[SequenceBatch] = None,
        epochs: Optional[int] = None,
    ) -> TrainingHistory:
        """Train the model and return the training history.

        Parameters
        ----------
        sequences:
            Sequences built from *normal* segments (the paper trains only on
            normal data; anomalies are what the reconstruction then fails on).
        anomalous_sequences:
            Optional sequences whose targets are anomalous segments; their
            reconstruction error is tracked per epoch for the Fig. 8 curves
            but never used for optimisation.
        epochs:
            Override of ``config.epochs``.
        """
        if len(sequences) == 0:
            raise ValueError("cannot train on an empty sequence batch")
        config = self.config
        epochs = epochs if epochs is not None else config.epochs
        rng = np.random.default_rng(config.seed)

        train_batch, validation_batch = self._split(sequences, rng)
        optimizer = nn.Adam(self.model.parameters(), lr=config.learning_rate)

        for epoch in range(1, epochs + 1):
            train_loss = self._run_epoch(train_batch, optimizer, rng)
            validation_loss = self.evaluate_loss(validation_batch)
            test_loss = (
                self.evaluate_loss(anomalous_sequences)
                if anomalous_sequences is not None and len(anomalous_sequences) > 0
                else None
            )
            self.history.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=train_loss,
                    validation_loss=validation_loss,
                    test_loss=test_loss,
                )
            )
            if epoch % max(1, config.checkpoint_every) == 0 or epoch == epochs:
                if validation_loss < self.history.best_validation_loss:
                    self.history.best_validation_loss = validation_loss
                    self.history.best_epoch = epoch
                    self._best_state = self.model.state_dict()

        if self._best_state is not None:
            self.model.load_state_dict(self._best_state)
        return self.history

    def evaluate_loss(self, batch: Optional[SequenceBatch]) -> float:
        """Mean fused reconstruction loss of ``batch`` without training."""
        if batch is None or len(batch) == 0:
            return float("nan")
        return self.model.fused_loss(
            batch.action_sequences,
            batch.interaction_sequences,
            batch.action_targets,
            batch.interaction_targets,
            omega=self.config.omega,
            action_loss=self.config.action_loss,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _split(self, sequences: SequenceBatch, rng: np.random.Generator) -> tuple[SequenceBatch, SequenceBatch]:
        count = len(sequences)
        validation_size = int(round(count * self.config.validation_fraction))
        validation_size = min(max(validation_size, 1), count - 1) if count > 1 else 0
        permutation = rng.permutation(count)
        validation_indices = permutation[:validation_size]
        train_indices = permutation[validation_size:]
        if validation_size == 0:
            return sequences, sequences
        return sequences.subset(train_indices), sequences.subset(validation_indices)

    def _run_epoch(self, batch: SequenceBatch, optimizer: nn.Adam, rng: np.random.Generator) -> float:
        config = self.config
        count = len(batch)
        order = rng.permutation(count)
        batch_size = max(1, config.batch_size)
        total_loss = 0.0
        total_samples = 0
        for start in range(0, count, batch_size):
            indices = order[start : start + batch_size]
            mini = batch.subset(indices)
            optimizer.zero_grad()
            loss_value = self.model.fused_training_step(
                mini.action_sequences,
                mini.interaction_sequences,
                mini.action_targets,
                mini.interaction_targets,
                omega=config.omega,
                action_loss=config.action_loss,
                tbptt_window=config.tbptt_window,
            )
            if config.gradient_clip > 0:
                nn.clip_grad_norm(self.model.parameters(), config.gradient_clip)
            optimizer.step()
            total_loss += loss_value * len(mini)
            total_samples += len(mini)
        return total_loss / max(total_samples, 1)
