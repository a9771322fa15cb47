"""Training loop for CLSTM and its variants.

Implements the training strategy of Section IV-B3:

* the normal segments of the training stream are split 75 % / 25 % into a
  training and a validation set;
* CLSTM is optimised with Adam (learning rate 0.001) on the fused
  reconstruction loss ``l(I, A) = w * JSE + (1 - w) * MSE`` (Eq. 13) — the
  action-branch loss can be switched to KL or L2 to reproduce Table I;
* every step runs through the analytic fused BPTT engine
  (:mod:`repro.nn.backprop`) on one flat, feature-major training arena per
  fit: tape-free cached forward, hand-derived backward into the arena's
  gradient buffer, Adam in place over the arena.  The per-op autograd tape is
  the gradient oracle the tests call directly (the two agree to ≤1e-8, see
  ``tests/test_fused_training.py``); nothing here selects it;
* the model is checkpointed every ``checkpoint_every`` epochs and the
  checkpoint with the lowest validation loss is kept as the final model,
  matching the paper's "save the model every 50 epochs and test on valid set"
  protocol;
* per-epoch reconstruction errors on the training, validation and (optional)
  anomalous test sequences are recorded, which is exactly the data Fig. 8
  plots (``fit(curves=False)`` skips the values nobody consumes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .. import nn
from ..features.sequences import SequenceBatch
from ..nn.backprop import TrainingArena, feature_major
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


class _ArenaSet:
    """The windows ``indices`` picks from a sequence batch (all of them by
    default), laid out once in the training arena's layout.

    Inputs are gathered straight into feature-major ``(d, T, n)`` — one copy
    each, no batch-major subset first — and targets stay ``(n, d)``;
    :meth:`take` gathers a mini-batch into per-size workspaces, one
    ``np.take`` per array.
    """

    def __init__(self, batch: SequenceBatch, indices: Optional[np.ndarray] = None) -> None:
        targets = (batch.action_targets, batch.interaction_targets)
        if indices is not None:
            targets = tuple(target[indices] for target in targets)
        self.count = len(targets[0])
        self.arrays = (
            feature_major(batch.action_sequences, indices),
            feature_major(batch.interaction_sequences, indices),
            *(np.ascontiguousarray(target, dtype=np.float64) for target in targets),
        )
        self._workspaces: Dict[int, tuple] = {}

    def take(self, indices: np.ndarray) -> tuple:
        size = len(indices)
        workspace = self._workspaces.get(size)
        if workspace is None:
            actions, interactions, action_targets, interaction_targets = self.arrays
            workspace = self._workspaces[size] = (
                np.empty(actions.shape[:2] + (size,)),
                np.empty(interactions.shape[:2] + (size,)),
                np.empty((size,) + action_targets.shape[1:]),
                np.empty((size,) + interaction_targets.shape[1:]),
            )
        for source, out, axis in zip(self.arrays, workspace, (2, 2, 0, 0)):
            # The indices come from a permutation; "clip" only skips the
            # buffering np.take does under the default mode when out= is given.
            np.take(source, indices, axis=axis, out=out, mode="clip")
        return workspace


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

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def fit(
        self,
        sequences: SequenceBatch,
        anomalous_sequences: Optional[SequenceBatch] = None,
        epochs: Optional[int] = None,
        curves: bool = True,
    ) -> TrainingHistory:
        """Train the model and return the training history.

        The whole fit runs on one :class:`~repro.nn.backprop.TrainingArena`:
        the parameters are packed once, every step reads and updates the
        arena in place, and the model's parameters are written (rebound)
        exactly once, when ``fit`` returns — with the best checkpoint's
        weights.  The best checkpoint is one buffer the size of the arena's
        flat buffer: the first improvement copies into a new one, every later
        one into the same.  So a fit holds five parameter-sized buffers (the
        arena's values and gradients, Adam's two moments, the checkpoint);
        the laid-out sets, Adam and the arena's BPTT scratch are freed before
        the write-back allocates the model's new arrays.

        Every call is self-contained: it starts a fresh :attr:`history`
        (records restart at epoch 1) and tracks its own best checkpoint, so a
        second ``fit`` continues from the weights the first one left and is
        never rolled back to them.

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
        curves:
            Record the per-epoch validation/test losses Fig. 8 plots.  With
            ``False`` (incremental retrains, where nobody reads them) the
            validation loss is computed on checkpoint epochs only — the ones
            that consume it — and every skipped value is recorded as NaN; the
            trained weights are bitwise the same either way.
        """
        if len(sequences) == 0:
            raise ValueError("cannot train on an empty sequence batch")
        config = self.config
        epochs = epochs if epochs is not None else config.epochs
        rng = np.random.default_rng(config.seed)
        history = self.history = TrainingHistory()

        train, validation = (
            _ArenaSet(sequences, indices) for indices in self._split(len(sequences), rng)
        )
        has_test = anomalous_sequences is not None and len(anomalous_sequences) > 0
        test = _ArenaSet(anomalous_sequences) if has_test else None
        arena = self.model.training_arena()
        optimizer = nn.Adam([arena.flat], lr=config.learning_rate)
        best_weights: Optional[np.ndarray] = None

        for epoch in range(1, epochs + 1):
            train_loss = self._run_epoch(train, arena, optimizer, rng)
            checkpoint = epoch % max(1, config.checkpoint_every) == 0 or epoch == epochs
            validation_loss = (
                self._arena_loss(validation, arena) if curves or checkpoint else float("nan")
            )
            test_loss = None
            if test is not None:
                test_loss = self._arena_loss(test, arena) if curves else float("nan")
            history.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=train_loss,
                    validation_loss=validation_loss,
                    test_loss=test_loss,
                )
            )
            if checkpoint and validation_loss < history.best_validation_loss:
                history.best_validation_loss = validation_loss
                history.best_epoch = epoch
                if best_weights is None:
                    best_weights = arena.flat.data.copy()
                else:
                    best_weights[...] = arena.flat.data

        # Only the weights outlive the epochs: free the laid-out sets, Adam's
        # moments and the BPTT scratch before write-back allocates the
        # model's new parameter arrays.
        del train, validation, test, optimizer
        arena.release_scratch()
        if best_weights is not None:
            arena.flat.data[...] = best_weights
            del best_weights
        arena.write_back()
        return history

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
    def _split(self, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """The ``(train, validation)`` index sets of ``count`` windows; a
        single window is both."""
        validation_size = int(round(count * self.config.validation_fraction))
        validation_size = min(max(validation_size, 1), count - 1) if count > 1 else 0
        permutation = rng.permutation(count)
        train_indices = permutation[validation_size:]
        if validation_size == 0:
            return train_indices, train_indices
        return train_indices, permutation[:validation_size]

    def _arena_loss(self, data: _ArenaSet, arena: TrainingArena) -> float:
        """Loss of a whole set at the arena's current weights (no write-back)."""
        return self.model.fused_loss(
            *data.arrays, omega=self.config.omega, action_loss=self.config.action_loss, arena=arena
        )

    def _run_epoch(
        self, train: _ArenaSet, arena: TrainingArena, optimizer: nn.Adam, rng: np.random.Generator
    ) -> float:
        config = self.config
        order = rng.permutation(train.count)
        batch_size = max(1, config.batch_size)
        total_loss = 0.0
        for start in range(0, train.count, batch_size):
            indices = order[start : start + batch_size]
            loss_value = self.model.fused_training_step(
                *train.take(indices),
                omega=config.omega,
                action_loss=config.action_loss,
                tbptt_window=config.tbptt_window,
                arena=arena,
            )
            if config.gradient_clip > 0:
                nn.clip_grad_norm([arena.flat], config.gradient_clip)
            optimizer.advance(arena.flat.data, arena.flat.grad, out=arena.flat.data)
            total_loss += loss_value * len(indices)
        return total_loss / max(train.count, 1)
