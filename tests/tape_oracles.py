"""Reference implementations the training parity tests compare against.

Nothing in the package calls these; they live beside ``frozen_kernels.py``
and ``reference_bounds.py`` as test oracles:

* the one-shot BPTT drivers (``lstm_forward_cached``/``lstm_backward`` and
  the coupled pair's twins): a fresh :class:`~repro.nn.backprop.TrainingArena`
  per call over ``(B, T, D)`` sequences, gradients accumulated into each
  parameter's ``.grad`` like ``loss.backward()`` on the tape, so
  ``tests/test_fused_training.py`` and ``tests/test_tbptt.py`` can hold the
  arena's sweep (full and truncated) against the tape cell by cell;
* the tape forms of the Table I action losses (``l2_loss``,
  ``kl_divergence_loss``) and of Eq. 13 (``weighted_reconstruction_loss``),
  the differentiable oracle of :func:`repro.nn.backprop.weighted_loss_grad`.
  ``ACTION_LOSSES`` is their registry; ``TrainingConfig.action_loss`` is
  checked against the analytic table ``repro.nn.backprop.ACTION_LOSS_GRADS``,
  which a test holds to these keys.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.backprop import BPTTCache, TrainingArena, feature_major, paired_feature_major
from repro.nn.losses import _EPS, js_divergence_loss, mse_loss
from repro.nn.recurrent import CoupledLSTMCell, LSTMCell
from repro.nn.tensor import Tensor

__all__ = [
    "ACTION_LOSSES",
    "coupled_pair_backward",
    "coupled_pair_forward_cached",
    "kl_divergence_loss",
    "l2_loss",
    "lstm_backward",
    "lstm_forward_cached",
    "weighted_reconstruction_loss",
]


# ---------------------------------------------------------------------- #
# One-shot BPTT drivers: (B, T, D) in, .grad out
# ---------------------------------------------------------------------- #
def _one_shot_forward(cells: Sequence, inputs: Sequence[np.ndarray]) -> Tuple[np.ndarray, BPTTCache]:
    """Forward on a fresh arena whose cache leaves the pool and owns the arena."""
    arena = TrainingArena(cells)
    final, cache = arena.forward(inputs)
    arena._caches.clear()
    cache.arena = arena
    return final, cache


def lstm_forward_cached(cell: LSTMCell, sequence: np.ndarray) -> Tuple[np.ndarray, BPTTCache]:
    """Cached forward of a plain LSTM cell over a ``(B, T, D)`` sequence.

    Returns the final hidden state ``(B, H)`` and the :class:`BPTTCache`
    :func:`lstm_backward` consumes.
    """
    final, cache = _one_shot_forward((cell,), (feature_major(sequence),))
    return final.T, cache


def coupled_pair_forward_cached(
    influencer: CoupledLSTMCell,
    audience: CoupledLSTMCell,
    action_sequences: np.ndarray,
    interaction_sequences: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, BPTTCache]:
    """Cached twin of :func:`repro.nn.fused.coupled_pair_forward_fused`.

    Advances both mutually coupled cells in lockstep as one joint recurrence
    and records the gate activations and states, so
    :func:`coupled_pair_backward` can run the analytic BPTT afterwards.
    Returns ``(h_final, g_final, cache)``, the states ``(B, H)``.
    """
    final, cache = _one_shot_forward(
        (influencer, audience), paired_feature_major(action_sequences, interaction_sequences)
    )
    h1 = influencer.hidden_size
    return final[:h1].T, final[h1:].T, cache


def lstm_backward(
    cell: LSTMCell,
    cache: BPTTCache,
    d_last_hidden: np.ndarray,
    window: Optional[int] = None,
) -> None:
    """Analytic BPTT for a plain LSTM cell, from the final hidden state only.

    Accumulates gradients into the cell's parameters (``.grad``), matching
    what ``state[0].backward(d_last_hidden)`` produces on the tape path.
    ``window`` truncates the sweep to the last ``window`` timesteps (exact
    full BPTT whenever the sequence fits inside it).
    """
    cache.arena.backward(cache, np.asarray(d_last_hidden, dtype=np.float64).T, window)
    cache.arena.accumulate_grads()


def coupled_pair_backward(
    influencer: CoupledLSTMCell,
    audience: CoupledLSTMCell,
    cache: BPTTCache,
    d_h_final: np.ndarray,
    d_g_final: np.ndarray,
    window: Optional[int] = None,
) -> None:
    """Analytic BPTT through two mutually coupled cells.

    At step ``t`` both cells read ``h_{t-1}`` and ``g_{t-1}``; in the joint
    formulation that mutual influence is carried by the off-diagonal blocks
    of the recurrent matrix, so the reverse sweep propagates it with the same
    single GEMM per timestep.  Gradients are accumulated into both cells'
    parameters (a disabled coupling direction yields the tape's exact
    all-zero partner-weight gradient).

    ``window`` applies truncated BPTT to the joint system: for sequences no
    longer than the window the gradient is exactly full BPTT; beyond it, the
    sweep is O(window) and states older than the window are treated as
    constants.
    """
    d_final = np.concatenate(
        [np.asarray(d_h_final, dtype=np.float64).T, np.asarray(d_g_final, dtype=np.float64).T]
    )
    cache.arena.backward(cache, d_final, window)
    cache.arena.accumulate_grads()

# ---------------------------------------------------------------------- #
# Tape losses (Eq. 13 and the Table I variants)
# ---------------------------------------------------------------------- #
def l2_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean (over batch) of the squared L2 norm of the reconstruction error.

    This is the "CLSTM+L2" variant from Table I: the loss for each sample is
    ``||x_hat - x||_2^2`` and samples are averaged.
    """
    prediction = Tensor.ensure(prediction)
    target = Tensor.ensure(target)
    diff = prediction - target
    per_sample = (diff * diff).sum(axis=-1)
    return per_sample.mean()


def kl_divergence_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean KL divergence ``KL(target || prediction)`` over the batch.

    Both inputs are expected to be (approximately) normalised distributions
    along the last axis, which holds for the action-recognition features and
    for the softmax output of the action decoder.
    """
    prediction = Tensor.ensure(prediction)
    target = Tensor.ensure(target)
    ratio = F.log(target, eps=_EPS) - F.log(prediction, eps=_EPS)
    per_sample = (target * ratio).sum(axis=-1)
    return per_sample.mean()

ACTION_LOSSES = {
    "js": js_divergence_loss,
    "kl": kl_divergence_loss,
    "l2": l2_loss,
    "mse": mse_loss,
}
"""The tape action losses, keyed like ``repro.nn.backprop.ACTION_LOSS_GRADS``."""


def weighted_reconstruction_loss(
    action_prediction: Tensor,
    action_target: Tensor,
    interaction_prediction: Tensor,
    interaction_target: Tensor,
    omega: float,
    action_loss: str = "js",
) -> Tensor:
    """Overall CLSTM loss (Eq. 13).

    Parameters
    ----------
    action_prediction, action_target:
        Reconstructed and true action-recognition features.
    interaction_prediction, interaction_target:
        Reconstructed and true audience-interaction features.
    omega:
        Weight ``w`` of the action branch, in ``[0, 1]``.
    action_loss:
        Loss applied to the action branch — ``"js"`` (paper default), ``"kl"``
        or ``"l2"`` (the Table I alternatives), or ``"mse"``.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must be in [0, 1], got {omega}")
    if action_loss not in ACTION_LOSSES:
        raise ValueError(f"unknown action loss '{action_loss}'; options: {sorted(ACTION_LOSSES)}")
    action_term = ACTION_LOSSES[action_loss](action_prediction, action_target)
    interaction_term = mse_loss(interaction_prediction, interaction_target)
    return action_term * omega + interaction_term * (1.0 - omega)
