"""Reconstruction-error anomaly scoring (RE_I, RE_A and REIA).

The anomaly score of a segment is a weighted combination of two
reconstruction errors (Eq. 14-16 of the paper):

* ``RE_I(t)`` — the Jensen–Shannon divergence between the true action feature
  ``f_t`` and the CLSTM-predicted feature ``f_hat_t`` (both are probability
  distributions over the 400 action classes);
* ``RE_A(t)`` — the L2 distance between the true audience interaction feature
  ``a_t`` and its prediction ``a_hat_t``;
* ``REIA(t) = w * RE_I(t) + (1 - w) * RE_A(t)``.

All functions operate on NumPy arrays and accept both single feature vectors
and ``(N, d)`` batches.  Inputs are coerced to ``float64``: scores and
thresholds are always full precision, so a float32 *forward* still yields
float64 scores.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "js_divergence",
    "l1_distance",
    "action_reconstruction_error",
    "interaction_reconstruction_error",
    "reia_score",
]

_EPS = 1e-12


def _prepare_pair(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return p, q


def _kl_to(p: np.ndarray, log_q: np.ndarray, axis: int) -> np.ndarray:
    """``KL(p || q)`` given ``log(max(q, eps))``."""
    return np.sum(p * (np.log(np.maximum(p, _EPS)) - log_q), axis=axis)


def js_divergence(p: np.ndarray, q: np.ndarray, axis: int = -1) -> np.ndarray:
    """Jensen–Shannon divergence (natural log base, bounded by ``log 2``).

    Both KL halves share the mixture's protected logarithm, computed once.
    """
    p, q = _prepare_pair(p, q)
    log_mixture = np.log(np.maximum(0.5 * (p + q), _EPS))
    return 0.5 * _kl_to(p, log_mixture, axis) + 0.5 * _kl_to(q, log_mixture, axis)


def l1_distance(p: np.ndarray, q: np.ndarray, axis: int = -1) -> np.ndarray:
    """L1 distance, used by the JS_max / JS_min filtering bounds."""
    p, q = _prepare_pair(p, q)
    return np.sum(np.abs(p - q), axis=axis)


def action_reconstruction_error(true_action: np.ndarray, predicted_action: np.ndarray) -> np.ndarray:
    """``RE_I(t)``: JS divergence between true and reconstructed action features (Eq. 14)."""
    return js_divergence(predicted_action, true_action)


def interaction_reconstruction_error(
    true_interaction: np.ndarray, predicted_interaction: np.ndarray
) -> np.ndarray:
    """``RE_A(t)``: L2 distance between true and reconstructed interaction features (Eq. 15)."""
    true_interaction, predicted_interaction = _prepare_pair(true_interaction, predicted_interaction)
    return np.linalg.norm(predicted_interaction - true_interaction, axis=-1)


def reia_score(
    true_action: np.ndarray,
    predicted_action: np.ndarray,
    true_interaction: np.ndarray,
    predicted_interaction: np.ndarray,
    omega: float,
) -> np.ndarray:
    """Weighted anomaly score ``REIA(t)`` (Eq. 16).

    Parameters
    ----------
    omega:
        Weight of the action-side reconstruction error, in [0, 1].  The paper
        finds 0.8 optimal for INF and 0.9 for SPE/TED/TWI.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must be in [0, 1], got {omega}")
    re_action = action_reconstruction_error(true_action, predicted_action)
    re_interaction = interaction_reconstruction_error(true_interaction, predicted_interaction)
    return omega * re_action + (1.0 - omega) * re_interaction
