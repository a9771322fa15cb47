"""Differentiable (tape) reconstruction losses of the baselines.

The paper's training objective (Eq. 13) fuses a Jensen–Shannon divergence term
over reconstructed action features with a mean-squared-error term over
reconstructed audience interaction features:

``l(I, A) = w * JSE(I_hat, I) + (1 - w) * MSE(A_hat, A)``

CLSTM trains on the closed-form gradients of Eq. 13 and of the Table I
action losses in :mod:`repro.nn.backprop`; the baselines that train on the
tape use the two losses here.
"""

from __future__ import annotations

from .tensor import Tensor
from . import functional as F

__all__ = ["mse_loss", "js_divergence_loss"]

_EPS = 1e-12


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error averaged over every element."""
    prediction = Tensor.ensure(prediction)
    target = Tensor.ensure(target)
    diff = prediction - target
    return (diff * diff).mean()


def js_divergence_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean Jensen–Shannon divergence over the batch (the paper's JSE loss).

    ``JS(P, Q) = 0.5 * KL(P || M) + 0.5 * KL(Q || M)`` with ``M = (P + Q)/2``.
    JS is symmetric and bounded by ``log 2``, which makes it a well-behaved
    reconstruction loss for probability-like action features.
    """
    prediction = Tensor.ensure(prediction)
    target = Tensor.ensure(target)
    mixture = (prediction + target) * 0.5
    log_m = F.log(mixture, eps=_EPS)
    kl_pm = (prediction * (F.log(prediction, eps=_EPS) - log_m)).sum(axis=-1)
    kl_qm = (target * (F.log(target, eps=_EPS) - log_m)).sum(axis=-1)
    per_sample = (kl_pm + kl_qm) * 0.5
    return per_sample.mean()
