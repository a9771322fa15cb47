"""Functional wrappers over :class:`repro.nn.tensor.Tensor` operations.

These helpers mirror the subset of ``torch.nn.functional`` that the AOVLIS
models use.  They exist so that model code can be written in a style close to
the paper's equations (e.g. ``F.sigmoid(W @ x + b)``) without reaching into
Tensor methods directly.
"""

from __future__ import annotations

from .tensor import Tensor

__all__ = [
    "sigmoid",
    "tanh",
    "relu",
    "softmax",
    "log",
    "linear",
]


def sigmoid(x: Tensor) -> Tensor:
    """Element-wise logistic sigmoid."""
    return Tensor.ensure(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Element-wise hyperbolic tangent."""
    return Tensor.ensure(x).tanh()


def relu(x: Tensor) -> Tensor:
    """Element-wise rectified linear unit."""
    return Tensor.ensure(x).relu()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return Tensor.ensure(x).softmax(axis=axis)


def log(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Element-wise natural logarithm with epsilon floor."""
    return Tensor.ensure(x).log(eps=eps)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine transformation ``x @ weight + bias``.

    ``weight`` has shape ``(in_features, out_features)`` which matches the
    row-vector convention used throughout the code base.
    """
    out = Tensor.ensure(x) @ weight
    if bias is not None:
        out = out + bias
    return out
