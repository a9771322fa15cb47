"""Parameter initialisation schemes for the :mod:`repro.nn` substrate.

The CLSTM paper states that "the initial states of CLSTM parameters are
randomly initialized and tuned during training"; we provide the standard
initialisers (Xavier/Glorot uniform, zeros) that PyTorch would apply to
``nn.Linear`` so the reproduction behaves comparably.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "xavier_uniform",
    "zeros",
]


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialisation.

    Samples from ``U(-a, a)`` with ``a = gain * sqrt(6 / (fan_in + fan_out))``.
    """
    fan_in, fan_out = _fans(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (used for biases)."""
    return np.zeros(shape)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("cannot compute fans of a scalar shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[:-1]))
    fan_out = int(shape[-1])
    return fan_in, fan_out
