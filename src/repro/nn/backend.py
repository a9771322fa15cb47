"""Compute-precision contract of the fused inference kernels.

The kernels (:mod:`repro.nn.fused`) are NumPy.  ``float64`` is the default
and the reference semantics: at that precision they are **bitwise
identical** to the frozen kernels in ``tests/frozen_kernels.py`` (pinned by
``tests/test_backend.py``).  :func:`resolve_dtype` maps the ``precision``
strings of :class:`~repro.utils.config.ModelConfig` to dtypes, and the
``FLOAT32_*`` constants pin the accuracy contract the opt-in ``float32``
inference path promises against the ``float64`` oracle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "PRECISIONS",
    "DEFAULT_PRECISION",
    "FLOAT32_RTOL",
    "FLOAT32_ATOL",
    "FLOAT32_SCORE_ATOL",
    "resolve_precision",
    "resolve_dtype",
]

PRECISIONS = ("float64", "float32")
"""Compute precisions the fused inference kernels support."""

DEFAULT_PRECISION = "float64"

# Accuracy contract of the opt-in float32 inference path, asserted against
# the float64 oracle by tests/test_backend.py and the kernel benchmarks.
# The recurrence is short (q = 9 steps) and every gate is bounded by the
# clipped sigmoid/tanh, so single-precision rounding stays well inside these
# bounds; they are deliberately loose enough to be hardware-independent
# (different FMA contraction orders across BLAS builds) and tight enough
# that a genuinely wrong kernel cannot hide behind them.
FLOAT32_RTOL = 1e-4
"""Relative tolerance of float32 hidden states / reconstructions vs float64."""

FLOAT32_ATOL = 1e-5
"""Absolute tolerance of float32 hidden states / reconstructions vs float64."""

FLOAT32_SCORE_ATOL = 1e-4
"""Absolute tolerance of REIA scores produced from a float32 forward vs the
float64 oracle (scores combine a JS divergence and an L2 norm over the
reconstructions, both Lipschitz in the inputs at these magnitudes)."""


def resolve_precision(precision: Optional[str] = None) -> str:
    """Validate a ``precision`` selection (``None`` → ``"float64"``)."""
    if precision is None:
        return DEFAULT_PRECISION
    precision = str(precision).lower()
    if precision not in PRECISIONS:
        raise ValueError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}"
        )
    return precision


def resolve_dtype(precision: Optional[str] = None) -> np.dtype:
    """The NumPy dtype of a ``precision`` string."""
    return np.dtype(np.float32 if resolve_precision(precision) == "float32" else np.float64)
