"""Pluggable array-namespace backend for the fused kernels.

Every hot kernel in the repository (:mod:`repro.nn.fused`,
:mod:`repro.nn.backprop`, :mod:`repro.nn.optim`, :mod:`repro.core.scoring`)
used to call NumPy directly.  This module is the seam that makes the same
GEMM-per-timestep kernels run on other array libraries unchanged: kernels
resolve an *array namespace* (``xp``) once per call and perform every
allocation and ufunc through it.

Two backends are recognised:

* ``"numpy"`` — the default, always available, and the reference semantics:
  with the NumPy namespace and ``float64`` the kernels are **bitwise
  identical** to the pre-seam implementations (pinned by
  ``tests/test_backend.py`` against ``tests/frozen_kernels.py``).
* ``"cupy"`` — CUDA arrays via `CuPy <https://cupy.dev>`_, resolved lazily;
  selecting it without CuPy installed raises a :class:`RuntimeError` that
  names the missing dependency instead of an opaque ``ImportError`` deep
  inside a forward pass.  Host↔device transfer happens only at the
  ingest/detection boundary (:func:`to_host`), never inside the recurrence.

Selection precedence: an explicit ``backend=`` argument
(:class:`~repro.utils.config.ModelConfig.backend`) wins; ``"auto"``/``None``
consults the ``REPRO_BACKEND`` environment variable; an unset variable means
NumPy.  This mirrors how ``REPRO_EXECUTOR`` selects the serving executor, so
CI can run the whole suite under a different backend without code changes.

Precision is orthogonal to the backend: :func:`resolve_dtype` maps the
``precision`` strings of :class:`~repro.utils.config.ModelConfig` to dtypes,
and the ``FLOAT32_*`` constants pin the accuracy contract the opt-in
``float32`` inference path promises against the ``float64`` oracle.
"""

from __future__ import annotations

import os
from typing import Any, Optional

import numpy as np

__all__ = [
    "BACKENDS",
    "PRECISIONS",
    "DEFAULT_BACKEND",
    "DEFAULT_PRECISION",
    "FLOAT32_RTOL",
    "FLOAT32_ATOL",
    "FLOAT32_SCORE_ATOL",
    "resolve_backend",
    "resolve_precision",
    "resolve_dtype",
    "get_namespace",
    "namespace_of",
    "backend_of",
    "to_host",
    "cupy_available",
]

BACKENDS = ("numpy", "cupy")
"""Backend names :func:`resolve_backend` accepts (besides ``"auto"``)."""

PRECISIONS = ("float64", "float32")
"""Compute precisions the fused inference kernels support."""

DEFAULT_BACKEND = "numpy"
DEFAULT_PRECISION = "float64"

ENV_VAR = "REPRO_BACKEND"
"""Environment variable consulted when the backend is ``"auto"``/unset."""

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


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a backend selection to a concrete backend name.

    ``None`` and ``"auto"`` consult the ``REPRO_BACKEND`` environment
    variable (unset/empty → ``"numpy"``).  The result is validated but not
    imported — use :func:`get_namespace` to obtain the module (and get the
    clear missing-dependency error for CuPy).
    """
    if name is None or name == "auto":
        name = os.environ.get(ENV_VAR, "").strip() or DEFAULT_BACKEND
    name = str(name).lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown array backend {name!r}; expected one of "
            f"{('auto',) + BACKENDS} (or REPRO_BACKEND={'/'.join(BACKENDS)})"
        )
    return name


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
    """The NumPy dtype of a ``precision`` string (shared across backends —
    CuPy reuses NumPy's dtype objects)."""
    return np.dtype(np.float32 if resolve_precision(precision) == "float32" else np.float64)


def cupy_available() -> bool:
    """Whether the CuPy backend can actually be imported."""
    try:
        import cupy  # noqa: F401  (availability probe only)
    except Exception:
        return False
    return True


def get_namespace(name: Optional[str] = None) -> Any:
    """The array namespace (module) of a backend selection.

    ``"numpy"`` returns :mod:`numpy` itself.  ``"cupy"`` imports CuPy lazily
    and raises a :class:`RuntimeError` naming the missing install when it is
    absent — callers selecting a GPU backend on a CPU-only host fail at
    configuration time with an actionable message, not mid-batch.
    """
    resolved = resolve_backend(name)
    if resolved == "numpy":
        return np
    try:
        import cupy
    except ImportError as error:
        raise RuntimeError(
            "array backend 'cupy' was selected (via ModelConfig.backend or "
            f"the {ENV_VAR} environment variable) but CuPy is not installed; "
            "install cupy-cuda* for your CUDA toolkit or select the 'numpy' "
            "backend"
        ) from error
    return cupy


def namespace_of(array: Any) -> Any:
    """The namespace an existing array belongs to (no CuPy import needed).

    Detection is by the array type's module, so a host without CuPy never
    pays an import attempt for its NumPy arrays.
    """
    module = type(array).__module__
    if module == "cupy" or module.startswith("cupy."):
        import cupy

        return cupy
    return np


def backend_of(array: Any) -> str:
    """The backend *name* an existing array belongs to."""
    module = type(array).__module__
    if module == "cupy" or module.startswith("cupy."):
        return "cupy"
    return "numpy"


def to_host(array: Any) -> np.ndarray:
    """Materialise an array on the host as a NumPy ndarray.

    This is the single host↔device boundary helper: device results cross it
    exactly once, at the end of a kernel call (detections, hidden states),
    and NumPy arrays pass through untouched (no copy).
    """
    if backend_of(array) == "cupy":
        return array.get()
    return np.asarray(array)
