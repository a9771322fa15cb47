"""Adaptive Dimension Group (ADG) representation of action features.

Section V-A of the paper reduces the 400-dimensional action features to a
compact group summary before the expensive Jensen–Shannon reconstruction
error is computed:

1. the (0, 1) value space of a feature dimension is partitioned into ``n``
   variable-sized subspaces by recursively halving the *lower* half — because
   small values are much denser than large ones in the normalised I3D
   features, this adapts the resolution to the value distribution;
2. each feature dimension is hashed to the subspace its value falls into
   (``h(k) = floor(k * 2^(n-1))`` indexes a lookup array in the paper; we
   compute the subspace directly from the value's binary exponent, which is
   the same mapping without the table);
3. the dimensions mapped to one subspace form a *dimension group*, summarised
   by the pair ``<f_min, f_max>`` of the feature's values in that group (plus
   the group size) — built for a whole batch at once by
   :func:`repro.optimization.bounds._group_layout`.

The group summaries support an upper bound on the JS reconstruction error
(:mod:`repro.optimization.bounds`) that can filter segments without touching
all 400 dimensions, and the "minimal feature contribution" statistic of
Table II that justifies the choice of ``n = 20`` subspaces.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "subspace_boundaries",
    "assign_subspaces",
    "minimal_feature_contribution",
]


def subspace_boundaries(n: int) -> np.ndarray:
    """Lower boundaries of the ``n`` recursive-binary-partition subspaces.

    Subspace 0 is ``[0.5, 1)``, subspace 1 is ``[0.25, 0.5)`` and so on; the
    last subspace is ``[0, 2^-(n-1))``.  Returned array has length ``n`` and
    holds each subspace's lower boundary in decreasing order.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    boundaries = np.array([2.0 ** -(i + 1) for i in range(n - 1)] + [0.0])
    return boundaries


def assign_subspaces(values: np.ndarray, n: int) -> np.ndarray:
    """Map each value in (0, 1) to its subspace index (0 = largest values).

    The mapping is exactly the recursive binary partition: a value ``v`` falls
    into subspace ``i`` when ``2^-(i+1) <= v < 2^-i`` (clamped to the last
    subspace for very small values).
    """
    values = np.asarray(values, dtype=np.float64)
    clipped = np.clip(values, 1e-300, 1.0 - 1e-12)
    # Subspace i covers [2^-(i+1), 2^-i), so i = ceil(-log2(v)) - 1 (the ceil
    # keeps boundary values such as exactly 0.5 in the upper subspace),
    # clamped to [0, n-1].
    indices = (np.ceil(-np.log2(clipped)) - 1).astype(np.int64)
    return np.clip(indices, 0, n - 1)


def minimal_feature_contribution(features: np.ndarray, n_subspaces: int) -> float:
    """Table II statistic: worst-case JS contribution of a bottom-group dimension.

    For every feature vector, the dimensions falling into the lowest value
    subspace (values below ``2^-(n-1)``) can each contribute at most
    ``0.5 * log(2) * value_range`` to the JS reconstruction error; MFC reports
    the mean of that worst case over the dataset.  It shrinks towards zero as
    ``n`` grows, which is the paper's justification for using n = 20
    subspaces: finer partitioning of the tiny values no longer changes the
    bound.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[None, :]
    if features.ndim != 2:
        raise ValueError("features must be a (num_features, dim) matrix")
    bottom_upper = 2.0 ** -(n_subspaces - 1)
    bottom_dims = assign_subspaces(features, n_subspaces) == (n_subspaces - 1)
    largest = np.max(features, axis=1, where=bottom_dims, initial=-np.inf)
    # Worst case: the reconstructed value differs by the full subspace width;
    # a feature with no bottom-group dimension contributes nothing.
    contributions = 0.5 * np.log(2.0) * np.minimum(bottom_upper, largest)
    return float(np.mean(np.where(bottom_dims.any(axis=1), contributions, 0.0)))
