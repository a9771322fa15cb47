"""Filtering bounds on the Jensen–Shannon reconstruction error.

Section V of the paper accelerates anomaly identification by bounding the
expensive 400-dimensional JS reconstruction error ``RE_I`` with cheaper
quantities and only computing the exact value when the bounds cannot decide:

* **L1-based bounds** (from Lin, 1991): ``JS(P, Q) <= 0.5 * ||P - Q||_1`` and
  ``JS(P, Q) >= 0.125 * ||P - Q||_1^2``.  One L1 distance yields both an
  upper and a lower bound.
* **ADG group bound** ``RE_I^G``: an upper bound computed from the per-group
  ``<min, max>`` summaries of the ADG representation, without touching the
  individual dimensions of dense groups.

Implementation note on the group bound.  The paper's Eq. 18 computes the group
term ``(m/2) * log(max(f_max, f_hat_max) * min(f_min, f_hat_min) / (M_min *
M_max))``; as stated (and in its proof sketch) the expression ignores the
probability weights of the JS sum, and on probability-like features it is not
always an upper bound of the group's true contribution.  Because the whole
point of the bound is to filter *without false dismissals* ("filter out the
false alarms without false dismissals", Section VII), we use a provably
correct group-summary bound built from the same ``<min, max>`` pairs:

each dimension ``i`` of a group contributes ``psi(f_i, f_hat_i)`` to the JS
divergence, where ``psi(a, b) = 0.5 * (a*log(2a/(a+b)) + b*log(2b/(a+b)))``.
``psi`` is convex in each argument, so its maximum over the box
``[f_min, f_max] x [f_hat_min, f_hat_max]`` is attained at a corner; the group
contribution is therefore at most ``m * max_corner psi``.  This uses exactly
the ADG summaries (group size + min/max pairs), costs O(1) per group instead
of O(dims), is tight for the dense low-value groups that dominate the 400-d
features, and guarantees ``RE_I^G >= RE_I``.

Every bound takes an ``(N, d)`` batch of pairs and returns one value per row;
a single pair is a batch of one.  The per-row brute-force reference the tests
compare against lives in ``tests/reference_bounds.py``.
"""

from __future__ import annotations

import numpy as np

from ..core.scoring import l1_distance
from .adg import assign_subspaces

__all__ = [
    "js_upper_bounds_l1",
    "js_lower_bounds_l1",
    "adg_upper_bounds",
]


def js_upper_bounds_l1(features: np.ndarray, reconstructions: np.ndarray) -> np.ndarray:
    """``JS_max``: 0.5 * L1 distance, an upper bound of the JS divergence."""
    return 0.5 * l1_distance(np.asarray(features), np.asarray(reconstructions))


def js_lower_bounds_l1(features: np.ndarray, reconstructions: np.ndarray) -> np.ndarray:
    """``JS_min``: 0.125 * (L1 distance)^2, a lower bound of the JS divergence."""
    distance = l1_distance(np.asarray(features), np.asarray(reconstructions))
    return 0.125 * distance * distance


def _js_term(a, b):
    """Per-dimension JS contribution ``psi(a, b)`` (convex in each argument)."""
    a = np.maximum(a, 1e-300)
    b = np.maximum(b, 1e-300)
    mixture = 0.5 * (a + b)
    return 0.5 * (a * np.log(a / mixture) + b * np.log(b / mixture))


def _batched_pair(features: np.ndarray, reconstructions: np.ndarray) -> tuple:
    features = np.asarray(features, dtype=np.float64)
    reconstructions = np.asarray(reconstructions, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"expected a (batch, dims) array, got shape {features.shape}")
    if features.shape != reconstructions.shape:
        raise ValueError("features and reconstructions must have the same shape")
    if features.shape[1] == 0:
        raise ValueError("features must be non-empty")
    return features, reconstructions


def _scatter_min_max(values: np.ndarray, flat: np.ndarray, cells: int, shape: tuple):
    """Per-(row, group) min and max of ``values`` via scatter reductions."""
    low = np.full(cells, np.inf)
    np.minimum.at(low, flat, values.ravel())
    high = np.full(cells, -np.inf)
    np.maximum.at(high, flat, values.ravel())
    return low.reshape(shape), high.reshape(shape)


def _group_layout(features: np.ndarray, n_subspaces: int):
    """The ADG representation of a batch: every row's dimension groups.

    Returns ``(flat_indices, sizes, nonempty)`` where ``flat_indices`` is the
    flattened ``(row, subspace)`` scatter index of every dimension (a row's
    dimensions sharing a value subspace form one group) and ``sizes`` /
    ``nonempty`` the ``(B, n)`` per-group dimension counts.
    """
    if n_subspaces < 1:
        raise ValueError(f"n_subspaces must be at least 1, got {n_subspaces}")
    batch = features.shape[0]
    assignments = assign_subspaces(features, n_subspaces)
    flat = (assignments + np.arange(batch)[:, None] * n_subspaces).ravel()
    sizes = np.bincount(flat, minlength=batch * n_subspaces).reshape(batch, n_subspaces)
    return flat, sizes, sizes > 0


def _exact_group_mask(sizes: np.ndarray, nonempty: np.ndarray, exact_groups: int) -> np.ndarray:
    """The ``exact_groups`` sparsest groups of every row.

    Per row: the ``exact_groups`` non-empty groups with the fewest
    dimensions, ties broken towards the lower subspace index (a stable
    sort).  Empty groups get a sentinel size larger than any real group so
    they sort last.
    """
    batch, n_subspaces = sizes.shape
    if exact_groups <= 0:
        return np.zeros((batch, n_subspaces), dtype=bool)
    sentinel = np.where(nonempty, sizes, sizes.sum(axis=1, keepdims=True) + 1)
    order = np.argsort(sentinel, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(n_subspaces), (batch, n_subspaces)), axis=1
    )
    limit = np.minimum(exact_groups, nonempty.sum(axis=1))[:, None]
    return nonempty & (ranks < limit)


def adg_upper_bounds(
    features: np.ndarray,
    reconstructions: np.ndarray,
    n_subspaces: int = 20,
    exact_groups: int = 0,
) -> np.ndarray:
    """``RE_I^G``: group-summary upper bound of the JS reconstruction error.

    One bound per row of the ``(B, D)`` pairs; the grouping, the
    ``<min, max>`` summaries, the corner terms and the exact sparse-group
    sums of all rows are single scatter/ufunc operations.

    Parameters
    ----------
    features / reconstructions:
        True action features ``f`` and CLSTM reconstructions ``f_hat``.
    n_subspaces:
        Number of ADG value subspaces the dimensions are grouped by.
    exact_groups:
        ``N_sg`` — the number of sparsest groups whose contribution is
        computed exactly (in the original space) instead of bounded.  The
        paper observes that sparse groups produce loose bounds, and their
        exact partial sums can be reused if the full ``RE_I`` is needed later
        (Fig. 12c studies this parameter).
    """
    features, reconstructions = _batched_pair(features, reconstructions)
    batch, _ = features.shape
    flat, sizes, nonempty = _group_layout(features, n_subspaces)
    cells = batch * n_subspaces
    shape = (batch, n_subspaces)
    f_min, f_max = _scatter_min_max(features, flat, cells, shape)
    r_min, r_max = _scatter_min_max(reconstructions, flat, cells, shape)

    exact_mask = _exact_group_mask(sizes, nonempty, exact_groups)
    bounded = nonempty & ~exact_mask
    # Sanitise empty/exact slots before the corner math (inf would poison it);
    # their terms are masked to zero below.
    f_min_safe = np.where(bounded, f_min, 1.0)
    f_max_safe = np.where(bounded, f_max, 1.0)
    r_min_safe = np.where(bounded, r_min, 1.0)
    r_max_safe = np.where(bounded, r_max, 1.0)
    corner = np.maximum(
        np.maximum(_js_term(f_max_safe, r_min_safe), _js_term(f_min_safe, r_max_safe)),
        np.maximum(_js_term(f_max_safe, r_max_safe), _js_term(f_min_safe, r_min_safe)),
    )
    terms = np.where(bounded, sizes * corner, 0.0)

    if exact_groups > 0:
        exact = np.bincount(
            flat, weights=_js_term(features, reconstructions).ravel(), minlength=cells
        ).reshape(shape)
        terms = np.where(exact_mask, exact, terms)
    return terms.sum(axis=1)

