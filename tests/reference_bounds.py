"""Brute-force per-row reference for the ADG group bound (test oracle).

Written against the definitions in Section V, not against
:mod:`repro.optimization.bounds`: plain Python loops and ``math.log``, no
shared helper.  It pins what the vectorised package code has no twin for any
more — the value-subspace grouping and the sparsest-group selection (fewest
dimensions first, ties towards the lower subspace index).
"""

from __future__ import annotations

import math


def _psi(a: float, b: float) -> float:
    a, b = max(a, 1e-300), max(b, 1e-300)
    mixture = 0.5 * (a + b)
    return 0.5 * (a * math.log(a / mixture) + b * math.log(b / mixture))


def reference_adg_upper_bound(feature, reconstruction, n_subspaces=20, exact_groups=0) -> float:
    """``RE_I^G`` of one (feature, reconstruction) pair."""
    groups = {}
    for dim, value in enumerate(feature):
        subspace = 0  # subspace i covers [2^-(i+1), 2^-i); the last one reaches 0
        while subspace < n_subspaces - 1 and value < 2.0 ** -(subspace + 1):
            subspace += 1
        groups.setdefault(subspace, []).append(dim)
    sparsest = sorted(groups, key=lambda g: (len(groups[g]), g))[: max(exact_groups, 0)]
    total = 0.0
    for subspace, dims in groups.items():
        f = [feature[dim] for dim in dims]
        r = [reconstruction[dim] for dim in dims]
        if subspace in sparsest:
            total += sum(_psi(a, b) for a, b in zip(f, r))
        else:
            total += len(dims) * max(_psi(a, b) for a in (min(f), max(f)) for b in (min(r), max(r)))
    return total
