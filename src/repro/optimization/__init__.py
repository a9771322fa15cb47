"""Section V of the paper: ADG reduction, bounds on ``RE_I``, ADOS filtering.

An offline reproduction module with one vectorised implementation: every
function takes a batch.  Nothing on the served path (``repro.serving``,
``repro.server``, ``repro.durability``, ``repro.runtime``) imports it, and
``tests/test_api_surface.py`` keeps it that way.

What reproduces is the filtering power (Fig. 11a: 67-80% of segments decided
without the exact JS).  Wall-clock cannot go beyond parity here: the exact JS
the bounds skip is ~1 µs of a ~40 µs segment whose cost is the CLSTM forward,
so Figs. 11(b)/(c) and 12 read "parity, not faster" (see the README's
"Detection efficiency (Section V)" paragraph for the measured stage costs).
"""

from .adg import assign_subspaces, minimal_feature_contribution, subspace_boundaries
from .bounds import (
    adg_upper_bounds,
    js_lower_bounds_l1,
    js_upper_bounds_l1,
    paper_group_bounds,
)
from .ados import STAGES, ADOSFilter, FilteredDetectionResult, FilteredDetector
from .filtering import FilteringPowerReport, evaluate_filtering_power, filtering_power

__all__ = [
    "assign_subspaces",
    "minimal_feature_contribution",
    "subspace_boundaries",
    "adg_upper_bounds",
    "js_lower_bounds_l1",
    "js_upper_bounds_l1",
    "paper_group_bounds",
    "STAGES",
    "ADOSFilter",
    "FilteredDetectionResult",
    "FilteredDetector",
    "FilteringPowerReport",
    "evaluate_filtering_power",
    "filtering_power",
]
