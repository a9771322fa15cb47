"""Names, units, directions and bounds of every ledger metric.

``BENCHMARK.json`` at the repo root is their one source: ``run.py`` reports
exactly the names declared there, ``compare.py`` judges by the bounds declared
there, and every later performance claim uses them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

MANIFEST = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

# (name, unit, better, bound): bound is the share of the base median a metric
# may worsen by before compare.py (and the driver) call it a regression.
END_TO_END: List[Tuple[str, str, str, float]] = [
    (entry["name"], entry["unit"], entry["better"], entry["bound"]) for entry in MANIFEST["end_to_end"]
]
END_TO_END_UNITS: Dict[str, str] = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS: Dict[str, str] = {entry["name"]: entry["unit"] for entry in MANIFEST["per_layer"]}

# (workload, name, unit, better, bound): timed by one workload only.  The
# driver wants every end-to-end metric on every workload, so the manifest
# cannot hold these two; untraced runs of their workload report them all the
# same and compare.py judges them like the others.
ONE_WORKLOAD: List[Tuple[str, str, str, str, float]] = [
    ("durable_ingest", "recover_s", "s", "lower", 0.25),
    ("drift_update", "update_publish_p50_ms", "ms", "lower", 0.25),
]


def percentiles(values: Sequence[float], points: Sequence[float] = (50.0, 95.0)) -> List[float]:
    if len(values) == 0:
        return [0.0 for _ in points]
    return [float(p) for p in np.percentile(np.asarray(values, dtype=np.float64), points)]
