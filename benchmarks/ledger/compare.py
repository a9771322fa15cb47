"""Compare two ledger result sets: ``compare.py BASE.json NEW.json``.

One row per workload x end-to-end metric (and ``recover_s`` on
``durable_ingest``, ``update_publish_p50_ms`` on ``drift_update``): the base
median, the new median, their ratio (new / base), the metric's bound and a
verdict:

* ``worse``      the new median is worse than the base by more than the bound;
* ``unresolved`` the spread between repeated runs (interquartile range over
  median, the wider of the two sets) exceeds the bound, so a change of the
  bound's size could not be seen — unless every new run reads better than
  every base run, which is ``better``, or worse than every base run, which is
  ``worse``.  ``setup_s`` is judged on its medians alone, as the driver
  judges it: a sub-second process start is the noisiest number here;
* ``better``     the new median is better by more than that spread;
* ``unchanged``  otherwise.

Exact counts of runs with the same workload, seed and sizes must be equal.
Exits non-zero on any ``worse`` row, on a count that differs, or when the new
set failed more operations than the base.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, ONE_WORKLOAD  # noqa: E402


def spread(values: List[float]) -> float:
    """Interquartile range over median, as the driver computes it."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


def verdict(
    base: List[float], new: List[float], better: str, bound: float, *, judge_spread: bool = True
) -> Tuple[str, float, float]:
    """``(verdict, worse_by, spread)`` for one workload x metric."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new_median - base_median) / base_median if base_median else 0.0
    noise = max(spread(base), spread(new))
    if judge_spread and noise > bound:
        # Too noisy to see a change of the bound's size; only a new set that
        # lies wholly on one side of the base set still says something.
        above, below = min(new) > max(base), max(new) < min(base)
        if above or below:
            return ("worse" if above == (better == "lower") else "better"), worse_by, noise
        return "unresolved", worse_by, noise
    if worse_by > bound:
        return "worse", worse_by, noise
    if -worse_by > noise and worse_by < 0:
        return "better", worse_by, noise
    return "unchanged", worse_by, noise


def untraced(document: dict) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for run in document["runs"]:
        if not run["trace"]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def compare(base: dict, new: dict) -> Tuple[List[tuple], List[str]]:
    """Rows ``(workload, metric, base, new, ratio, bound, spread, verdict)`` and problems."""
    rows, problems = [], []
    base_runs, new_runs = untraced(base), untraced(new)
    for workload in base_runs:
        if workload not in new_runs:
            problems.append(f"{workload}: missing from the new set")
            continue
        judged = [(name, better, bound, "metrics") for name, _, better, bound in END_TO_END]
        judged += [
            (name, better, bound, "one_workload")
            for only, name, _, better, bound in ONE_WORKLOAD
            if only == workload
        ]
        for name, better, bound, key in judged:
            a = [run[key][name] for run in base_runs[workload]]
            b = [run[key][name] for run in new_runs[workload]]
            outcome, _, noise = verdict(a, b, better, bound, judge_spread=name != "setup_s")
            base_median, new_median = statistics.median(a), statistics.median(b)
            ratio = new_median / base_median if base_median else float("nan")
            rows.append((workload, name, base_median, new_median, ratio, bound, noise, outcome))
        failed_base = sum(run["failed"] for run in base_runs[workload])
        failed_new = sum(run["failed"] for run in new_runs[workload])
        if failed_new > failed_base:
            problems.append(f"{workload}: {failed_new} failed operations, base had {failed_base}")
        counts = {(run["seed"], json.dumps(run["sizes"], sort_keys=True)): run for run in base_runs[workload]}
        for run in new_runs[workload]:
            twin = counts.get((run["seed"], json.dumps(run["sizes"], sort_keys=True)))
            if twin is None or twin["truncated"] or run["truncated"]:
                continue
            if twin["counts"] != run["counts"] or twin["inputs_sha256"] != run["inputs_sha256"]:
                problems.append(
                    f"{workload} seed {run['seed']}: exact counts differ: "
                    f"{twin['counts']} vs {run['counts']}"
                )
    return rows, problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    rows, problems = compare(base, new)
    print(f"base: {argv[0]}  ({base['env']['git_sha'][:12]}, seed {base['env']['seed']})")
    print(f"new:  {argv[1]}  ({new['env']['git_sha'][:12]}, seed {new['env']['seed']})")
    print(f"{'workload':<16} {'metric':<24} {'base':>12} {'new':>12} {'new/base':>9} {'bound':>6} {'spread':>7}  verdict")
    for workload, name, a, b, ratio, bound, noise, outcome in rows:
        print(f"{workload:<16} {name:<24} {a:>12.5g} {b:>12.5g} {ratio:>9.3f} {bound:>6.3f} {noise:>7.3f}  {outcome}")
    for problem in problems:
        print(f"! {problem}")
    return 1 if problems or any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
