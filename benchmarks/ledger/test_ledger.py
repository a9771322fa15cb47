"""Self-tests of the ledger (auto-marked ``slow`` by ``benchmarks/conftest.py``).

    python -m pytest -m slow benchmarks/ledger -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import compare  # noqa: E402
import metrics  # noqa: E402
from repro.core.detector import AnomalyDetector  # noqa: E402
from sut import detection_arrays  # noqa: E402
from workloads import WORKLOADS, fit_runtime, make_inputs, sizes, stream_names  # noqa: E402

MANIFEST = metrics.MANIFEST


def smoke(tmp_path: Path, label: str, seed: int) -> dict:
    out = tmp_path / f"{label}.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "2", "--seed", str(seed), "--out", str(out)],
        check=True,
        cwd=ROOT,
        timeout=300,
        stdout=subprocess.DEVNULL,
    )
    return json.loads(out.read_text())


def test_manifest_is_well_formed():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert "setup_s" in {entry["name"] for entry in MANIFEST["end_to_end"]}
    assert all(0 < entry["bound"] <= 0.25 for entry in MANIFEST["end_to_end"])


def test_smoke_reports_every_declared_name_and_repeats(tmp_path):
    first = smoke(tmp_path, "first", seed=5)
    second = smoke(tmp_path, "second", seed=5)
    end_to_end = {entry["name"] for entry in MANIFEST["end_to_end"]}
    per_layer = {entry["name"] for entry in MANIFEST["per_layer"]}
    for document in (first, second):
        assert {(run["workload"], run["trace"]) for run in document["runs"]} == {
            (workload["name"], traced) for workload in MANIFEST["workloads"] for traced in (False, True)
        }
        for run in document["runs"]:
            assert run["correct"] and run["failed"] == 0, run["notes"]
            assert set(run["metrics"]) == (per_layer if run["trace"] else end_to_end)
            if not run["trace"]:
                assert all(value > 0 for value in run["metrics"].values())
                assert set(run["one_workload"]) == {
                    name for workload, name, *_ in metrics.ONE_WORKLOAD if workload == run["workload"]
                }
                assert all(value > 0 for value in run["one_workload"].values())
    # Same seed: same inputs and the same exact counts, run after run.
    for a, b in zip(first["runs"], second["runs"]):
        assert a["inputs_sha256"] == b["inputs_sha256"]
        assert a["counts"] == b["counts"]
    # The waterfall's sizing predictions hold even at smoke size.
    traced = {run["workload"]: run["metrics"] for run in first["runs"] if run["trace"]}
    for name, values in traced.items():
        durable = any(v for k, v in values.items() if k.startswith("durability."))
        served = any(v for k, v in values.items() if k.startswith("server."))
        assert durable == (name == "durable_ingest")
        assert served == (name == "http_fanin")
        if name != "http_fanin":
            assert values["trace.coverage_share"] >= 0.9
    assert traced["drift_update"]["serving.maintenance.updates"] > 0
    assert traced["lib_gemm"]["nn.fused.forward_share"] > 0.5


def test_inputs_follow_the_seed():
    for w in WORKLOADS.values():
        size = sizes(w, 20, smoke=True)
        assert make_inputs(w, 5, size).sha256 == make_inputs(w, 5, size).sha256
        assert make_inputs(w, 5, size).sha256 != make_inputs(w, 6, size).sha256


@pytest.fixture(scope="module")
def scored():
    """A small real run: 40 ticks of the small model through the library."""
    w = WORKLOADS["http_fanin"]  # small model, one shard; not served here
    size = sizes(w, 20, smoke=True)
    inputs = make_inputs(w, 7, size)
    runtime = fit_runtime(w, size, inputs, None)
    pool = inputs.ticks(w)
    detections = []
    ticks = 40
    for tick in range(ticks):
        detections.extend(runtime.ingest_many(pool[tick % len(pool)]))
    detections.extend(runtime.drain())
    snapshot = runtime.registry.get(1)
    detector = AnomalyDetector(snapshot.model, runtime.config.detection, threshold=snapshot.threshold)
    runtime.close()
    return w, inputs, np.full(w.streams, ticks), detection_arrays(stream_names(w), detections), detector


def verify(scored, run):
    w, inputs, accepted, _, detector = scored
    return check.verify(w, inputs, accepted, run, None, detector, seed=7)


def test_checker_accepts_the_real_output(scored):
    verdict = verify(scored, scored[3])
    assert verdict.failed == 0 and verdict.sampled > 0


def test_checker_rejects_a_dropped_detection(scored):
    run = {key: values[1:] for key, values in scored[3].items()}
    verdict = verify(scored, run)
    assert (verdict.missing, verdict.duplicated) == (1, 0)


def test_checker_rejects_a_duplicated_detection(scored):
    run = {key: np.concatenate([values, values[:1]]) for key, values in scored[3].items()}
    verdict = verify(scored, run)
    assert (verdict.missing, verdict.duplicated) == (0, 1)


def test_checker_rejects_a_perturbed_score(scored):
    score = scored[3]["score"].copy()
    assert len(score) <= check.SAMPLE  # so the seeded sample holds every detection
    score[17] *= 1 + 1e-6
    assert verify(scored, dict(scored[3], score=score)).mismatched == 1


def test_compare_verdicts():
    def document(rates, failed=0):
        return {
            "env": {"git_sha": "x", "seed": 1},
            "runs": [
                {
                    "workload": "durable_ingest", "trace": False, "seed": seed, "sizes": {}, "failed": failed,
                    "truncated": False, "counts": {"batches": 3}, "inputs_sha256": "h",
                    "metrics": {name: (rate if name == "segments_per_s" else 1.0) for name, *_ in metrics.END_TO_END},
                    "one_workload": {"recover_s": 1.0 / rate},
                }
                for seed, rate in enumerate(rates)
            ],
        }

    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def outcome(new, metric="segments_per_s", **kwargs):
        rows, problems = compare.compare(document(steady), document(new, **kwargs))
        return {row[1]: row[-1] for row in rows}[metric], problems

    assert outcome(steady) == ("unchanged", [])
    assert outcome([v * 0.7 for v in steady])[0] == "worse"
    assert outcome([v * 1.2 for v in steady])[0] == "better"
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert outcome(noisy)[0] == "unresolved"
    # Wider than the bound, but wholly to one side of the base set.
    assert outcome([v * 0.4 for v in noisy])[0] == "worse"
    assert outcome([v + 100 for v in noisy])[0] == "better"
    assert outcome(steady, failed=1)[1]
    # The metric only this workload times is judged like the others.
    assert outcome(steady, "recover_s")[0] == "unchanged"
    assert outcome([v * 0.7 for v in steady], "recover_s")[0] == "worse"
