"""Public-API snapshot tests.

``repro.__all__`` and ``repro.runtime.__all__`` are asserted against
checked-in lists, so any drift of the public surface — a renamed class, a
removed re-export, an accidental addition — fails loudly in CI and forces a
deliberate update of this file (which is exactly the review point an API
change deserves).
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
import repro.runtime
import repro.serving

# The public surface of the top-level package.  Keep sorted; a change here is
# an API change and should be called out in the changelog/README.
EXPECTED_REPRO_ALL = sorted(
    [
        "AOVLIS",
        "ADOSFilter",
        "AnomalyDetector",
        "BackgroundUpdatePlane",
        "CLSTM",
        "CLSTMSingleCouplingDetector",
        "CLSTMTrainer",
        "CheckpointPolicy",
        "CheckpointStore",
        "DeltaSourceError",
        "DetectionConfig",
        "DetectionResult",
        "DurabilityConfig",
        "ExecutorConfig",
        "ExperimentHarness",
        "ExperimentScale",
        "FeaturePipeline",
        "FilteredDetector",
        "LSTMOnlyDetector",
        "LTRDetector",
        "MicroBatcher",
        "ModelConfig",
        "ModelRegistry",
        "ModelSnapshot",
        "ParallelExecutor",
        "ProcessParallelExecutor",
        "ProfilePerturbation",
        "PrometheusRenderer",
        "RTFMDetector",
        "RebalanceDecision",
        "Rebalancer",
        "Runtime",
        "RuntimeConfig",
        "ScenarioConfig",
        "ScenarioLeaderboard",
        "ScoredStream",
        "ScoringService",
        "SerialExecutor",
        "ServerConfig",
        "ServingConfig",
        "ShardedScoringService",
        "ShardingConfig",
        "SimulatedI3DExtractor",
        "SocialStreamGenerator",
        "SocialVideoStream",
        "StreamAnomalyDetector",
        "StreamDetection",
        "StreamFeatures",
        "StreamProfile",
        "StreamProtocol",
        "TrainingConfig",
        "UpdateConfig",
        "UpdatePlane",
        "VECDetector",
        "WriteAheadLog",
        "all_detectors",
        "auroc",
        "dataset_profile",
        "drive_runtime",
        "generate_scenario",
        "load_all_datasets",
        "load_dataset",
        "reia_score",
        "render_runtime_metrics",
        "render_server_metrics",
        "replay_streams",
        "roc_curve",
        "run_scenario_suite",
        "standard_suite",
        "__version__",
    ]
)

EXPECTED_RUNTIME_ALL = sorted(["CHECKPOINT_FORMAT", "Runtime", "RuntimeConfig"])

EXPECTED_SERVING_ALL = sorted(
    [
        "BackgroundUpdatePlane",
        "BatchScores",
        "ManualClock",
        "MicroBatcher",
        "ModelRegistry",
        "ModelSnapshot",
        "ParallelExecutor",
        "ProcessParallelExecutor",
        "QueueFull",
        "RebalanceDecision",
        "Rebalancer",
        "RegistryHandle",
        "ScoreRequest",
        "ScoringService",
        "SerialExecutor",
        "ServiceStats",
        "ShardStats",
        "ShardedScoringService",
        "StreamDetection",
        "StreamSession",
        "UpdatePlane",
        "UpdateReport",
        "UpdateTrigger",
        "WorkerCrashed",
        "build_executor",
        "default_router",
        "replay_streams",
        "validate_interaction_level",
    ]
)


def test_repro_all_matches_snapshot():
    assert sorted(repro.__all__) == EXPECTED_REPRO_ALL


def test_runtime_all_matches_snapshot():
    assert sorted(repro.runtime.__all__) == EXPECTED_RUNTIME_ALL


def test_serving_all_matches_snapshot():
    assert sorted(repro.serving.__all__) == EXPECTED_SERVING_ALL


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, f"repro.{name} is not importable"
    for name in repro.runtime.__all__:
        assert getattr(repro.runtime, name, None) is not None
    for name in repro.serving.__all__:
        assert getattr(repro.serving, name, None) is not None


def test_no_duplicate_exports():
    assert len(repro.__all__) == len(set(repro.__all__))


def _imported_modules(path: Path) -> set:
    """Absolute dotted names of everything ``path`` imports (relative imports resolved)."""
    package = ("repro", *path.relative_to(Path(repro.__file__).parent).parts[:-1])
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join((*base, *(node.module.split(".") if node.module else ())))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_served_path_never_imports_section_v():
    """``repro.optimization`` is an offline reproduction module: nothing the
    server runs (serving, HTTP tier, durability plane, ``Runtime``) imports it."""
    root = Path(repro.__file__).parent
    served = [root / "runtime.py"]
    for package in ("serving", "server", "durability"):
        served.extend(sorted((root / package).rglob("*.py")))
    assert len(served) > 10
    offenders = {}
    for path in served:
        names = sorted(n for n in _imported_modules(path) if n.startswith("repro.optimization"))
        if names:
            offenders[str(path.relative_to(root))] = names
    assert not offenders
