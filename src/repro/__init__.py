"""AOVLIS — Online Anomaly Detection over Live Social Video Streaming.

A complete, dependency-light reproduction of the ICDE 2024 paper: simulated
live social video streams, feature extraction (simulated ResNet50-I3D action
features and audience-interaction features), the Coupling LSTM (CLSTM) model
with REIA scoring, dynamic incremental model updates, ADG/ADOS detection
optimisation, literature baselines and the full evaluation harness.

Quick start (the unified runtime; see :mod:`repro.runtime`)::

    from repro import FeaturePipeline, ModelConfig, Runtime, RuntimeConfig, load_dataset

    spec = load_dataset("INF")
    pipeline = FeaturePipeline(action_dim=100, motion_channels=spec.profile.motion_channels)
    cfg = RuntimeConfig(model=ModelConfig(action_dim=pipeline.action_dim,
                                          interaction_dim=pipeline.interaction_dim))
    # ...or one reviewable file: RuntimeConfig.from_json("deployment.json")
    rt = Runtime.from_config(cfg).fit(pipeline.extract(spec.train))
    detections = rt.replay({"live": pipeline.extract(spec.test)})
    rt.checkpoint("ckpt/")  # durable; Runtime.from_checkpoint resumes bitwise

The batch-oriented facade remains::

    from repro import AOVLIS

    model = AOVLIS(pipeline=pipeline)
    model.fit(pipeline.extract(spec.train))
    result = model.detect(pipeline.extract(spec.test))
"""

from .core import (
    AOVLIS,
    CLSTM,
    AnomalyDetector,
    CLSTMTrainer,
    DetectionResult,
    LSTMOnlyDetector,
    CLSTMSingleCouplingDetector,
    ScoredStream,
    StreamAnomalyDetector,
    reia_score,
)
from .features import FeaturePipeline, StreamFeatures, SimulatedI3DExtractor
from .streams import (
    ProfilePerturbation,
    SocialStreamGenerator,
    SocialVideoStream,
    StreamProfile,
    dataset_profile,
    load_all_datasets,
    load_dataset,
)
from .scenarios import (
    ScenarioConfig,
    ScenarioLeaderboard,
    drive_runtime,
    generate_scenario,
    run_scenario_suite,
    standard_suite,
)
from .baselines import LTRDetector, RTFMDetector, VECDetector, all_detectors
from .optimization import FilteredDetector, ADOSFilter
from .serving import (
    BackgroundUpdatePlane,
    MicroBatcher,
    ModelRegistry,
    ModelSnapshot,
    ParallelExecutor,
    ProcessParallelExecutor,
    RebalanceDecision,
    Rebalancer,
    ScoringService,
    SerialExecutor,
    ShardedScoringService,
    StreamDetection,
    UpdatePlane,
    replay_streams,
)
from .durability import (
    CheckpointPolicy,
    CheckpointStore,
    DeltaSourceError,
    PrometheusRenderer,
    WriteAheadLog,
    render_runtime_metrics,
    render_server_metrics,
)
from .evaluation import ExperimentHarness, ExperimentScale, auroc, roc_curve
from .runtime import Runtime, RuntimeConfig
from .utils import (
    DetectionConfig,
    DurabilityConfig,
    ExecutorConfig,
    ModelConfig,
    ServerConfig,
    ServingConfig,
    ShardingConfig,
    StreamProtocol,
    TrainingConfig,
    UpdateConfig,
)

__version__ = "1.0.0"

__all__ = [
    "AOVLIS",
    "CLSTM",
    "AnomalyDetector",
    "CLSTMTrainer",
    "DetectionResult",
    "LSTMOnlyDetector",
    "CLSTMSingleCouplingDetector",
    "ScoredStream",
    "StreamAnomalyDetector",
    "reia_score",
    "FeaturePipeline",
    "StreamFeatures",
    "SimulatedI3DExtractor",
    "ProfilePerturbation",
    "SocialStreamGenerator",
    "SocialVideoStream",
    "StreamProfile",
    "dataset_profile",
    "load_all_datasets",
    "load_dataset",
    "ScenarioConfig",
    "ScenarioLeaderboard",
    "standard_suite",
    "generate_scenario",
    "run_scenario_suite",
    "drive_runtime",
    "LTRDetector",
    "RTFMDetector",
    "VECDetector",
    "all_detectors",
    "FilteredDetector",
    "ADOSFilter",
    "BackgroundUpdatePlane",
    "MicroBatcher",
    "ModelRegistry",
    "ModelSnapshot",
    "ParallelExecutor",
    "ProcessParallelExecutor",
    "RebalanceDecision",
    "Rebalancer",
    "ScoringService",
    "SerialExecutor",
    "ShardedScoringService",
    "StreamDetection",
    "UpdatePlane",
    "replay_streams",
    "Runtime",
    "RuntimeConfig",
    "CheckpointPolicy",
    "CheckpointStore",
    "DeltaSourceError",
    "PrometheusRenderer",
    "WriteAheadLog",
    "render_runtime_metrics",
    "render_server_metrics",
    "ExperimentHarness",
    "ExperimentScale",
    "auroc",
    "roc_curve",
    "DetectionConfig",
    "DurabilityConfig",
    "ExecutorConfig",
    "ModelConfig",
    "ServerConfig",
    "ServingConfig",
    "ShardingConfig",
    "StreamProtocol",
    "TrainingConfig",
    "UpdateConfig",
    "__version__",
]
