"""Core contribution of the paper: CLSTM, REIA scoring, detection, updates."""

from .base import ScoredStream, StreamAnomalyDetector
from .clstm import CLSTM, CLSTMOutput
from .scoring import (
    js_divergence,
    kl_divergence,
    l1_distance,
    action_reconstruction_error,
    interaction_reconstruction_error,
    reia_score,
)
from .training import CLSTMTrainer, TrainingHistory, EpochRecord
from .detector import AnomalyDetector, DetectionResult
from .update import (
    hidden_set_similarity,
    merge_models,
    retrain_model,
)
from .variants import LSTMOnlyDetector, CLSTMSingleCouplingDetector, make_clstm_variant
from .model import AOVLIS

__all__ = [
    "ScoredStream",
    "StreamAnomalyDetector",
    "CLSTM",
    "CLSTMOutput",
    "js_divergence",
    "kl_divergence",
    "l1_distance",
    "action_reconstruction_error",
    "interaction_reconstruction_error",
    "reia_score",
    "CLSTMTrainer",
    "TrainingHistory",
    "EpochRecord",
    "AnomalyDetector",
    "DetectionResult",
    "hidden_set_similarity",
    "merge_models",
    "retrain_model",
    "LSTMOnlyDetector",
    "CLSTMSingleCouplingDetector",
    "make_clstm_variant",
    "AOVLIS",
]
