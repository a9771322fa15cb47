"""Literature baselines the paper compares against (LTR, VEC, RTFM).

The two LSTM-family ablations (plain LSTM, CLSTM-S) live in
:mod:`repro.core.variants`; :func:`all_detectors` builds the full competitor
set used by the effectiveness benchmarks.
"""

from typing import Dict

from ..core.base import StreamAnomalyDetector
from ..core.model import AOVLIS
from ..core.variants import CLSTMSingleCouplingDetector, LSTMOnlyDetector
from ..utils.config import DetectionConfig, TrainingConfig
from .ltr import LTRDetector
from .rtfm import RTFMDetector
from .vec import VECDetector

__all__ = ["LTRDetector", "VECDetector", "RTFMDetector", "all_detectors"]


def all_detectors(
    sequence_length: int = 9,
    training: TrainingConfig | None = None,
    detection: DetectionConfig | None = None,
    seed: int = 0,
) -> Dict[str, StreamAnomalyDetector]:
    """Instantiate every method compared in Fig. 9(b)/Fig. 10/Table IV.

    Returns a name -> detector mapping in the paper's presentation order:
    LTR, VEC, LSTM, RTFM, CLSTM-S, CLSTM.
    """
    training = training if training is not None else TrainingConfig()
    detection = detection if detection is not None else DetectionConfig()
    return {
        "LTR": LTRDetector(training=training, seed=seed),
        "VEC": VECDetector(training=training, seed=seed),
        "LSTM": LSTMOnlyDetector(sequence_length=sequence_length, training=training, seed=seed),
        "RTFM": RTFMDetector(training=training, seed=seed),
        "CLSTM-S": CLSTMSingleCouplingDetector(
            sequence_length=sequence_length, training=training, detection=detection, seed=seed
        ),
        "CLSTM": AOVLIS(
            sequence_length=sequence_length, training=training, detection=detection, seed=seed
        ),
    }
