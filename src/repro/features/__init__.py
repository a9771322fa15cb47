"""Feature extraction: simulated I3D action features, audience-interaction
features and CLSTM sequence construction."""

from .i3d import SimulatedI3DExtractor
from .text import HashingWordEmbedding, LexiconSentimentAnalyzer, tokenize
from .interaction import InteractionFeatureExtractor
from .sequences import SequenceBatch, build_sequences
from .pipeline import FeaturePipeline, StreamFeatures

__all__ = [
    "SimulatedI3DExtractor",
    "HashingWordEmbedding",
    "LexiconSentimentAnalyzer",
    "tokenize",
    "InteractionFeatureExtractor",
    "SequenceBatch",
    "build_sequences",
    "FeaturePipeline",
    "StreamFeatures",
]
