"""Text features for audience comments: word embeddings and sentiment.

The paper enriches the comment-count feature with (a) the average pre-trained
Word2Vec embedding of the comments in a time slot and (b) a TextBlob sentiment
score.  Neither gensim's Word2Vec vectors nor TextBlob are available offline,
so this module provides drop-in substitutes with the same interface and output
ranges:

* :class:`HashingWordEmbedding` — a deterministic per-word vector derived from
  a hash of the word, normalised to unit length.  Like a pre-trained table it
  is fixed, consistent across runs, and maps related strings to stable
  vectors; unlike Word2Vec it has no semantic geometry, which is acceptable
  because the detector only uses the *average* embedding as a weak content
  summary.
* :class:`LexiconSentimentAnalyzer` — a small polarity lexicon producing a
  score in [-1, 1], mirroring TextBlob's polarity output.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, Iterable, List, Sequence

import numpy as np

__all__ = ["tokenize", "HashingWordEmbedding", "LexiconSentimentAnalyzer"]

_TOKEN_PATTERN = re.compile(r"[a-z0-9']+")


def tokenize(text: str) -> List[str]:
    """Lower-case word tokenizer used by both text feature components."""
    return _TOKEN_PATTERN.findall(text.lower())


class HashingWordEmbedding:
    """Deterministic hash-based word embeddings (Word2Vec substitute).

    Each word maps to a fixed unit-norm vector derived from the SHA-256 digest
    of the word and the table seed.  Embeddings are cached per instance.
    """

    def __init__(self, dim: int = 16, seed: int = 13) -> None:
        if dim < 1:
            raise ValueError("embedding dimension must be positive")
        self.dim = dim
        self.seed = seed
        self._cache: Dict[str, np.ndarray] = {}

    def embed_word(self, word: str) -> np.ndarray:
        """Embedding vector of a single word."""
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        digest = hashlib.sha256(f"{self.seed}:{word}".encode("utf-8")).digest()
        # Use the digest to seed a generator so arbitrary dimensions are supported.
        generator_seed = int.from_bytes(digest[:8], "little")
        rng = np.random.default_rng(generator_seed)
        vector = rng.normal(0.0, 1.0, size=self.dim)
        norm = np.linalg.norm(vector)
        vector = vector / norm if norm > 0 else vector
        self._cache[word] = vector
        return vector

    def embed_many(self, texts: Iterable[str]) -> np.ndarray:
        """Average embedding over all words of all ``texts`` (zeros when empty)."""
        words: List[str] = []
        for text in texts:
            words.extend(tokenize(text))
        if not words:
            return np.zeros(self.dim)
        return np.mean([self.embed_word(word) for word in words], axis=0)


class LexiconSentimentAnalyzer:
    """Polarity-lexicon sentiment analyser (TextBlob substitute).

    The score of a text is the mean polarity of its matched words, with simple
    negation handling ("not good" flips the polarity of "good").  Scores are
    in [-1, 1]; texts with no matched words score 0.
    """

    POSITIVE: Dict[str, float] = {
        "wow": 0.7,
        "amazing": 0.9,
        "awesome": 0.9,
        "love": 0.8,
        "great": 0.8,
        "best": 0.9,
        "cool": 0.6,
        "nice": 0.5,
        "good": 0.5,
        "buying": 0.4,
        "fine": 0.3,
    }
    NEGATIVE: Dict[str, float] = {
        "boring": -0.7,
        "bad": -0.6,
        "expensive": -0.4,
        "skip": -0.3,
        "disappointing": -0.8,
        "worst": -0.9,
        "hate": -0.9,
        "terrible": -0.9,
    }
    NEGATIONS = {"not", "no", "never", "dont", "don't"}

    def __init__(self) -> None:
        self._lexicon = {**self.POSITIVE, **self.NEGATIVE}

    def polarity(self, text: str) -> float:
        """Sentiment polarity of a single text in [-1, 1]."""
        tokens = tokenize(text)
        scores: List[float] = []
        for index, token in enumerate(tokens):
            if token not in self._lexicon:
                continue
            score = self._lexicon[token]
            if index > 0 and tokens[index - 1] in self.NEGATIONS:
                score = -score
            scores.append(score)
        if not scores:
            return 0.0
        return float(np.clip(np.mean(scores), -1.0, 1.0))

    def mean_polarity(self, texts: Sequence[str]) -> float:
        """Mean polarity over several texts (0 when the list is empty)."""
        if not texts:
            return 0.0
        return float(np.mean([self.polarity(text) for text in texts]))
