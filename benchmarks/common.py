"""Shared infrastructure for the benchmark suite.

Every benchmark module regenerates one table or figure of the paper.  They all
share the same simulated datasets and, where possible, the same trained
models, which this module caches per pytest session.  Each benchmark writes
the rows/series it produces to ``benchmarks/results/<name>.txt`` (and prints
them), so the numbers can be compared against the paper after the run.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.core.base import StreamAnomalyDetector
from repro.core.model import AOVLIS
from repro.evaluation.harness import ExperimentHarness, ExperimentScale, PreparedDataset
from repro.evaluation.metrics import auroc
from repro.evaluation.reporting import format_table

RESULTS_DIR = Path(__file__).resolve().parent / "results"
DATASETS: Tuple[str, ...] = ("INF", "SPE", "TED", "TWI")
METHOD_ORDER: Tuple[str, ...] = ("LTR", "VEC", "LSTM", "RTFM", "CLSTM-S", "CLSTM")


@functools.lru_cache(maxsize=1)
def harness() -> ExperimentHarness:
    """The shared benchmark-scale experiment harness (datasets cached inside)."""
    return ExperimentHarness(ExperimentScale.benchmark())


@functools.lru_cache(maxsize=1)
def light_harness() -> ExperimentHarness:
    """A lighter harness for the training-heavy maintenance experiments."""
    scale = replace(ExperimentScale.benchmark(), epochs=8)
    return ExperimentHarness(scale)


@functools.lru_cache(maxsize=8)
def dataset(name: str) -> PreparedDataset:
    """Simulated dataset with extracted features (cached)."""
    return harness().prepare_dataset(name)


@functools.lru_cache(maxsize=8)
def fitted_suite(dataset_name: str) -> Dict[str, StreamAnomalyDetector]:
    """Every comparison method fitted on one dataset's training stream."""
    prepared = dataset(dataset_name)
    suite = harness().detector_suite()
    for method in suite.values():
        method.fit(prepared.train)
    return suite


@functools.lru_cache(maxsize=8)
def suite_scores(dataset_name: str):
    """Test-stream scores of every fitted method: name -> (labels, scores)."""
    prepared = dataset(dataset_name)
    return {
        name: method.evaluate_labels(prepared.test)
        for name, method in fitted_suite(dataset_name).items()
    }


@functools.lru_cache(maxsize=8)
def trained_clstm(dataset_name: str) -> AOVLIS:
    """The fitted AOVLIS/CLSTM model of the comparison suite (shared)."""
    return fitted_suite(dataset_name)["CLSTM"]  # type: ignore[return-value]


def suite_auroc(dataset_name: str) -> Dict[str, float]:
    """AUROC of every method on one dataset (uses the cached fitted suite)."""
    return {name: auroc(labels, scores) for name, (labels, scores) in suite_scores(dataset_name).items()}


def write_result(name: str, content: str) -> Path:
    """Persist a benchmark's table to ``benchmarks/results`` and echo it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(content + "\n", encoding="utf-8")
    print(f"\n{content}\n[written to {path}]")
    return path


def table(name: str, headers: List[str], rows: List[List[object]], title: str) -> str:
    """Format and persist a result table."""
    content = format_table(headers, rows, title=title)
    write_result(name, content)
    return content


def percent(value: float) -> str:
    """Render an AUROC fraction the way the paper does (percentage)."""
    if value != value:
        return "n/a"
    return f"{100.0 * value:.2f}"


def microseconds(value: float) -> str:
    return f"{1e6 * value:.2f}"
