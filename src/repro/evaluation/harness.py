"""Experiment harness reproducing the paper's evaluation protocol.

The harness owns the glue common to every experiment: simulate a dataset,
extract features, train detectors and compute metrics.  Each public method
corresponds to (part of) one table or figure of the paper; the benchmark
modules under ``benchmarks/`` are thin wrappers that call these methods and
print the resulting rows.

Scale.  The paper's datasets are hundreds of hours long and its CLSTM trains
for up to 1000 epochs on a GPU.  The harness exposes an
:class:`ExperimentScale` so the same code runs at laptop scale (the default
for benchmarks), at a tiny scale (unit/integration tests) or at larger scales
when more compute is available — only durations, dimensions and epoch counts
change, never the algorithms.
"""

from __future__ import annotations

import statistics
import time
from functools import partial
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..baselines import all_detectors
from ..core.base import StreamAnomalyDetector
from ..core.detector import AnomalyDetector
from ..core.model import AOVLIS
from ..core.update import retrain_model
from ..features.pipeline import FeaturePipeline, StreamFeatures
from ..features.sequences import SequenceBatch
from ..optimization.ados import FilteredDetectionResult, FilteredDetector
from ..optimization.filtering import FilteringPowerReport, evaluate_filtering_power
from ..runtime import Runtime, RuntimeConfig
from ..streams.datasets import DATASET_NAMES, load_dataset
from ..utils.config import DetectionConfig, ModelConfig, StreamProtocol, TrainingConfig, UpdateConfig
from .metrics import RocCurve, auroc, roc_curve

__all__ = ["ExperimentScale", "PreparedDataset", "ExperimentHarness", "FORWARD"]

#: Row of the efficiency tables holding the forward every strategy shares.
FORWARD = "CLSTM forward"
_TIMING_REPEATS = 15


def _median_seconds(calls: Mapping[object, Callable[[], object]]) -> Dict[object, float]:
    """The efficiency experiments' one stopwatch: median seconds of each call.

    Every round times each call once, so a load change on a shared machine
    lands on all rows of a table alike instead of on whichever row ran then.
    """
    samples: Dict[object, List[float]] = {key: [] for key in calls}
    for _ in range(_TIMING_REPEATS):
        for key, call in calls.items():
            start = time.perf_counter()
            call()
            samples[key].append(time.perf_counter() - start)
    return {key: statistics.median(values) for key, values in samples.items()}


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling how heavy the experiments are.

    ``benchmark()`` is the default used by the ``benchmarks/`` suite;
    ``tiny()`` keeps unit tests fast.
    """

    action_dim: int = 100
    interaction_embedding_dim: int = 16
    action_hidden: int = 48
    interaction_hidden: int = 24
    sequence_length: int = 9
    train_seconds: float = 480.0
    test_seconds: float = 300.0
    epochs: int = 20
    batch_size: int = 32
    seed: int = 7

    @staticmethod
    def tiny() -> "ExperimentScale":
        """Smallest sensible scale; used by the test-suite integration tests."""
        return ExperimentScale(
            action_dim=24,
            interaction_embedding_dim=8,
            action_hidden=16,
            interaction_hidden=8,
            sequence_length=5,
            train_seconds=160.0,
            test_seconds=120.0,
            epochs=4,
            batch_size=16,
        )

    @staticmethod
    def benchmark() -> "ExperimentScale":
        """Laptop-scale defaults used by the benchmark suite."""
        return ExperimentScale()

    @staticmethod
    def paper() -> "ExperimentScale":
        """Paper-faithful dimensions (heavy; hours of simulated stream)."""
        return ExperimentScale(
            action_dim=400,
            interaction_embedding_dim=16,
            action_hidden=128,
            interaction_hidden=32,
            sequence_length=9,
            train_seconds=3600.0,
            test_seconds=1800.0,
            epochs=100,
            batch_size=64,
        )

    def training_config(self, omega: float = 0.8, action_loss: str = "js") -> TrainingConfig:
        """Training configuration at this scale."""
        return TrainingConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            omega=omega,
            action_loss=action_loss,
            checkpoint_every=max(1, self.epochs // 4),
            seed=self.seed,
        )

    def detection_config(self, omega: float = 0.8) -> DetectionConfig:
        """Detection configuration at this scale."""
        return DetectionConfig(omega=omega)

    def runtime_config(self, features: StreamFeatures, **overrides) -> RuntimeConfig:
        """The assembled serving system at this scale, sized to ``features``;
        ``overrides`` set any other :class:`RuntimeConfig` field."""
        return RuntimeConfig(
            model=ModelConfig(
                action_dim=features.action_dim,
                interaction_dim=features.interaction_dim,
                action_hidden=self.action_hidden,
                interaction_hidden=self.interaction_hidden,
            ),
            training=self.training_config(),
            detection=self.detection_config(),
            sequence_length=self.sequence_length,
            seed=self.seed,
            **overrides,
        )


@dataclass(frozen=True)
class PreparedDataset:
    """A simulated dataset with features already extracted."""

    name: str
    train: StreamFeatures
    test: StreamFeatures
    pipeline: FeaturePipeline


class ExperimentHarness:
    """Runs the paper's experiments at a configurable scale."""

    def __init__(self, scale: ExperimentScale | None = None, protocol: StreamProtocol | None = None) -> None:
        self.scale = scale if scale is not None else ExperimentScale.benchmark()
        self.protocol = protocol if protocol is not None else StreamProtocol()
        self._dataset_cache: Dict[str, PreparedDataset] = {}

    # ------------------------------------------------------------------ #
    # Dataset preparation
    # ------------------------------------------------------------------ #
    def prepare_dataset(self, name: str, use_cache: bool = True) -> PreparedDataset:
        """Simulate one dataset and extract its features (cached per harness)."""
        key = name.upper()
        if use_cache and key in self._dataset_cache:
            return self._dataset_cache[key]
        scale = self.scale
        spec = load_dataset(
            key,
            base_train_seconds=scale.train_seconds,
            base_test_seconds=scale.test_seconds,
            protocol=self.protocol,
            seed=scale.seed,
        )
        pipeline = FeaturePipeline(
            action_dim=scale.action_dim,
            motion_channels=spec.profile.motion_channels,
            embedding_dim=scale.interaction_embedding_dim,
            protocol=self.protocol,
            seed=scale.seed,
        )
        prepared = PreparedDataset(
            name=key,
            train=pipeline.extract(spec.train),
            test=pipeline.extract(spec.test),
            pipeline=pipeline,
        )
        if use_cache:
            self._dataset_cache[key] = prepared
        return prepared

    def prepare_all(self, names: Optional[List[str]] = None) -> Dict[str, PreparedDataset]:
        """Prepare several datasets (defaults to all four)."""
        names = names if names is not None else list(DATASET_NAMES)
        return {name: self.prepare_dataset(name) for name in names}

    # ------------------------------------------------------------------ #
    # Model construction helpers
    # ------------------------------------------------------------------ #
    def build_aovlis(
        self,
        omega: float = 0.8,
        action_loss: str = "js",
        coupling: str = "both",
    ) -> AOVLIS:
        """An AOVLIS instance at the harness scale."""
        scale = self.scale
        return AOVLIS(
            sequence_length=scale.sequence_length,
            action_hidden=scale.action_hidden,
            interaction_hidden=scale.interaction_hidden,
            coupling="both" if coupling == "both" else coupling,
            training=scale.training_config(omega=omega, action_loss=action_loss),
            detection=scale.detection_config(omega=omega),
            seed=scale.seed,
        )

    def detector_suite(self) -> Dict[str, StreamAnomalyDetector]:
        """Every method of the comparison experiments, at the harness scale."""
        scale = self.scale
        detectors = all_detectors(
            sequence_length=scale.sequence_length,
            training=scale.training_config(),
            detection=scale.detection_config(),
            seed=scale.seed,
        )
        # Replace the generic CLSTM/CLSTM-S entries with harness-scaled ones.
        detectors["CLSTM"] = self.build_aovlis()
        clstm_s = self.build_aovlis(coupling="influencer_to_audience")
        detectors["CLSTM-S"] = clstm_s
        return detectors

    # ------------------------------------------------------------------ #
    # Effectiveness experiments
    # ------------------------------------------------------------------ #
    def method_auroc(self, dataset: PreparedDataset, method: StreamAnomalyDetector) -> float:
        """Fit ``method`` on the dataset's training stream and report test AUROC."""
        method.fit(dataset.train)
        labels, scores = method.evaluate_labels(dataset.test)
        return auroc(labels, scores)

    def compare_methods(
        self,
        dataset_names: Optional[List[str]] = None,
        method_names: Optional[List[str]] = None,
    ) -> Dict[str, Dict[str, float]]:
        """AUROC of every method on every dataset (Fig. 9b)."""
        datasets = self.prepare_all(dataset_names)
        results: Dict[str, Dict[str, float]] = {}
        for dataset_name, dataset in datasets.items():
            suite = self.detector_suite()
            if method_names is not None:
                suite = {name: suite[name] for name in method_names}
            results[dataset_name] = {
                method_name: self.method_auroc(dataset, method) for method_name, method in suite.items()
            }
        return results

    def roc_curves(
        self,
        dataset_name: str,
        method_names: Optional[List[str]] = None,
    ) -> Dict[str, RocCurve]:
        """ROC curves of the selected methods on one dataset (Fig. 10)."""
        dataset = self.prepare_dataset(dataset_name)
        suite = self.detector_suite()
        if method_names is not None:
            suite = {name: suite[name] for name in method_names}
        curves: Dict[str, RocCurve] = {}
        for name, method in suite.items():
            method.fit(dataset.train)
            labels, scores = method.evaluate_labels(dataset.test)
            curves[name] = roc_curve(labels, scores)
        return curves

    def loss_function_comparison(self, dataset_names: Optional[List[str]] = None) -> Dict[str, Dict[str, float]]:
        """AUROC of CLSTM trained with L2 / KL / JS action losses (Table I)."""
        datasets = self.prepare_all(dataset_names)
        results: Dict[str, Dict[str, float]] = {}
        for loss in ("l2", "kl", "js"):
            row: Dict[str, float] = {}
            for dataset_name, dataset in datasets.items():
                model = self.build_aovlis(action_loss=loss)
                row[dataset_name] = self.method_auroc(dataset, model)
            results[f"CLSTM+{loss.upper()}"] = row
        return results

    def omega_sweep(
        self,
        omegas: Optional[List[float]] = None,
        dataset_names: Optional[List[str]] = None,
    ) -> Dict[str, Dict[float, float]]:
        """AUROC as a function of the audience-interaction weight omega (Fig. 9a)."""
        omegas = omegas if omegas is not None else [0.0, 0.25, 0.5, 0.75, 0.8, 0.9, 1.0]
        datasets = self.prepare_all(dataset_names)
        results: Dict[str, Dict[float, float]] = {}
        for dataset_name, dataset in datasets.items():
            per_omega: Dict[float, float] = {}
            for omega in omegas:
                model = self.build_aovlis(omega=omega)
                per_omega[omega] = self.method_auroc(dataset, model)
            results[dataset_name] = per_omega
        return results

    def epoch_effect(self, dataset_name: str, epochs: Optional[int] = None) -> Dict[str, list]:
        """Reconstruction error vs epoch for train/validation/test sets (Fig. 8)."""
        dataset = self.prepare_dataset(dataset_name)
        model = self.build_aovlis()
        if epochs is not None:
            model.training_config = replace(model.training_config, epochs=epochs)
        model.fit(dataset.train)
        assert model.history is not None
        return model.history.as_dict()

    # ------------------------------------------------------------------ #
    # Dynamic-update experiments
    # ------------------------------------------------------------------ #
    def incremental_update_experiment(
        self,
        dataset_name: str,
        chunks: int = 3,
    ) -> Dict[str, Dict[str, float]]:
        """Incremental update vs re-training (Table III + Section VI-C.6).

        The test stream is divided into ``chunks`` equal "hours"; after each
        chunk the model is maintained either incrementally or by full
        re-training on all data seen so far, and AUROC is measured on the
        *next* chunk.  The incremental arm is the served Fig. 5 loop: a
        :class:`~repro.runtime.Runtime` replays the chunks as one live stream
        and the next chunk is scored by the snapshot it has published by then.
        Returns per-strategy mean AUROC and total maintenance seconds (for
        the incremental arm the sum of ``UpdateReport.seconds``) plus the
        number of ``updates`` the runtime published.
        """
        if chunks < 2:
            raise ValueError("need at least two chunks (one to update on, one to score)")
        dataset = self.prepare_dataset(dataset_name)
        boundaries = np.linspace(0, dataset.test.num_segments, chunks + 1).astype(int)
        chunk_features = [
            dataset.test.subset(boundaries[i], boundaries[i + 1]) for i in range(chunks)
        ]

        # --- incremental strategy -------------------------------------- #
        # A small buffer so drift is checked several times per chunk; default
        # batching with no flush deadline keeps the run deterministic.
        runtime = Runtime.from_config(
            self.scale.runtime_config(
                dataset.train,
                update=UpdateConfig(
                    buffer_size=max(20, self.scale.sequence_length * 3),
                    drift_threshold=0.9,
                    update_epochs=max(2, self.scale.epochs // 3),
                ),
            )
        ).fit(dataset.train)
        incremental_aurocs: List[float] = []
        try:
            for index in range(chunks - 1):
                runtime.replay({dataset.name: chunk_features[index]})
                upcoming = chunk_features[index + 1]
                result = runtime.detector.score(upcoming.sequences(self.scale.sequence_length))
                value = auroc(upcoming.labels[result.segment_indices], result.scores)
                if value == value:  # skip NaN chunks without anomalies
                    incremental_aurocs.append(value)
            reports = runtime.update_reports
        finally:
            runtime.close()

        # --- re-training strategy --------------------------------------- #
        retrain = self.build_aovlis()
        retrain.fit(dataset.train)
        retrain_aurocs: List[float] = []
        retrain_seconds = 0.0
        seen = [dataset.train]
        for index in range(chunks - 1):
            seen.append(chunk_features[index])
            new_model, elapsed = retrain_model(
                retrain.model,
                seen,
                sequence_length=self.scale.sequence_length,
                training_config=self.scale.training_config(),
            )
            retrain_seconds += elapsed
            retrain.model.load_state_dict(new_model.state_dict())
            retrain.detector = AnomalyDetector(retrain.model, retrain.detection_config)
            normal_batch = dataset.train.sequences(self.scale.sequence_length)
            retrain.detector.calibrate(normal_batch)
            labels, scores = retrain.evaluate_labels(chunk_features[index + 1])
            value = auroc(labels, scores)
            if value == value:
                retrain_aurocs.append(value)

        return {
            "incremental": {
                "auroc": float(np.mean(incremental_aurocs)) if incremental_aurocs else float("nan"),
                "maintenance_seconds": sum(report.seconds for report in reports),
                "updates": len(reports),
            },
            "retraining": {
                "auroc": float(np.mean(retrain_aurocs)) if retrain_aurocs else float("nan"),
                "maintenance_seconds": retrain_seconds,
            },
        }

    # ------------------------------------------------------------------ #
    # Efficiency experiments
    # ------------------------------------------------------------------ #
    def fit_detector_for_efficiency(self, dataset: PreparedDataset) -> AOVLIS:
        """Train one CLSTM to reuse across the efficiency sweeps."""
        model = self.build_aovlis()
        model.fit(dataset.train)
        return model

    def _efficiency_setup(self, dataset_name: str, model: Optional[AOVLIS]) -> Tuple[AOVLIS, SequenceBatch]:
        """The (fitted model, test batch) pair every efficiency experiment runs on."""
        dataset = self.prepare_dataset(dataset_name)
        model = model if model is not None else self.fit_detector_for_efficiency(dataset)
        return model, dataset.test.sequences(self.scale.sequence_length)

    def filtering_power_report(self, dataset_name: str, model: Optional[AOVLIS] = None) -> FilteringPowerReport:
        """Filtering power of every bound strategy (Fig. 11a)."""
        model, batch = self._efficiency_setup(dataset_name, model)
        return evaluate_filtering_power(model.detector, batch)

    def _cascade_times(
        self, batch: SequenceBatch, filters: Mapping[object, FilteredDetector]
    ) -> Tuple[Dict[object, float], Dict[object, int]]:
        """Per-segment seconds and exact ``RE_I`` counts of each filter's cascade.

        The CLSTM forward is identical for every strategy, so it runs outside
        the cascade timer and is reported as its own :data:`FORWARD` row; each
        filter is then timed on the cascade alone, over the same
        reconstructions.  Figs. 11(b)/(c) and 12 all read this one measurement.
        """
        reference = next(iter(filters.values()))
        predicted_action, interaction_errors = reference.reconstruct(batch)
        cascades = {
            key: partial(
                filtered.filter.decide_batch, batch.action_targets, predicted_action, interaction_errors
            )
            for key, filtered in filters.items()
        }
        seconds = _median_seconds({FORWARD: partial(reference.reconstruct, batch), **cascades})
        times = {key: value / max(len(batch), 1) for key, value in seconds.items()}
        exact = {
            key: FilteredDetectionResult(batch.target_indices, *cascade()).exact_computations()
            for key, cascade in cascades.items()
        }
        return times, exact

    def optimisation_strategy_times(
        self,
        dataset_name: str,
        model: Optional[AOVLIS] = None,
    ) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Cascade time and exact ``RE_I`` count of each optimisation strategy (Fig. 11b).

        Returns ``(seconds per segment, exact computations)`` keyed by
        strategy; the times also hold the shared :data:`FORWARD` row.
        """
        model, batch = self._efficiency_setup(dataset_name, model)
        strategies = {
            "No Bound": dict(use_l1_bounds=False, use_adg_bound=False, adaptive=False),
            "JSmin+JSmax": dict(use_l1_bounds=True, use_adg_bound=False, adaptive=False),
            "JSmin+JSmax+REG": dict(use_l1_bounds=True, use_adg_bound=True, adaptive=False),
            "ADOS": dict(use_l1_bounds=True, use_adg_bound=True, adaptive=True),
        }
        return self._cascade_times(
            batch,
            {name: FilteredDetector(model.detector, **flags) for name, flags in strategies.items()},
        )

    def ados_threshold_sweep(
        self,
        dataset_name: str,
        t1_values: Optional[List[float]] = None,
        t2_values: Optional[List[float]] = None,
        model: Optional[AOVLIS] = None,
    ) -> Dict[str, Dict[float, float]]:
        """Per-segment ADOS cascade time as T1 and T2 vary (Fig. 12a/b).

        ``{"T1": {t1: seconds}, "T2": {t2: seconds}, FORWARD: seconds}``.
        """
        model, batch = self._efficiency_setup(dataset_name, model)
        t1_values = t1_values if t1_values is not None else [1.1, 1.3, 1.5, 1.7, 1.9]
        t2_values = t2_values if t2_values is not None else [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]

        base_config = model.detection_config
        configs = {("T1", t1): replace(base_config, trigger_low=t1) for t1 in t1_values}
        configs.update({("T2", t2): replace(base_config, trigger_high=t2) for t2 in t2_values})
        times, _ = self._cascade_times(
            batch,
            {key: FilteredDetector(model.detector, config=config) for key, config in configs.items()},
        )
        results: Dict[str, Dict[float, float]] = {"T1": {}, "T2": {}, FORWARD: times.pop(FORWARD)}
        for (sweep, value), seconds in times.items():
            results[sweep][value] = seconds
        return results

    def sparse_group_sweep(
        self,
        dataset_name: str,
        group_counts: Optional[List[int]] = None,
        model: Optional[AOVLIS] = None,
    ) -> Tuple[Dict[object, float], Dict[int, int]]:
        """ADOS cascade time and exact ``RE_I`` count as ``N_sg`` varies (Fig. 12c).

        Same shape as :meth:`optimisation_strategy_times`, keyed by ``N_sg``.
        """
        model, batch = self._efficiency_setup(dataset_name, model)
        group_counts = group_counts if group_counts is not None else [0, 2, 4, 6, 8, 10, 12, 14]
        return self._cascade_times(
            batch,
            {
                count: FilteredDetector(
                    model.detector, config=replace(model.detection_config, sparse_groups=count)
                )
                for count in group_counts
            },
        )

    def method_detection_times(
        self,
        dataset_name: str,
        method_names: Optional[List[str]] = None,
        suite: Optional[Mapping[str, StreamAnomalyDetector]] = None,
    ) -> Dict[str, float]:
        """Per-segment detection (scoring) time per method (Fig. 11c).

        ``suite`` takes methods already fitted on the dataset's training
        stream; otherwise the comparison suite is fitted here.  The CLSTM
        entry is additionally reported with ADOS filtering ("CLSTM-ADOS": the
        forward plus the ADOS cascade, where "CLSTM" is the forward plus the
        exact score), matching the paper's comparison.
        """
        dataset = self.prepare_dataset(dataset_name)
        fitted = suite is not None
        suite = suite if fitted else self.detector_suite()
        if method_names is not None:
            suite = {name: suite[name] for name in method_names}
        if not fitted:
            for method in suite.values():
                method.fit(dataset.train)
        scorers = {name: partial(method.score_stream, dataset.test) for name, method in suite.items()}
        if "CLSTM" in suite:
            batch = dataset.test.sequences(self.scale.sequence_length)
            scorers["CLSTM-ADOS"] = partial(FilteredDetector(suite["CLSTM"].detector).detect, batch)
        return {
            name: seconds / max(len(scorers[name]()), 1)
            for name, seconds in _median_seconds(scorers).items()
        }

    # ------------------------------------------------------------------ #
    # Case study (Table IV)
    # ------------------------------------------------------------------ #
    def case_study(
        self,
        dataset_name: str = "INF",
        num_samples: int = 15,
        method_names: Optional[List[str]] = None,
    ) -> Dict[str, object]:
        """Per-segment scores and decisions for a sample of test segments.

        Mirrors Table IV: a mix of anomalous and normal segments is sampled
        from the test stream, every method scores them, and hard decisions are
        made with each method's own threshold (95th percentile of its training
        scores, the same rule for all methods to keep the comparison fair).
        """
        dataset = self.prepare_dataset(dataset_name)
        suite = self.detector_suite()
        if method_names is not None:
            suite = {name: suite[name] for name in method_names}

        per_method_scored: Dict[str, object] = {}
        per_method_thresholds: Dict[str, float] = {}
        common_indices: Optional[np.ndarray] = None
        for name, method in suite.items():
            method.fit(dataset.train)
            train_scored = method.score_stream(dataset.train)
            threshold = float(np.quantile(train_scored.scores, 0.95)) if len(train_scored) else 0.0
            test_scored = method.score_stream(dataset.test)
            per_method_scored[name] = test_scored
            per_method_thresholds[name] = threshold
            indices = test_scored.segment_indices
            common_indices = indices if common_indices is None else np.intersect1d(common_indices, indices)

        if common_indices is None or len(common_indices) == 0:
            raise RuntimeError("no commonly scored segments across methods")

        labels = dataset.test.labels
        rng = np.random.default_rng(self.scale.seed)
        anomalous = [i for i in common_indices if labels[i] == 1]
        normal = [i for i in common_indices if labels[i] == 0]
        rng.shuffle(anomalous)
        rng.shuffle(normal)
        wanted_anomalous = min(len(anomalous), max(1, num_samples // 2))
        chosen = anomalous[:wanted_anomalous] + normal[: num_samples - wanted_anomalous]
        chosen = sorted(int(i) for i in chosen)[:num_samples]

        samples: List[Dict[str, object]] = []
        for sample_id, segment_index in enumerate(chosen, start=1):
            row: Dict[str, object] = {
                "sample": sample_id,
                "segment_index": segment_index,
                "ground_truth": int(labels[segment_index]),
            }
            for name in suite:
                scored = per_method_scored[name]
                index_to_position = {int(idx): pos for pos, idx in enumerate(scored.segment_indices)}
                position = index_to_position[segment_index]
                score = float(scored.scores[position])
                row[f"{name}_score"] = score
                row[f"{name}_label"] = int(score > per_method_thresholds[name])
            samples.append(row)
        return {"samples": samples, "thresholds": per_method_thresholds}
