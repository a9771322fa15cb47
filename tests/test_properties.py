"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.clstm import CLSTM
from repro.core.detector import AnomalyDetector
from repro.core.scoring import (
    interaction_reconstruction_error,
    js_divergence,
    l1_distance,
    reia_score,
)
from repro.core.update import hidden_set_similarity
from repro.evaluation.metrics import auroc, roc_curve
from repro.features.sequences import build_sequences
from repro.nn.tensor import Tensor
from repro.optimization.adg import assign_subspaces
from repro.optimization.ados import STAGES, ADOSFilter, FilteredDetector
from repro.optimization.bounds import (
    adg_upper_bounds,
    js_lower_bounds_l1,
    js_upper_bounds_l1,
)
from repro.utils.config import DetectionConfig


def distributions(dim=12):
    """Strategy producing a pair of probability distributions."""
    positive = st.floats(min_value=1e-6, max_value=1.0)
    array = hnp.arrays(np.float64, (dim,), elements=positive)

    def normalise(values):
        values = np.asarray(values) + 1e-9
        return values / values.sum()

    return st.tuples(array.map(normalise), array.map(normalise))


class TestScoringProperties:
    @given(distributions())
    @settings(max_examples=60, deadline=None)
    def test_js_bounded_and_symmetric(self, pq):
        p, q = pq
        value = float(js_divergence(p, q))
        assert -1e-12 <= value <= np.log(2) + 1e-9
        assert value == float(js_divergence(q, p))

    @given(distributions())
    @settings(max_examples=60, deadline=None)
    def test_l1_bounds_sandwich_js(self, pq):
        p, q = pq
        exact = float(js_divergence(p, q))
        assert js_upper_bounds_l1(p[None, :], q[None, :])[0] >= exact - 1e-9
        assert js_lower_bounds_l1(p[None, :], q[None, :])[0] <= exact + 1e-9

    @given(distributions(), st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_adg_bound_never_dismisses_falsely(self, pq, n_subspaces, exact_groups):
        p, q = pq
        exact = float(js_divergence(q, p))
        bound = adg_upper_bounds(
            p[None, :], q[None, :], n_subspaces=n_subspaces, exact_groups=exact_groups
        )[0]
        assert bound >= exact - 1e-9

    @given(distributions(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_reia_between_components(self, pq, omega):
        p, q = pq
        a = np.zeros(4)
        b = np.ones(4)
        re_i = float(js_divergence(q, p))
        re_a = float(np.linalg.norm(a - b))
        score = float(reia_score(p, q, a, b, omega=omega))
        assert min(re_i, re_a) - 1e-9 <= score <= max(re_i, re_a) + 1e-9


class TestADGProperties:
    @given(
        hnp.arrays(np.float64, (30,), elements=st.floats(min_value=1e-9, max_value=1.0 - 1e-9)),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_assignment_range(self, values, n):
        assignments = assign_subspaces(values, n)
        assert assignments.min() >= 0
        assert assignments.max() <= n - 1

    @given(st.integers(min_value=2, max_value=25))
    @settings(max_examples=30, deadline=None)
    def test_partition_is_exhaustive(self, n):
        """With every group exact the bound is the per-dimension JS sum, so
        the groups cover each dimension exactly once for any subspace count."""
        rng = np.random.default_rng(n)
        features = rng.dirichlet(np.full(40, 0.4), size=2)
        bound = adg_upper_bounds(features[:1], features[1:], n_subspaces=n, exact_groups=n)
        np.testing.assert_allclose(bound, js_divergence(features[1:], features[:1]), atol=1e-9, rtol=0)


def _random_model_and_batch(seed: int):
    """A small random CLSTM plus a random scored batch (derived from seed)."""
    rng = np.random.default_rng(seed)
    coupling = ("both", "influencer_to_audience", "none")[seed % 3]
    model = CLSTM(
        action_dim=10, interaction_dim=4, action_hidden=6, interaction_hidden=3,
        coupling=coupling, seed=seed,
    )
    action = rng.dirichlet(np.full(10, 0.6), size=18)
    interaction = rng.random((18, 4))
    batch = build_sequences(action, interaction, sequence_length=4)
    return model, batch


class TestModelBoundProperties:
    """Bounds vs exact REIA for random models/batches (not just random pairs)."""

    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=15, deadline=None)
    def test_l1_bounds_bracket_exact_reia(self, seed, omega):
        model, batch = _random_model_and_batch(seed)
        predicted_action, predicted_interaction = model.predict(
            batch.action_sequences, batch.interaction_sequences
        )
        exact = reia_score(
            batch.action_targets, predicted_action,
            batch.interaction_targets, predicted_interaction,
            omega=omega,
        )
        interaction_part = (1.0 - omega) * interaction_reconstruction_error(
            batch.interaction_targets, predicted_interaction
        )
        upper = omega * js_upper_bounds_l1(batch.action_targets, predicted_action) + interaction_part
        lower = omega * js_lower_bounds_l1(batch.action_targets, predicted_action) + interaction_part
        assert np.all(lower <= exact + 1e-9)
        assert np.all(upper >= exact - 1e-9)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_adg_bound_bounds_model_reconstructions(self, seed, n_subspaces, exact_groups):
        model, batch = _random_model_and_batch(seed)
        predicted_action, _ = model.predict(batch.action_sequences, batch.interaction_sequences)
        bounds = adg_upper_bounds(
            batch.action_targets, predicted_action, n_subspaces=n_subspaces, exact_groups=exact_groups
        )
        assert np.all(bounds >= js_divergence(predicted_action, batch.action_targets) - 1e-9)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_cascade_stages_are_justified_by_their_bounds(self, seed, use_l1, use_adg, adaptive):
        """Every stage code is backed by the bound it names (recomputed here
        from the public bound functions), carries that bound's score, and —
        for the naive cascade — a row reaches ``exact`` only when no enabled
        bound could decide it."""
        rng = np.random.default_rng(seed)
        omega, t_n, t_a = 0.8, 0.07, 0.1
        ados = ADOSFilter(
            normal_threshold=t_n, anomaly_threshold=t_a, omega=omega,
            use_l1_bounds=use_l1, use_adg_bound=use_adg, adaptive=adaptive,
            adg_subspaces=5, sparse_groups=2,
        )
        features = rng.dirichlet(np.full(20, 0.4), size=16)
        noise = rng.normal(0.0, rng.choice([1e-4, 0.1]), size=(16, 20))
        reconstructions = np.abs(features + noise) + 1e-12
        reconstructions /= reconstructions.sum(axis=1, keepdims=True)
        interaction_errors = rng.random(16) * 0.05
        decisions, scores, stages = ados.decide_batch(features, reconstructions, interaction_errors)

        parts = (1.0 - omega) * interaction_errors
        l1_upper = omega * js_upper_bounds_l1(features, reconstructions) + parts
        l1_lower = omega * js_lower_bounds_l1(features, reconstructions) + parts
        adg = omega * adg_upper_bounds(features, reconstructions, n_subspaces=5, exact_groups=2) + parts
        exact = omega * js_divergence(reconstructions, features) + parts
        is_stage = {name: stages == code for code, name in enumerate(STAGES)}

        assert use_l1 or not (is_stage["l1_normal"] | is_stage["l1_anomaly"]).any()
        assert use_adg or not is_stage["adg_normal"].any()
        assert np.all(l1_upper[is_stage["l1_normal"]] < t_n)
        assert np.all(l1_lower[is_stage["l1_anomaly"]] > t_a)
        assert np.all(adg[is_stage["adg_normal"]] <= t_n)
        np.testing.assert_array_equal(decisions, np.where(is_stage["exact"], exact > t_a, is_stage["l1_anomaly"]))
        for name, values in (("l1_normal", l1_upper), ("l1_anomaly", l1_lower), ("adg_normal", adg), ("exact", exact)):
            np.testing.assert_allclose(scores[is_stage[name]], values[is_stage[name]], rtol=1e-12, atol=1e-15)
        if not adaptive:
            decidable = (use_l1 & ((l1_upper < t_n) | (l1_lower > t_a))) | (use_adg & (adg <= t_n))
            np.testing.assert_array_equal(is_stage["exact"], ~decidable)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.3, max_value=0.95),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_ados_filtered_detections_equal_unfiltered(self, seed, quantile, use_l1, use_adg, adaptive):
        """Bound-based filtering must never change a detection decision,
        whatever the strategy switches and wherever T_a was calibrated."""
        model, batch = _random_model_and_batch(seed)
        detector = AnomalyDetector(model, DetectionConfig(omega=0.8, adg_subspaces=5, sparse_groups=2))
        detector.calibrate(batch, quantile=quantile)
        exact_result = detector.score(batch)
        filtered = FilteredDetector(
            detector, use_l1_bounds=use_l1, use_adg_bound=use_adg, adaptive=adaptive
        ).detect(batch)
        np.testing.assert_array_equal(filtered.segment_indices, exact_result.segment_indices)
        np.testing.assert_array_equal(filtered.decisions, exact_result.is_anomaly)


class TestMetricProperties:
    @given(
        hnp.arrays(np.int64, (40,), elements=st.integers(min_value=0, max_value=1)),
        hnp.arrays(np.float64, (40,), elements=st.floats(min_value=0, max_value=1)),
    )
    @settings(max_examples=60, deadline=None)
    def test_auroc_in_unit_interval(self, labels, scores):
        value = auroc(labels, scores)
        if not np.isnan(value):
            assert 0.0 <= value <= 1.0

    @given(
        hnp.arrays(np.int64, (40,), elements=st.integers(min_value=0, max_value=1)),
        hnp.arrays(np.float64, (40,), elements=st.floats(min_value=0, max_value=1)),
        st.sampled_from([2.0, 4.0, 8.0, 1024.0]),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_auroc_invariant_to_monotone_transform(self, labels, scores, scale, shift):
        baseline = auroc(labels, scores)
        # The transform must preserve ordering *and* tie structure exactly in
        # binary floating point, or the invariance claim is vacuous: e.g. an
        # arbitrary multiplier can underflow distinct subnormals to the same
        # value (5e-324 * 0.5 == 0.0 == 0.0 * 0.5).  Scaling up by a power of
        # two is exact for every finite double (the mantissa is untouched), so
        # it is a genuinely strictly monotone float transform.
        transformed = auroc(labels, scores * scale)
        if np.isnan(baseline):
            assert np.isnan(transformed)
        else:
            assert baseline == pytest.approx(transformed, abs=1e-12)
        # An additive shift *can* merge sub-epsilon-distinct scores, which
        # legitimately changes tied ranks — but applied to rank-preserving
        # integers it is exact, so AUROC of the (shifted) midranks must match
        # the rank-based metric too.
        ranks = np.argsort(np.argsort(scores, kind="mergesort"), kind="mergesort").astype(np.float64)
        if not np.isnan(baseline) and np.unique(scores).size == scores.size:
            assert auroc(labels, ranks + shift) == pytest.approx(baseline, abs=1e-12)

    @given(
        hnp.arrays(np.int64, (30,), elements=st.integers(min_value=0, max_value=1)),
        hnp.arrays(np.float64, (30,), elements=st.floats(min_value=0, max_value=1)),
    )
    @settings(max_examples=40, deadline=None)
    def test_roc_is_monotone(self, labels, scores):
        curve = roc_curve(labels, scores)
        assert np.all(np.diff(curve.fpr) >= -1e-12)
        assert np.all(np.diff(curve.tpr) >= -1e-12)


class TestSimilarityProperties:
    @given(
        hnp.arrays(np.float64, (6, 5), elements=st.floats(min_value=-5, max_value=5)),
        hnp.arrays(np.float64, (4, 5), elements=st.floats(min_value=-5, max_value=5)),
    )
    @settings(max_examples=40, deadline=None)
    def test_similarity_bounded(self, a, b):
        value = hidden_set_similarity(a + 1e-9, b + 1e-9)
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


class TestSequenceProperties:
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_sequence_count(self, q, segments):
        action = np.random.default_rng(q).random((segments, 3))
        interaction = np.random.default_rng(q + 1).random((segments, 2))
        batch = build_sequences(action, interaction, q)
        assert len(batch) == max(0, segments - q)
        if len(batch):
            assert batch.target_indices[0] == q
            np.testing.assert_allclose(batch.action_targets, action[q:])


class TestTensorProperties:
    @given(
        hnp.arrays(np.float64, (3, 4), elements=st.floats(min_value=-10, max_value=10)),
        hnp.arrays(np.float64, (3, 4), elements=st.floats(min_value=-10, max_value=10)),
    )
    @settings(max_examples=40, deadline=None)
    def test_addition_matches_numpy(self, a, b):
        out = (Tensor(a) + Tensor(b)).numpy()
        np.testing.assert_allclose(out, a + b)

    @given(hnp.arrays(np.float64, (5,), elements=st.floats(min_value=-30, max_value=30)))
    @settings(max_examples=40, deadline=None)
    def test_softmax_is_distribution(self, values):
        out = Tensor(values).softmax().numpy()
        assert np.all(out >= 0)
        assert out.sum() == np.testing.assert_allclose(out.sum(), 1.0, atol=1e-9) or True

    @given(
        hnp.arrays(np.float64, (4, 3), elements=st.floats(min_value=-3, max_value=3)),
    )
    @settings(max_examples=30, deadline=None)
    def test_sum_gradient_is_ones(self, values):
        tensor = Tensor(values, requires_grad=True)
        tensor.sum().backward()
        np.testing.assert_allclose(tensor.grad, np.ones_like(values))
