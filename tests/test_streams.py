"""Tests for the social live-stream simulator (repro.streams)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.streams import (
    AudienceModel,
    CommentTextGenerator,
    DATASET_NAMES,
    InfluencerBehaviourModel,
    ProfilePerturbation,
    SocialStreamGenerator,
    StreamProfile,
    dataset_profile,
    load_all_datasets,
    load_dataset,
)
from repro.utils.config import StreamProtocol


class TestInfluencerBehaviour:
    def test_states_are_valid_distributions(self):
        model = InfluencerBehaviourModel(motion_channels=8, normal_states=3, rng=np.random.default_rng(0))
        for state in model.normal_states + model.anomalous_states + model.distractor_states:
            assert state.signature.shape == (8,)
            assert np.all(state.signature >= 0)
            assert state.signature.sum() == pytest.approx(1.0)

    def test_anomalous_states_are_attractive(self):
        model = InfluencerBehaviourModel(rng=np.random.default_rng(1))
        assert all(s.attractiveness >= 0.7 for s in model.anomalous_states)
        assert all(s.is_anomalous for s in model.anomalous_states)
        assert all(not s.is_anomalous for s in model.normal_states)

    def test_step_produces_anomalies_at_high_rate(self):
        model = InfluencerBehaviourModel(anomaly_rate=0.5, rng=np.random.default_rng(2))
        states = [model.step() for _ in range(50)]
        assert any(s.is_anomalous for s in states)

    def test_no_anomalies_with_zero_rate(self):
        model = InfluencerBehaviourModel(anomaly_rate=0.0, distractor_rate=0.0, rng=np.random.default_rng(3))
        states = [model.step() for _ in range(100)]
        assert not any(s.is_anomalous for s in states)

    def test_motion_frames_are_distributions(self):
        model = InfluencerBehaviourModel(motion_channels=6, rng=np.random.default_rng(5))
        frames = model.motion_frames(model.normal_states[0], frames=32)
        assert frames.shape == (32, 6)
        np.testing.assert_allclose(frames.sum(axis=1), np.ones(32), atol=1e-9)
        with pytest.raises(ValueError):
            model.motion_frames(model.normal_states[0], frames=0)

    def test_signature_sharing_across_instances(self):
        shared = np.random.default_rng(7)
        a = InfluencerBehaviourModel(rng=np.random.default_rng(1), signature_rng=np.random.default_rng(7))
        b = InfluencerBehaviourModel(rng=np.random.default_rng(2), signature_rng=np.random.default_rng(7))
        np.testing.assert_allclose(a.normal_states[0].signature, b.normal_states[0].signature)

    def test_audience_pressure_triggers_responsive_state(self):
        model = InfluencerBehaviourModel(
            anomaly_rate=0.0, distractor_rate=0.0, switch_probability=0.0,
            audience_reactivity=1.0, rng=np.random.default_rng(8),
        )
        states = [model.step(audience_pressure=0.9) for _ in range(20)]
        assert any(s.name == model.responsive_state.name for s in states)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            InfluencerBehaviourModel(motion_channels=1)
        with pytest.raises(ValueError):
            InfluencerBehaviourModel(anomaly_rate=2.0)
        with pytest.raises(ValueError):
            InfluencerBehaviourModel(anomaly_visual_shift=1.5)


class TestAudienceModel:
    def test_counts_non_negative_and_reproducible(self):
        a = AudienceModel(rng=np.random.default_rng(0))
        b = AudienceModel(rng=np.random.default_rng(0))
        counts_a = [a.step(0.1, second)[0] for second in range(30)]
        counts_b = [b.step(0.1, second)[0] for second in range(30)]
        assert counts_a == counts_b
        assert all(count >= 0 for count in counts_a)

    def test_attractive_actions_raise_comment_rate(self):
        rng_quiet = np.random.default_rng(1)
        rng_burst = np.random.default_rng(1)
        quiet = AudienceModel(reaction_delay=0, rng=rng_quiet)
        burst = AudienceModel(reaction_delay=0, rng=rng_burst)
        quiet_total = sum(quiet.step(0.05, second)[0] for second in range(60))
        burst_total = sum(burst.step(0.95, second)[0] for second in range(60))
        assert burst_total > quiet_total

    def test_reaction_delay_defers_burst(self):
        audience = AudienceModel(reaction_delay=3, base_rate=0.0, burst_gain=10.0, rng=np.random.default_rng(2))
        excitements = []
        for second in range(6):
            audience.step(1.0 if second == 0 else 0.0, second)
            excitements.append(audience.current_excitement())
        assert excitements[0] == pytest.approx(0.0)
        assert max(excitements[3:]) > 0.0

    def test_comment_timestamps_within_second(self):
        audience = AudienceModel(base_rate=5.0, rng=np.random.default_rng(3))
        _, comments = audience.step(0.5, second=42)
        assert all(42.0 <= c.timestamp < 43.0 for c in comments)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AudienceModel(base_rate=-1)
        with pytest.raises(ValueError):
            AudienceModel(burst_gain=0.5)
        with pytest.raises(ValueError):
            AudienceModel(dispersion=0)

    def test_text_generator_sentiment_shift(self):
        generator = CommentTextGenerator(np.random.default_rng(0))
        excited = [generator.generate(1.0)[1] for _ in range(200)]
        calm = [generator.generate(0.0)[1] for _ in range(200)]
        assert np.mean(excited) > np.mean(calm)


class TestGenerator:
    def test_segment_count_matches_protocol(self, tiny_profile):
        protocol = StreamProtocol()
        generator = SocialStreamGenerator(tiny_profile, protocol=protocol, seed=0)
        stream = generator.generate(120.0)
        total_frames = 120 * protocol.frame_rate
        expected = 1 + (total_frames - protocol.segment_frames) // protocol.stride_frames
        assert stream.num_segments == expected

    def test_stream_is_deterministic_given_seed(self, tiny_profile):
        a = SocialStreamGenerator(tiny_profile, seed=5).generate(100.0)
        b = SocialStreamGenerator(tiny_profile, seed=5).generate(100.0)
        np.testing.assert_allclose(a.comment_counts, b.comment_counts)
        assert a.labels.tolist() == b.labels.tolist()
        np.testing.assert_allclose(a.segments[10].motion_content, b.segments[10].motion_content)

    def test_different_seeds_differ(self, tiny_profile):
        a = SocialStreamGenerator(tiny_profile, seed=5).generate(100.0)
        b = SocialStreamGenerator(tiny_profile, seed=6).generate(100.0)
        assert not np.allclose(a.comment_counts, b.comment_counts)

    def test_anomalies_present_and_labelled(self, tiny_stream):
        assert tiny_stream.anomaly_rate > 0
        assert any(s.is_anomaly for s in tiny_stream.segments)

    def test_segment_fields(self, tiny_stream):
        segment = tiny_stream.segments[0]
        assert segment.end_time - segment.start_time == pytest.approx(64 / 25)
        assert segment.motion_content.shape[0] == 64
        assert 0.0 <= segment.attractiveness <= 1.0

    def test_duration_too_short_raises(self, tiny_profile):
        with pytest.raises(ValueError):
            SocialStreamGenerator(tiny_profile, seed=0).generate(1.0)

    def test_generate_many(self, tiny_profile):
        streams = SocialStreamGenerator(tiny_profile, seed=0).generate_many(2, 80.0)
        assert len(streams) == 2
        assert streams[0].name != streams[1].name
        with pytest.raises(ValueError):
            SocialStreamGenerator(tiny_profile, seed=0).generate_many(0, 80.0)


class TestStreamContainer:
    def test_comments_between(self, tiny_stream):
        window = tiny_stream.comments_between(10.0, 20.0)
        assert all(10.0 <= c.timestamp < 20.0 for c in window)

    def test_counts_between_clipping(self, tiny_stream):
        counts = tiny_stream.counts_between(-5, 10)
        assert len(counts) == 10
        assert len(tiny_stream.counts_between(50, 50)) == 0

    def test_slice_time_renumbers_segments(self, tiny_stream):
        sliced = tiny_stream.slice_time(30.0, 90.0)
        assert sliced.segments[0].index == 0
        assert sliced.segments[0].start_time >= 0.0
        assert sliced.duration <= 60.0
        with pytest.raises(ValueError):
            tiny_stream.slice_time(50.0, 40.0)

    def test_iteration_and_len(self, tiny_stream):
        assert len(list(iter(tiny_stream))) == len(tiny_stream)


class TestDatasets:
    def test_dataset_profiles_exist(self):
        for name in DATASET_NAMES:
            profile = dataset_profile(name)
            assert profile.name == name
        with pytest.raises(KeyError):
            dataset_profile("UNKNOWN")

    def test_one_way_datasets_have_zero_reactivity(self):
        assert dataset_profile("SPE").audience_reactivity == 0.0
        assert dataset_profile("TED").audience_reactivity == 0.0
        assert dataset_profile("INF").audience_reactivity > 0.0
        assert dataset_profile("TWI").audience_reactivity > 0.0

    def test_load_dataset_produces_train_and_test(self):
        spec = load_dataset("INF", base_train_seconds=120, base_test_seconds=80, seed=3)
        assert spec.train.num_segments > 0
        assert spec.test.num_segments > 0
        assert "INF" in spec.description

    def test_twi_is_largest(self):
        inf = load_dataset("INF", base_train_seconds=120, base_test_seconds=80, seed=3)
        twi = load_dataset("TWI", base_train_seconds=120, base_test_seconds=80, seed=3)
        assert twi.train.duration > inf.train.duration

    def test_train_and_test_share_behaviour_signatures(self):
        """Train/test splits must depict the same influencers (same styles)."""
        spec = load_dataset("INF", base_train_seconds=150, base_test_seconds=100, seed=5)
        train_states = {s.action_state for s in spec.train.segments}
        test_states = {s.action_state for s in spec.test.segments}
        assert train_states & test_states

    def test_load_all_datasets(self):
        specs = load_all_datasets(base_train_seconds=100, base_test_seconds=80, seed=2)
        assert set(specs) == set(DATASET_NAMES)


class TestProfilePerturbation:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProfilePerturbation(start_second=10, end_second=5)
        with pytest.raises(ValueError):
            ProfilePerturbation(start_second=0, end_second=10, ramp="cubic")
        with pytest.raises(ValueError):
            ProfilePerturbation(start_second=0, end_second=10, comment_rate_add=-1.0)
        with pytest.raises(ValueError):
            ProfilePerturbation(start_second=0, end_second=10, comment_rate_multiplier=-0.5)
        with pytest.raises(ValueError):
            ProfilePerturbation(start_second=0, end_second=10, heavy_tail_alpha=0.0)
        with pytest.raises(ValueError):
            ProfilePerturbation(start_second=0, end_second=10, anomaly_rate_multiplier=-0.5)

    def test_active_and_strength(self):
        step = ProfilePerturbation(start_second=10, end_second=20, ramp="step")
        assert not step.active(9) and step.active(10) and step.active(19)
        assert not step.active(20)
        assert step.strength(15) == 1.0

        linear = ProfilePerturbation(start_second=10, end_second=20, ramp="linear")
        assert linear.strength(10) == 0.0
        assert linear.strength(15) == pytest.approx(0.5)

    def test_empty_schedule_is_bitwise_identical(self):
        profile = StreamProfile(name="T", motion_channels=8, anomaly_rate=0.02)
        plain = SocialStreamGenerator(profile, seed=11).generate(120, seed=11)
        scheduled = SocialStreamGenerator(profile, seed=11).generate(
            120, seed=11, perturbations=()
        )
        assert np.array_equal(plain.comment_counts, scheduled.comment_counts)
        for a, b in zip(plain.segments, scheduled.segments):
            assert np.array_equal(a.motion_content, b.motion_content)
            assert a.is_anomaly == b.is_anomaly

    def test_injection_leaves_unperturbed_seconds_untouched(self):
        """The perturbation RNG is independent of the main stream RNG, so the
        seconds before the perturbation window are bitwise identical."""
        profile = StreamProfile(name="T", motion_channels=8, anomaly_rate=0.02)
        plain = SocialStreamGenerator(profile, seed=11).generate(150, seed=11)
        burst = ProfilePerturbation(
            start_second=100, end_second=140, ramp="step", comment_rate_add=25.0
        )
        perturbed = SocialStreamGenerator(profile, seed=11).generate(
            150, seed=11, perturbations=(burst,)
        )
        assert np.array_equal(plain.comment_counts[:100], perturbed.comment_counts[:100])
        assert perturbed.comment_counts[100:140].sum() > plain.comment_counts[100:140].sum()


class TestCausalBaseline:
    """Regression tests for the lookahead-label bug: the burst-label baseline
    must be a causal trailing-window mean, never a whole-stream mean."""

    def test_labels_invariant_to_appended_flash_crowd(self):
        """Appending a future flash crowd must not change earlier labels.

        Under the old global-mean baseline the appended burst inflated the
        whole-stream mean, deflating the reaction ratio of earlier segments
        and silently flipping their labels.
        """
        profile = StreamProfile(
            name="T", motion_channels=8, anomaly_rate=0.02, reaction_delay=1
        )
        short = SocialStreamGenerator(profile, seed=11).generate(150, seed=11)
        crowd = ProfilePerturbation(
            start_second=180, end_second=220, ramp="linear", comment_rate_add=40.0
        )
        long = SocialStreamGenerator(profile, seed=11).generate(
            250, seed=11, perturbations=(crowd,)
        )
        assert np.array_equal(short.comment_counts, long.comment_counts[:150])

        reaction_tail = profile.reaction_delay + 2
        safe = [
            s.index
            for s in short.segments
            if int(np.ceil(s.end_time)) + reaction_tail <= 150
        ]
        assert safe, "there must be segments fully inside the shared prefix"
        short_labels = [short.segments[i].is_anomaly for i in safe]
        long_labels = [long.segments[i].is_anomaly for i in safe]
        assert short_labels == long_labels
        assert any(short_labels), "prefix must contain anomalous segments"

        # Sanity: the old whole-stream mean genuinely differs between the two
        # streams, so this test fails under the pre-fix labelling.
        assert abs(
            float(np.mean(short.comment_counts)) - float(np.mean(long.comment_counts))
        ) > 1.0

    def test_sustained_burst_after_quiet_prefix_stays_anomalous(self):
        """A long elevated episode must stay labelled anomalous: the causal
        baseline reflects the quiet prefix (and excludes anomalous seconds),
        so the reaction ratio stays high through the whole burst."""
        profile = StreamProfile(
            name="Q", motion_channels=8, anomaly_rate=0.0, reaction_delay=1
        )
        burst = ProfilePerturbation(
            start_second=70,
            end_second=150,
            ramp="step",
            comment_rate_add=12.0,
            force_anomaly=True,
        )
        stream = SocialStreamGenerator(profile, seed=5).generate(
            150, seed=5, perturbations=(burst,)
        )
        onset_segments = [
            s for s in stream.segments if 70 <= s.start_time <= 90
        ]
        assert onset_segments
        anomalous = [s for s in onset_segments if s.is_anomaly]
        # The forced attractive action at the burst onset must be labelled:
        # the causal baseline still reflects the quiet prefix, so the burst's
        # reaction ratio clears the threshold.  Under a whole-stream mean the
        # sustained burst would inflate the baseline against itself.
        assert len(anomalous) >= 3
        global_mean = float(np.mean(stream.comment_counts))
        quiet_mean = float(np.mean(stream.comment_counts[:70]))
        assert global_mean > 2 * quiet_mean

    def test_baseline_window_bounds_lookback(self):
        """A tiny baseline window adapts quickly: the post-burst baseline
        reflects the recent burst rather than the distant quiet prefix."""
        quick = StreamProfile(
            name="W",
            motion_channels=8,
            anomaly_rate=0.0,
            reaction_delay=1,
            baseline_window_seconds=10.0,
        )
        assert quick.baseline_window_seconds == 10.0
        generator = SocialStreamGenerator(quick, seed=3)
        stream = generator.generate(60, seed=3)
        assert stream.num_segments > 0
