"""Live-commerce monitoring: streaming detection with incremental model updates.

The paper's motivating application is monitoring an influencer's product
showcase: when the presenter performs an attractive action and the chat
erupts, the platform wants to know immediately (soft advertisements, purchase
spikes), and the model must keep itself fresh as the show evolves.

This example simulates a long INF-style broadcast, processes it in half-hour
"chunks" as they arrive, and shows:

* online REIA scoring of each incoming chunk,
* ADOS-accelerated detection (bound filtering instead of exact JS everywhere),
* drift-triggered incremental model updates as each chunk streams through the
  serving runtime (the Fig. 5 loop: buffer, drift check, retrain, merge,
  re-calibrate, publish).

Run with::

    python examples/live_commerce_monitoring.py
"""

from __future__ import annotations

from repro import FeaturePipeline, FilteredDetector, ModelConfig, Runtime, RuntimeConfig, auroc
from repro.streams import SocialStreamGenerator, dataset_profile
from repro.utils.config import TrainingConfig, UpdateConfig


def main() -> None:
    profile = dataset_profile("INF")
    generator = SocialStreamGenerator(profile, seed=7)

    # A 6-minute "rehearsal" recording used for initial training, then a
    # 12-minute live broadcast that arrives in three chunks.
    rehearsal = generator.generate(360, name="rehearsal", seed=71)
    broadcast = generator.generate(720, name="broadcast", seed=72)

    pipeline = FeaturePipeline(action_dim=100, motion_channels=profile.motion_channels, seed=7)
    train_features = pipeline.extract(rehearsal)

    # drift_threshold is a demonstration value for this simulated broadcast:
    # Eq. 17 stays above it through chunk 1 and reads 0.81 in chunk 2, where
    # the update loop starts to run.
    config = RuntimeConfig(
        model=ModelConfig(
            action_dim=train_features.action_dim,
            interaction_dim=train_features.interaction_dim,
            action_hidden=48,
            interaction_hidden=24,
        ),
        training=TrainingConfig(epochs=15, batch_size=32, checkpoint_every=5, seed=7),
        update=UpdateConfig(buffer_size=60, drift_threshold=0.83, update_epochs=4),
        sequence_length=9,
    )
    runtime = Runtime.from_config(config).fit(train_features)
    print(f"Initial model trained on {train_features.num_segments} rehearsal segments")

    chunk_seconds = broadcast.duration / 3
    for chunk_id in range(3):
        chunk_stream = broadcast.slice_time(chunk_id * chunk_seconds, (chunk_id + 1) * chunk_seconds)
        chunk = pipeline.extract(chunk_stream)

        # --- fast detection with ADOS bound filtering ------------------- #
        # (the detector of whatever model version the runtime serves by now)
        batch = chunk.sequences(config.sequence_length)
        filtered = FilteredDetector(runtime.detector).detect(batch)
        flagged = filtered.anomalies
        stages = filtered.stage_counts()
        labels = chunk.labels[filtered.segment_indices]
        scores_auroc = auroc(labels, filtered.scores) if labels.sum() else float("nan")

        print(f"\n=== incoming chunk {chunk_id + 1} ({chunk.num_segments} segments) ===")
        print(f"  anomalies flagged: {len(flagged)}  (ground-truth anomalous segments: {labels.sum()})")
        print(f"  AUROC on this chunk: {scores_auroc:.3f}")
        print(
            "  ADOS filtering: "
            f"{filtered.filtering_power():.0%} of segments decided by bounds "
            f"({stages.get('exact', 0)} exact JS computations) — stages {stages}"
        )

        # --- incremental maintenance ------------------------------------ #
        # The chunk arrives as live traffic: the runtime scores it, buffers
        # its presumed-normal segments and reacts to drift on its own.
        seen_reports = len(runtime.update_reports)
        runtime.replay({"broadcast": chunk})
        reports = runtime.update_reports[seen_reports:]
        if reports:
            print(
                f"  model drift detected (similarity {reports[0].trigger.similarity:.3f}); "
                f"{len(reports)} incremental update(s) took "
                f"{sum(r.seconds for r in reports):.2f}s -> serving version "
                f"{runtime.model_version}, T_a = {runtime.anomaly_threshold:.4f}"
            )
        else:
            print(f"  no drift trigger; model kept at version {runtime.model_version}")
    runtime.close()

if __name__ == "__main__":
    main()
