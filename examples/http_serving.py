"""Serve the runtime over HTTP — ingest, backpressure, tenants, stats.

PR 6 adds a stdlib-only network front (:mod:`repro.server`): wire clients
POST JSON segments, an admission-controlled queue bounds what the process
will hold, one batcher thread turns admitted segments into
``Runtime.ingest_many`` calls (so HTTP ingest stays bitwise-identical to
driving the library directly), and detections stream back through a
poll/long-poll endpoint.  This example walks the whole surface:

1. ``Runtime.serve()`` — one call puts a fitted runtime behind a listener
   on an ephemeral port;
2. ``POST /v1/ingest`` / ``GET /v1/detections`` — batched wire ingest and a
   long poll that returns as soon as the batcher has scored the backlog;
3. admission control — a deliberately tiny queue answers a burst that does
   not fit with 429 + ``Retry-After``, and one larger than the queue itself
   with 413, while every accepted segment still scores;
4. multi-tenancy — two runtimes behind one listener via
   :class:`~repro.server.TenantRouter`; tenant ``a``'s drift-triggered
   version bump leaves tenant ``b`` untouched;
5. ``GET /stats`` — admission counters plus the same per-shard load numbers
   ``Runtime.load_stats()`` reports in-process.

Run with::

    python examples/http_serving.py
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np

from repro import (
    FeaturePipeline,
    ModelConfig,
    Runtime,
    RuntimeConfig,
    ServerConfig,
    ServingConfig,
    TrainingConfig,
    UpdateConfig,
    load_dataset,
)
from repro.server import RuntimeServer, TenantRouter, WireError

SEQUENCE_LENGTH = 7


def call(method: str, url: str, payload=None):
    """One JSON exchange; returns ``(status, body, headers)``."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8")), response.headers
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read().decode("utf-8")), error.headers


def wire_segments(features, start, stop, stream_id):
    """A slice of one stream as JSON-ready wire segments (floats are exact:
    ``json`` round-trips IEEE-754 doubles losslessly via ``repr``)."""
    return [
        {
            "stream": stream_id,
            "action": features.action[position].tolist(),
            "interaction": features.interaction[position].tolist(),
            "level": float(features.normalised_interaction[position]),
        }
        for position in range(start, stop)
    ]


def build_runtime(train, *, drift_threshold=0.9995) -> Runtime:
    config = RuntimeConfig(
        model=ModelConfig(
            action_dim=train.action_dim,
            interaction_dim=train.interaction_dim,
            action_hidden=32,
            interaction_hidden=16,
        ),
        training=TrainingConfig(epochs=4, batch_size=32, checkpoint_every=2, seed=7),
        serving=ServingConfig(num_shards=2, max_batch_size=16),
        update=UpdateConfig(buffer_size=60, drift_threshold=drift_threshold, update_epochs=4),
        sequence_length=SEQUENCE_LENGTH,
        server=ServerConfig(poll_interval_ms=10.0),
    )
    return Runtime.from_config(config).fit(train)


def main() -> None:
    spec = load_dataset("INF", base_train_seconds=180, base_test_seconds=150, seed=7)
    pipeline = FeaturePipeline(
        action_dim=60, motion_channels=spec.profile.motion_channels, seed=7
    )
    train = pipeline.extract(spec.train)
    live = pipeline.extract(spec.test)

    # ------------------------------------------------------------------ #
    # 1-2. Single tenant: serve, ingest over the wire, long-poll results.
    # ------------------------------------------------------------------ #
    runtime = build_runtime(train)
    with runtime.serve() as server:
        print(f"Serving version {runtime.model_version} at {server.url}")

        batch = wire_segments(live, 0, 40, "cam-0")
        status, body, _ = call("POST", f"{server.url}/v1/ingest", {"segments": batch})
        print(f"POST /v1/ingest: {status} accepted={body['accepted']}")

        # The batcher feeds the runtime on its own; a long poll returns as
        # soon as scored detections exist for the stream.
        status, body, _ = call(
            "GET", f"{server.url}/v1/detections?stream=cam-0&start=0&wait_ms=5000"
        )
        flagged = sum(d["is_anomaly"] for d in body["detections"])
        print(
            f"GET /v1/detections: {body['next']} detections "
            f"({flagged} anomalous), first at segment "
            f"{body['detections'][0]['segment_index']}"
        )

        # Validation happens at the door: non-finite features are a 400,
        # never a NaN inside the drift monitor.
        poisoned = dict(batch[0], action=[float("nan")] * live.action_dim)
        status, body, _ = call(
            "POST", f"{server.url}/v1/ingest", {"segments": [poisoned]}
        )
        print(f"POST with NaN features: {status} ({body['error']})")

        status, body, _ = call("GET", f"{server.url}/stats")
        shard_lines = ", ".join(
            f"shard {s['shard_index']}: {s['segments_scored']} segments"
            for s in body["tenants"]["default"]["shards"]
        )
        print(f"GET /stats: {shard_lines} — matches runtime.load_stats()\n")
    runtime.close()

    # ------------------------------------------------------------------ #
    # 3. Admission control: a tiny queue refuses overload, keeps the rest.
    # ------------------------------------------------------------------ #
    runtime = build_runtime(train)
    server = RuntimeServer(
        runtime, config=ServerConfig(max_pending=32, retry_after_seconds=1.0)
    )

    def admit(start, stop):
        # Not started yet, so nothing drains the queue between requests:
        # handle_ingest is the call the HTTP handler makes for each POST.
        body = json.dumps({"segments": wire_segments(live, start, stop, "burst")})
        return server.handle_ingest(body.encode("utf-8"))

    status, _, _ = admit(0, 30)
    print(f"Burst of 30 into a 32-segment queue: {status}")
    status, _, headers = admit(30, 40)
    print(
        f"Burst of 10 more: {status} (Retry-After: {dict(headers)['Retry-After']}s) — "
        "refused whole, nothing half-enqueued"
    )
    try:
        admit(30, 70)
    except WireError as error:
        print(f"Burst of 40, more than the queue holds: {error.status} ({error.message})")
    server.start()
    server.drain()
    stats = server.admission.stats()
    print(
        f"Accepted {stats['accepted']}, rejected {stats['rejected']}; every "
        f"accepted segment was scored: {runtime.stats.segments_scored} "
        f"(= 30 - warmup {SEQUENCE_LENGTH})\n"
    )
    server.close()
    runtime.close()

    # ------------------------------------------------------------------ #
    # 4. Two tenants behind one listener, fully isolated.
    # ------------------------------------------------------------------ #
    # Tenant a gets a hair trigger so wire traffic drives its update loop;
    # tenant b would need the same drift evidence of its own to move.
    tenant_a = build_runtime(train, drift_threshold=0.99999)
    tenant_b = build_runtime(train)
    router = TenantRouter({"a": tenant_a, "b": tenant_b})
    with RuntimeServer(router, config=ServerConfig(poll_interval_ms=10.0)) as server:
        drifted = live.action.copy()
        drifted = np.roll(drifted, drifted.shape[1] // 4, axis=1)
        segments = [
            dict(segment, stream="a/cam-0", action=drifted[index].tolist())
            for index, segment in enumerate(
                wire_segments(live, 0, live.num_segments, "a/cam-0")
            )
        ]
        for start in range(0, len(segments), 64):
            call(
                "POST",
                f"{server.url}/v1/ingest",
                {"segments": segments[start : start + 64]},
            )
        call("POST", f"{server.url}/v1/drain")
        status, health, _ = call("GET", f"{server.url}/healthz")
        print(
            f"Tenant a drifted over the wire: versions {health['tenants']} — "
            "a's publishes never touch b"
        )
    tenant_a.close()
    tenant_b.close()


if __name__ == "__main__":
    main()
