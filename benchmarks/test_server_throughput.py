"""HTTP ingest tier throughput — loopback wire requests per second.

PR 6's server promises that the network front adds bounded overhead on top
of the library runtime: JSON parsing, admission and the batcher hand-off sit
between the socket and ``Runtime.ingest_many``, and all of them are O(batch).
This gate drives a loopback client over one keep-alive connection — POSTing
pre-serialised multi-segment ingest requests as fast as the server will take
them, then draining — and requires a floor on sustained wire requests/second
(and implicitly segments/second: every request carries a fixed batch).

The floor is pinned from the seed machine's measurement (~880 requests/s at
8 segments per request, single connection, serial executor) divided by ~3,
so it trips on a real regression — an accidentally quadratic parse, a lock
held across scoring, a lost keep-alive, a reintroduced Nagle/delayed-ACK
stall (the unbuffered-writer bug this gate was born from ran at 23
requests/s) — not on CI scheduling noise.
"""

from __future__ import annotations

import http.client
import json
import time

import numpy as np

import common
from repro import Runtime, RuntimeConfig, StreamFeatures
from repro.utils.config import (
    ExecutorConfig,
    ModelConfig,
    ServerConfig,
    ServingConfig,
    TrainingConfig,
)

SEQUENCE_LENGTH = 7
STREAMS = 8
SEGMENTS_PER_REQUEST = 8
REQUESTS = 240
WARMUP_REQUESTS = 20
TRAIN_SEGMENTS = 240
REQUIRED_RPS = 300.0

MODEL = ModelConfig(
    action_dim=64, interaction_dim=16, action_hidden=32, interaction_hidden=16
)


def _features(name: str, segments: int, seed: int) -> StreamFeatures:
    rng = np.random.default_rng(seed)
    action = rng.random((segments, MODEL.action_dim)) + 1e-3
    action /= action.sum(axis=1, keepdims=True)
    return StreamFeatures(
        name=name,
        action=action,
        interaction=rng.random((segments, MODEL.interaction_dim)),
        labels=np.zeros(segments, dtype=np.int64),
        normalised_interaction=rng.random(segments),
    )


def _runtime() -> Runtime:
    config = RuntimeConfig(
        model=MODEL,
        training=TrainingConfig(epochs=2, batch_size=32, checkpoint_every=1, seed=7),
        serving=ServingConfig(num_shards=2, max_batch_size=64),
        executor=ExecutorConfig(mode="serial"),
        sequence_length=SEQUENCE_LENGTH,
        # Updates off: the gate measures the wire + admission + batcher path,
        # not retrain time.
        enable_updates=False,
        server=ServerConfig(poll_interval_ms=5.0, batch_max=512, max_pending=8192),
    )
    return Runtime.from_config(config).fit(_features("train", TRAIN_SEGMENTS, seed=7))


def _bodies(total_requests: int) -> list:
    """Pre-serialised ingest bodies: fixed work per request, client cost out
    of the measured loop as far as possible."""
    rng = np.random.default_rng(11)
    bodies = []
    for index in range(total_requests):
        segments = []
        for position in range(SEGMENTS_PER_REQUEST):
            action = rng.random(MODEL.action_dim) + 1e-3
            action /= action.sum()
            segments.append(
                {
                    "stream": f"cam-{(index * SEGMENTS_PER_REQUEST + position) % STREAMS}",
                    "action": action.tolist(),
                    "interaction": rng.random(MODEL.interaction_dim).tolist(),
                    "level": float(rng.random()),
                }
            )
        bodies.append(json.dumps({"segments": segments}).encode("utf-8"))
    return bodies


def _post_loop(connection: http.client.HTTPConnection, bodies: list) -> None:
    headers = {"Content-Type": "application/json"}
    for body in bodies:
        connection.request("POST", "/v1/ingest", body=body, headers=headers)
        response = connection.getresponse()
        payload = response.read()
        if response.status != 202:
            raise AssertionError(
                f"ingest returned {response.status}: {payload.decode('utf-8')}"
            )


def run_experiment():
    runtime = _runtime()
    bodies = _bodies(WARMUP_REQUESTS + REQUESTS)
    with runtime.serve() as server:
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            _post_loop(connection, bodies[:WARMUP_REQUESTS])  # warm caches/JIT-free path
            started = time.perf_counter()
            _post_loop(connection, bodies[WARMUP_REQUESTS:])
            post_seconds = time.perf_counter() - started
            server.drain()
            drained_seconds = time.perf_counter() - started
        finally:
            connection.close()
    total_requests = REQUESTS
    total_segments = (WARMUP_REQUESTS + REQUESTS) * SEGMENTS_PER_REQUEST
    scored = runtime.stats.segments_scored
    runtime.close()

    rps = total_requests / post_seconds
    segments_per_second = total_requests * SEGMENTS_PER_REQUEST / drained_seconds
    common.table(
        "server_throughput",
        ["metric", "value"],
        [
            ["wire requests/s (POST loop)", f"{rps:.0f}"],
            ["segments/s (incl. final drain)", f"{segments_per_second:.0f}"],
            ["POST wall s", f"{post_seconds:.2f}"],
            ["segments scored", f"{scored}"],
        ],
        title=(
            f"HTTP ingest throughput — {total_requests} requests x "
            f"{SEGMENTS_PER_REQUEST} segments, {STREAMS} streams, one keep-alive "
            "connection"
        ),
    )
    return {
        "rps": rps,
        "segments_per_second": segments_per_second,
        "scored": scored,
        "expected_scored": total_segments - STREAMS * SEQUENCE_LENGTH,
    }


def test_server_loopback_throughput(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # Accepted work is never dropped: every admitted segment was scored.
    assert results["scored"] == results["expected_scored"]
    assert results["rps"] >= REQUIRED_RPS, (
        f"loopback ingest sustained only {results['rps']:.0f} requests/s "
        f"(required: {REQUIRED_RPS:.0f})"
    )
