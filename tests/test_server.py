"""Tests for the HTTP ingest tier (repro.server).

Covers the acceptance contract of the server: loopback ingest through the
admission queue and batcher thread produces detections bitwise-identical to
driving :class:`~repro.runtime.Runtime` directly; a flooded bounded queue
answers 429 without dropping any accepted work; tenants are isolated; and
``/stats`` reports exactly what the library's ``load_stats()`` reports.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

from repro import Runtime, RuntimeConfig
from repro.server import (
    AdmissionController,
    RuntimeServer,
    TenantRouter,
    WireError,
    detection_to_json,
    parse_ingest,
)
from repro.utils.config import (
    ExecutorConfig,
    ModelConfig,
    ServerConfig,
    ServingConfig,
    TrainingConfig,
    UpdateConfig,
)

SEQUENCE_LENGTH = 5


@pytest.fixture(scope="module")
def server_runtime_config(tiny_features) -> RuntimeConfig:
    """A small deployment description with the HTTP tier configured."""
    return RuntimeConfig(
        model=ModelConfig(
            action_dim=tiny_features.action_dim,
            interaction_dim=tiny_features.interaction_dim,
            action_hidden=12,
            interaction_hidden=6,
        ),
        training=TrainingConfig(epochs=2, batch_size=16, checkpoint_every=1, seed=0),
        serving=ServingConfig(max_batch_size=8, num_shards=2),
        update=UpdateConfig(buffer_size=30, drift_threshold=0.9999, update_epochs=2),
        executor=ExecutorConfig(mode="serial"),
        sequence_length=SEQUENCE_LENGTH,
        server=ServerConfig(poll_interval_ms=5.0),
    )


def make_wire_streams(config, *, streams=3, segments=25, seed=17, prefix=""):
    """Random per-stream ``(action, interaction, levels)`` arrays."""
    model = config.model
    rng = np.random.default_rng(seed)
    out = {}
    for index in range(streams):
        action = rng.random((segments, model.action_dim)) + 1e-3
        action /= action.sum(axis=1, keepdims=True)
        out[f"{prefix}cam-{index}"] = (
            action,
            rng.random((segments, model.interaction_dim)),
            rng.random(segments),
        )
    return out


def round_robin(streams):
    """Deterministic submission order — the order a replay driver uses."""
    longest = max(action.shape[0] for action, _, _ in streams.values())
    for position in range(longest):
        for name, (action, interaction, levels) in streams.items():
            if position < action.shape[0]:
                yield name, action[position], interaction[position], float(levels[position])


def wire_segment(name, action, interaction, level):
    return {
        "stream": name,
        "action": action.tolist(),
        "interaction": interaction.tolist(),
        "level": level,
    }


def http_json(method, url, payload=None, *, raw=None):
    """One HTTP exchange; returns ``(status, json_body, headers)``."""
    if raw is not None:
        data = raw
    elif payload is not None:
        data = json.dumps(payload).encode("utf-8")
    else:
        data = None
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8")), dict(
                response.headers
            )
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read().decode("utf-8")), dict(
                error.headers
            )


# ---------------------------------------------------------------------- #
# Wire protocol (no sockets)
# ---------------------------------------------------------------------- #
class TestWireProtocol:
    def test_parse_round_trips_floats_bitwise(self):
        action = [0.1 + 0.2, 1.0 / 3.0, 1e-17, 123456.789012345]
        interaction = [np.nextafter(0.5, 1.0), 2.0 / 7.0]
        body = json.dumps(
            {
                "segments": [
                    {
                        "stream": "cam",
                        "action": action,
                        "interaction": interaction,
                        "level": 0.1 + 0.2,
                    }
                ]
            }
        ).encode("utf-8")
        ((stream, parsed_action, parsed_interaction, level),) = parse_ingest(body)
        assert stream == "cam"
        assert parsed_action.dtype == np.float64
        assert parsed_action.tolist() == action  # exact: repr round-trip is lossless
        assert parsed_interaction.tolist() == interaction
        assert level == 0.1 + 0.2

    @pytest.mark.parametrize(
        "body, match",
        [
            (b"not json", "not valid JSON"),
            (b"[1, 2]", "segments"),
            (b'{"segments": []}', "must not be empty"),
            (b'{"segments": [42]}', "must be an object"),
            (b'{"segments": [{"action": [1.0], "interaction": [1.0]}]}', "stream"),
            (
                b'{"segments": [{"stream": "s", "action": "xs", "interaction": [1.0]}]}',
                "action",
            ),
            (
                b'{"segments": [{"stream": "s", "action": [], "interaction": [1.0]}]}',
                "non-empty",
            ),
            (
                b'{"segments": [{"stream": "s", "action": [[1.0]], "interaction": [1.0]}]}',
                "flat",
            ),
            (
                b'{"segments": [{"stream": "s", "action": ["x"], "interaction": [1.0]}]}',
                "only numbers",
            ),
        ],
    )
    def test_rejects_malformed_requests(self, body, match):
        with pytest.raises(WireError, match=match) as excinfo:
            parse_ingest(body)
        assert excinfo.value.status == 400

    def test_rejects_non_finite_features(self):
        # Python's json module happily emits and accepts NaN/Infinity
        # literals, so the wire *can* deliver them — the parser must not.
        for poisoned in (float("nan"), float("inf"), float("-inf")):
            body = json.dumps(
                {
                    "segments": [
                        {"stream": "s", "action": [0.5, poisoned], "interaction": [1.0]}
                    ]
                }
            ).encode("utf-8")
            with pytest.raises(WireError, match="non-finite") as excinfo:
                parse_ingest(body)
            assert excinfo.value.status == 400

    def test_level_must_be_finite_number_or_null(self):
        def body(level):
            return json.dumps(
                {
                    "segments": [
                        {
                            "stream": "s",
                            "action": [1.0],
                            "interaction": [1.0],
                            "level": level,
                        }
                    ]
                }
            ).encode("utf-8")

        ((_, _, _, level),) = parse_ingest(body(None))
        assert level is None  # explicit unknown
        ((_, _, _, level),) = parse_ingest(body(1))
        assert level == 1.0  # ints coerce
        with pytest.raises(WireError, match="number or null"):
            parse_ingest(body(True))
        with pytest.raises(WireError, match="use null"):
            parse_ingest(body(float("nan")))

    def test_max_items_maps_to_413(self):
        body = json.dumps(
            {
                "segments": [
                    {"stream": "s", "action": [1.0], "interaction": [1.0]}
                    for _ in range(3)
                ]
            }
        ).encode("utf-8")
        with pytest.raises(WireError) as excinfo:
            parse_ingest(body, max_items=2)
        assert excinfo.value.status == 413


# ---------------------------------------------------------------------- #
# Admission control (no sockets)
# ---------------------------------------------------------------------- #
class TestAdmissionController:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_pending"):
            AdmissionController(0, 1.0)
        with pytest.raises(ValueError, match="retry_after"):
            AdmissionController(4, 0.0)

    @pytest.mark.parametrize("hint", [0, 0.0, -1.0])
    def test_config_refuses_what_the_controller_refuses(self, hint):
        # A hint the controller rejects must fail when the deployment is
        # described, not when its listener starts.
        with pytest.raises(ValueError, match=r"ServerConfig\.retry_after_seconds"):
            ServerConfig(retry_after_seconds=hint)
        with pytest.raises(ValueError, match=r"ServerConfig\.retry_after_seconds"):
            RuntimeConfig.from_dict({"server": {"retry_after_seconds": hint}})
        accepted = ServerConfig(retry_after_seconds=0.25)
        assert (
            AdmissionController(accepted.max_pending, accepted.retry_after_seconds)
            .stats()["retry_after_seconds"]
            == 0.25
        )

    def test_offer_is_all_or_nothing(self):
        admission = AdmissionController(4, 0.5)
        accepted, depth = admission.offer(["a", "b", "c"])
        assert accepted and depth == 3
        # 2 more would fit partially (one slot free) — refused whole.
        accepted, depth = admission.offer(["d", "e"])
        assert not accepted and depth == 3
        assert admission.depth() == 3  # nothing partially enqueued
        accepted, depth = admission.offer(["d"])
        assert accepted and depth == 4
        stats = admission.stats()
        assert stats["accepted"] == 4
        assert stats["rejected"] == 2
        assert stats["high_watermark"] == 4
        assert admission.take(3) == ["a", "b", "c"]  # FIFO
        assert admission.take(3) == ["d"]
        assert admission.take(3) == []

    def test_close_refuses_offers_but_keeps_queue(self):
        admission = AdmissionController(8, 0.5)
        assert admission.offer(["a", "b"])[0]
        admission.close()
        accepted, _ = admission.offer(["c"])
        assert not accepted
        # Accepted work survives closure for the shutdown flush.
        assert admission.take(8) == ["a", "b"]
        assert admission.wait(0.0)  # closed: the batcher must wake


# ---------------------------------------------------------------------- #
# Tenancy (no sockets)
# ---------------------------------------------------------------------- #
class TestTenantRouter:
    def test_prefix_resolution_and_default(self):
        alpha, beta = object(), object()
        router = TenantRouter({"alpha": alpha, "beta": beta}, default="alpha")
        assert router.resolve("alpha/cam-1") is alpha
        assert router.resolve("beta/cam-1") is beta
        assert router.resolve("no-prefix") is alpha  # default fallback
        assert router.resolve("gamma/cam-1") is alpha  # unknown prefix falls back
        assert router.tenant_names() == ["alpha", "beta"]

    def test_unknown_prefix_is_404_without_default(self):
        router = TenantRouter({"alpha": object()})
        with pytest.raises(WireError) as excinfo:
            router.resolve("gamma/cam-1")
        assert excinfo.value.status == 404

    def test_registration_validation(self):
        with pytest.raises(ValueError, match="empty"):
            TenantRouter({})
        with pytest.raises(ValueError, match="default"):
            TenantRouter({"alpha": object()}, default="beta")
        with pytest.raises(ValueError, match="separator"):
            TenantRouter({"alpha": object()}, separator="")
        router = TenantRouter({"alpha": object()})
        with pytest.raises(ValueError, match="must not contain"):
            router.register("bad/name", object())
        with pytest.raises(ValueError, match="already registered"):
            router.register("alpha", object())


# ---------------------------------------------------------------------- #
# Loopback end-to-end
# ---------------------------------------------------------------------- #
class TestRuntimeServe:
    def test_serve_lifecycle(self, server_runtime_config, tiny_features):
        runtime = Runtime.from_config(server_runtime_config)
        with pytest.raises(RuntimeError, match="fit"):
            runtime.serve()
        runtime.fit(tiny_features)
        server = runtime.serve(start=False)
        with pytest.raises(RuntimeError, match="already serving"):
            runtime.serve()
        with pytest.raises(RuntimeError, match="not started"):
            server.url
        with server:  # context entry starts it
            status, payload, _ = http_json("GET", f"{server.url}/healthz")
            assert status == 200
            assert payload == {"status": "ok", "tenants": {"default": 1}}
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
            url = server.url
        server.close()  # idempotent
        with pytest.raises(urllib.error.URLError):
            http_json("GET", f"{url}/healthz")
        runtime.close()

    def test_start_refuses_unfitted_tenant(self, server_runtime_config, tiny_features):
        fitted = Runtime.from_config(server_runtime_config).fit(tiny_features)
        unfitted = Runtime.from_config(server_runtime_config)
        router = TenantRouter({"a": fitted, "b": unfitted})
        server = RuntimeServer(router, config=ServerConfig())
        with pytest.raises(RuntimeError, match="'b'.*not fitted"):
            server.start()
        fitted.close()
        unfitted.close()


class TestServerEndpoints:
    @pytest.fixture(scope="class")
    def served(self, server_runtime_config, tiny_features):
        config = replace(
            server_runtime_config,
            server=ServerConfig(poll_interval_ms=5.0, request_max_bytes=4096),
        )
        runtime = Runtime.from_config(config).fit(tiny_features)
        server = runtime.serve()
        yield runtime, server
        runtime.close()

    def test_unknown_routes_are_404(self, served):
        _, server = served
        status, payload, _ = http_json("GET", f"{server.url}/v2/ingest")
        assert status == 404 and "no such route" in payload["error"]
        status, payload, _ = http_json("POST", f"{server.url}/nope", payload={})
        assert status == 404

    def test_detections_query_validation(self, served):
        _, server = served
        status, payload, _ = http_json("GET", f"{server.url}/v1/detections")
        assert status == 400 and "stream" in payload["error"]
        status, _, _ = http_json(
            "GET", f"{server.url}/v1/detections?stream=cam&start=-1"
        )
        assert status == 400
        status, _, _ = http_json(
            "GET", f"{server.url}/v1/detections?stream=cam&start=zero"
        )
        assert status == 400

    def test_oversized_body_is_413(self, served):
        _, server = served
        raw = b'{"segments": [' + b" " * 5000 + b"]}"
        status, payload, _ = http_json("POST", f"{server.url}/v1/ingest", raw=raw)
        assert status == 413 and "exceeds" in payload["error"]

    def test_wrong_dimensions_rejected_before_admission(self, served):
        runtime, server = served
        segment = {"stream": "cam", "action": [0.5, 0.5], "interaction": [0.1]}
        status, payload, _ = http_json(
            "POST", f"{server.url}/v1/ingest", payload={"segments": [segment]}
        )
        assert status == 400
        assert "expects" in payload["error"] and "'cam'" in payload["error"]
        assert server.admission.stats()["accepted"] == 0
        assert runtime.stats.segments_scored == 0

    def test_non_finite_level_is_400_at_the_door(self, served, server_runtime_config):
        runtime, server = served
        streams = make_wire_streams(server_runtime_config, streams=1, segments=1)
        ((name, action, interaction, _),) = list(round_robin(streams))
        segment = wire_segment(name, action, interaction, float("nan"))
        status, payload, _ = http_json(
            "POST", f"{server.url}/v1/ingest", payload={"segments": [segment]}
        )
        assert status == 400 and "null" in payload["error"]
        assert runtime.stats.segments_scored == 0


class TestServerIngest:
    def test_ingest_scores_and_long_polls_without_explicit_drain(
        self, server_runtime_config, tiny_features
    ):
        runtime = Runtime.from_config(server_runtime_config).fit(tiny_features)
        streams = make_wire_streams(server_runtime_config, streams=1, segments=20)
        segments = [wire_segment(*item) for item in round_robin(streams)]
        (name,) = streams.keys()
        with runtime.serve() as server:
            status, payload, _ = http_json(
                "POST", f"{server.url}/v1/ingest", payload={"segments": segments}
            )
            assert status == 202
            assert payload["accepted"] == 20
            # The batcher feeds ingest_many on its own: one stream's 15
            # post-warmup requests overfill a max_batch_size=8 shard, so a
            # long poll returns scored detections with no drain call.
            status, payload, _ = http_json(
                "GET",
                f"{server.url}/v1/detections?stream={name}&start=0&wait_ms=5000",
            )
            assert status == 200
            assert payload["next"] >= 8
            first = payload["detections"][0]
            assert first["stream"] == name
            assert first["segment_index"] == SEQUENCE_LENGTH
            status, payload, _ = http_json("POST", f"{server.url}/v1/drain")
            assert status == 200
            status, payload, _ = http_json(
                "GET", f"{server.url}/v1/detections?stream={name}&start=0"
            )
            assert payload["next"] == 20 - SEQUENCE_LENGTH
        runtime.close()

    def test_reads_of_unknown_streams_allocate_nothing(
        self, server_runtime_config, tiny_features
    ):
        runtime = Runtime.from_config(server_runtime_config).fit(tiny_features)

        def footprint():
            state = runtime.service.export_state()
            return state["routes"], [sorted(shard["sessions"]) for shard in state["shards"]]

        with runtime.serve() as server:
            for k in range(5):
                assert runtime.detections(f"ghost-{k}") == []
                assert runtime.detections(f"ghost-{k}", 3) == []
                status, payload, _ = http_json(
                    "GET", f"{server.url}/v1/detections?stream=phantom-{k}&start=2"
                )
                assert status == 200
                assert payload["detections"] == [] and payload["next"] == 2
            # No route pinned, no session created, nothing for a checkpoint.
            assert footprint() == ({}, [[], []])
        runtime.close()

    def test_long_poll_opened_before_first_segment_wakes_on_first_detection(
        self, server_runtime_config, tiny_features
    ):
        runtime = Runtime.from_config(server_runtime_config).fit(tiny_features)
        streams = make_wire_streams(server_runtime_config, streams=1, segments=20)
        segments = [wire_segment(*item) for item in round_robin(streams)]
        (name,) = streams.keys()
        answer = {}
        with runtime.serve() as server:

            def long_poll():
                answer["reply"] = http_json(
                    "GET", f"{server.url}/v1/detections?stream={name}&start=0&wait_ms=20000"
                )

            poller = threading.Thread(target=long_poll, daemon=True)
            poller.start()
            time.sleep(0.3)  # the poll is parked on a stream nobody has ingested yet
            assert poller.is_alive() and runtime.service.export_state()["routes"] == {}
            status, _, _ = http_json(
                "POST", f"{server.url}/v1/ingest", payload={"segments": segments}
            )
            assert status == 202
            poller.join(timeout=15)
            assert not poller.is_alive()
            status, payload, _ = answer["reply"]
            assert status == 200 and payload["next"] >= 1
            assert payload["detections"][0]["segment_index"] == SEQUENCE_LENGTH
            # A tail read returns the rows from `start` on, nothing before.
            http_json("POST", f"{server.url}/v1/drain")
            everything = runtime.detections(name)
            assert len(everything) == 20 - SEQUENCE_LENGTH
            assert runtime.detections(name, 4) == everything[4:]
            assert runtime.detections(name, len(everything)) == []
        runtime.close()

    def test_http_ingest_is_bitwise_identical_to_library_calls(
        self, server_runtime_config, tiny_features
    ):
        """The acceptance contract: HTTP ingest → admission → batched
        ingest_many produces detections bitwise-equal to direct Runtime
        calls with the same submissions."""
        streams = make_wire_streams(server_runtime_config, streams=3, segments=25)
        submissions = list(round_robin(streams))

        over_http = Runtime.from_config(server_runtime_config).fit(tiny_features)
        direct = Runtime.from_config(server_runtime_config).fit(tiny_features)

        # One POST → one atomic admission → (batch_max ≥ n) one take →
        # one ingest_many call, exactly like the direct path.
        segments = [wire_segment(*item) for item in submissions]
        with over_http.serve() as server:
            status, payload, _ = http_json(
                "POST", f"{server.url}/v1/ingest", payload={"segments": segments}
            )
            assert status == 202 and payload["accepted"] == len(segments)
            status, _, _ = http_json("POST", f"{server.url}/v1/drain")
            assert status == 200
            wire_rows = {}
            for name in streams:
                _, body, _ = http_json(
                    "GET", f"{server.url}/v1/detections?stream={name}&start=0"
                )
                wire_rows[name] = body["detections"]

        direct.ingest_many(submissions)
        direct.drain()

        produced = sum(len(rows) for rows in wire_rows.values())
        assert produced == len(submissions) - 3 * SEQUENCE_LENGTH
        for name in streams:
            reference = [detection_to_json(d) for d in direct.detections(name)]
            # Dict equality is exact — scores, errors, thresholds, versions
            # all compare bitwise (json floats round-trip via repr).
            assert wire_rows[name] == reference
        assert over_http.model_version == direct.model_version
        assert len(over_http.update_reports) == len(direct.update_reports)
        over_http.close()
        direct.close()

    def test_flood_returns_429_without_dropping_accepted_work(
        self, server_runtime_config, tiny_features
    ):
        runtime = Runtime.from_config(server_runtime_config).fit(tiny_features)
        streams = make_wire_streams(server_runtime_config, streams=1, segments=18)
        segments = [wire_segment(*item) for item in round_robin(streams)]

        # Not started yet: nothing drains the queue, so admission decisions
        # are deterministic.
        server = RuntimeServer(
            runtime,
            config=ServerConfig(
                max_pending=16, batch_max=8, retry_after_seconds=2.0, poll_interval_ms=5.0
            ),
        )
        status, payload, _ = server.handle_ingest(
            json.dumps({"segments": segments[:10]}).encode("utf-8")
        )
        assert status == 202 and payload["accepted"] == 10

        status, payload, headers = server.handle_ingest(
            json.dumps({"segments": segments[10:]}).encode("utf-8")
        )
        assert status == 429
        assert payload["queue_depth"] == 10
        assert payload["retry_after"] == 2.0
        assert ("Retry-After", "2") in headers

        stats = server.admission.stats()
        assert stats["accepted"] == 10 and stats["rejected"] == 8

        # The refused request never half-enqueued; the accepted one is
        # scored in full once the server runs.
        server.start()
        counts = server.drain()
        assert counts == {"default": 10 - SEQUENCE_LENGTH}
        assert runtime.stats.segments_scored == 10 - SEQUENCE_LENGTH
        server.close()

        # Over the socket: a single POST larger than the bound is refused
        # deterministically however fast the batcher drains.
        with RuntimeServer(
            runtime, config=ServerConfig(max_pending=4, retry_after_seconds=1.0)
        ) as flooded:
            status, payload, headers = http_json(
                "POST",
                f"{flooded.url}/v1/ingest",
                payload={"segments": segments[:5]},
            )
            assert status == 429
            assert headers["Retry-After"] == "1"
            assert "ingest queue is full" in payload["error"]
        runtime.close()

    def test_tenants_are_isolated(self, server_runtime_config, tiny_features):
        """Drift-triggered publishes of one tenant never move another
        tenant's model_version (separate registries and update planes)."""
        tenant_a = Runtime.from_config(server_runtime_config).fit(tiny_features)
        tenant_b = Runtime.from_config(server_runtime_config).fit(tiny_features)
        router = TenantRouter({"a": tenant_a, "b": tenant_b})
        streams = make_wire_streams(
            server_runtime_config, streams=1, segments=80, prefix="a/"
        )
        with RuntimeServer(router, config=ServerConfig(poll_interval_ms=5.0)) as server:
            items = list(round_robin(streams))
            for start in range(0, len(items), 20):
                segments = [wire_segment(*item) for item in items[start : start + 20]]
                status, _, _ = http_json(
                    "POST", f"{server.url}/v1/ingest", payload={"segments": segments}
                )
                assert status == 202
            http_json("POST", f"{server.url}/v1/drain")

            status, health, _ = http_json("GET", f"{server.url}/healthz")
            assert health["tenants"]["a"] > 1, "tenant a's drift never published"
            assert health["tenants"]["b"] == 1

            # Unknown tenants are addressing errors, not new namespaces.
            status, _, _ = http_json(
                "GET", f"{server.url}/v1/detections?stream=c/cam-0"
            )
            assert status == 404
        assert tenant_a.model_version > 1
        assert tenant_a.update_reports
        assert tenant_b.model_version == 1
        assert not tenant_b.update_reports
        assert tenant_b.stats.segments_scored == 0
        tenant_a.close()
        tenant_b.close()

    def test_stats_endpoint_matches_load_stats(
        self, server_runtime_config, tiny_features
    ):
        runtime = Runtime.from_config(server_runtime_config).fit(tiny_features)
        streams = make_wire_streams(server_runtime_config, streams=2, segments=20)
        segments = [wire_segment(*item) for item in round_robin(streams)]
        with runtime.serve() as server:
            http_json("POST", f"{server.url}/v1/ingest", payload={"segments": segments})
            http_json("POST", f"{server.url}/v1/drain")
            status, stats, _ = http_json("GET", f"{server.url}/stats")
            assert status == 200

            assert stats["admission"] == server.admission.stats()
            tenant = stats["tenants"]["default"]
            assert tenant["model_version"] == runtime.model_version
            assert tenant["update_triggers"] == len(runtime.update_triggers)
            assert tenant["update_reports"] == len(runtime.update_reports)
            assert tenant["pending_updates"] == 0
            assert tenant["segments_scored"] == runtime.stats.segments_scored
            assert tenant["segments_scored"] == len(segments) - 2 * SEQUENCE_LENGTH
            assert tenant["batches"] == runtime.stats.batches

            local = runtime.load_stats()
            assert len(tenant["shards"]) == len(local) == 2
            for wire_shard, shard in zip(tenant["shards"], local):
                # Field for field, bitwise: /stats is load_stats() over HTTP.
                assert wire_shard == {
                    "shard_index": shard.shard_index,
                    "streams": shard.streams,
                    "queue_depth": shard.queue_depth,
                    "segments_scored": shard.segments_scored,
                    "batches": shard.batches,
                    "scoring_seconds": shard.scoring_seconds,
                    "max_batch_size": shard.max_batch_size,
                    "mean_batch_size": shard.mean_batch_size,
                    "batch_occupancy": shard.batch_occupancy,
                    "mean_batch_latency_ms": shard.mean_batch_latency_ms,
                    "latency_p50_ms": shard.latency_p50_ms,
                    "latency_p95_ms": shard.latency_p95_ms,
                    "latency_p99_ms": shard.latency_p99_ms,
                    "forward_seconds": shard.forward_seconds,
                    "score_seconds": shard.score_seconds,
                    "update_seconds": shard.update_seconds,
                    "mean_forward_ms": shard.mean_forward_ms,
                    "mean_score_ms": shard.mean_score_ms,
                    "throughput": shard.throughput,
                }
            assert tenant["executor"] == runtime.executor_stats()
            assert tenant["rebalance"] == runtime.rebalance_stats()
            assert tenant["rebalance"]["enabled"] is False
        runtime.close()


# ---------------------------------------------------------------------- #
# Prometheus scrape endpoint
# ---------------------------------------------------------------------- #
class TestMetricsEndpoint:
    def scrape(self, server):
        """GET /metrics raw (it is text, not JSON like the other routes)."""
        request = urllib.request.Request(f"{server.url}/metrics")
        with urllib.request.urlopen(request, timeout=30) as response:
            return (
                response.status,
                response.read().decode("utf-8"),
                dict(response.headers),
            )

    def test_metrics_parse_and_agree_with_library_counters(
        self, server_runtime_config, tiny_features
    ):
        from test_durability import parse_exposition

        from repro.durability.metrics import CONTENT_TYPE

        runtime = Runtime.from_config(server_runtime_config).fit(tiny_features)
        streams = make_wire_streams(server_runtime_config, streams=2, segments=20)
        segments = [wire_segment(*item) for item in round_robin(streams)]
        with runtime.serve() as server:
            http_json("POST", f"{server.url}/v1/ingest", payload={"segments": segments})
            http_json("POST", f"{server.url}/v1/drain")
            status, body, headers = self.scrape(server)
            assert status == 200
            assert headers["Content-Type"] == CONTENT_TYPE

            # The body must be structurally valid exposition format 0.0.4
            # (parse_exposition asserts the format rules) and the numbers
            # must agree with the library API the server wraps.
            families = parse_exposition(body)
            admission = server.admission.stats()
            tenant = {"tenant": "default"}

            def sample(name, labels):
                for sample_labels, value in families[f"repro_{name}"]["samples"]:
                    if sample_labels == labels:
                        return value
                raise AssertionError(f"no sample repro_{name}{labels}")

            assert sample("admission_accepted_total", {}) == admission["accepted"]
            assert sample("admission_rejected_total", {}) == admission["rejected"]
            assert sample("model_version", tenant) == runtime.model_version
            assert (
                sample("segments_scored_total", tenant)
                == runtime.stats.segments_scored
            )
            assert sample("batches_total", tenant) == runtime.stats.batches
            for shard in runtime.load_stats():
                labels = {"tenant": "default", "shard": str(shard.shard_index)}
                assert (
                    sample("shard_segments_scored_total", labels)
                    == shard.segments_scored
                )
                assert sample("shard_batches_total", labels) == shard.batches
            # Counter families are typed as counters.
            assert families["repro_segments_scored_total"]["type"] == "counter"
            assert families["repro_admission_accepted_total"]["type"] == "counter"
            # Durability is off for this runtime, and says so.
            assert sample("durability_enabled", tenant) == 0
        runtime.close()

    def test_stats_endpoint_reports_durability(
        self, server_runtime_config, tiny_features
    ):
        runtime = Runtime.from_config(server_runtime_config).fit(tiny_features)
        with runtime.serve() as server:
            status, stats, _ = http_json("GET", f"{server.url}/stats")
            assert status == 200
            assert stats["tenants"]["default"]["durability"] == {"enabled": False}
        runtime.close()
