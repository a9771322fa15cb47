"""Tests for the HTTP ingest tier (repro.server).

Covers the acceptance contract of the server: loopback ingest through the
admission queue and batcher thread produces detections bitwise-identical to
driving :class:`~repro.runtime.Runtime` directly; a flooded bounded queue
answers 429 without dropping any accepted work; tenants are isolated;
``/stats`` reports exactly what the library's ``load_stats()`` reports; and
an idle batcher scores half a batch instead of waiting for the fill.
"""

from __future__ import annotations

import http.client
import json
import math
import shutil
import socket
import subprocess
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

import repro.server.wire as wire
import repro.serving.service as service
from repro import Runtime, RuntimeConfig
from repro.server import (
    AdmissionController,
    RuntimeServer,
    TenantRouter,
    WireError,
    detection_to_json,
    parse_ingest,
)
from repro.serving import ManualClock
from repro.serving.service import Tick
from repro.utils.config import (
    DurabilityConfig,
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

    def test_a_valid_body_is_one_tick_without_per_vector_checks(self, monkeypatch):
        def per_vector(*args):
            raise AssertionError("an accepted body ran the per-vector checks")

        monkeypatch.setattr(wire, "_finite_vector", per_vector)
        body = json.dumps(
            {
                "segments": [
                    {"stream": "a", "action": [0.5, 0.5], "interaction": [1.0], "level": 0.25},
                    {"stream": "b", "action": [0.25, 0.75], "interaction": [2.0]},
                    {"stream": "a", "action": [1.0, 0.0], "interaction": [3.0], "level": 1},
                ]
            }
        ).encode("utf-8")
        tick = parse_ingest(body)
        assert type(tick) is Tick and len(tick) == 3
        assert tick.stream_ids == ["a", "b", "a"]
        assert tick.actions.tolist() == [[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]]
        assert tick.actions.flags.c_contiguous and tick.interactions.shape == (3, 1)
        assert tick.levels == [0.25, None, 1.0] and type(tick.levels[2]) is float

    def test_a_ragged_request_names_the_segment(self):
        body = json.dumps(
            {
                "segments": [
                    {"stream": "a", "action": [0.5, 0.5], "interaction": [1.0]},
                    {"stream": "b", "action": [0.5, 0.25, 0.25], "interaction": [1.0]},
                ]
            }
        ).encode("utf-8")
        with pytest.raises(WireError, match=r"segments\[1\] has 3 action") as excinfo:
            parse_ingest(body)
        assert excinfo.value.status == 400

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

    def test_group_keeps_request_order_per_tenant(self):
        alpha, beta = object(), object()
        router = TenantRouter({"alpha": alpha, "beta": beta}, default="alpha")
        ids = ["beta/x", "alpha/y", "z", "beta/w"]
        assert router.group(ids) == [(beta, [0, 3]), (alpha, [1, 2])]
        assert TenantRouter({"alpha": alpha}, default="alpha").group(ids) == [
            (alpha, [0, 1, 2, 3])
        ]
        with pytest.raises(WireError) as excinfo:
            TenantRouter({"alpha": alpha}).group(["alpha/y", "beta/x"])
        assert excinfo.value.status == 404

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

    def test_port_is_the_bound_ephemeral_port(self, served):
        _, server = served
        host, port = server.address
        assert server.port == port > 0
        assert server.url == f"http://{host}:{port}"

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

    @pytest.mark.parametrize("wait_ms", ["nan", "inf", "-inf"])
    def test_non_finite_wait_ms_is_400_at_once(self, served, wait_ms):
        """``nan < 0`` is false, so a NaN wait used to pass the check and spin
        the long-poll loop (``Condition.wait(nan)`` returns at once) for as
        long as the stream stayed empty — forever, for an unknown stream."""
        _, server = served
        started = time.monotonic()
        status, payload, _ = http_json(
            "GET", f"{server.url}/v1/detections?stream=nobody&wait_ms={wait_ms}"
        )
        assert status == 400 and "finite" in payload["error"]
        assert time.monotonic() - started < 2.0

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


def read_answers(sock, requests):
    """Send each raw request on ``sock`` in turn; its ``(status, body)``
    answers, and whether the server then closed the connection."""
    answers = []
    for raw in requests:
        sock.sendall(raw)
        response = http.client.HTTPResponse(sock)
        response.begin()
        answers.append((response.status, response.read()))
    sock.settimeout(0.5)
    try:
        closed = sock.recv(1) == b""
    except socket.timeout:
        closed = False
    return answers, closed


class TestHttpFraming:
    """The handler's own request-line and header parse."""

    @pytest.fixture(scope="class")
    def served(self, server_runtime_config, tiny_features):
        runtime = Runtime.from_config(server_runtime_config).fit(tiny_features)
        server = runtime.serve()
        streams = make_wire_streams(server_runtime_config, streams=1, segments=1)
        body = json.dumps(
            {"segments": [wire_segment(*item) for item in round_robin(streams)]}
        ).encode("utf-8")
        yield server, body
        runtime.close()

    @staticmethod
    def exchange(server, *requests):
        with socket.create_connection(server.address, timeout=10) as sock:
            return read_answers(sock, requests)

    @staticmethod
    def post(body, *headers):
        head = b"".join(header + b"\r\n" for header in headers)
        return b"POST /v1/ingest HTTP/1.1\r\nHost: t\r\n" + head + b"\r\n" + body

    def test_http_1_0_closes_the_connection(self, served):
        server, _ = served
        answers, closed = self.exchange(server, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert [status for status, _ in answers] == [200] and closed

    def test_connection_close_is_honoured(self, served):
        server, _ = served
        answers, closed = self.exchange(
            server, b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        assert [status for status, _ in answers] == [200] and closed

    @pytest.mark.parametrize("route", [b"/healthz", b"/metrics"])
    def test_a_closing_response_says_so(self, served, route):
        """JSON and Prometheus text share one writer: a response on a
        connection the handler is about to close carries ``Connection:
        close`` and a ``Content-Length`` that frames its body."""
        server, _ = served
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(b"GET " + route + b" HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            response = http.client.HTTPResponse(sock)
            response.begin()
            body = response.read()
            assert response.status == 200 and body
            assert response.getheader("Connection") == "close"
            assert response.getheader("Content-Length") == str(len(body))
            sock.settimeout(0.5)
            assert sock.recv(1) == b""

    def test_keep_alive_serves_several_requests_on_one_socket(self, served):
        server, body = served
        length = b"Content-Length: %d" % len(body)
        answers, closed = self.exchange(
            server,
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
            self.post(body, length, b"Content-Type: application/json"),
            self.post(body, length),
            b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        assert [status for status, _ in answers] == [200, 202, 202, 200]
        assert json.loads(answers[1][1])["accepted"] == 1
        assert not closed

    def test_header_names_are_case_insensitive(self, served):
        server, body = served
        answers, closed = self.exchange(
            server,
            self.post(body, b"cOnTeNt-LeNgTh: %d" % len(body), b"CONNECTION: Close"),
        )
        assert [status for status, _ in answers] == [202] and closed

    def test_oversized_header_line_and_too_many_headers_are_431(self, served):
        server, _ = served
        get = b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
        # "X-Big: " + filler + CRLF: 65,536 bytes pass, 65,537 do not.
        for filler, status in ((65527, 200), (65528, 431)):
            line = b"X-Big: " + b"a" * filler + b"\r\n"
            answers, _ = self.exchange(server, get + line + b"\r\n")
            assert answers[0][0] == status, len(line)
        many = b"".join(b"X-H%d: v\r\n" % index for index in range(101))
        answers, closed = self.exchange(server, get + many + b"\r\n")
        assert answers[0][0] == 431 and closed
        some = b"".join(b"X-H%d: v\r\n" % index for index in range(50))
        assert self.exchange(server, get + some + b"\r\n")[0][0][0] == 200

    def test_bad_request_versions_are_refused(self, served):
        server, _ = served
        for line, status in (
            (b"GET /healthz HTTP/2.0", 505),
            (b"GET /healthz HTTP/1.x", 400),
            (b"GET /healthz HTTP/1.\xb2", 400),
        ):
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(line + b"\r\nHost: t\r\n\r\n")
                # No version was accepted, so the answer is HTTP/0.9 style:
                # the error page only, then the connection closes.
                reply = b"".join(iter(lambda: sock.recv(65536), b""))
            assert b"Error code: %d" % status in reply, line

    def test_unframeable_requests_are_refused_and_closed(self, served):
        server, body = served
        accepted = server.admission.stats()["accepted"]
        length = b"Content-Length: %d" % len(body)
        for headers, status in (
            ((b"X-A: one", b"  two", length), 400),  # folded
            ((b"No colon here", length), 400),
            ((b"Bad Name: x", length), 400),
            ((length, b"Content-Length: %d" % (len(body) + 1)), 400),
            ((b"Content-Length: %d, %d" % (len(body), len(body) - 1),), 400),
            ((b"Transfer-Encoding: chunked",), 501),
            ((length, b"Transfer-Encoding: chunked"), 501),
        ):
            answers, closed = self.exchange(server, self.post(body, *headers))
            assert answers[0][0] == status and closed, headers
        assert server.admission.stats()["accepted"] == accepted
        # Repeating one length is not a conflict.
        answers, _ = self.exchange(server, self.post(body, length, length))
        assert answers[0][0] == 202

    def test_oversized_body_closes_the_connection(self, served):
        server, body = served
        raw = self.post(b"", b"Content-Length: 20000000")
        answers, closed = self.exchange(server, raw)
        assert answers[0][0] == 413 and closed

    @pytest.mark.skipif(shutil.which("curl") is None, reason="curl is not installed")
    def test_expect_100_continue_is_answered(self, served, server_runtime_config, tmp_path):
        server, _ = served
        streams = make_wire_streams(server_runtime_config, streams=2, segments=4)
        body = json.dumps({"segments": [wire_segment(*item) for item in round_robin(streams)]})
        assert len(body) > 1024
        path = tmp_path / "body.json"
        path.write_text(body)
        started = time.monotonic()
        done = subprocess.run(
            [
                "curl", "-sS", "-v", "--expect100-timeout", "30",
                "-H", "Expect: 100-continue", "-H", "Content-Type: application/json",
                "--data-binary", f"@{path}", f"{server.url}/v1/ingest",
            ],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "HTTP/1.1 100 Continue" in done.stderr
        assert json.loads(done.stdout)["accepted"] == 8
        # An unanswered expectation would have held the body back 30 s.
        assert time.monotonic() - started < 15.0


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

    def test_a_failed_batcher_refuses_ingest_and_stays_failing(
        self, server_runtime_config, tiny_features, monkeypatch
    ):
        runtime = Runtime.from_config(server_runtime_config).fit(tiny_features)

        def broken(tick):
            raise OSError("disk gone")

        monkeypatch.setattr(runtime, "ingest_many", broken)
        streams = make_wire_streams(server_runtime_config, streams=1, segments=4)
        body = {"segments": [wire_segment(*item) for item in round_robin(streams)]}
        server = RuntimeServer(runtime, config=ServerConfig(poll_interval_ms=5.0)).start()

        def health():
            return http_json("GET", f"{server.url}/healthz")[1]["status"]

        status, _, _ = http_json("POST", f"{server.url}/v1/ingest", payload=body)
        assert status == 202
        deadline = time.monotonic() + 10.0
        while health() != "failing":
            assert time.monotonic() < deadline, "the batcher never took the request"
            time.sleep(0.01)
        # No thread is left to ingest what a 202 would admit.
        status, payload, _ = http_json("POST", f"{server.url}/v1/ingest", payload=body)
        assert status == 503 and "batcher" in payload["error"]
        assert server.admission.stats()["accepted"] == 4
        for _ in range(2):  # sticky: raising once does not clear it
            with pytest.raises(RuntimeError, match="batcher thread failed") as raised:
                server.drain()
            assert isinstance(raised.value.__cause__, OSError)
            assert health() == "failing"
        with pytest.raises(RuntimeError, match="batcher thread failed"):
            server.close()
        runtime.close()

    def test_a_failed_batcher_still_closes_the_runtime(
        self, server_runtime_config, tiny_features, monkeypatch, tmp_path
    ):
        config = replace(
            server_runtime_config,
            durability=DurabilityConfig(directory=str(tmp_path / "store")),
            server=ServerConfig(poll_interval_ms=5.0),
        )
        runtime = Runtime.from_config(config).fit(tiny_features)

        def broken(tick):
            raise OSError("disk gone")

        monkeypatch.setattr(runtime, "ingest_many", broken)
        streams = make_wire_streams(config, streams=1, segments=4)
        body = {"segments": [wire_segment(*item) for item in round_robin(streams)]}
        server = runtime.serve()
        status, _, _ = http_json("POST", f"{server.url}/v1/ingest", payload=body)
        assert status == 202
        deadline = time.monotonic() + 10.0
        while http_json("GET", f"{server.url}/healthz")[1]["status"] != "failing":
            assert time.monotonic() < deadline, "the batcher never took the request"
            time.sleep(0.01)
        wal = runtime._wal
        assert wal.is_open
        # The owned server's failure surfaces, but only once every part is released.
        with pytest.raises(RuntimeError, match="batcher thread failed") as raised:
            runtime.close()
        assert isinstance(raised.value.__cause__, OSError)
        assert runtime._closed and not wal.is_open
        monkeypatch.undo()
        with pytest.raises(RuntimeError, match="runtime is closed"):
            model = config.model
            runtime.ingest("s", np.ones(model.action_dim), np.ones(model.interaction_dim))
        assert runtime.close() == []

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

    def test_batcher_wakes_long_polls_only_when_a_tick_produced_detections(
        self, server_runtime_config, tiny_features
    ):
        runtime = Runtime.from_config(server_runtime_config).fit(tiny_features)
        # 13 segments make 8 windows: one full batch.
        streams = make_wire_streams(server_runtime_config, streams=1, segments=13)
        segments = [wire_segment(*item) for item in round_robin(streams)]
        (name,) = streams.keys()
        # Not started: the test drives the batcher's tick by hand.
        server = RuntimeServer(runtime, config=ServerConfig(poll_interval_ms=5.0))
        reads = []
        read_detections = runtime.detections
        runtime.detections = lambda *args: reads.append(args) or read_detections(*args)

        def park(wait_ms, answer):
            answer["reply"] = server.handle_detections(
                {"stream": [name], "wait_ms": [str(wait_ms)]}
            )
            answer["returned"] = time.monotonic()

        def wait_for_reads(count):
            limit = time.monotonic() + 10.0
            while len(reads) < count and time.monotonic() < limit:
                time.sleep(0.005)
            assert len(reads) == count

        # A tick shorter than a window scores nothing: the poller sleeps on.
        quiet = {}
        started = time.monotonic()
        poller = threading.Thread(target=park, args=(1500, quiet), daemon=True)
        poller.start()
        wait_for_reads(1)
        server.handle_ingest(json.dumps({"segments": segments[:3]}).encode("utf-8"))
        assert server._ingest_once()
        time.sleep(0.2)
        assert len(reads) == 1, "a tick without detections woke the long poll"
        poller.join(timeout=10)
        assert quiet["returned"] - started >= 1.5
        assert quiet["reply"]["detections"] == [] and len(reads) == 2

        # A tick that fills a batch wakes it at once.
        woken = {}
        started = time.monotonic()
        poller = threading.Thread(target=park, args=(20_000, woken), daemon=True)
        poller.start()
        wait_for_reads(3)
        server.handle_ingest(json.dumps({"segments": segments[3:]}).encode("utf-8"))
        assert server._ingest_once()
        poller.join(timeout=10)
        assert not poller.is_alive() and woken["returned"] - started < 10.0
        assert len(woken["reply"]["detections"]) == 13 - SEQUENCE_LENGTH
        server.close()
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

    def test_features_are_validated_once_per_request_never_in_the_batcher(
        self, server_runtime_config, tiny_features, monkeypatch
    ):
        calls = []

        def spy(original):
            def counted(tick):
                calls.append((threading.current_thread().name, len(tick)))
                return original(tick)

            return counted

        monkeypatch.setattr(wire, "validate_features", spy(wire.validate_features))
        monkeypatch.setattr(service, "validate_features", spy(service.validate_features))
        runtime = Runtime.from_config(server_runtime_config).fit(tiny_features)
        streams = make_wire_streams(server_runtime_config, streams=2, segments=12)
        items = list(round_robin(streams))
        with runtime.serve() as server:
            for start in range(0, len(items), 6):
                segments = [wire_segment(*item) for item in items[start : start + 6]]
                status, _, _ = http_json(
                    "POST", f"{server.url}/v1/ingest", payload={"segments": segments}
                )
                assert status == 202
            http_json("POST", f"{server.url}/v1/drain")
        assert runtime.stats.segments_scored == len(items) - 2 * SEQUENCE_LENGTH
        assert [rows for _, rows in calls] == [6, 6, 6, 6]
        assert all(name != "repro-ingest-batcher" for name, _ in calls)
        runtime.close()

    def test_the_batcher_concatenates_whole_requests_up_to_batch_max(
        self, server_runtime_config, tiny_features
    ):
        runtime = Runtime.from_config(server_runtime_config).fit(tiny_features)
        direct = Runtime.from_config(server_runtime_config).fit(tiny_features)
        streams = make_wire_streams(server_runtime_config, streams=2, segments=10)
        items = list(round_robin(streams))
        ticks = []
        feed = runtime.ingest_many
        runtime.ingest_many = lambda tick: ticks.append(list(tick.stream_ids)) or feed(tick)
        # Not started: all five requests queue before the batcher takes any.
        server = RuntimeServer(runtime, config=ServerConfig(batch_max=10, poll_interval_ms=5.0))
        for start in range(0, len(items), 4):
            body = {"segments": [wire_segment(*item) for item in items[start : start + 4]]}
            assert server.handle_ingest(json.dumps(body).encode("utf-8"))[0] == 202
        server.start()
        server.drain()
        server.close()
        names = [item[0] for item in items]
        assert ticks == [names[0:8], names[8:16], names[16:20]]
        direct.ingest_many(items)
        direct.drain()
        for name in streams:
            assert runtime.detections(name) == direct.detections(name)
        runtime.close()
        direct.close()

    def test_batch_max_bounds_every_runtime_call(self, server_runtime_config, tiny_features):
        """A request larger than ``batch_max`` is admitted whole but reaches
        its runtime in ``batch_max`` slices, so a runtime whose
        ``max_queue_depth`` is smaller than the request still takes it."""
        config = replace(
            server_runtime_config,
            serving=replace(server_runtime_config.serving, max_queue_depth=16),
        )
        runtime = Runtime.from_config(config).fit(tiny_features)
        direct = Runtime.from_config(config).fit(tiny_features)
        streams = make_wire_streams(config, streams=2, segments=30)
        items = list(round_robin(streams))
        calls = []
        feed = runtime.ingest_many
        runtime.ingest_many = lambda tick: calls.append(len(tick)) or feed(tick)
        # Not started: both requests queue before the batcher takes any.
        server = RuntimeServer(
            runtime, config=ServerConfig(batch_max=8, max_pending=64, poll_interval_ms=5.0)
        )
        warm, rest = items[: 2 * SEQUENCE_LENGTH], items[2 * SEQUENCE_LENGTH :]
        for part in (warm, rest):
            body = {"segments": [wire_segment(*item) for item in part]}
            status, payload, _ = server.handle_ingest(json.dumps(body).encode("utf-8"))
            assert status == 202 and payload["accepted"] == len(part)
        server.start()
        server.drain()
        server.close()
        assert calls == [8, 2] + [8] * 6 + [2]
        assert runtime.stats.segments_scored == len(items) - 2 * SEQUENCE_LENGTH
        for part in (warm, rest):
            for start in range(0, len(part), 8):
                direct.ingest_many(part[start : start + 8])
        direct.drain()
        for name in streams:
            assert runtime.detections(name) == direct.detections(name)
        runtime.close()
        direct.close()

    def test_one_request_carries_one_width_per_field(
        self, server_runtime_config, tiny_features
    ):
        """Tenants may serve models of different widths, but one request is
        one tick: a request mixing widths is refused whole with 400, and
        one request per width is admitted."""
        narrow_dim = tiny_features.interaction_dim - 1
        narrow_config = replace(
            server_runtime_config,
            model=replace(server_runtime_config.model, interaction_dim=narrow_dim),
        )
        wide = Runtime.from_config(server_runtime_config).fit(tiny_features)
        narrow = Runtime.from_config(narrow_config).fit(
            replace(tiny_features, interaction=tiny_features.interaction[:, :narrow_dim])
        )
        router = TenantRouter({"wide": wide, "narrow": narrow})
        wide_segments = [
            wire_segment(*item)
            for item in round_robin(
                make_wire_streams(server_runtime_config, streams=1, segments=3, prefix="wide/")
            )
        ]
        narrow_segments = [
            wire_segment(*item)
            for item in round_robin(
                make_wire_streams(narrow_config, streams=1, segments=3, prefix="narrow/")
            )
        ]
        with RuntimeServer(router, config=ServerConfig(poll_interval_ms=5.0)) as server:
            url = f"{server.url}/v1/ingest"
            status, payload, _ = http_json(
                "POST", url, payload={"segments": wide_segments + narrow_segments}
            )
            assert status == 400
            assert "one request carries one width per field" in payload["error"]
            assert server.admission.stats()["accepted"] == 0
            for segments in (wide_segments, narrow_segments):
                status, payload, _ = http_json("POST", url, payload={"segments": segments})
                assert status == 202 and payload["accepted"] == 3
            server.drain()
            assert server.admission.stats()["accepted"] == 6
        wide.close()
        narrow.close()

    def test_a_request_spanning_two_tenants_is_admitted_or_refused_whole(
        self, server_runtime_config, tiny_features
    ):
        runtimes = {
            name: Runtime.from_config(server_runtime_config).fit(tiny_features)
            for name in ("a", "b", "direct-a", "direct-b")
        }
        streams = {
            **make_wire_streams(server_runtime_config, streams=2, segments=9, prefix="a/"),
            **make_wire_streams(server_runtime_config, streams=1, segments=9, prefix="b/", seed=3),
        }
        items = list(round_robin(streams))  # a/, a/, b/, a/, a/, b/, ...
        body = json.dumps({"segments": [wire_segment(*item) for item in items]}).encode("utf-8")
        ticks = {"a": [], "b": []}
        for name in ticks:
            runtime = runtimes[name]
            runtime.ingest_many = lambda tick, name=name, feed=runtime.ingest_many: (
                ticks[name].append(list(tick.stream_ids)) or feed(tick)
            )
        router = TenantRouter({"a": runtimes["a"], "b": runtimes["b"]})
        # Not started: nothing drains the queue between the two offers.
        server = RuntimeServer(router, config=ServerConfig(max_pending=40, poll_interval_ms=5.0))
        status, payload, _ = server.handle_ingest(body)
        assert status == 202 and payload == {"accepted": 27, "queue_depth": 27}
        status, payload, _ = server.handle_ingest(body)
        assert status == 429 and payload["queue_depth"] == 27
        assert server.admission.stats()["rejected"] == 27
        server.start()
        server.drain()
        server.close()
        # One tick per tenant, its rows in request order.
        assert ticks == {
            tenant: [[item[0] for item in items if item[0].startswith(f"{tenant}/")]]
            for tenant in ("a", "b")
        }
        for tenant in ("a", "b"):
            direct = runtimes[f"direct-{tenant}"]
            direct.ingest_many([item for item in items if item[0].startswith(f"{tenant}/")])
            direct.drain()
            for name in streams:
                if name.startswith(f"{tenant}/"):
                    assert runtimes[tenant].detections(name) == direct.detections(name)
                    assert len(direct.detections(name)) == 9 - SEQUENCE_LENGTH
        for runtime in runtimes.values():
            runtime.close()

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
        # scored in full once the server runs (by the batcher's half-batch
        # flush or by the drain, whichever takes the request).
        server.start()
        counts = server.drain()
        assert set(counts) == {"default"} and counts["default"] <= 10 - SEQUENCE_LENGTH
        (name,) = streams
        assert len(runtime.detections(name)) == 10 - SEQUENCE_LENGTH
        assert runtime.stats.segments_scored == 10 - SEQUENCE_LENGTH
        server.close()

        # Over the socket: while the batcher is held off the queue (it takes
        # under the ingest lock), a POST that does not fit is refused
        # deterministically, with the Retry-After header on the wire.
        with RuntimeServer(
            runtime, config=ServerConfig(max_pending=4, retry_after_seconds=1.0)
        ) as flooded:
            with flooded._ingest_lock:
                status, _, _ = flooded.handle_ingest(
                    json.dumps({"segments": segments[10:14]}).encode("utf-8")
                )
                assert status == 202
                status, payload, headers = http_json(
                    "POST",
                    f"{flooded.url}/v1/ingest",
                    payload={"segments": segments[14:15]},
                )
            assert status == 429
            assert headers["Retry-After"] == "1"
            assert "ingest queue is full" in payload["error"]
            assert payload["queue_depth"] == 4
            flooded.drain()
            assert flooded.admission.stats()["queue_depth"] == 0
        assert runtime.stats.segments_scored == 14 - SEQUENCE_LENGTH
        runtime.close()

    def test_request_larger_than_max_pending_is_413_not_a_retry(
        self, server_runtime_config, tiny_features
    ):
        """A request of more segments than ``max_pending`` can never be
        admitted; a 429 would have its client retry it forever against an
        empty queue."""
        runtime = Runtime.from_config(server_runtime_config).fit(tiny_features)
        streams = make_wire_streams(server_runtime_config, streams=1, segments=5)
        segments = [wire_segment(*item) for item in round_robin(streams)]
        with RuntimeServer(
            runtime, config=ServerConfig(max_pending=4, retry_after_seconds=1.0)
        ) as flooded:
            for _ in range(3):
                status, payload, headers = http_json(
                    "POST",
                    f"{flooded.url}/v1/ingest",
                    payload={"segments": segments},
                )
                assert status == 413
                assert "Retry-After" not in headers
                assert "5 segments; limit is 4" in payload["error"]
            assert flooded.admission.stats()["queue_depth"] == 0
            # Exactly the bound still fits.
            status, payload, _ = http_json(
                "POST", f"{flooded.url}/v1/ingest", payload={"segments": segments[:4]}
            )
            assert status == 202 and payload["accepted"] == 4
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
# Idle flush (the batcher's half-batch rule)
# ---------------------------------------------------------------------- #
def wait_until(condition, what, timeout=10.0):
    """Poll ``condition`` until it holds; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def ingest_body(items):
    return json.dumps({"segments": [wire_segment(*item) for item in items]}).encode("utf-8")


class TestIdleFlush:
    """Once the batcher has ingested everything admitted, a shard holding
    half a batch (``max_batch_size // 2`` = 4 here) is scored; a shard
    below half waits for the fill, the deadline or a drain."""

    @staticmethod
    def one_shard(config, **serving):
        return replace(
            config, serving=replace(config.serving, num_shards=1, **serving)
        )

    def test_half_a_batch_is_scored_before_drain_and_its_long_poll_returns(
        self, server_runtime_config, tiny_features
    ):
        config = self.one_shard(server_runtime_config, max_batch_delay_ms=600_000.0)
        runtime = Runtime.from_config(config).fit(tiny_features)
        # SEQUENCE_LENGTH warm-up segments, then 4 windows: half a batch.
        streams = make_wire_streams(config, streams=1, segments=SEQUENCE_LENGTH + 4)
        (name,) = streams
        with runtime.serve() as server:
            status, _, _ = http_json(
                "POST", f"{server.url}/v1/ingest",
                raw=ingest_body(round_robin(streams)),
            )
            assert status == 202
            status, payload, _ = http_json(
                "GET", f"{server.url}/v1/detections?stream={name}&start=0&wait_ms=20000"
            )
            assert status == 200 and payload["next"] == 4
            assert (runtime.stats.batches, runtime.stats.segments_scored) == (1, 4)
        runtime.close()

    @pytest.mark.parametrize("until", ["deadline", "drain"])
    def test_one_segment_fewer_waits_for_the_deadline_or_drain(
        self, server_runtime_config, tiny_features, until
    ):
        clock = ManualClock()
        config = self.one_shard(server_runtime_config, max_batch_delay_ms=50.0)
        runtime = Runtime.from_config(config, clock=clock).fit(tiny_features)
        streams = make_wire_streams(config, streams=1, segments=SEQUENCE_LENGTH + 3)
        (name,) = streams
        # Not started: the test is the batcher, so nothing runs between steps.
        server = RuntimeServer(runtime, config=ServerConfig(poll_interval_ms=5.0))
        assert server.handle_ingest(ingest_body(round_robin(streams)))[0] == 202
        assert server._ingest_once()
        assert runtime.service.shards[0].queue_depth() == 3
        assert runtime.stats.segments_scored == 0
        assert server.handle_detections({"stream": [name]})["detections"] == []
        server._poll_runtimes()  # the deadline has not passed
        assert runtime.stats.segments_scored == 0
        with pytest.raises(ValueError, match="min_fill"):
            runtime.poll(min_fill=0)
        if until == "deadline":
            clock.advance(0.05)
            server._poll_runtimes()
        else:
            # What the final runtime drains scored, per tenant.
            assert server.drain() == {"default": 3}
        assert (runtime.stats.batches, runtime.stats.segments_scored) == (1, 3)
        assert len(server.handle_detections({"stream": [name]})["detections"]) == 3
        server.close()
        runtime.close()

    def test_a_backlog_admitted_while_the_batcher_is_busy_scores_full_batches(
        self, server_runtime_config, tiny_features
    ):
        runtime = Runtime.from_config(server_runtime_config).fit(tiny_features)
        # Two streams, one per shard: 27 windows each, three full batches
        # and 3 left over, sent as 6-segment requests the batcher takes two
        # at a time.
        streams = make_wire_streams(
            server_runtime_config, streams=2, segments=SEQUENCE_LENGTH + 27
        )
        items = list(round_robin(streams))
        server = RuntimeServer(
            runtime, config=ServerConfig(batch_max=12, poll_interval_ms=5.0)
        ).start()
        with server._ingest_lock:  # the batcher is busy: admission fills up
            for start in range(0, len(items), 6):
                assert server.handle_ingest(ingest_body(items[start : start + 6]))[0] == 202
        wait_until(lambda: server.admission.depth() == 0, "the backlog to be taken")
        with server._ingest_lock:  # the batcher's last pass is over
            assert (runtime.stats.batches, runtime.stats.segments_scored) == (6, 48)
            assert [shard.queue_depth() for shard in runtime.service.shards] == [3, 3]
        server.drain()
        assert runtime.stats.segments_scored == 54
        server.close()
        runtime.close()

    def test_a_paced_feed_at_most_doubles_the_batch_count(
        self, server_runtime_config, tiny_features
    ):
        config = self.one_shard(server_runtime_config)
        runtime = Runtime.from_config(config).fit(tiny_features)
        streams = make_wire_streams(config, streams=3, segments=30)
        items = list(round_robin(streams))
        server = RuntimeServer(runtime, config=ServerConfig(poll_interval_ms=5.0))
        sizes = np.random.default_rng(5).integers(1, 4, size=len(items))
        start = 0
        for size in sizes:
            if start == len(items):
                break
            # One request at a time, each taken before the next arrives:
            # the batcher is idle after every one.
            assert server.handle_ingest(ingest_body(items[start : start + size]))[0] == 202
            assert server._ingest_once()
            start = min(start + int(size), len(items))
        server.drain()
        scored = runtime.stats.segments_scored
        assert scored == len(items) - 3 * SEQUENCE_LENGTH
        batch = config.serving.max_batch_size
        assert runtime.stats.batches <= math.ceil(2 * scored / batch) + 1
        server.close()
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
