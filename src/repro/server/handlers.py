"""HTTP request handler of the ingest tier (stdlib ``http.server``).

The handler is deliberately thin: it parses the request line and headers,
reads the (bounded) body and delegates to the owning
:class:`~repro.server.app.RuntimeServer` — all admission, tenancy and
runtime logic lives there, where it is testable without a socket.  Every
response goes through one writer (``_send``) with an explicit
``Content-Length``; it is JSON except the Prometheus text of ``/metrics``
(the handler speaks HTTP/1.1 with keep-alive).

The header parse is the handler's own (:meth:`RuntimeRequestHandler.
parse_request`): the stdlib's goes through the ``email`` package, ≈ 25 µs
per ingest request against ≈ 8 µs here (one core of a 2-vCPU x86 VM,
Python 3.11).  On that VM it alone took the ``http_fanin`` ledger workload
from a median 157.9 to 145.5 µs of server CPU per segment, in ten
alternating pairs against the same server with the stdlib's parse.  It
answers as the stdlib does, and refuses and closes on what would misframe
the body.

Routes
------
==============================  =====================================________
``POST /v1/ingest``             admit a batch of segments (202 / 400 / 413 / 429 / 503)
``GET  /v1/detections``         poll or long-poll one stream's detections
``POST /v1/drain``              flush every queue; returns per-tenant counts
``GET  /healthz``               liveness + per-tenant model versions
``GET  /stats``                 admission + per-tenant serving counters
``GET  /metrics``               Prometheus text exposition of the same counters
==============================  =====================================________
"""

from __future__ import annotations

import json
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler
from typing import Iterable, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..durability.metrics import CONTENT_TYPE as _METRICS_CONTENT_TYPE
from .wire import WireError

__all__ = ["RuntimeRequestHandler"]

_MAX_LINE = 65536
"""Longest header line, as ``http.client`` bounds it."""
_MAX_HEADERS = 100
"""Most header lines, the closing blank line included, as ``http.client``
counts them."""


class _Headers(dict):
    """Request headers by lower-cased name; a repeated name keeps every
    value, comma-joined (RFC 9110 §5.3).  Look names up with :meth:`get`."""

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return dict.get(self, name.lower(), default)


def _version_number(version: str) -> Optional[Tuple[int, int]]:
    """``HTTP/x.y`` as ``(x, y)`` under the stdlib's rules, else ``None``."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(
        part.isascii() and part.isdigit() and len(part) <= 10 for part in parts
    ):
        return None
    return int(parts[0]), int(parts[1])


class RuntimeRequestHandler(BaseHTTPRequestHandler):
    """Dispatch requests to ``self.server.app`` (a ``RuntimeServer``)."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Fully buffer the response writer.  The stdlib default (``wbufsize = 0``)
    # pushes every ``send_header`` line as its own TCP segment, which on a
    # keep-alive connection trips Nagle against the peer's delayed ACK —
    # ~40 ms per exchange, a ~50x throughput cliff on loopback.  Buffered,
    # the whole status + headers + JSON body leaves in one segment at flush.
    wbufsize = -1
    # An 8-segment ingest body of the ledger's small model is ≈ 14 KB: with
    # the stdlib's 8 KB read buffer every request took two ``recv`` calls,
    # each a GIL release and re-acquire against the batcher thread.
    rbufsize = 1 << 16

    @property
    def app(self):
        return self.server.app

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        """Silence per-request stderr logging (counters live in /stats)."""

    # ------------------------------------------------------------------ #
    def parse_request(self) -> bool:
        """Parse ``raw_requestline`` and the headers; on failure the error
        response is already sent (the stdlib contract).

        Answers as ``BaseHTTPRequestHandler.parse_request`` does: 400 for a
        bad request line or version, 505 from HTTP/2 on, 431 for a header
        line over 65,536 bytes or over 100 lines, keep-alive from the
        version and the ``Connection`` header, and ``100 Continue`` for
        ``Expect: 100-continue``.  Refuses what it cannot frame, which the
        stdlib lets through: a folded or malformed header line and
        conflicting ``Content-Length`` values (400), and any
        ``Transfer-Encoding`` (501).
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})")
                return False
            if number >= (1, 1) and self.protocol_version >= "HTTP/1.1":
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({version[5:]})",
                )
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({self.requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        if path.startswith("//"):  # it would read as a scheme-relative URL (gh-87389)
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        headers = self._read_headers()
        if headers is None:
            return False
        self.headers = headers
        connection = {token.strip().lower() for token in headers.get("Connection", "").split(",")}
        if "close" in connection:
            self.close_connection = True
        elif "keep-alive" in connection and self.protocol_version >= "HTTP/1.1":
            self.close_connection = False
        if (
            headers.get("Expect", "").lower() == "100-continue"
            and self.protocol_version >= "HTTP/1.1"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def _read_headers(self) -> Optional[_Headers]:
        """The header block as a :class:`_Headers`, or ``None`` once an
        error response is sent."""
        headers = _Headers()
        lines = 0
        while True:
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Line too long")
                return None
            lines += 1
            if lines > _MAX_HEADERS:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Too many headers")
                return None
            if line in (b"\r\n", b"\n", b""):
                break
            if line[:1] in (b" ", b"\t"):
                self.send_error(HTTPStatus.BAD_REQUEST, "Folded header line")
                return None
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if not colon or name.split() != [name]:
                self.send_error(HTTPStatus.BAD_REQUEST, "Malformed header line")
                return None
            name, value = name.lower(), value.strip(" \t\r\n")
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
        if "transfer-encoding" in headers:
            self.send_error(
                HTTPStatus.NOT_IMPLEMENTED, "Transfer-Encoding is not supported; send Content-Length"
            )
            return None
        lengths = {value.strip() for value in headers.get("Content-Length", "").split(",")}
        if len(lengths) > 1:
            self.send_error(HTTPStatus.BAD_REQUEST, "Conflicting Content-Length values")
            return None
        if "content-length" in headers:
            headers["content-length"] = lengths.pop()
        return headers

    def handle_expect_100(self) -> bool:
        """Send ``100 Continue`` now.  The writer is fully buffered
        (``wbufsize``), so the stdlib's unflushed interim reply would wait
        for the final one, and the client for its expect timeout."""
        self.send_response_only(HTTPStatus.CONTINUE)
        self.end_headers()
        self.wfile.flush()
        return True

    # ------------------------------------------------------------------ #
    def _send_json(
        self, status: int, payload: object, headers: Iterable[Tuple[str, str]] = ()
    ) -> None:
        self._send(status, json.dumps(payload), "application/json", headers)

    def _send(
        self,
        status: int,
        text: str,
        content_type: str,
        headers: Iterable[Tuple[str, str]] = (),
    ) -> None:
        """The one response writer: every body is framed by its length, and
        a connection about to close says so."""
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True  # the body cannot be framed
            raise WireError(400, "Content-Length must be an integer") from None
        if length <= 0:
            raise WireError(400, "request requires a non-empty body")
        if length > self.app.config.request_max_bytes:
            self.close_connection = True  # the unread body would read as the next request
            raise WireError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.app.config.request_max_bytes}-byte limit",
            )
        return self.rfile.read(length)

    def _query(self) -> dict:
        return parse_qs(urlparse(self.path).query)

    # ------------------------------------------------------------------ #
    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        route = urlparse(self.path).path
        try:
            if route == "/v1/ingest":
                status, payload, headers = self.app.handle_ingest(self._read_body())
                self._send_json(status, payload, headers)
            elif route == "/v1/drain":
                self._send_json(200, self.app.handle_drain())
            else:
                self._send_json(404, {"error": f"no such route: {route}"})
        except WireError as error:
            self._send_json(error.status, {"error": error.message})

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        route = urlparse(self.path).path
        try:
            if route == "/healthz":
                self._send_json(200, self.app.handle_health())
            elif route == "/stats":
                self._send_json(200, self.app.handle_stats())
            elif route == "/metrics":
                self._send(200, self.app.handle_metrics(), _METRICS_CONTENT_TYPE)
            elif route == "/v1/detections":
                self._send_json(200, self.app.handle_detections(self._query()))
            else:
                self._send_json(404, {"error": f"no such route: {route}"})
        except WireError as error:
            self._send_json(error.status, {"error": error.message})
