"""The HTTP ingest server: socket, admission queue, batcher thread.

Architecture (all stdlib, no new dependencies)::

    handler threads (ThreadingHTTPServer)
        POST /v1/ingest ── parse_ingest → one Tick ── split by tenant,
                           widths checked once per tenant ── offer the ticks
                                                            │  bounded FIFO,
    batcher thread (one)                                    ▼  counted in segments
        take(batch_max) → whole requests ── concat a tenant's ticks ──
                           Runtime.ingest_many(≤ batch_max rows) ──
                           admission empty? score half-full batches ── notify
                                                            │
    handler threads                                         ▼
        GET /v1/detections ── long-poll on the notify ── per-stream sessions

One request is one tick from the socket to the runtime: the body is parsed
into one :class:`~repro.serving.service.Tick` and validated there, once
(:func:`~repro.server.wire.parse_ingest`); the queue holds that tick (one
per tenant of a multi-tenant request); and ``Runtime.ingest_many`` takes the
batcher's concatenation of a tenant's ticks as it is, without checking it
again.  ``batch_max`` bounds every ``ingest_many`` call: a request larger
than it enters its runtime as consecutive slices.

One batcher thread is the design, not a limitation: `Runtime.ingest_many`
is already the concurrent fan-out point (shard batches score on the
executor's worker pool), so a second ingest thread would only interleave
submissions nondeterministically *before* the deterministic part.  With a
single batcher, one HTTP request's segments enter the runtime as one
contiguous run of `ingest_many` calls per tenant, in request order — which
is what makes HTTP ingest bitwise-identical to calling the library directly.
The one difference is where batches may end: between requests an idle
batcher scores half a batch (:meth:`RuntimeServer._batch_loop`), a cut the
library calls alone would leave to the fill, the deadline or a drain.
"""

from __future__ import annotations

import math
import threading
import time
from http.server import ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple, Union

from ..durability.metrics import render_server_metrics
from ..serving.service import Tick
from ..utils.config import ServerConfig
from .admission import AdmissionController
from .handlers import RuntimeRequestHandler
from .tenancy import TenantRouter
from .wire import WireError, detection_to_json, parse_ingest

__all__ = ["RuntimeServer"]


class _HTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a reference to its ``RuntimeServer``."""

    daemon_threads = True
    allow_reuse_address = True
    # TCP_NODELAY on accepted sockets: responses are single buffered writes
    # (see RuntimeRequestHandler.wbufsize), so Nagle has nothing to coalesce
    # and only adds delayed-ACK latency to the request/response ping-pong.
    disable_nagle_algorithm = True
    app: "RuntimeServer"


class RuntimeServer:
    """HTTP front-end over one runtime (or a multi-tenant router of them).

    Parameters
    ----------
    target:
        A fitted :class:`~repro.runtime.Runtime` (single-tenant: every wire
        stream id passes through verbatim) or a :class:`TenantRouter`
        (multi-tenant: ``tenant/stream`` prefixes select the runtime).
    config:
        Bind address and queue/batch/long-poll knobs; defaults to the
        runtime's own ``config.server`` in single-tenant mode, else a
        default :class:`ServerConfig`.

    The batcher thread scores a shard's batch when it is full, when its
    deadline (``ServingConfig.max_batch_delay_ms``) passes, or, once the
    batcher has ingested everything admitted, when it is at least half
    full: past half, waiting for the fill saves at most one batch's fixed
    cost per ``max_batch_size`` segments, so the rule at most doubles the
    batch count.  It is applied here, through
    :meth:`~repro.runtime.Runtime.poll` with ``min_fill``; the library
    entry points (``ingest_many``, ``poll()``, ``drain``) keep the first
    two rules only.

    Lifecycle: :meth:`start` binds the socket and starts the listener and
    batcher threads; :meth:`drain` flushes every queue end to end;
    :meth:`close` stops accepting, ingests everything already admitted
    (accepted work is never dropped) and stops the threads.  Also a context
    manager.
    """

    def __init__(
        self,
        target: Union["TenantRouter", object],
        config: Optional[ServerConfig] = None,
    ) -> None:
        if isinstance(target, TenantRouter):
            self.router = target
        else:
            self.router = TenantRouter({"default": target}, default="default")
        if config is None:
            if not isinstance(target, TenantRouter):
                config = target.config.server
            else:
                config = ServerConfig()
        self.config = config
        self.admission = AdmissionController(config.max_pending, config.retry_after_seconds)
        # Serialises every path that feeds the runtimes (batcher tick,
        # drain, shutdown flush) — one ingest stream, deterministic order.
        self._ingest_lock = threading.Lock()
        self._detections = threading.Condition()
        self._stop = threading.Event()
        self._httpd: Optional[_HTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._batch_thread: Optional[threading.Thread] = None
        self._batcher_error: Optional[BaseException] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "RuntimeServer":
        """Bind the socket, start the listener and batcher threads."""
        if self._closed:
            raise RuntimeError("server is closed")
        if self._httpd is not None:
            raise RuntimeError("server is already started")
        for name, runtime in self.router.items():
            if not runtime.fitted:
                raise RuntimeError(f"tenant {name!r} runtime is not fitted")
        self._httpd = _HTTPServer(
            (self.config.host, self.config.port), RuntimeRequestHandler
        )
        self._httpd.app = self
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-http",
            daemon=True,
        )
        self._http_thread.start()
        self._batch_thread = threading.Thread(
            target=self._batch_loop, name="repro-ingest-batcher", daemon=True
        )
        self._batch_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` ephemerals)."""
        if self._httpd is None:
            raise RuntimeError("server is not started")
        return self._httpd.server_address[0], self._httpd.server_address[1]

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def drain(self) -> Dict[str, int]:
        """Flush end to end: admission queue, then every tenant runtime.

        Returns the number of detections the final runtime drains produced,
        per tenant.  After it returns every admitted segment has been scored
        and every queued background retrain has landed.
        """
        self._raise_batcher_error()
        while True:
            with self._ingest_lock:
                ticks = self.admission.take(self.config.batch_max)
                if not ticks:
                    break
                self._ingest_locked(ticks)
        with self._ingest_lock:
            counts = {
                name: len(runtime.drain()) for name, runtime in self.router.items()
            }
        self._notify_detections()
        return counts

    def close(self) -> None:
        """Stop accepting, flush admitted work into the runtimes, stop threads.

        Idempotent.  Does *not* drain the runtimes' own queues (their owner
        decides when to :meth:`~repro.runtime.Runtime.drain` or checkpoint);
        it only guarantees no admitted segment dies in the admission queue.
        """
        if self._closed:
            return
        self._closed = True
        self.admission.close()
        if self._httpd is not None:
            self._httpd.shutdown()
            if self._http_thread is not None:
                self._http_thread.join()
            self._httpd.server_close()
        self._stop.set()
        if self._batch_thread is not None:
            self._batch_thread.join()
        while True:
            with self._ingest_lock:
                ticks = self.admission.take(self.config.batch_max)
                if not ticks:
                    break
                self._ingest_locked(ticks)
        self._notify_detections()
        self._raise_batcher_error()

    def __enter__(self) -> "RuntimeServer":
        if self._httpd is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The batcher thread
    # ------------------------------------------------------------------ #
    def _batch_loop(self) -> None:
        """Take admitted requests and feed them in; flush when idle.

        A batch is scored when it is full, when its oldest segment has
        waited ``ServingConfig.max_batch_delay_ms`` (the poll after each
        quiet ``poll_interval_ms``), or when the batcher has ingested
        everything admission holds and the batch is at least half full.  A
        backlog still forms full batches, since the batcher goes idle only
        once admission is empty, and a paced feed scores at most twice as
        many batches as full ones would need.
        """
        interval = self.config.poll_interval_ms / 1000.0
        while not self._stop.is_set():
            self.admission.wait(interval)
            try:
                worked = self._ingest_once()
                if not worked:
                    self._poll_runtimes()
            except BaseException as error:  # surfaced by drain()/close()
                self._batcher_error = error
                return

    def _ingest_once(self) -> bool:
        with self._ingest_lock:
            ticks = self.admission.take(self.config.batch_max)
            if not ticks:
                return False
            produced = self._ingest_locked(ticks)
            if not self.admission.depth():
                # Nothing left to ingest: waiting for the fill would only
                # add its time to every queued segment's latency.
                for _, runtime in self.router.items():
                    half = max(1, runtime.config.serving.max_batch_size // 2)
                    if runtime.poll(min_fill=half):
                        produced = True
        # Most ticks only fill a batch; waking every long-poll handler for
        # them would have each re-read its stream and sleep again.
        if produced:
            self._notify_detections()
        return True

    def _ingest_locked(self, ticks: List[Tick]) -> bool:
        """Feed admitted one-tenant ticks to their runtimes, one
        ``ingest_many`` call per tenant and ``batch_max`` segments; returns
        whether any call produced detections.

        Caller holds ``_ingest_lock``.  Concatenation preserves arrival order
        within each tenant, so the runtime sees exactly the segment sequence
        the clients sent.  ``take`` returns a request larger than
        ``batch_max`` whole, so it is cut here: ``batch_max`` bounds every
        call, which keeps a call inside the runtime's own
        ``ServingConfig.max_queue_depth``.
        """
        size = self.config.batch_max
        produced = False
        for runtime, positions in self.router.group([tick.stream_ids[0] for tick in ticks]):
            tick = Tick.concat([ticks[position] for position in positions])
            if len(tick) > size:
                parts = [
                    tick.select(range(start, min(start + size, len(tick))))
                    for start in range(0, len(tick), size)
                ]
            else:
                parts = [tick]
            for part in parts:
                if runtime.ingest_many(part):
                    produced = True
        return produced

    def _poll_runtimes(self) -> None:
        produced = False
        with self._ingest_lock:
            for _, runtime in self.router.items():
                if runtime.poll():
                    produced = True
        if produced:
            self._notify_detections()

    def _notify_detections(self) -> None:
        with self._detections:
            self._detections.notify_all()

    def _raise_batcher_error(self) -> None:
        # Sticky: the thread is gone for good, so every later drain()/close()
        # (and /healthz) reports it, not only the first.
        error = self._batcher_error
        if error is not None:
            raise RuntimeError("ingest batcher thread failed") from error

    # ------------------------------------------------------------------ #
    # Request handling (called from handler threads)
    # ------------------------------------------------------------------ #
    def handle_ingest(self, body: bytes) -> Tuple[int, dict, List[Tuple[str, str]]]:
        """Validate, resolve and admit one ingest request (all-or-nothing).

        A request larger than ``max_pending`` segments could never be
        admitted, so it is a 413, not a 429 the client would retry forever.
        Once the batcher thread has failed every request is a 503.
        """
        if self._batcher_error is not None:
            # No thread would ever take what this request admitted.
            raise WireError(503, "ingest batcher thread failed; no segments are accepted")
        tick = parse_ingest(body, max_items=self.admission.max_pending)
        accepted, depth = self.admission.offer(self._by_tenant(tick))
        if not accepted:
            retry_after = self.admission.retry_after_seconds
            return (
                429,
                {
                    "error": "ingest queue is full",
                    "queue_depth": depth,
                    "retry_after": retry_after,
                },
                [("Retry-After", str(int(math.ceil(retry_after))))],
            )
        return 202, {"accepted": len(tick), "queue_depth": depth}, []

    def _by_tenant(self, tick: Tick) -> List[Tick]:
        """``tick`` as one tick per tenant, rows in request order, each
        tenant's widths checked against its model."""
        groups = self.router.group(tick.stream_ids)
        if len(groups) == 1:
            entries = [(groups[0][0], tick)]
        else:
            entries = [(runtime, tick.select(rows)) for runtime, rows in groups]
        for runtime, part in entries:
            model = runtime.config.model
            for field, width, expected in (
                ("action", part.actions.shape[1], model.action_dim),
                ("interaction", part.interactions.shape[1], model.interaction_dim),
            ):
                if width != expected:
                    raise WireError(
                        400,
                        f"stream {part.stream_ids[0]!r}: {field} has {width} "
                        f"features; the model expects {expected}",
                    )
        return [part for _, part in entries]

    def handle_detections(self, query: Dict[str, List[str]]) -> dict:
        """Poll (or long-poll) one stream's detections from ``start`` on."""
        stream = (query.get("stream") or [None])[0]
        if not stream:
            raise WireError(400, "query parameter 'stream' is required")
        try:
            start = int((query.get("start") or ["0"])[0])
            wait_ms = float((query.get("wait_ms") or ["0"])[0])
        except ValueError:
            raise WireError(400, "'start' and 'wait_ms' must be numbers") from None
        # NaN passes a `< 0` test and makes the wait loop below spin forever.
        if start < 0 or not math.isfinite(wait_ms) or wait_ms < 0:
            raise WireError(400, "'start' and 'wait_ms' must be finite and non-negative")
        runtime = self.router.resolve(stream)
        deadline = time.monotonic() + min(wait_ms, self.config.long_poll_max_ms) / 1000.0
        with self._detections:
            while True:
                # The tail only: the batcher takes this condition to notify,
                # so a wake must not copy the stream's whole history.
                fresh = runtime.detections(stream, start)
                if fresh:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._detections.wait(remaining)
        return {
            "stream": stream,
            "start": start,
            "next": start + len(fresh),
            "detections": [detection_to_json(detection) for detection in fresh],
        }

    def handle_drain(self) -> dict:
        return {"drained": self.drain()}

    def handle_health(self) -> dict:
        status = "ok" if self._batcher_error is None else "failing"
        return {
            "status": status,
            "tenants": {
                name: runtime.model_version for name, runtime in self.router.items()
            },
        }

    def handle_stats(self) -> dict:
        return self.stats()

    def handle_metrics(self) -> str:
        """The Prometheus exposition document for ``GET /metrics``."""
        return render_server_metrics(self)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Admission counters plus per-tenant serving/registry/plane state.

        The per-shard entries mirror
        :meth:`~repro.serving.service.ScoringService.load_stats` field for
        field, so a dashboard reading ``/stats`` sees the numbers the
        library API reports.
        """
        tenants = {}
        for name, runtime in self.router.items():
            tenants[name] = {
                "model_version": runtime.model_version,
                "update_triggers": len(runtime.update_triggers),
                "update_reports": len(runtime.update_reports),
                "pending_updates": runtime.service.pending_updates,
                "segments_scored": runtime.stats.segments_scored,
                "batches": runtime.stats.batches,
                "shards": [shard.to_dict() for shard in runtime.load_stats()],
                "executor": runtime.executor_stats(),
                "rebalance": runtime.rebalance_stats(),
                "durability": runtime.durability_stats(),
            }
        return {"admission": self.admission.stats(), "tenants": tenants}
