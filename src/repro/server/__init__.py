"""HTTP ingest tier over the runtime: the network front of the system.

Everything the library runtime can do in-process — micro-batched scoring,
drift-triggered updates, hot swaps, checkpoints — becomes reachable over a
wire here, using only the standard library (``http.server``; no new
dependencies):

* :class:`RuntimeServer` — the server: a ``ThreadingHTTPServer`` for the
  socket, an :class:`AdmissionController` bounding what the process will
  queue (overload answers 429 + ``Retry-After`` instead of growing without
  limit), and one batcher thread turning admitted requests — one
  :class:`~repro.serving.service.Tick` each, validated once at the door —
  into :meth:`Runtime.ingest_many` calls, which keeps HTTP ingest
  bitwise-identical to driving the library directly.
* :class:`TenantRouter` — per-tenant namespaces: ``tenant/stream`` wire ids
  resolve to per-tenant runtimes with fully isolated registries and update
  planes.
* :mod:`~repro.server.wire` — the strict JSON protocol; non-finite features
  are a 400 at the door, never a NaN inside the drift monitor.

Entry points: ``Runtime.serve()`` for single-tenant, or construct
:class:`RuntimeServer` around a :class:`TenantRouter` (see
``examples/http_serving.py``).
"""

from .admission import AdmissionController
from .app import RuntimeServer
from .tenancy import TenantRouter
from .wire import WireError, detection_to_json, parse_ingest

__all__ = [
    "AdmissionController",
    "RuntimeServer",
    "TenantRouter",
    "WireError",
    "detection_to_json",
    "parse_ingest",
]
