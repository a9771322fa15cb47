"""Dependency-free Prometheus text-format export of the runtime's counters.

Renders exposition format 0.0.4 (the ``text/plain`` format every Prometheus
scraper speaks): ``# HELP`` / ``# TYPE`` per family, one
``name{labels} value`` sample per line.  No client library — the runtime
already owns every number (:meth:`Runtime.load_stats`,
:meth:`Runtime.durability_stats`, admission/executor/rebalancer/plane
counters); this module only formats them, so ``GET /metrics`` on the HTTP
tier (:mod:`repro.server`) agrees with the library API by construction.

Entry points: :func:`render_runtime_metrics` for one runtime (library use),
:func:`render_server_metrics` for a whole server (admission counters plus
every tenant's runtime under a ``tenant`` label).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "CONTENT_TYPE",
    "PrometheusRenderer",
    "render_runtime_metrics",
    "render_server_metrics",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
"""The Content-Type a compliant scrape endpoint must answer with."""


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    number = float(value)
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class PrometheusRenderer:
    """Collects samples into families and renders the exposition text.

    Families keep insertion order; a family's ``# HELP``/``# TYPE`` header is
    emitted once, immediately before its samples, as the format requires.
    Re-adding a family name with a different type is a programming error and
    raises.
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._families: Dict[str, Tuple[str, str]] = {}  # name -> (type, help)
        self._samples: Dict[str, List[Tuple[str, float]]] = {}

    def add(
        self,
        name: str,
        value: float,
        *,
        metric_type: str = "gauge",
        help: str = "",
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Add one sample; the first add of a name defines its family."""
        if metric_type not in ("counter", "gauge", "summary", "untyped"):
            raise ValueError(f"unknown Prometheus metric type {metric_type!r}")
        full = f"{self.namespace}_{name}" if self.namespace else name
        known = self._families.get(full)
        if known is None:
            self._families[full] = (metric_type, help)
            self._samples[full] = []
        elif known[0] != metric_type:
            raise ValueError(
                f"metric {full} registered as {known[0]!r}, re-added as {metric_type!r}"
            )
        label_text = ""
        if labels:
            rendered = ",".join(
                f'{key}="{_escape_label_value(str(item))}"'
                for key, item in labels.items()
            )
            label_text = "{" + rendered + "}"
        self._samples[full].append((label_text, value))

    def render(self) -> str:
        lines: List[str] = []
        for name, (metric_type, help_text) in self._families.items():
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {metric_type}")
            for label_text, value in self._samples[name]:
                lines.append(f"{name}{label_text} {_format_value(value)}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# Runtime-level families
# ---------------------------------------------------------------------- #
def render_runtime_metrics(
    runtime,
    *,
    renderer: Optional[PrometheusRenderer] = None,
    labels: Optional[Mapping[str, object]] = None,
) -> PrometheusRenderer:
    """Add every family one runtime exposes; returns the renderer.

    ``labels`` (e.g. ``{"tenant": name}``) is merged into every sample, which
    is how the multi-tenant server shares one renderer across runtimes.
    """
    out = renderer if renderer is not None else PrometheusRenderer()
    base = dict(labels or {})

    def tags(**extra: object) -> Mapping[str, object]:
        merged = dict(base)
        merged.update(extra)
        return merged

    out.add(
        "model_version",
        runtime.model_version,
        help="Version number of the currently published model snapshot.",
        labels=base,
    )
    out.add(
        "model_versions_retained",
        len(runtime.registry),
        help="Model snapshots currently retained by the registry.",
        labels=base,
    )
    out.add(
        "update_triggers_total",
        len(runtime.update_triggers),
        metric_type="counter",
        help="Drift triggers emitted since fit/restore.",
        labels=base,
    )
    out.add(
        "update_reports_total",
        len(runtime.update_reports),
        metric_type="counter",
        help="Completed in-service incremental updates since fit/restore.",
        labels=base,
    )
    out.add(
        "pending_updates",
        runtime.service.pending_updates,
        help="Queued-but-not-started background retrains.",
        labels=base,
    )
    out.add(
        "segments_scored_total",
        runtime.stats.segments_scored,
        metric_type="counter",
        help="Segments scored across all shards since fit/restore.",
        labels=base,
    )
    out.add(
        "batches_total",
        runtime.stats.batches,
        metric_type="counter",
        help="Micro-batches scored across all shards since fit/restore.",
        labels=base,
    )

    for shard in runtime.load_stats():
        shard_tags = tags(shard=shard.shard_index)
        out.add(
            "shard_streams",
            shard.streams,
            help="Streams with a live session on the shard.",
            labels=shard_tags,
        )
        out.add(
            "shard_queue_depth",
            shard.queue_depth,
            help="Requests queued but not yet scored on the shard.",
            labels=shard_tags,
        )
        out.add(
            "shard_segments_scored_total",
            shard.segments_scored,
            metric_type="counter",
            help="Segments scored by the shard.",
            labels=shard_tags,
        )
        out.add(
            "shard_batches_total",
            shard.batches,
            metric_type="counter",
            help="Micro-batches scored by the shard.",
            labels=shard_tags,
        )
        out.add(
            "shard_scoring_seconds_total",
            shard.scoring_seconds,
            metric_type="counter",
            help="Wall-clock seconds the shard spent scoring batches.",
            labels=shard_tags,
        )
        out.add(
            "shard_forward_seconds_total",
            shard.forward_seconds,
            metric_type="counter",
            help="Seconds of fused forward passes on the shard.",
            labels=shard_tags,
        )
        out.add(
            "shard_score_seconds_total",
            shard.score_seconds,
            metric_type="counter",
            help="Seconds of REIA scoring + thresholding on the shard.",
            labels=shard_tags,
        )
        out.add(
            "shard_update_seconds_total",
            shard.update_seconds,
            metric_type="counter",
            help="Seconds of in-line incremental updates on the shard.",
            labels=shard_tags,
        )
        for quantile, value in (
            ("0.5", shard.latency_p50_ms),
            ("0.95", shard.latency_p95_ms),
            ("0.99", shard.latency_p99_ms),
        ):
            out.add(
                "shard_batch_latency_ms",
                value,
                help="Flush-to-score batch latency percentiles from the "
                "shard's bounded reservoir (milliseconds).",
                labels=tags(shard=shard.shard_index, quantile=quantile),
            )

    executor = runtime.executor_stats()
    out.add(
        "executor_workers",
        executor.get("workers") or 0,
        help="Worker pool width of the serving executor.",
        labels=tags(mode=executor.get("mode", "serial")),
    )
    rebalance = runtime.rebalance_stats()
    out.add(
        "shards",
        rebalance["shards"],
        help="Live scoring shards (grows/shrinks under the rebalancer).",
        labels=base,
    )
    out.add(
        "rebalance_decisions_total",
        rebalance.get("decisions", 0),
        metric_type="counter",
        help="Divert/split/merge decisions the rebalancer has taken.",
        labels=base,
    )

    _render_durability(out, runtime.durability_stats(), tags, base)
    return out


def _render_durability(out: PrometheusRenderer, stats: Mapping, tags, base) -> None:
    out.add(
        "durability_enabled",
        bool(stats.get("enabled")),
        help="Whether the runtime runs with a durability directory attached.",
        labels=base,
    )
    if not stats.get("enabled"):
        return
    wal = stats.get("wal") or {}
    if wal:
        out.add(
            "wal_records_appended_total",
            wal.get("records_appended", 0),
            metric_type="counter",
            help="Submissions appended to the write-ahead log.",
            labels=base,
        )
        out.add(
            "wal_appends_total",
            wal.get("batches_appended", 0),
            metric_type="counter",
            help="Ingest ticks logged, one record each (a single ingest is a one-row tick).",
            labels=base,
        )
        out.add(
            "wal_bytes_appended_total",
            wal.get("bytes_appended", 0),
            metric_type="counter",
            help="Bytes written to the write-ahead log.",
            labels=base,
        )
        out.add(
            "wal_bytes_fsynced_total",
            wal.get("bytes_fsynced", 0),
            metric_type="counter",
            help="Bytes covered by completed WAL fsync batches.",
            labels=base,
        )
        out.add(
            "wal_fsyncs_total",
            wal.get("fsyncs", 0),
            metric_type="counter",
            help="fsync calls issued on WAL segments.",
            labels=base,
        )
        out.add(
            "wal_segments_created_total",
            wal.get("segments_created", 0),
            metric_type="counter",
            help="WAL segments this process created (open + rotations).",
            labels=base,
        )
        out.add(
            "wal_segments",
            wal.get("segments_on_disk", 0),
            help="WAL segments currently on disk (after pruning).",
            labels=base,
        )
        out.add(
            "wal_replayed_records",
            stats.get("replayed_records", 0),
            help="Submissions replayed from the WAL tail at the last restore.",
            labels=base,
        )
    checkpoints = stats.get("checkpoints") or {}
    if checkpoints:
        for kind in ("full", "delta"):
            out.add(
                "checkpoints_written_total",
                checkpoints.get(f"written_{kind}", 0),
                metric_type="counter",
                help="Checkpoints this process wrote into the durable store.",
                labels=tags(kind=kind),
            )
        out.add(
            "checkpoint_delta_chain_depth",
            checkpoints.get("delta_chain_depth", 0),
            help="Deltas between the latest checkpoint and its full root.",
            labels=base,
        )
        out.add(
            "checkpoint_latest_id",
            checkpoints.get("latest_id") or 0,
            help="Id of the latest checkpoint in the durable store.",
            labels=base,
        )
        out.add(
            "checkpoint_directories",
            checkpoints.get("directories", 0),
            help="Checkpoint directories on disk (the live chain).",
            labels=base,
        )
    policy = stats.get("policy") or {}
    if policy:
        out.add(
            "auto_checkpoints_total",
            policy.get("auto_checkpoints", 0),
            metric_type="counter",
            help="Checkpoints taken by the auto-checkpoint policy.",
            labels=base,
        )
        out.add(
            "records_since_checkpoint",
            policy.get("records_since_checkpoint", 0),
            help="Submissions ingested since the last policy checkpoint.",
            labels=base,
        )


# ---------------------------------------------------------------------- #
# Server-level families
# ---------------------------------------------------------------------- #
def render_server_metrics(server) -> str:
    """The full ``/metrics`` document for a :class:`RuntimeServer`."""
    out = PrometheusRenderer()
    admission = server.admission.stats()
    out.add(
        "admission_queue_depth",
        admission.get("queue_depth", 0),
        help="Wire requests admitted but not yet handed to a runtime.",
    )
    out.add(
        "admission_accepted_total",
        admission.get("accepted", 0),
        metric_type="counter",
        help="Segments accepted into the ingest queue.",
    )
    out.add(
        "admission_rejected_total",
        admission.get("rejected", 0),
        metric_type="counter",
        help="Segments refused with 429 (queue full).",
    )
    out.add(
        "admission_high_watermark",
        admission.get("high_watermark", 0),
        help="Deepest the admission queue has been.",
    )
    for name, runtime in server.router.items():
        render_runtime_metrics(runtime, renderer=out, labels={"tenant": name})
    return out.render()
