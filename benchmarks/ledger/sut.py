"""The system under test, in a child process of its own.

``run.py`` starts this file with BLAS/OMP threads pinned to 1 in the
environment (before NumPy is imported here) and one JSON spec file as its
argument.  Three roles:

* ``run`` on a library workload: fit, warm up, run the closed-loop window
  alone, write the result file.  ``durable_ingest`` then dies with
  ``os._exit`` without ``close()`` — the crash.
* ``run`` on ``http_fanin``: fit, ``serve()``, print ``READY <port>`` and obey
  the runner's one-line commands on stdin (``mark``, ``trace_on``,
  ``finish``); the runner is the load generator.
* ``recover`` (``durable_ingest`` only): ``Runtime.recover`` what the crashed
  child left on disk, time it, and ingest a few more ticks to show every
  stream continues where it stopped.

With ``measure: false`` a ``run`` child stops after set-up; the runner uses
those to take the median of several set-up times.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

import trace as ledger_trace
from metrics import percentiles
from workloads import SEQUENCE_LENGTH, WORKLOADS, Sizes, fit_runtime, make_inputs, stream_names


def peak_rss_mb() -> float:
    """High-water mark of this process's resident set.

    ``VmHWM`` rather than ``ru_maxrss``: the latter survives fork+exec, so a
    child would report its parent's (the runner's) size when that is larger.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def program_counters(runtime, server=None) -> Dict[str, float]:
    """The program's own public counters, flattened (all cumulative)."""
    from repro.nn.fused import workspace_stats

    stats = runtime.stats
    shards = runtime.load_stats()
    out: Dict[str, float] = {
        "segments_scored": stats.segments_scored,
        "batches": stats.batches,
        "routes": sum(shard.streams for shard in shards),
        "shard_segments_max": max(shard.segments_scored for shard in shards),
        "shard_segments_mean": float(np.mean([shard.segments_scored for shard in shards])),
        "batch_capacity": shards[0].max_batch_size,
        "flush_wait_ms_p50": float(np.mean([shard.latency_p50_ms for shard in shards])),
        "flush_wait_ms_p95": float(np.mean([shard.latency_p95_ms for shard in shards])),
        "model_version": runtime.model_version,
        "versions_retained": len(runtime.registry),
        "updates": len(runtime.update_reports),
        "triggers": len(runtime.update_triggers),
        "workspace_created": workspace_stats()["created"],
    }
    durability = runtime.durability_stats()
    if durability["enabled"]:
        wal = durability["wal"]
        out.update(
            wal_records=wal["records_appended"],
            wal_bytes=wal["bytes_appended"],
            wal_fsyncs=wal["fsyncs"],
            checkpoints_full=durability["checkpoints"]["written_full"],
            checkpoints_delta=durability["checkpoints"]["written_delta"],
            replayed_records=durability["replayed_records"],
        )
    if server is not None:
        admission = server.stats()["admission"]
        out.update(
            admission_accepted=admission["accepted"],
            admission_rejected=admission["rejected"],
            admission_high_watermark=admission["high_watermark"],
        )
    return out


def detection_arrays(names: List[str], detections) -> Dict[str, np.ndarray]:
    """Detections as columns (what the checker reads)."""
    index = {name: position for position, name in enumerate(names)}
    return {
        "stream": np.array([index[d.stream_id] for d in detections], dtype=np.int32),
        "segment_index": np.array([d.segment_index for d in detections], dtype=np.int64),
        "score": np.array([d.score for d in detections], dtype=np.float64),
        "is_anomaly": np.array([d.is_anomaly for d in detections], dtype=bool),
        "threshold": np.array([d.threshold for d in detections], dtype=np.float64),
        "model_version": np.array([d.model_version for d in detections], dtype=np.int64),
    }


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.is_dir() else 0


def trace_summary(tracer: ledger_trace.Tracer, start: float, end: float) -> dict:
    """Aggregated spans of the window, plus the measured cost of one span."""
    aggregated = tracer.aggregate(start, end)
    summary = {"span_cost_s": ledger_trace.span_cost(), "layers": {}}
    for name, entry in aggregated.items():
        summary["layers"][name] = {
            "calls": entry["calls"],
            "items": entry["items"],
            "items_max": entry["items_max"],
            "total_s": entry["total_s"],
            "self_s": entry["self_s"],
            "inclusive_s": entry["inclusive_s"],
            "blocking": name in ledger_trace.BLOCKING,
            "duration_ms_p50": percentiles(np.asarray(entry["durations"]) * 1e3, (50.0,))[0],
        }
    waits = ledger_trace.fifo_wait_ms(
        aggregated.get("server.admission.offer"), aggregated.get("server.admission.take")
    )
    summary["admission_wait_ms"] = percentiles(waits)
    return summary


def save_reference(snapshot, path: Path) -> float:
    """Version-1 weights for the offline reference; returns its threshold."""
    from repro.nn.serialization import save_module

    save_module(snapshot.model, path)
    return snapshot.threshold


# ---------------------------------------------------------------------- #
# Library workloads: the child drives the closed loop itself
# ---------------------------------------------------------------------- #
def run_library(spec: dict, report: dict) -> None:
    w = WORKLOADS[spec["workload"]]
    size = Sizes(**spec["sizes"])
    workdir = Path(spec["workdir"])
    inputs = make_inputs(w, spec["seed"], size)
    report["inputs_sha256"] = inputs.sha256
    runtime = fit_runtime(w, size, inputs, str(workdir / "durable") if w.durable else None)
    first_version = runtime.registry.get(1)
    pool = inputs.ticks(w)

    call_start: List[float] = []
    call_end: List[float] = []
    returned: List[list] = []
    clock = time.perf_counter

    def ingest(ticks: int) -> None:
        tick = len(returned)
        for _ in range(ticks):
            began = clock()
            detections = runtime.ingest_many(pool[tick % len(pool)])
            call_end.append(clock())
            call_start.append(began)
            returned.append(detections)
            tick += 1

    ingest(size.warmup_ticks)
    tracer = None
    if spec["trace"] and spec["measure"]:
        tracer = ledger_trace.Tracer()
        tracer.install()
    report["setup_done"] = time.time()
    if not spec["measure"]:
        runtime.close()
        return

    before = program_counters(runtime)
    window_start = clock()
    cpu_start = time.process_time()
    slice_wall: List[float] = []
    slice_cpu: List[float] = []
    limit = window_start + 1.4 * spec["seconds"] if spec["seconds"] else float("inf")
    truncated = False
    for _ in range(size.slices):
        began, cpu_began = clock(), time.process_time()
        ingest(size.slice_ticks)
        slice_wall.append(clock() - began)
        slice_cpu.append(time.process_time() - cpu_began)
        if clock() > limit:
            # Safety valve for a box much slower than the reference one; the
            # exact-count check is skipped for a truncated window.
            truncated = len(slice_wall) < size.slices
            break
    if not truncated:
        ingest(size.tail_ticks)
    final = runtime.drain()
    drained = clock()
    window_wall = drained - window_start
    window_cpu = time.process_time() - cpu_start
    after = program_counters(runtime)
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = trace_summary(tracer, window_start, drained)

    # Closed-loop detection latency: from the start of the ingest_many call
    # that handed a segment in to the end of the call that returned its
    # detection (segment index == tick number: one segment per stream a tick).
    detections: list = []
    slice_latency: List[List[float]] = [[] for _ in slice_wall]
    for call, batch in enumerate(returned + [final]):
        detections.extend(batch)
        if call < size.warmup_ticks:
            continue
        finished = call_end[call] if call < len(returned) else drained
        which = min((call - size.warmup_ticks) // size.slice_ticks, len(slice_wall) - 1)
        slice_latency[which].extend(
            finished - call_start[d.segment_index]
            for d in batch
            if d.segment_index >= size.warmup_ticks
        )
    latency = np.array([percentiles(values) for values in slice_latency]) * 1e3

    segments = (len(returned) - size.warmup_ticks) * w.streams
    slice_segments = size.slice_ticks * w.streams
    windows = {
        "segments_per_s": [slice_segments / wall for wall in slice_wall],
        "cpu_us_per_segment": [cpu / slice_segments * 1e6 for cpu in slice_cpu],
        "detect_latency_p50_ms": latency[:, 0].tolist(),
        "detect_latency_p95_ms": latency[:, 1].tolist(),
    }
    report.update({name: float(np.median(values)) for name, values in windows.items()})
    report.update(
        windows=windows,
        truncated=truncated,
        window_wall_s=window_wall,
        window_cpu_s=window_cpu,
        window_segments=segments,
        latency_samples=sum(len(values) for values in slice_latency),
        update_publish_ms=[update.seconds * 1e3 for update in runtime.update_reports],
        ticks=len(returned),
        counters_before=before,
        counters=after,
        flops_per_sequence=runtime.model.flops_per_sequence(SEQUENCE_LENGTH),
        store_bytes=directory_bytes(workdir / "durable" / "checkpoints"),
        reference_threshold=save_reference(first_version, workdir / "version-1.npz"),
        peak_rss_mb=peak_rss_mb(),
    )
    np.savez(workdir / "detections-run.npz", **detection_arrays(stream_names(w), detections))
    if w.durable:
        # The crash: no close(), no final checkpoint — the WAL tail behind the
        # last policy checkpoint is all that recovery gets.
        write_report(spec, report)
        os._exit(0)
    runtime.close()


# ---------------------------------------------------------------------- #
# http_fanin: the child serves, the runner drives
# ---------------------------------------------------------------------- #
def run_http(spec: dict, report: dict) -> None:
    w = WORKLOADS[spec["workload"]]
    size = Sizes(**spec["sizes"])
    inputs = make_inputs(w, spec["seed"], size)
    report["inputs_sha256"] = inputs.sha256
    runtime = fit_runtime(w, size, inputs, None)
    first_version = runtime.registry.get(1)
    server = runtime.serve()
    tracer = None
    trace_start = last_mark = None
    print(f"READY {server.port}", flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "mark":
            last_mark = time.perf_counter()
            reply = {
                "time": time.time(),
                "cpu_s": time.process_time(),
                "counters": program_counters(runtime, server),
            }
        elif command == "trace_on":
            tracer = ledger_trace.Tracer()
            tracer.install()
            trace_start = time.perf_counter()
            reply = {}
        elif command == "finish":
            break
        else:
            raise ValueError(f"unknown command {command!r}")
        print(json.dumps(reply), flush=True)
    if tracer is not None:
        tracer.uninstall()
        # The traced window ends at the runner's last mark; what follows (the
        # runner fetching every stream's detections for the checker) is not load.
        report["trace"] = trace_summary(tracer, trace_start, last_mark)
    report["flops_per_sequence"] = runtime.model.flops_per_sequence(SEQUENCE_LENGTH)
    report["peak_rss_mb"] = peak_rss_mb()
    if spec["measure"]:
        report["reference_threshold"] = save_reference(
            first_version, Path(spec["workdir"]) / "version-1.npz"
        )
    runtime.close()


# ---------------------------------------------------------------------- #
# durable_ingest, second child: what the crash costs
# ---------------------------------------------------------------------- #
def run_recover(spec: dict, report: dict) -> None:
    from repro import Runtime

    w = WORKLOADS[spec["workload"]]
    size = Sizes(**spec["sizes"])
    workdir = Path(spec["workdir"])
    pool = make_inputs(w, spec["seed"], size).ticks(w)
    tracer = None
    if spec["trace"]:
        tracer = ledger_trace.Tracer()
        tracer.install()
    began = time.perf_counter()
    runtime = Runtime.recover(workdir / spec["durable"])
    recovered = time.perf_counter()
    report["recover_s"] = recovered - began
    counters = program_counters(runtime)
    report["replayed_records"] = counters["replayed_records"]
    report["model_version"] = counters["model_version"]

    tick = spec["next_tick"]
    for _ in range(size.restart_ticks):
        runtime.ingest_many(pool[tick % len(pool)])
        tick += 1
    runtime.drain()
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = trace_summary(tracer, began, recovered)
    # Everything the recovered runtime holds: the replayed tail's detections
    # (re-derived; they must equal the crashed process's bitwise) and the new.
    names = stream_names(w)
    held = [d for name in names for d in runtime.detections(name)]
    np.savez(workdir / "detections-recover.npz", **detection_arrays(names, held))
    runtime.close()


def write_report(spec: dict, report: dict) -> None:
    target = Path(spec["out"])
    staging = target.with_suffix(".tmp")
    staging.write_text(json.dumps(report))
    os.replace(staging, target)


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    report: dict = {"role": spec["role"], "workload": spec["workload"]}
    if spec["role"] == "recover":
        run_recover(spec, report)
    elif WORKLOADS[spec["workload"]].http:
        run_http(spec, report)
    else:
        run_library(spec, report)
    write_report(spec, report)


if __name__ == "__main__":
    main()
