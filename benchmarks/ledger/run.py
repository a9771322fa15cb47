"""The end-to-end ledger: one command, four workloads, every metric by name.

    python3 benchmarks/ledger/run.py --workload lib_gemm --seed 12 --seconds 20 --trace 0

runs one workload and prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload`` it runs all four; ``--trace 2`` runs each untraced and then
traced; ``--repeat N`` repeats with seeds ``seed .. seed+N-1``; ``--out FILE``
writes everything (environment, sizes, counts, every run) for ``compare.py``.

The system under test always runs in a fresh child process (``sut.py``) with
BLAS/OMP threads pinned to 1; this process generates the inputs, is the load
generator on ``http_fanin`` (one POST connection, one long-poll connection),
and checks the outputs against an offline reference (``check.py``).
"""

from __future__ import annotations

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"  # before NumPy is imported, here and in every child

import argparse
import http.client
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

import check  # noqa: E402
from metrics import END_TO_END_UNITS, MANIFEST, ONE_WORKLOAD, PER_LAYER_UNITS, percentiles  # noqa: E402
from trace import layer_of  # noqa: E402
from workloads import (  # noqa: E402
    PROBE_STREAM,
    SEQUENCE_LENGTH,
    WORKLOADS,
    Inputs,
    Sizes,
    Workload,
    make_inputs,
    sizes,
    stream_names,
)

SETUP_REPEATS = 3
RECOVER_REPEATS = 3
CHILD_TIMEOUT_S = 150.0


# ---------------------------------------------------------------------- #
# Children
# ---------------------------------------------------------------------- #
def child_environment() -> Dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return env


class Child:
    """One ``sut.py`` process and its spec/result files."""

    def __init__(self, workdir: Path, label: str, spec: dict, *, piped: bool) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.out = workdir / f"{label}.json"
        spec = dict(spec, workdir=str(workdir), out=str(self.out))
        spec_path = workdir / f"{label}.spec.json"
        spec_path.write_text(json.dumps(spec))
        self.spawned = time.time()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "sut.py"), str(spec_path)],
            env=child_environment(),
            stdin=subprocess.PIPE if piped else subprocess.DEVNULL,
            stdout=subprocess.PIPE if piped else sys.stderr,
            text=True,
        )

    def command(self, word: str) -> dict:
        self.process.stdin.write(word + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"SUT child died on {word!r} (exit {self.process.poll()})")
        return json.loads(line)

    def finish(self) -> dict:
        """Wait for the child to end and read its result file."""
        try:
            code = self.process.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("SUT child did not finish in time") from None
        if code != 0 or not self.out.exists():
            raise RuntimeError(f"SUT child failed (exit {code})")
        return json.loads(self.out.read_text())

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None:
                pipe.close()


# ---------------------------------------------------------------------- #
# http_fanin: this process is the load generator
# ---------------------------------------------------------------------- #
class HttpDriver:
    """One keep-alive POST connection (open loop) and one long-poll probe."""

    def __init__(
        self, w: Workload, size: Sizes, inputs: Inputs, bodies: List[List[bytes]], child: Child
    ) -> None:
        self.w, self.size = w, size
        self.bodies = bodies
        self.orders = inputs.orders
        self.gaps = inputs.gaps
        self.names = stream_names(w)
        ready = child.process.stdout.readline().split()
        if len(ready) != 2 or ready[0] != "READY":
            raise RuntimeError(f"SUT child did not come up: {ready!r}")
        self.port = int(ready[1])
        self.post = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        self.requests = 0
        self.bytes_sent = 0
        # Per request: due, sent, done (perf_counter seconds) and HTTP status.
        self.due: List[float] = []
        self.sent: List[float] = []
        self.done: List[float] = []
        self.status: List[int] = []
        self.arrivals: Dict[int, float] = {}
        self._stop = threading.Event()
        self._poller: Optional[threading.Thread] = None
        self._poll_error: Optional[BaseException] = None
        self.stopped = 0.0

    # -- sending -------------------------------------------------------- #
    def send(self, due: Optional[float]) -> None:
        """POST the next request, at ``due`` (or at once) and wait for the reply."""
        per_round = len(self.bodies[0])
        index = self.requests
        body = self.bodies[(index // per_round) % len(self.bodies)][index % per_round]
        if due is not None:
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
        sent = time.perf_counter()
        self.post.request("POST", "/v1/ingest", body=body, headers={"Content-Type": "application/json"})
        response = self.post.getresponse()
        response.read()
        self.done.append(time.perf_counter())
        self.sent.append(sent)
        self.due.append(sent if due is None else due)
        self.status.append(response.status)
        if response.status not in (202, 429):
            raise RuntimeError(f"ingest returned {response.status}")
        self.requests += 1
        self.bytes_sent += len(body)

    def warm_up(self) -> None:
        for _ in range(self.size.warmup_requests):
            self.send(None)

    def offer(self, rate: int, requests: int, every_second=None) -> Tuple[int, int]:
        """One rung, open loop: a seeded Poisson schedule at ``rate`` segments/s.

        A request is sent when it is due or, when the previous reply came
        late, at once; its latency is timed from when it was due.
        ``every_second`` is called once per second of the schedule, before
        the wait for the next request.
        """
        first = self.requests
        per_second = rate / self.w.segments_per_request
        due = time.perf_counter() + np.cumsum(self.gaps[:requests]) / per_second
        boundary = due[0] + 1.0
        for moment in due.tolist():
            if every_second is not None and moment >= boundary:
                every_second()
                boundary += 1.0
            self.send(moment)
        return first, self.requests

    def get(self, connection: http.client.HTTPConnection, path: str) -> dict:
        connection.request("GET", path)
        response = connection.getresponse()
        payload = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} returned {response.status}")
        return json.loads(payload)

    def drain(self) -> None:
        self.post.request("POST", "/v1/drain")
        response = self.post.getresponse()
        response.read()
        if response.status != 200:
            raise RuntimeError(f"drain returned {response.status}")

    # -- the probe ------------------------------------------------------ #
    def start_probe(self) -> None:
        probe = self.names[PROBE_STREAM]
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        following = self.get(connection, f"/v1/detections?stream={probe}&start=0")["next"]

        def follow() -> None:
            nonlocal following
            try:
                while True:
                    # One more fetch after the stop, without waiting: what the
                    # drain scored while the previous response was being read.
                    last = self._stop.is_set()
                    payload = self.get(
                        connection,
                        f"/v1/detections?stream={probe}&start={following}&wait_ms={0 if last else 250}",
                    )
                    arrived = time.perf_counter()
                    for row in payload["detections"]:
                        self.arrivals[row["segment_index"]] = arrived
                    following = payload["next"]
                    if last:
                        break
            except BaseException as error:  # surfaced by stop_probe()
                self._poll_error = error
            finally:
                connection.close()

        self._poller = threading.Thread(target=follow, name="ledger-probe", daemon=True)
        self._poller.start()

    def stop_probe(self) -> None:
        self._stop.set()
        if self._poller is not None:
            self._poller.join(timeout=30)
            if self._poller.is_alive():
                raise RuntimeError("probe thread did not stop")
        if self._poll_error is not None:
            raise RuntimeError("probe connection failed") from self._poll_error
        self.stopped = time.perf_counter()

    # -- what was accepted ---------------------------------------------- #
    def origins(self) -> List[np.ndarray]:
        """Per stream, the round each of its accepted segments came from."""
        per_round = len(self.bodies[0])
        per_request = self.w.segments_per_request
        origin: List[List[int]] = [[] for _ in self.names]
        for index, status in enumerate(self.status):
            if status != 202:
                continue
            round_, slot = divmod(index, per_round)
            order = self.orders[round_ % len(self.orders)]
            for stream in order[slot * per_request : (slot + 1) * per_request]:
                origin[stream].append(round_)
        return [np.asarray(rounds, dtype=np.int64) for rounds in origin]

    def probe_latencies_ms(self, first: int, last: int, origin: np.ndarray) -> List[List[float]]:
        """Per one-second window of a rung, the probe's detection latencies.

        From the due time of the request carrying a probe segment to the
        arrival of the long-poll response carrying its detection, keyed by
        the ordinal of *accepted* probe segments.  A short last window joins
        the one before it.
        """
        per_round = len(self.bodies[0])
        per_request = self.w.segments_per_request
        seconds = max(1, round(self.due[last - 1] - self.due[first]))
        windows: List[List[float]] = [[] for _ in range(seconds)]
        for ordinal, round_ in enumerate(origin):
            order = self.orders[round_ % len(self.orders)]
            slot = int(np.flatnonzero(order == PROBE_STREAM)[0]) // per_request
            request = int(round_) * per_round + slot
            if first <= request < last and ordinal >= SEQUENCE_LENGTH:
                # A detection that never arrived took at least until the probe
                # stopped (and the checker counts its segment as failed).
                latency = (self.arrivals.get(ordinal, self.stopped) - self.due[request]) * 1e3
                windows[min(int(self.due[request] - self.due[first]), seconds - 1)].append(latency)
        return [window for window in windows if window]

    def fetch_detections(self) -> Dict[str, np.ndarray]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        columns: Dict[str, list] = {
            key: [] for key in ("stream", "segment_index", "score", "is_anomaly", "threshold", "model_version")
        }
        try:
            for index, name in enumerate(self.names):
                for row in self.get(connection, f"/v1/detections?stream={name}&start=0")["detections"]:
                    columns["stream"].append(index)
                    for key in ("segment_index", "score", "is_anomaly", "threshold", "model_version"):
                        columns[key].append(row[key])
        finally:
            connection.close()
        return {key: np.asarray(values) for key, values in columns.items()}

    def close(self) -> None:
        self.post.close()


def run_http(
    w: Workload, size: Sizes, inputs: Inputs, bodies: List[List[bytes]], child: Child,
    trace: bool, measure: bool,
) -> Tuple[dict, dict]:
    """Drive one ``http_fanin`` child; returns ``(report fields, check inputs)``."""
    driver = HttpDriver(w, size, inputs, bodies, child)
    try:
        driver.warm_up()
        warmup_bytes = driver.bytes_sent
        marks = [child.command("mark")]
        client: dict = {"setup_s": marks[0]["time"] - child.spawned}
        if not measure:
            return client, {}
        if trace:
            time.sleep(0.2)  # let the batcher empty the admission queue first
            child.command("trace_on")
        driver.start_probe()
        spans = []
        seconds: List[dict] = [marks[0]]  # of the reference rung, one a second
        for index, (rate, requests) in enumerate(zip(w.rates, size.rung_requests)):
            tick = (lambda: seconds.append(child.command("mark"))) if index == 0 else None
            spans.append(driver.offer(rate, requests, tick))
            marks.append(child.command("mark"))
        driver.drain()
        marks.append(child.command("mark"))
        driver.stop_probe()
        detections = driver.fetch_detections()

        origin = driver.origins()
        warmup_segments = size.warmup_requests * w.segments_per_request
        unscored = w.streams * SEQUENCE_LENGTH  # warm-up segments are accepted, never scored
        rungs = []
        for index, (rate, (first, last)) in enumerate(zip(w.rates, spans)):
            windows = driver.probe_latencies_ms(first, last, origin[PROBE_STREAM])
            per_window = np.array([percentiles(window) for window in windows])
            pooled = [latency for window in windows for latency in window]
            # The p95 is taken inside each one-second window, then the median
            # over windows: the box stalls for 100-200 ms now and then, and two
            # such stalls in a rung move a pooled p95 but only a minority of
            # windows.  A median does not feel them, so the p50 is pooled: a
            # window holds about 31 probes, too few to pin a median down.
            p50 = percentiles(pooled, (50.0,))[0]
            p95 = float(np.median(per_window[:, 1]))
            before, after = marks[index]["counters"], marks[index + 1]["counters"]
            wall = driver.done[last - 1] - driver.due[first]
            rungs.append(
                {
                    "rate": rate,
                    "requests": last - first,
                    "refused": sum(1 for status in driver.status[first:last] if status != 202),
                    "samples": len(pooled),
                    "window_p50_ms": per_window[:, 0].tolist(),
                    "window_p95_ms": per_window[:, 1].tolist(),
                    "p50_ms": p50,
                    "p95_ms": p95,
                    "pooled_p95_ms": percentiles(pooled, (95.0,))[0],
                    "backlog": after["admission_accepted"] - unscored - after["segments_scored"],
                    "late_ms_p95": percentiles(
                        (np.asarray(driver.sent[first:last]) - np.asarray(driver.due[first:last])) * 1e3,
                        (95.0,),
                    )[0],
                    "scored_per_s": (after["segments_scored"] - before["segments_scored"]) / wall,
                }
            )
        # CPU per segment, per second of the reference rung.
        cpu_windows = [
            (after["cpu_s"] - before["cpu_s"])
            / max(after["counters"]["segments_scored"] - before["counters"]["segments_scored"], 1)
            * 1e6
            for before, after in zip(seconds, seconds[1:])
        ] or [
            (marks[1]["cpu_s"] - marks[0]["cpu_s"])
            / max(marks[1]["counters"]["segments_scored"] - marks[0]["counters"]["segments_scored"], 1)
            * 1e6
        ]
        window = slice(size.warmup_requests, driver.requests)
        rtt = (np.asarray(driver.done[window]) - np.asarray(driver.sent[window])) * 1e3
        late = (np.asarray(driver.sent[window]) - np.asarray(driver.due[window])) * 1e3
        sent_segments = (driver.requests - size.warmup_requests) * w.segments_per_request
        refused_segments = sum(1 for s in driver.status if s != 202) * w.segments_per_request
        scored = marks[-1]["counters"]["segments_scored"] - marks[0]["counters"]["segments_scored"]
        client.update(
            rungs=rungs,
            sent_segments=sent_segments + warmup_segments,
            refused_segments=refused_segments,
            window_segments=scored,
            bytes_sent=driver.bytes_sent - warmup_bytes,
            post_rtt_ms_p50=percentiles(rtt, (50.0,))[0],
            post_rtt_ms_p95=percentiles(rtt, (95.0,))[0],
            late_ms_p95=percentiles(late, (95.0,))[0],
            windows={
                "segments_per_s": [rung["scored_per_s"] for rung in rungs],
                "cpu_us_per_segment": cpu_windows,
                "detect_latency_p50_ms": rungs[0]["window_p50_ms"],
                "detect_latency_p95_ms": rungs[0]["window_p95_ms"],
            },
            # Open loop: the schedule sets the rate, and this reads below the
            # offered mean only when the server falls behind it.
            segments_per_s=scored / (marks[-1]["time"] - marks[0]["time"]),
            cpu_us_per_segment=float(np.median(cpu_windows)),
            detect_latency_p50_ms=rungs[0]["p50_ms"],
            detect_latency_p95_ms=rungs[0]["p95_ms"],
            latency_samples=rungs[0]["samples"],
            window_wall_s=marks[-1]["time"] - marks[0]["time"],
            counters_before=marks[0]["counters"],
            counters=marks[-1]["counters"],
        )
        return client, {
            "detections": detections,
            "origin": origin,
            "accepted": np.array([len(rounds) for rounds in origin]),
        }
    finally:
        driver.close()
        if child.process.poll() is None:
            try:
                child.process.stdin.write("finish\n")
                child.process.stdin.flush()
            except OSError:
                pass


# ---------------------------------------------------------------------- #
# One run of one workload
# ---------------------------------------------------------------------- #
def exact_count_errors(w: Workload, size: Sizes, run: dict, recovered: Optional[dict]) -> List[str]:
    """Counts that must follow from the sizes alone."""
    errors = []
    if run.get("truncated"):
        return errors

    def expect(name: str, got, want) -> None:
        if got != want:
            errors.append(f"{name}: got {got}, expected {want}")

    counters = run["counters"]
    if w.http:
        expect("admission_rejected", counters["admission_rejected"], 0)
        expect(
            "segments_scored",
            counters["segments_scored"],
            counters["admission_accepted"] - w.streams * SEQUENCE_LENGTH,
        )
        return errors
    ticks = size.warmup_ticks + size.slices * size.slice_ticks + size.tail_ticks
    expect("ticks", run["ticks"], ticks)
    expect("segments_scored", counters["segments_scored"], (ticks - SEQUENCE_LENGTH) * w.streams)
    expect("model_version", counters["model_version"], 1 + counters["updates"])
    expect("triggers", counters["triggers"], counters["updates"])
    if not w.updates:
        expect("updates", counters["updates"], 0)
    if w.durable:
        expect("wal_records", counters["wal_records"], ticks * w.streams)
        expect(
            "checkpoints_written",
            counters["checkpoints_full"] + counters["checkpoints_delta"],
            size.slices,
        )
        expect(
            "replayed_records",
            recovered["replayed_records"],
            (size.warmup_ticks + size.tail_ticks) * w.streams,
        )
        expect("recovered model_version", recovered["model_version"], counters["model_version"])
    return errors


def per_layer_metrics(w: Workload, run: dict, recovered: Optional[dict], client: dict) -> Dict[str, float]:
    layers = run["trace"]["layers"]
    restored = recovered["trace"]["layers"] if recovered else {}
    wall = run["window_wall_s"]

    def field(name: str, key: str, source=layers) -> float:
        return source.get(name, {}).get(key, 0)

    def busy(*names: str, source=layers) -> float:
        return sum(field(name, "self_s", source) for name in names)

    def delta(name: str) -> float:
        return run["counters"].get(name, 0) - run["counters_before"].get(name, 0)

    segments = run["window_segments"]
    forward_busy = busy("nn.fused.forward")
    flops = field("nn.fused.forward", "items") * run["flops_per_sequence"]
    batches = delta("batches")
    maintenance = busy("serving.maintenance.update")
    all_self = sum(entry["self_s"] for entry in layers.values() if not entry["blocking"])
    all_spans = sum(entry["calls"] for entry in layers.values())
    # The roots of the library workloads run on one thread, so their self
    # times add up to wall; http_fanin's handler, batcher and long-poll
    # threads overlap, so there the share is of *thread* time, not of wall.
    values: Dict[str, float] = {
        "server.wire.parse_calls": field("server.wire.parse", "calls"),
        "server.wire.parse_segments": field("server.wire.parse", "items"),
        "server.wire.parse_bytes": client.get("bytes_sent", 0) if layers.get("server.wire.parse") else 0,
        "server.wire.parse_busy_s": busy("server.wire.parse"),
        "server.wire.encode_rows": field("server.wire.encode", "calls"),
        "server.wire.encode_busy_s": busy("server.wire.encode"),
        "server.admission.accepted": delta("admission_accepted"),
        "server.admission.rejected": delta("admission_rejected"),
        "server.admission.high_watermark": run["counters"].get("admission_high_watermark", 0),
        "server.admission.wait_ms_p50": run["trace"]["admission_wait_ms"][0],
        "server.admission.wait_ms_p95": run["trace"]["admission_wait_ms"][1],
        "server.admission.busy_s": busy(
            "server.admission.offer", "server.admission.take", "server.admission.stats"
        ),
        "server.app.ingest_calls": field("server.app.ingest", "calls"),
        "server.app.ingest_busy_s": busy("server.app.ingest", "server.app.drain"),
        "server.app.tick_items_mean": (
            field("runtime.ingest", "items") / max(field("runtime.ingest", "calls"), 1)
            if w.http
            else 0
        ),
        "server.app.detections_calls": field("server.app.detections", "calls"),
        "server.app.detections_rows": field("server.app.detections", "items"),
        "runtime.ingest_calls": field("runtime.ingest", "calls"),
        "runtime.ingest_segments": field("runtime.ingest", "items"),
        "runtime.self_busy_s": busy("runtime.ingest", "runtime.poll", "runtime.drain"),
        "durability.wal.records": delta("wal_records"),
        "durability.wal.bytes": delta("wal_bytes"),
        "durability.wal.bytes_per_segment": delta("wal_bytes") / max(delta("wal_records"), 1),
        "durability.wal.fsyncs": delta("wal_fsyncs"),
        "durability.wal.append_busy_s": busy(
            "durability.wal.append", "durability.wal.sync", "durability.wal.rotate", "durability.wal.prune"
        ),
        "durability.wal.replay_records": field("durability.wal.read_tail", "items", restored),
        "durability.wal.replay_busy_s": busy("durability.wal.read_tail", source=restored),
        "durability.checkpoints.written_full": delta("checkpoints_full"),
        "durability.checkpoints.written_delta": delta("checkpoints_delta"),
        "durability.checkpoints.write_busy_s": busy(
            "durability.checkpoints.write", "durability.checkpoints.delta_plan", "durability.checkpoints.prune"
        ),
        "durability.checkpoints.write_ms_p50": field("durability.checkpoints.write", "duration_ms_p50"),
        "durability.checkpoints.store_bytes": run.get("store_bytes", 0),
        "durability.checkpoints.restore_busy_s": busy("durability.checkpoints.restore", source=restored),
        # Wall of Runtime.recover(root): the checkpoint chain plus the WAL tail
        # replayed through scoring, taken once, in the second child.
        "durability.recover_s": recovered["recover_s"] if recovered else 0,
        "serving.sharding.busy_s": busy("serving.sharding.submit_many"),
        "serving.sharding.routes": run["counters"]["routes"],
        "serving.sharding.shard_skew": run["counters"]["shard_segments_max"]
        / max(run["counters"]["shard_segments_mean"], 1),
        "serving.service.enqueue_calls": field("serving.service.enqueue", "calls"),
        "serving.service.enqueue_busy_s": busy("serving.service.enqueue"),
        "serving.service.emit_busy_s": busy(
            "serving.service.score_ready", "serving.service.poll", "serving.service.drain"
        ),
        "serving.service.queue_depth_max": field("serving.service.enqueue", "items_max"),
        "serving.microbatch.batches": batches,
        "serving.microbatch.mean_batch_size": delta("segments_scored") / max(batches, 1),
        "serving.microbatch.occupancy": delta("segments_scored")
        / max(batches * run["counters"]["batch_capacity"], 1),
        "serving.microbatch.assemble_busy_s": busy("serving.microbatch.assemble"),
        "serving.microbatch.wait_ms_p50": run["counters"]["flush_wait_ms_p50"],
        "serving.microbatch.wait_ms_p95": run["counters"]["flush_wait_ms_p95"],
        "nn.fused.forward_calls": field("nn.fused.forward", "calls"),
        "nn.fused.forward_busy_s": forward_busy,
        "nn.fused.forward_share": forward_busy / wall,
        # Computed from the model's shapes (CLSTM.flops_per_sequence), not counted.
        "nn.fused.flops": flops,
        "nn.fused.gflops_per_s": flops / forward_busy / 1e9 if forward_busy else 0,
        "nn.fused.workspace_allocs": delta("workspace_created"),
        "core.detector.score_calls": field("core.detector.score", "calls"),
        "core.detector.score_busy_s": busy("core.detector.score"),
        "core.detector.recalibrate_busy_s": busy("core.detector.recalibrate"),
        "serving.registry.pins": field("serving.registry.pin", "calls"),
        "serving.registry.publishes": field("serving.registry.publish", "calls"),
        "serving.registry.publish_busy_s": busy("serving.registry.publish"),
        "serving.registry.versions_retained": run["counters"]["versions_retained"],
        "serving.maintenance.triggers": delta("triggers"),
        "serving.maintenance.updates": delta("updates"),
        "serving.maintenance.busy_s": maintenance,
        "serving.maintenance.share": field("serving.maintenance.update", "total_s") / wall,
        "serving.maintenance.publish_ms_p50": percentiles(run.get("update_publish_ms", ()), (50.0,))[0],
        "core.update.train_busy_s": busy("core.update.train"),
        "core.update.merge_busy_s": busy("core.update.merge"),
        "core.update.drift_check_calls": field("core.update.drift_check", "calls"),
        "core.update.drift_check_busy_s": busy("core.update.drift_check"),
        "nn.backprop.steps": field("nn.backprop.step", "calls"),
        "nn.backprop.busy_s": busy("nn.backprop.step"),
        "trace.spans": all_spans,
        "trace.coverage_share": all_self / wall,
        # Spans recorded x the measured cost of one empty span, over wall: the
        # measured throughput ratio sits below this box's run-to-run noise.
        "trace.overhead_share": all_spans * run["trace"]["span_cost_s"] / wall,
    }
    values["client.sent"] = client.get("sent_segments", 0)
    values["client.refused"] = client.get("refused_segments", 0)
    for key in ("post_rtt_ms_p50", "post_rtt_ms_p95", "late_ms_p95"):
        values[f"client.{key}"] = client.get(key, 0)
    rungs = {rung["rate"]: rung for rung in client.get("rungs", [])}
    for rate in WORKLOADS["http_fanin"].rates:
        for key in ("p50_ms", "p95_ms", "backlog"):
            values[f"client.r{rate}.{key}"] = rungs.get(rate, {}).get(key, 0)
    return values


def waterfall(run: dict) -> List[Tuple[str, int, int, float, float, float]]:
    """Layer, calls, items, busy_s (self), share of window, inclusive_s.

    Sorted by share; the un-attributed remainder and the time blocking calls
    (the long-poll) spent waiting are rows of their own.
    """
    wall = run["window_wall_s"]
    rows: Dict[str, List[float]] = {}
    waiting = 0.0
    for name, entry in run["trace"]["layers"].items():
        row = rows.setdefault(layer_of(name), [0, 0, 0.0, 0.0])
        row[0] += entry["calls"]
        row[1] += entry["items"]
        if entry["blocking"]:
            waiting += entry["self_s"]
        else:
            row[2] += entry["self_s"]
            row[3] += entry["inclusive_s"]
    table = [(layer, int(c), int(i), busy, busy / wall, total) for layer, (c, i, busy, total) in rows.items()]
    table.sort(key=lambda row: -row[3])
    attributed = sum(row[3] for row in table)
    table.append(("(un-attributed)", 0, 0, wall - attributed, (wall - attributed) / wall, 0.0))
    if waiting:
        table.append(("(long-poll waiting)", 0, 0, waiting, waiting / wall, 0.0))
    return table


def run_once(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One fresh SUT session of one workload; returns everything measured."""
    w = WORKLOADS[name]
    size = sizes(w, seconds, smoke)
    inputs = make_inputs(w, seed, size)
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    spec = {
        "role": "run",
        "workload": name,
        "seed": seed,
        "seconds": 0 if smoke else seconds,
        "sizes": asdict(size),
        "trace": trace,
        "measure": False,
    }
    bodies = inputs.bodies(w) if w.http else []
    children: List[Child] = []
    try:
        # Set-up is paid once per process start, so take it several times
        # (a traced run does not report it).
        setups = []
        for index in range(0 if smoke or trace else SETUP_REPEATS - 1):
            child = Child(workdir / f"setup-{index}", "setup", spec, piped=w.http)
            children.append(child)
            if w.http:
                setups.append(run_http(w, size, inputs, bodies, child, trace, False)[0]["setup_s"])
                child.finish()
            else:
                setups.append(child.finish()["setup_done"] - child.spawned)
        # Whatever is still dirty (a fresh checkout, the set-up children's
        # files) is written back now, not by kernel threads during the window.
        os.sync()
        child = Child(workdir, "run", dict(spec, measure=True), piped=w.http)
        children.append(child)
        client: dict = {}
        origin = recovered = recovered_detections = None
        recoveries: List[dict] = []
        if w.http:
            client, sent = run_http(w, size, inputs, bodies, child, trace, True)
            run = dict(child.finish(), **client)
            setups.append(client["setup_s"])
            detections, accepted, origin = sent["detections"], sent["accepted"], sent["origin"]
        else:
            run = child.finish()
            setups.append(run["setup_done"] - child.spawned)
            with np.load(workdir / "detections-run.npz") as archive:
                detections = {key: archive[key] for key in archive.files}
            accepted = np.full(w.streams, run["ticks"])
        if w.durable:
            # The first child died without close(); a second one recovers.  A
            # crash is recovered once, by a cold process, in well under a
            # second, so that is timed several times, each on its own copy of
            # what the crash left (a traced run does not report the time).
            for index in range(1 if smoke or trace else RECOVER_REPEATS):
                shutil.copytree(workdir / "durable", workdir / f"durable-{index}")
                recover = dict(spec, role="recover", next_tick=run["ticks"], durable=f"durable-{index}")
                child = Child(workdir, "recover", recover, piped=False)
                children.append(child)
                recoveries.append(child.finish())
            recovered = recoveries[-1]
            recovered["recover_s"] = statistics.median(r["recover_s"] for r in recoveries)
            with np.load(workdir / "detections-recover.npz") as archive:
                recovered_detections = {key: archive[key] for key in archive.files}
            accepted = accepted + size.restart_ticks
        detector = check.load_reference(w, workdir / "version-1.npz", run["reference_threshold"])
        verdict = check.verify(
            w, inputs, accepted, detections, recovered_detections, detector, seed=seed, origin=origin
        )
        count_errors = exact_count_errors(w, size, run, recovered)
        if run["inputs_sha256"] != inputs.sha256:
            count_errors.append("the SUT child generated other inputs than the runner")
    finally:
        for child in children:
            child.kill()
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    refused = client.get("refused_segments", 0)
    attempted = int(accepted.sum()) + refused
    failed = verdict.failed + refused
    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "sizes": asdict(size),
        "inputs_sha256": inputs.sha256,
        "correct": failed == 0 and not count_errors,
        "attempted": attempted,
        "failed": failed,
        "notes": verdict.notes + count_errors,
        "sampled": verdict.sampled,
        "truncated": bool(run.get("truncated")),
        "samples": {
            "setup": len(setups),
            "recover": len(recoveries),
            "latency": run["latency_samples"],
            "updates": len(run.get("update_publish_ms", ())),
        },
        # Counts that follow from the seed and the sizes alone.  On http_fanin
        # the number of batches does not: a deadline flush depends on timing.
        "counts": {
            key: run["counters"][key]
            for key in ("segments_scored", "batches", "updates", "model_version", "wal_records",
                        "wal_fsyncs", "checkpoints_full", "checkpoints_delta")
            if key in run["counters"] and not (w.http and key == "batches")
        },
        "rungs": client.get("rungs"),
        "windows": run["windows"],
    }
    if recovered:
        result["counts"]["replayed_records"] = recovered["replayed_records"]
    # Timed by this workload only (metrics.ONE_WORKLOAD): outside the driver's
    # result line, judged by compare.py.
    own = {
        "recover_s": recovered["recover_s"] if recovered else None,
        "update_publish_p50_ms": percentiles(run.get("update_publish_ms", ()), (50.0,))[0],
    }
    result["one_workload"] = {
        metric: own[metric] for workload, metric, *_ in ONE_WORKLOAD if workload == name
    }
    if trace:
        result["metrics"] = per_layer_metrics(w, run, recovered, client)
        result["waterfall"] = waterfall(run)
        result["traced_segments_per_s"] = run["segments_per_s"]
    else:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "segments_per_s": run["segments_per_s"],
            "cpu_us_per_segment": run["cpu_us_per_segment"],
            "peak_rss_mb": run["peak_rss_mb"],
            "detect_latency_p50_ms": run["detect_latency_p50_ms"],
            "detect_latency_p95_ms": run["detect_latency_p95_ms"],
            "delivered_share": 1.0 - failed / attempted,
        }
    return result


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #
def environment(seed: int, seconds: float) -> dict:
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):  # older NumPy: no dict form
        pass
    sha = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": 1,
        "nproc": os.cpu_count(),
        "work_filesystem": filesystem_of(HERE),
        "seed": seed,
        "seconds": seconds,
    }


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (the durability directory's)."""
    best, kind = "", "unknown"
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            _, mount, fstype = line.split()[:3]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, kind = mount, fstype
    except OSError:
        pass
    return kind


def show(result: dict) -> None:
    units = PER_LAYER_UNITS if result["trace"] else END_TO_END_UNITS
    print(f"== {result['workload']} seed={result['seed']} "
          f"{'traced (per-layer)' if result['trace'] else 'untraced (end-to-end)'} "
          f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for note in result["notes"]:
        print(f"   ! {note}")
    samples = result["samples"]
    print(f"   samples: setup={samples['setup']} recover={samples['recover']} latency={samples['latency']} "
          f"updates={samples['updates']} reference={result['sampled']}")
    for name, value in result["metrics"].items():
        print(f"   {name:<40} {value:>16.6g} {units[name]}")
    for workload, name, unit, *_ in ONE_WORKLOAD:
        if workload == result["workload"]:
            print(f"   {name:<40} {result['one_workload'][name]:>16.6g} {unit}  (this workload only)")
    for rung in result["rungs"] or []:
        print(f"   rung {rung['rate']:>5}/s: p50 {rung['p50_ms']:.1f} ms  p95 {rung['p95_ms']:.1f} ms  "
              f"(pooled p95 {rung['pooled_p95_ms']:.1f} ms; {rung['samples']} probes, "
              f"{len(rung['window_p95_ms'])} windows)  backlog {rung['backlog']}  refused {rung['refused']}  "
              f"late p95 {rung['late_ms_p95']:.1f} ms  scored {rung['scored_per_s']:.0f}/s")
    if result["trace"]:
        print(f"   {'layer':<26} {'calls':>9} {'items':>9} {'busy_s':>9} {'share':>7} {'inclusive_s':>12}")
        for layer, calls, items, busy, share, inclusive in result["waterfall"]:
            print(f"   {layer:<26} {calls:>9} {items:>9} {busy:>9.3f} {share:>7.1%} {inclusive:>12.3f}")


def final_line(result: dict) -> str:
    units = PER_LAYER_UNITS if result["trace"] else END_TO_END_UNITS
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in result["metrics"].items()
            },
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=float(MANIFEST["run_seconds"]),
                        help="measured window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1, 2), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run; 2: both")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--smoke", action="store_true", help="tiny fixed sizes (self-tests)")
    parser.add_argument("--out", type=Path, help="write every run as JSON (input of compare.py)")
    args = parser.parse_args(argv)

    # A terminated runner still stops its children and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = (False, True) if args.trace == 2 else (bool(args.trace),)
    runs = []
    for name in names:
        for repeat in range(args.repeat):
            untraced_rate = None
            for traced in modes:
                result = run_once(name, args.seed + repeat, args.seconds, traced, args.smoke)
                show(result)
                if not traced:
                    untraced_rate = result["metrics"]["segments_per_s"]
                elif untraced_rate:
                    print(f"   measured: traced/untraced segments_per_s = "
                          f"{result['traced_segments_per_s'] / untraced_rate:.3f} "
                          "(one pair; well inside the reference box's run-to-run noise)")
                runs.append(result)
    if args.out:
        args.out.write_text(
            json.dumps({"env": environment(args.seed, args.seconds), "runs": runs}, indent=1) + "\n"
        )
    print(final_line(runs[-1]))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
