"""Spans recorded from outside the program, around each layer's public calls.

``Tracer.install()`` patches the callables listed in ``TARGETS`` (inside the
SUT child, before the traced window starts) with wrappers that append
``(name, start, end, parent, ordinal, items)`` tuples to an in-memory,
per-thread list; nothing is written while the window runs.  Spans nest by a
thread-local stack: ``parent`` is the index of the enclosing span in the same
thread's list (-1 for a root), ``ordinal`` the index of the root span, which
is one ``ingest_many`` tick on the library workloads and one request or
batcher tick on ``http_fanin``.  Handler-thread → batcher-thread causality is
not recorded (ROADMAP item 2 moves spans into the program).

A layer's ``busy_s`` is *self* time: its spans' durations minus the part of
each that its child spans cover.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

Items = Optional[Callable[[tuple, object], int]]


def _len_result(args, result) -> int:
    return len(result)


def _len_arg1(args, result) -> int:
    return len(args[1])


def _queue_depth(args, result) -> int:
    # ScoringService.enqueue: requests waiting after this one was queued.
    return len(args[0].batcher)


def _accepted(args, result) -> int:
    # AdmissionController.offer -> (accepted, depth)
    return len(args[1]) if result[0] else 0


def _tail_submissions(args, result) -> int:
    return result.submissions


class Target(NamedTuple):
    """One patched callable.

    A function imported by name (``from .wire import parse_ingest``) is
    patched in the module that calls it, which is where the lookup happens.
    """

    span: str
    module: str
    owner: Optional[str]
    """Class holding the attribute; ``None`` for a module-level function."""
    attribute: str
    items: Items = None
    """Work items of one call (default: 1)."""
    gauge: bool = False
    """``items`` is a level read at the call, kept as a maximum, not summed."""
    blocking: bool = False
    """The call mostly waits (a long-poll); its self time is not busy time."""


TARGETS: List[Target] = [
    Target("server.wire.parse", "repro.server.app", None, "parse_ingest", _len_result),
    Target("server.wire.encode", "repro.server.app", None, "detection_to_json"),
    Target("server.admission.offer", "repro.server.admission", "AdmissionController", "offer", _accepted),
    Target("server.admission.take", "repro.server.admission", "AdmissionController", "take", _len_result),
    Target("server.admission.stats", "repro.server.admission", "AdmissionController", "stats"),
    Target("server.app.ingest", "repro.server.app", "RuntimeServer", "handle_ingest"),
    Target("server.app.detections", "repro.server.app", "RuntimeServer", "handle_detections",
           lambda args, result: len(result["detections"]), blocking=True),
    Target("server.app.drain", "repro.server.app", "RuntimeServer", "drain"),
    Target("runtime.ingest", "repro.runtime", "Runtime", "ingest_many", _len_arg1),
    Target("runtime.poll", "repro.runtime", "Runtime", "poll"),
    Target("runtime.drain", "repro.runtime", "Runtime", "drain"),
    Target("durability.wal.append", "repro.durability.wal", "WriteAheadLog", "append", _len_arg1),
    Target("durability.wal.sync", "repro.durability.wal", "WriteAheadLog", "sync"),
    Target("durability.wal.rotate", "repro.durability.wal", "WriteAheadLog", "rotate"),
    Target("durability.wal.prune", "repro.durability.wal", "WriteAheadLog", "prune"),
    Target("durability.wal.read_tail", "repro.runtime", None, "read_tail", _tail_submissions),
    Target("durability.checkpoints.write", "repro.runtime", "Runtime", "checkpoint"),
    Target("durability.checkpoints.delta_plan", "repro.durability.checkpoints", "CheckpointStore", "delta_plan"),
    Target("durability.checkpoints.prune", "repro.durability.checkpoints", "CheckpointStore", "prune"),
    Target("durability.checkpoints.restore", "repro.runtime", "Runtime", "from_checkpoint"),
    Target("serving.sharding.submit_many", "repro.serving.sharding", "ShardedScoringService", "submit_many"),
    Target("serving.service.enqueue", "repro.serving.service", "ScoringService", "enqueue", _queue_depth, gauge=True),
    Target("serving.service.score_ready", "repro.serving.service", "ScoringService", "try_score_ready", _len_result),
    Target("serving.service.poll", "repro.serving.service", "ScoringService", "poll", _len_result),
    Target("serving.service.drain", "repro.serving.service", "ScoringService", "drain", _len_result),
    Target("serving.microbatch.assemble", "repro.serving.microbatch", "MicroBatcher", "assemble",
           lambda args, result: len(args[0])),
    Target("nn.fused.forward", "repro.core.clstm", "CLSTM", "predict_full", _len_arg1),
    Target("core.detector.score", "repro.core.detector", "AnomalyDetector", "score_predictions", _len_arg1),
    Target("core.detector.recalibrate", "repro.core.detector", "AnomalyDetector", "recalibrate"),
    Target("serving.registry.pin", "repro.serving.registry", "RegistryHandle", "pin"),
    Target("serving.registry.publish", "repro.serving.registry", "ModelRegistry", "publish"),
    Target("serving.maintenance.update", "repro.serving.maintenance", "UpdatePlane", "handle_trigger"),
    Target("core.update.train", "repro.serving.maintenance", None, "train_incremental"),
    Target("core.update.merge", "repro.serving.maintenance", None, "merge_models"),
    Target("core.update.drift_check", "repro.serving.service", None, "hidden_set_similarity"),
    Target("nn.backprop.step", "repro.core.clstm", "CLSTM", "fused_training_step"),
]
GAUGES = frozenset(target.span for target in TARGETS if target.gauge)
BLOCKING = frozenset(target.span for target in TARGETS if target.blocking)


def layer_of(span_name: str) -> str:
    """``serving.service.enqueue`` -> ``serving.service``."""
    return span_name.rsplit(".", 1)[0]


class Tracer:
    """Installs the wrappers and owns the recorded spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[list] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _state(self) -> Tuple[list, list]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            self._threads.append(state[0])  # list.append is atomic
        return state

    def wrap(self, name: str, function: Callable, items: Items) -> Callable:
        state = self._state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans, stack = state()
            index = len(spans)
            parent = stack[-1] if stack else -1
            ordinal = stack[0] if stack else index
            spans.append(None)
            stack.append(index)
            count = 0
            start = clock()
            try:
                result = function(*args, **kwargs)
                count = items(args, result) if items is not None else 1
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, ordinal, count)

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner = getattr(module, target.owner) if target.owner else module
            original = vars(owner)[target.attribute]
            if isinstance(original, (staticmethod, classmethod)):
                patched = type(original)(self.wrap(target.span, original.__func__, target.items))
            else:
                patched = self.wrap(target.span, original, target.items)
            self._undo.append((owner, target.attribute, original))
            setattr(owner, target.attribute, patched)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def aggregate(self, start: float, end: float) -> Dict[str, dict]:
        """Per span name: calls, items, self / total / layer-inclusive seconds.

        Only spans that *started* inside ``[start, end)`` count.  ``self_s``
        is duration minus child spans; ``inclusive_s`` counts a span's whole
        duration unless an enclosing span belongs to the same layer, so that
        summed over a layer's names it is the time the layer was on the stack.
        """
        out: Dict[str, dict] = {}
        for spans in self._threads:
            own: Dict[int, float] = {}
            enclosing: Dict[int, frozenset] = {-1: frozenset()}
            for index, span in enumerate(spans):  # a parent precedes its children
                if span is None:  # still open when the spans were read
                    continue
                name, began, ended, parent, _, count = span
                duration = ended - began
                own[index] = own.get(index, 0.0) + duration
                own[parent] = own.get(parent, 0.0) - duration
                layers = enclosing.get(parent, frozenset())
                layer = layer_of(name)
                enclosing[index] = layers if layer in layers else layers | {layer}
            for index, span in enumerate(spans):
                if span is None or not start <= span[1] < end:
                    continue
                name, began, ended, parent, _, count = span
                entry = out.setdefault(
                    name,
                    {"calls": 0, "items": 0, "items_max": 0, "total_s": 0.0, "self_s": 0.0,
                     "inclusive_s": 0.0, "durations": [], "ends": [], "item_counts": []},
                )
                duration = ended - began
                entry["calls"] += 1
                entry["items"] += 1 if name in GAUGES else count
                entry["items_max"] = max(entry["items_max"], count)
                entry["total_s"] += duration
                entry["self_s"] += own[index]
                if layer_of(name) not in enclosing.get(parent, frozenset()):
                    entry["inclusive_s"] += duration
                entry["durations"].append(duration)
                entry["ends"].append(ended)
                entry["item_counts"].append(count)
        return out


def span_cost(repeats: int = 20000) -> float:
    """Measured seconds one span adds to a call (wrapper plus recording)."""
    empty = Tracer().wrap("probe", lambda: None, None)
    bare = lambda: None  # noqa: E731
    began = time.perf_counter()
    for _ in range(repeats):
        empty()
    traced = time.perf_counter() - began
    began = time.perf_counter()
    for _ in range(repeats):
        bare()
    return max(0.0, (traced - (time.perf_counter() - began)) / repeats)


def fifo_wait_ms(offers: dict, takes: dict) -> List[float]:
    """Admission wait per item: offer end -> take end, matched by FIFO ordinal.

    ``offers``/``takes`` are ``aggregate()`` entries of the offer and take
    spans.  Item ``k`` (counting accepted items in offer order) left the
    queue in the take whose cumulative count first exceeds ``k``.
    """
    if not offers or not takes:
        return []
    order = np.argsort(offers["ends"])
    offer_end = np.asarray(offers["ends"])[order]
    offered = np.cumsum(np.asarray(offers["item_counts"])[order])
    order = np.argsort(takes["ends"])
    take_end = np.asarray(takes["ends"])[order]
    taken = np.cumsum(np.asarray(takes["item_counts"])[order])
    total = int(min(offered[-1], taken[-1])) if len(offered) and len(taken) else 0
    if total == 0:
        return []
    ordinals = np.arange(total)
    came = offer_end[np.searchsorted(offered, ordinals, side="right")]
    left = take_end[np.searchsorted(taken, ordinals, side="right")]
    return ((left - came) * 1e3).tolist()
