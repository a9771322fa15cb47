"""Process-parallel scoring over shared-memory model snapshots.

The thread :class:`~repro.serving.executor.ParallelExecutor` tops out at the
GIL: NumPy releases it inside the fused GEMMs, but everything around them —
routing, micro-batch assembly, drift bookkeeping — still
serialises, so adding threads past a handful buys little on mixed workloads.
This module scales scoring past a single interpreter while keeping every
piece of *state* (sessions, routes, drift monitors, checkpoints) in the
parent process:

* **Shared-memory snapshot plane.**  Every published
  :class:`~repro.serving.registry.ModelSnapshot` is immutable after its
  copy-on-write publish, so its flat ``float64`` parameter buffers can be
  placed in :mod:`multiprocessing.shared_memory` once and mapped zero-copy
  (``np.frombuffer``) by any number of workers — no per-request weight
  pickling, no per-worker RSS for model parameters.  A segment holds the
  calibrated threshold ``T_a`` (one float header) followed by the parameters
  in ``named_parameters`` order.
* **Cross-process version pointer.**  A small shared *board* segment holds
  the latest exported version per registry slot — the cross-process
  equivalent of the :class:`~repro.serving.registry.RegistryHandle` pointer.
  The parent advances it under the plane lock when it exports a snapshot;
  workers read it to know which versions are current and report it in their
  stats.
* **Persistent shard workers.**  Each worker process rebuilds the fused cell
  **once per version** (attach segment → rebind parameters to the shared
  views → prewarm the fused caches → bind a detector to the shared
  threshold) and then scores micro-batches in its own interpreter.  The
  parent assembles every batch, pins the snapshot through its own handle
  (so ``swaps_observed`` and version attribution behave exactly as in
  serial), projects the batch's unseen segments through the segment-resident
  cache, and ships only the gathered gate inputs, the targets + the pinned
  version over a pipe.

Determinism: parent and worker together execute the *same* projection →
sweep → ``score_predictions`` pipeline on bit-identical ``float64`` weights,
on the same machine and BLAS, so ``ProcessParallelExecutor(workers=1)`` is
bitwise-identical to :class:`~repro.serving.executor.SerialExecutor` —
including across a checkpoint/restore cycle, because all durable state lives
in the parent.

Cleanup: shared segments are owned by the parent.  They are unlinked by
:meth:`ProcessParallelExecutor.close` (reached via ``Runtime.close()``), by
a ``weakref.finalize`` guard when an executor is garbage-collected unclosed,
and by a module ``atexit`` hook covering abnormal interpreter exits — a
crashed run cannot leak ``/dev/shm`` segments.  Workers attach with the
resource tracker disabled, so a dying worker can never unlink a segment the
parent still serves from (a stdlib footgun before Python 3.13).
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import itertools
import os
import threading
import traceback
import weakref
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import multiprocessing

import numpy as np

from .executor import default_workers
from .service import BatchScores

__all__ = ["WorkerCrashed", "ProcessParallelExecutor"]

T = TypeVar("T")

_BOARD_SLOTS = 64
"""Capacity of the version board: distinct registries one executor can serve."""

_STALE_RETRIES = 4
"""Attach attempts per batch before a missing segment becomes an error."""

_PREFIX_COUNTER = itertools.count()


class WorkerCrashed(RuntimeError):
    """A scoring worker process died mid-conversation (pipe broke).

    Raised by the parent on the next request routed to the dead worker.  The
    executor's shared segments stay owned (and are unlinked) by the parent,
    so a crashed worker never leaks ``/dev/shm`` state.
    """


# --------------------------------------------------------------------------- #
# Shared-memory helpers (resource-tracker discipline)
# --------------------------------------------------------------------------- #
# Reentrant: a garbage collection inside SharedMemory.__init__ (while the
# lock is held) can run a dead executor's finalizer, whose _unlink_quiet
# re-enters _tracker_silenced on the same thread.  Nesting is sound — the
# inner context saves and restores the outer context's no-ops, the outer
# one restores the real functions.
_TRACKER_LOCK = threading.RLock()


@contextlib.contextmanager
def _tracker_silenced():
    """Run a ``SharedMemory`` create/attach/unlink with no tracker traffic.

    Before Python 3.13 *every* ``SharedMemory`` construction — including a
    plain attach — registers the segment with the process's resource
    tracker, which unlinks it when that process exits: a worker attaching a
    snapshot would destroy it for everyone on worker exit.  Unregistering
    after the fact is not enough either — the tracker's cache is one shared
    set, so register/unregister pairs from the parent and a forked worker
    interleave and the tracker logs spurious ``KeyError`` tracebacks.  The
    executor owns cleanup explicitly (``close()`` + finalizer + atexit), so
    tracker registration is suppressed at the source for our segments; the
    lock keeps the patch atomic across parent threads.
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - stdlib always has it on Linux
        yield
        return
    with _TRACKER_LOCK:
        register, unregister = resource_tracker.register, resource_tracker.unregister
        resource_tracker.register = lambda *args, **kwargs: None
        resource_tracker.unregister = lambda *args, **kwargs: None
        try:
            yield
        finally:
            resource_tracker.register = register
            resource_tracker.unregister = unregister


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting unlink responsibility."""
    with _tracker_silenced():
        return shared_memory.SharedMemory(name=name)


def _create_segment(name: str, size: int) -> shared_memory.SharedMemory:
    """Create a named segment, reclaiming a stale leftover of the same name."""
    with _tracker_silenced():
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:
            # A previous hard-killed run with the same pid left its segment
            # behind; the name scheme includes the pid, so it cannot belong
            # to a live executor of this process.
            leftover = shared_memory.SharedMemory(name=name)
            leftover.close()
            leftover.unlink()
            return shared_memory.SharedMemory(name=name, create=True, size=size)


def _close_quiet(segment: shared_memory.SharedMemory) -> None:
    try:
        segment.close()
    except BufferError:  # a numpy view still references the mapping
        pass
    except Exception:  # pragma: no cover - defensive
        pass


def _unlink_quiet(segment: shared_memory.SharedMemory) -> None:
    _close_quiet(segment)
    try:
        # unlink() also sends an unregister (we never registered) — silence.
        with _tracker_silenced():
            segment.unlink()
    except FileNotFoundError:
        pass
    except Exception:  # pragma: no cover - defensive
        pass


def _segment_name(prefix: str, slot: int, version: int) -> str:
    return f"{prefix}s{slot}v{version}"


# --------------------------------------------------------------------------- #
# Parent-side resource registry (close() + finalizer + atexit all converge)
# --------------------------------------------------------------------------- #
class _ExecutorResources:
    """Everything one executor must release, separated from the executor.

    ``weakref.finalize`` and the module atexit hook need a cleanup target
    that does *not* reference the executor (or the finalizer would keep it
    alive forever), so segments, worker processes and pipe ends live here.
    """

    __slots__ = ("segments", "processes", "conns", "lock", "released", "__weakref__")

    def __init__(self) -> None:
        self.segments: Dict[str, shared_memory.SharedMemory] = {}
        self.processes: list = []
        self.conns: list = []
        self.lock = threading.Lock()
        self.released = False


def _release_resources(resources: _ExecutorResources) -> None:
    """Tear one executor's processes and shared segments down (idempotent).

    Order matters: pipes close first (workers blocked in ``recv`` exit),
    surviving processes are terminated *before* any segment is unlinked (so
    a worker never observes its mapped file vanishing mid-batch), and
    unlinking runs last.  Safe to call from ``close()``, a GC finalizer and
    the atexit hook — whichever fires first wins.
    """
    with resources.lock:
        if resources.released:
            return
        resources.released = True
        segments = list(resources.segments.values())
        processes = list(resources.processes)
        conns = list(resources.conns)
        resources.segments.clear()
        resources.processes.clear()
        resources.conns.clear()
    for conn in conns:
        try:
            conn.close()
        except Exception:  # pragma: no cover - already broken pipe
            pass
    for process in processes:
        try:
            if process.is_alive():
                process.terminate()
            process.join(timeout=2.0)
        except Exception:  # pragma: no cover - defensive
            pass
    for segment in segments:
        _unlink_quiet(segment)


_LIVE_RESOURCES: "weakref.WeakSet[_ExecutorResources]" = weakref.WeakSet()


@atexit.register
def _release_all_live_resources() -> None:  # pragma: no cover - process exit
    for resources in list(_LIVE_RESOURCES):
        _release_resources(resources)


# --------------------------------------------------------------------------- #
# The snapshot plane (parent side)
# --------------------------------------------------------------------------- #
class _SnapshotPlane:
    """Exports immutable snapshots into named shared segments.

    One plane per executor.  Each distinct :class:`ModelRegistry` gets a
    *slot*; each published version of that registry's model gets one segment
    ``{prefix}s{slot}v{version}`` holding ``[T_a, *flat_params]`` as
    ``float64``.  The two most recent versions per slot stay exported (a
    worker mid-rebuild may still want version N-1); older segments are
    unlinked eagerly.  The board segment mirrors the latest version per slot
    as an ``int64`` array — the cross-process registry version pointer.
    """

    def __init__(
        self,
        prefix: str,
        resources: _ExecutorResources,
        board: shared_memory.SharedMemory,
    ) -> None:
        self._prefix = prefix
        self._resources = resources
        self._board = board
        self._lock = threading.Lock()
        self._slots: Dict[int, int] = {}  # id(registry) -> slot
        self._registries: list = []  # keeps ids stable while the plane lives
        self._exported: Dict[int, Dict[int, Tuple[str, int]]] = {}

    def slot_for(self, registry) -> int:
        """The (stable, first-come) board slot of ``registry``."""
        with self._lock:
            slot = self._slots.get(id(registry))
            if slot is None:
                if len(self._registries) >= _BOARD_SLOTS:
                    raise RuntimeError(
                        f"process executor supports at most {_BOARD_SLOTS} "
                        f"distinct registries"
                    )
                slot = len(self._registries)
                self._slots[id(registry)] = slot
                self._registries.append(registry)
                self._exported[slot] = {}
            return slot

    def ensure_exported(self, slot: int, snapshot) -> None:
        """Export ``snapshot`` into ``slot`` if this version is not yet out."""
        with self._lock:
            if snapshot.version in self._exported[slot]:
                return
            self._export_locked(slot, snapshot)

    def reexport(self, slot: int, snapshot) -> None:
        """Re-export after a worker reported the segment missing (stale)."""
        with self._lock:
            entry = self._exported[slot].pop(snapshot.version, None)
            if entry is not None:
                segment = self._resources.segments.pop(entry[0], None)
                if segment is not None:
                    _unlink_quiet(segment)
            self._export_locked(slot, snapshot)

    def segment_nbytes(self, slot: int, version: int) -> int:
        with self._lock:
            entry = self._exported.get(slot, {}).get(version)
            return entry[1] if entry is not None else 0

    def _export_locked(self, slot: int, snapshot) -> None:
        parts = [np.array([float(snapshot.threshold)], dtype=np.float64)]
        parts.extend(
            np.ascontiguousarray(parameter.data, dtype=np.float64).ravel()
            for _, parameter in snapshot.model.named_parameters()
        )
        flat = np.concatenate(parts)
        name = _segment_name(self._prefix, slot, snapshot.version)
        segment = _create_segment(name, flat.nbytes)
        view = np.frombuffer(segment.buf, dtype=np.float64)
        view[:] = flat
        del view  # the mapping must hold no exported views when closed
        self._resources.segments[name] = segment
        self._exported[slot][snapshot.version] = (name, flat.nbytes)
        board = np.frombuffer(self._board.buf, dtype=np.int64)
        board[slot] = snapshot.version
        del board
        # Keep the two newest versions attached workers may still hold; the
        # parent is the sole unlink owner, so pruning here cannot race a
        # worker's own cleanup.
        versions = sorted(self._exported[slot])
        for stale in versions[:-2]:
            stale_name, _ = self._exported[slot].pop(stale)
            segment = self._resources.segments.pop(stale_name, None)
            if segment is not None:
                _unlink_quiet(segment)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            exported = {
                slot: dict(entries) for slot, entries in self._exported.items()
            }
        segment_count = sum(len(entries) for entries in exported.values())
        segment_bytes = sum(
            nbytes for entries in exported.values() for _, nbytes in entries.values()
        )
        board = np.frombuffer(self._board.buf, dtype=np.int64)
        latest = {
            str(slot): int(board[slot]) for slot in exported if board[slot] > 0
        }
        del board
        return {
            "segments": segment_count,
            "segment_bytes": int(segment_bytes),
            "latest_versions": latest,
        }


# --------------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------------- #
def _build_slot(prefix: str, slot: int, version: int, spec: Dict[str, object]):
    """Rebuild one slot's model/detector over the shared segment (worker side).

    Raises ``FileNotFoundError`` when the segment is gone — the caller turns
    that into a ``("stale", version)`` reply and the parent re-exports.
    """
    # Imports live here (not module top) so a spawn-started worker pays them
    # once and a fork-started worker inherits them for free either way.
    from ..core.clstm import CLSTM
    from ..core.detector import AnomalyDetector
    from ..utils.config import DetectionConfig, ModelConfig

    segment = _attach(_segment_name(prefix, slot, version))
    flat = np.frombuffer(segment.buf, dtype=np.float64)
    threshold = float(flat[0])
    model = CLSTM.from_config(
        ModelConfig.from_dict(spec["model"]), coupling=spec["coupling"], seed=0
    )
    offset = 1
    for (expected_name, shape), (name, parameter) in zip(
        spec["params"], model.named_parameters()
    ):
        if expected_name != name:
            raise RuntimeError(
                f"parameter order mismatch: spec says {expected_name!r}, "
                f"model yields {name!r}"
            )
        size = int(np.prod(shape))
        view = flat[offset : offset + size].reshape(tuple(shape))
        # Snapshots are immutable by contract; freeze the view so any code
        # path that would write through a parameter fails loudly instead of
        # corrupting every process mapping this segment.
        view.flags.writeable = False
        parameter.data = view
        offset += size
    if offset != flat.size:
        raise RuntimeError(
            f"segment size mismatch: consumed {offset} of {flat.size} floats"
        )
    # Rebind BEFORE prewarming: the fused caches copy the (shared) weights
    # into their stacked layout and are keyed to the live parameter arrays.
    model.prewarm_fused()
    detector = AnomalyDetector(
        model, DetectionConfig.from_dict(spec["detection"]), threshold=threshold
    )
    return (version, segment, model, detector)


def _worker_main(conn, prefix: str, board_name: str) -> None:
    """Persistent scoring worker: rebuild once per version, score batches."""
    try:
        board = _attach(board_name)
    except FileNotFoundError:  # parent already tearing down
        board = None
    specs: Dict[int, Dict[str, object]] = {}
    cache: Dict[int, tuple] = {}  # slot -> (version, segment, model, detector)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            try:
                if kind == "close":
                    conn.send(("ok",))
                    break
                if kind == "ping":
                    conn.send(("ok",))
                    continue
                if kind == "spec":
                    _, slot, spec = message
                    specs[slot] = spec
                    conn.send(("ok",))
                    continue
                if kind == "stats":
                    payload = {
                        "slots": {
                            str(slot): int(entry[0]) for slot, entry in cache.items()
                        },
                        "zero_copy_bytes": int(
                            sum(entry[1].size for entry in cache.values())
                        ),
                    }
                    if board is not None:
                        versions = np.frombuffer(board.buf, dtype=np.int64)
                        payload["board"] = [int(v) for v in versions if v > 0]
                        del versions
                    conn.send(("ok", payload))
                    continue
                if kind == "score":
                    (
                        _,
                        slot,
                        version,
                        gate_inputs,
                        action_targets,
                        interaction_targets,
                        segment_indices,
                    ) = message
                    current = cache.get(slot)
                    if current is None or current[0] != version:
                        try:
                            fresh = _build_slot(prefix, slot, version, specs[slot])
                        except FileNotFoundError:
                            conn.send(("stale", version))
                            continue
                        cache[slot] = fresh
                        if current is not None:
                            old_segment = current[1]
                            del current  # drop the old model so its views die
                            _close_quiet(old_segment)
                        current = fresh
                    _, _, model, detector = current
                    predicted_action, predicted_interaction, hidden, _ = model.predict_full(
                        gate_inputs
                    )
                    result = detector.score_predictions(
                        segment_indices,
                        action_targets,
                        interaction_targets,
                        predicted_action,
                        predicted_interaction,
                    )
                    conn.send(
                        (
                            "ok",
                            result.scores,
                            result.action_errors,
                            result.interaction_errors,
                            result.is_anomaly,
                            float(result.threshold),
                            hidden,
                        )
                    )
                    continue
                conn.send(("error", f"unknown message kind {kind!r}"))
            except BaseException:
                try:
                    conn.send(("error", traceback.format_exc()))
                except Exception:
                    break
    finally:
        try:
            conn.close()
        except Exception:
            pass
        for entry in cache.values():
            _close_quiet(entry[1])
        if board is not None:
            _close_quiet(board)


class _WorkerHandle:
    """Parent-side endpoint of one worker: pipe, per-worker RPC lock."""

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        self.specs_sent: set = set()
        self.attached: Dict[int, Tuple[int, int]] = {}  # slot -> (version, nbytes)

    def request_locked(self, message: tuple) -> tuple:
        """One send/recv round trip; caller must hold :attr:`lock`."""
        try:
            self.conn.send(message)
            return self.conn.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as error:
            raise WorkerCrashed(
                f"scoring worker (pid {self.process.pid}) is gone: {error!r}"
            ) from error

    def request(self, message: tuple) -> tuple:
        with self.lock:
            return self.request_locked(message)


# --------------------------------------------------------------------------- #
# The executor
# --------------------------------------------------------------------------- #
class ProcessParallelExecutor:
    """Fan shard scoring out to persistent worker *processes*.

    Drop-in for :class:`~repro.serving.executor.ParallelExecutor` on the
    sharded service's executor seam — :meth:`map` has identical semantics
    (thread fan-out of shard tasks, results in submission order) — plus a
    :meth:`bind` hook the service calls after building its shards: binding
    spawns the worker processes and installs a ``remote_compute`` hook on
    every shard, so the compute kernel of
    :meth:`~repro.serving.service.ScoringService._score_requests` (fused
    forward + REIA scoring) runs in a worker interpreter while *all* state
    transitions stay in the parent.

    Shard ``i`` is served by worker ``i % workers``; each worker's RPCs are
    serialised by a per-worker lock, so two shards sharing a worker never
    interleave messages.  ``workers=1`` is bitwise-identical to
    :class:`~repro.serving.executor.SerialExecutor` (same assembly, same
    ``float64`` weights via shared memory, same kernels).

    Must be released with :meth:`close` — reached through
    ``ShardedScoringService.close()`` / ``Runtime.close()`` — which tears
    the workers down and unlinks every shared segment; a finalizer and a
    module atexit hook cover abnormal exits.
    """

    serial = False

    def __init__(
        self,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if start_method is not None and start_method not in (
            "fork",
            "spawn",
            "forkserver",
        ):
            raise ValueError(
                f"start_method must be 'fork', 'spawn' or 'forkserver', "
                f"got {start_method!r}"
            )
        self.workers = int(workers) if workers is not None else default_workers()
        available = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in available else available[0]
        elif start_method not in available:
            raise ValueError(
                f"start method {start_method!r} is not supported on this "
                f"platform (available: {available})"
            )
        self.start_method = start_method
        self._ctx = multiprocessing.get_context(start_method)
        self._prefix = f"reproshm{os.getpid()}x{next(_PREFIX_COUNTER)}"
        resources = _ExecutorResources()
        self._resources = resources
        _LIVE_RESOURCES.add(resources)
        self._finalizer = weakref.finalize(self, _release_resources, resources)
        board_name = self._prefix + "board"
        board = _create_segment(board_name, 8 * _BOARD_SLOTS)
        np.frombuffer(board.buf, dtype=np.int64)[:] = 0
        resources.segments[board_name] = board
        self._board = board
        self._plane = _SnapshotPlane(self._prefix, resources, board)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-shard"
        )
        self._handles: List[_WorkerHandle] = []
        self._handles_lock = threading.Lock()
        self._closed = False

    # -------------------------------------------------------------- #
    # Executor surface (shared with Serial/ParallelExecutor)
    # -------------------------------------------------------------- #
    def map(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        """Execute shard tasks on the thread pool; results in task order.

        The tasks themselves (``try_score_ready`` / ``poll`` closures) run in
        the parent — they hold shard locks and drive ingest/drift state — and
        reach the worker processes only through each shard's
        ``remote_compute`` hook when a batch actually needs scoring.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        tasks = list(tasks)
        if not tasks:
            return []
        if len(tasks) == 1:
            return [tasks[0]()]
        futures = [self._pool.submit(task) for task in tasks]
        return [future.result() for future in futures]

    # -------------------------------------------------------------- #
    # Service binding
    # -------------------------------------------------------------- #
    def bind(self, service) -> None:
        """Spawn workers and hook every shard's compute onto them.

        Called by :class:`~repro.serving.sharding.ShardedScoringService`
        right after its shards are built.  Spawns ``min(workers, shards)``
        persistent processes eagerly (never fewer than one), so the first
        batch pays no fork latency.
        """
        shards = list(service.shards)
        target = max(1, min(self.workers, len(shards)))
        with self._handles_lock:
            while len(self._handles) < target:
                self._spawn_worker_locked()
        for index, shard in enumerate(shards):
            self._install(shard, index)

    def notify_shard_added(self, shard, index: int) -> None:
        """Hook a shard created after binding (rebalancer splits)."""
        with self._handles_lock:
            if len(self._handles) < self.workers:
                self._spawn_worker_locked()
        self._install(shard, index)

    def _install(self, shard, index: int) -> None:
        shard.remote_compute = functools.partial(
            self._remote_compute, index, shard.registry
        )

    def _spawn_worker_locked(self) -> None:
        if self._closed:
            raise RuntimeError("executor is closed")
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._prefix, self._prefix + "board"),
            name=f"repro-procpool-{len(self._handles)}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._resources.processes.append(process)
        self._resources.conns.append(parent_conn)
        self._handles.append(_WorkerHandle(process, parent_conn))

    # -------------------------------------------------------------- #
    # The remote compute kernel
    # -------------------------------------------------------------- #
    def _remote_compute(
        self,
        shard_index: int,
        registry,
        snapshot,
        windows,
        action_targets: np.ndarray,
        interaction_targets: np.ndarray,
        segment_indices: np.ndarray,
    ) -> BatchScores:
        """Score one assembled batch in the worker owning ``shard_index``.

        The parent projects ``windows`` through the segments' own cache
        (``CLSTM.gate_inputs`` — the same fixed-block routine the serial
        path uses, on bitwise-equal weights) and ships the gathered gate
        inputs; the worker runs the recurrent sweep, decoders and REIA.

        ``snapshot`` is the version the parent's handle pinned for this
        batch; the message carries it explicitly so the worker rebuilds and
        scores exactly that version — the board is advisory, the pin is
        authoritative, matching serial semantics where a publish landing
        mid-batch is only seen by the next pin.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        slot = self._plane.slot_for(registry)
        self._plane.ensure_exported(slot, snapshot)
        gates = snapshot.model.gate_inputs(windows)
        with self._handles_lock:
            if not self._handles:
                self._spawn_worker_locked()
            handle = self._handles[shard_index % len(self._handles)]
        with handle.lock:
            if slot not in handle.specs_sent:
                spec = {
                    "model": snapshot.model.model_config.to_dict(),
                    "coupling": snapshot.model.coupling,
                    "detection": registry.detection_config.to_dict(),
                    "params": [
                        (name, tuple(int(d) for d in parameter.data.shape))
                        for name, parameter in snapshot.model.named_parameters()
                    ],
                }
                reply = handle.request_locked(("spec", slot, spec))
                if reply[0] != "ok":
                    raise RuntimeError(f"worker rejected slot spec: {reply!r}")
                handle.specs_sent.add(slot)
            reply = ("stale", snapshot.version)
            for _ in range(_STALE_RETRIES):
                reply = handle.request_locked(
                    (
                        "score",
                        slot,
                        snapshot.version,
                        gates,
                        action_targets,
                        interaction_targets,
                        segment_indices,
                    )
                )
                if reply[0] != "stale":
                    break
                self._plane.reexport(slot, snapshot)
            if reply[0] == "stale":
                raise RuntimeError(
                    f"worker could not attach snapshot v{snapshot.version} "
                    f"after {_STALE_RETRIES} re-exports"
                )
            if reply[0] == "error":
                raise RuntimeError(f"process worker scoring failed:\n{reply[1]}")
            handle.attached[slot] = (
                snapshot.version,
                self._plane.segment_nbytes(slot, snapshot.version),
            )
        _, scores, action_errors, interaction_errors, is_anomaly, threshold, hidden = reply
        return BatchScores(
            scores=scores,
            action_errors=action_errors,
            interaction_errors=interaction_errors,
            is_anomaly=is_anomaly,
            threshold=threshold,
            hidden=hidden,
        )

    # -------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------- #
    @property
    def segment_prefix(self) -> str:
        """Name prefix of every shared segment this executor owns."""
        return self._prefix

    def stats(self) -> Dict[str, object]:
        """JSON-safe snapshot: segments, zero-copy bytes, worker liveness."""
        plane = self._plane.stats()
        with self._handles_lock:
            handles = list(self._handles)
        workers = []
        for index, handle in enumerate(handles):
            with handle.lock:
                attached = dict(handle.attached)
            workers.append(
                {
                    "index": index,
                    "pid": handle.process.pid,
                    "alive": handle.process.is_alive(),
                    # Bytes this worker maps zero-copy: shared pages, not
                    # per-worker RSS — the whole point of the snapshot plane.
                    "zero_copy_bytes": int(
                        sum(nbytes for _, nbytes in attached.values())
                    ),
                    "slots": {
                        str(slot): int(version)
                        for slot, (version, _) in attached.items()
                    },
                }
            )
        return {
            "mode": "process",
            "workers": self.workers,
            "start_method": self.start_method,
            "segment_prefix": self._prefix,
            "segments": plane["segments"],
            "segment_bytes": plane["segment_bytes"],
            "latest_versions": plane["latest_versions"],
            "worker_processes": workers,
        }

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #
    def close(self) -> None:
        """Stop workers, unlink every shared segment (idempotent).

        Workers get a graceful ``close`` first (they release their mappings
        and exit); anything still alive is terminated by the resource
        release, which then unlinks all segments — after ``close()`` returns
        there is no trace of this executor in ``/dev/shm``.
        """
        if self._closed:
            return
        self._closed = True
        with self._handles_lock:
            handles = list(self._handles)
        for handle in handles:
            with handle.lock:
                try:
                    handle.conn.send(("close",))
                    handle.conn.recv()
                except Exception:
                    pass
        for handle in handles:
            try:
                handle.process.join(timeout=5.0)
            except Exception:  # pragma: no cover - defensive
                pass
        self._pool.shutdown(wait=True)
        self._finalizer()
        _LIVE_RESOURCES.discard(self._resources)

    def __enter__(self) -> "ProcessParallelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"ProcessParallelExecutor(workers={self.workers}, "
            f"start_method={self.start_method!r})"
        )
