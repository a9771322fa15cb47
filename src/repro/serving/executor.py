"""Thread-parallel execution of the serving runtime.

Until now the online loop (score → drift trigger → incremental retrain → hot
swap) ran on the caller's thread: shards of a
:class:`~repro.serving.sharding.ShardedScoringService` scored one after the
other, and a retrain stalled every stream the service was feeding.  The
fused forwards are BLAS-bound GEMM chains, and NumPy releases the GIL inside
them — so shard batches of *different* shards can genuinely overlap on a
worker-thread pool, and a retrain can run off the scoring path entirely.
This module provides both halves:

* :class:`SerialExecutor` / :class:`ParallelExecutor` — the shard-work
  execution strategies.  The serial executor runs tasks in-line in shard
  index order and is bit-for-bit identical to the pre-executor code path.
  The parallel executor fans tasks out to a persistent worker pool and
  gathers results **in submission order**, so the merged detection stream is
  deterministic by shard index regardless of which worker finishes first.
  ``ParallelExecutor(workers=1)`` executes the same task sequence as the
  serial executor on a single worker thread and is therefore also
  bitwise-identical to it.
* :class:`BackgroundUpdatePlane` — a decorator around
  :class:`~repro.serving.maintenance.UpdatePlane` that moves the retrain +
  merge + re-calibrate + publish transaction onto a dedicated maintenance
  thread.  The scoring path only enqueues the drained sample buffer and
  returns; scoring continues against the snapshot each batch pinned, and the
  publish is an atomic registry swap (under the registry lock) that readers
  observe at their next micro-batch boundary.  ``quiesce()`` blocks until
  every queued retrain has landed — the checkpoint path calls it so a
  checkpoint never races a half-published version.

Determinism contract
--------------------
With one ingest thread, a serial executor — or a parallel executor with
``workers=1`` and synchronous updates — is fully deterministic and
bitwise-reproducible.  With ``workers > 1`` the *per-stream* detection
sequences are still exact (each shard's batches are scored sequentially
under its scoring lock), but when shards share a registry the interleaving
of concurrent publishes, and therefore version timelines, may vary from run
to run.  Terminal drains (:meth:`ShardedScoringService.flush` /
:meth:`~repro.serving.sharding.ShardedScoringService.drain`) always run
shards serially in index order for this reason.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Deque, List, Optional, Sequence, TypeVar, Union

from ..utils.config import ExecutorConfig, TrainingConfig, UpdateConfig
from .maintenance import UpdatePlane, UpdateReport
from .microbatch import ScoreRequest
from .service import UpdateTrigger

__all__ = [
    "EXECUTOR_ENV_VAR",
    "SerialExecutor",
    "ParallelExecutor",
    "BackgroundUpdatePlane",
    "build_executor",
    "default_workers",
]

T = TypeVar("T")

EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"
"""Environment variable consulted by ``ExecutorConfig(mode="auto")``.

Set to ``serial`` or ``parallel``; CI runs the fast test-suite once with
``REPRO_EXECUTOR=parallel`` so the thread path gates every change."""

_DEFAULT_WORKER_CAP = 8


def default_workers() -> int:
    """Pool size used when ``ExecutorConfig.workers`` is unset.

    One worker per *available* CPU, capped — shard scoring is BLAS-bound, so
    threads past the physical core count only add scheduling noise.

    Availability comes from the process's CPU affinity mask
    (``os.sched_getaffinity``), not ``os.cpu_count()``: under a cgroup cpuset
    or an explicit affinity mask — the container deployment this runtime
    targets — ``cpu_count`` reports the *host's* cores and the pool would
    oversubscribe the handful actually schedulable.  Platforms without
    affinity support (macOS, Windows) fall back to the CPU count.
    """
    try:
        available = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - platform fallback
        available = os.cpu_count() or 1
    return max(1, min(_DEFAULT_WORKER_CAP, available))


class SerialExecutor:
    """Run shard tasks in-line on the calling thread, in order.

    This is the default strategy and the reference semantics: it executes
    exactly the statements the pre-executor service ran, in the same order,
    on the same thread — bit-for-bit identical results, zero overhead.
    """

    serial = True
    workers = 1

    def map(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        """Execute ``tasks`` sequentially; results in task order."""
        return [task() for task in tasks]

    def close(self) -> None:
        """Nothing to release."""

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ParallelExecutor:
    """Fan shard tasks out to a persistent worker-thread pool.

    One fused forward per shard is in flight at a time (the service
    dispatches at most one scoring task per shard, and each task holds its
    shard's scoring lock), so ``workers`` bounds how many *shards* score
    concurrently.  :meth:`map` blocks until every dispatched task finished
    and returns results in submission order — the caller's merge is
    deterministic by shard index no matter which worker finishes first.

    The pool is lazy (threads spawn on first use) and must be released with
    :meth:`close` (the sharded service and the runtime facade do this in
    their own ``close``).
    """

    serial = False

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = int(workers) if workers is not None else default_workers()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-shard"
        )
        self._closed = False

    def map(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        """Execute ``tasks`` on the pool; block; results in task order.

        A single task is run on the calling thread directly — the common
        steady-state case (one shard's batch filled) pays no pool hop.
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

    def close(self) -> None:
        """Shut the pool down (idempotent); waits for in-flight tasks."""
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def build_executor(
    config: Optional[ExecutorConfig] = None,
) -> Union[SerialExecutor, ParallelExecutor]:
    """Construct the executor an :class:`ExecutorConfig` describes.

    ``mode="auto"`` resolves through the :data:`EXECUTOR_ENV_VAR` environment
    variable (unset → serial), so a deployment JSON can leave the execution
    strategy to the machine it lands on and CI can flip the whole suite to
    the thread path without touching any test.
    """
    config = config if config is not None else ExecutorConfig()
    mode = config.mode
    if mode == "auto":
        env = os.environ.get(EXECUTOR_ENV_VAR, "").strip().lower()
        if env and env not in ("serial", "parallel"):
            raise ValueError(
                f"{EXECUTOR_ENV_VAR} must be 'serial' or 'parallel', got {env!r}"
            )
        mode = env or "serial"
    if mode == "serial":
        return SerialExecutor()
    return ParallelExecutor(workers=config.workers)


class BackgroundUpdatePlane:
    """Run a wrapped :class:`UpdatePlane`'s retrains on a maintenance thread.

    The synchronous plane executes its whole transaction (train on the
    drained buffer → merge → re-calibrate ``T_a`` → publish) inside the
    scoring path, stalling every stream of the triggering shard.  This
    decorator accepts the same :meth:`handle_trigger` call but only enqueues
    the job: a single daemon maintenance thread dequeues jobs FIFO and runs
    the inner plane's transaction off the scoring path.  While the retrain
    runs, scoring continues against whatever snapshot each micro-batch pins;
    the publish is an atomic registry swap observed at the next batch's pin.

    One maintenance thread per plane keeps the version lineage coherent:
    jobs from shards sharing this plane's registry are serialised FIFO, and
    ``updates_performed`` (the retrain RNG seed) advances exactly as the
    synchronous plane's would — only the *timing* of the swap moves.

    Failures of a background retrain are captured and re-raised from the
    next :meth:`quiesce`, :meth:`pause` or :meth:`close`, so a crashing
    update cannot disappear silently just because no caller was waiting on
    it.

    The checkpoint path uses :meth:`pause` / :meth:`pending_jobs` /
    :meth:`resume` instead of :meth:`quiesce`: pausing waits only for the
    *in-flight* retrain, then the frozen queue of not-yet-started jobs is
    persisted with the checkpoint and replayed on restore — a checkpoint
    neither executes every queued retrain up front nor loses the queue when
    the process exits.

    The wrapper exposes the inner plane's read surface (``registry``,
    ``reports``, ``updates_performed``, ``total_update_seconds``,
    ``restore_update_count``), so services, checkpoints and dashboards treat
    both planes interchangeably.
    """

    def __init__(self, plane: UpdatePlane) -> None:
        self.plane = plane
        self._state = threading.Condition()
        self._queue: Deque[tuple] = deque()
        self._active: Optional[tuple] = None
        self._paused = 0  # pause() nesting depth
        self._failures: List[BaseException] = []
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-update-plane", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # Pass-through read surface (same duck type as UpdatePlane)
    # ------------------------------------------------------------------ #
    @property
    def registry(self):
        return self.plane.registry

    @property
    def update_config(self) -> UpdateConfig:
        return self.plane.update_config

    @property
    def training_config(self) -> TrainingConfig:
        return self.plane.training_config

    @property
    def reports(self) -> List[UpdateReport]:
        """Completed updates (background jobs appear here once they land)."""
        return self.plane.reports

    @property
    def updates_performed(self) -> int:
        return self.plane.updates_performed

    @property
    def total_update_seconds(self) -> float:
        return self.plane.total_update_seconds

    def restore_update_count(self, count: int) -> None:
        self.plane.restore_update_count(count)

    # ------------------------------------------------------------------ #
    # The asynchronous trigger path
    # ------------------------------------------------------------------ #
    @property
    def pending_updates(self) -> int:
        """Retrains enqueued or running but not yet published."""
        with self._state:
            return len(self._queue) + (1 if self._active is not None else 0)

    def handle_trigger(self, trigger: UpdateTrigger, samples: Sequence[ScoreRequest]) -> None:
        """Enqueue one retrain and return immediately.

        ``samples`` is the service's drained presumed-normal buffer — the
        requests are frozen and the tuple is snapshotted here, so the buffer
        the service refills afterwards cannot leak into a queued job.
        Unlike the synchronous plane this returns ``None``, not an
        :class:`UpdateReport`: the report appears in :attr:`reports` when the
        maintenance thread finishes the job.
        """
        with self._state:
            if self._closed:
                raise RuntimeError("background update plane is closed")
            self._queue.append((trigger, tuple(samples)))
            self._state.notify_all()

    def _run(self) -> None:
        while True:
            with self._state:
                self._state.wait_for(
                    lambda: self._paused == 0 and (self._queue or self._closed)
                )
                if not self._queue:  # closed and fully drained
                    return
                job = self._queue.popleft()
                self._active = job
            trigger, samples = job
            try:
                self.plane.handle_trigger(trigger, samples)
            except BaseException as error:  # surfaced by quiesce()/close()
                with self._state:
                    self._failures.append(error)
            finally:
                with self._state:
                    self._active = None
                    self._state.notify_all()

    def pause(self) -> None:
        """Stop dequeuing new jobs; block until the in-flight one lands.

        Re-entrant (pauses nest; each needs a matching :meth:`resume`), so
        the runtime's checkpoint path can pause inside a caller's own pause.
        While paused the queue is frozen — :meth:`pending_jobs` is a stable
        snapshot a checkpoint can persist — but :meth:`handle_trigger` still
        accepts new jobs (scoring threads are not blocked; their triggers
        queue behind the freeze).  Re-raises any captured background failure
        (after undoing the pause), so a checkpoint fails loudly instead of
        persisting a lineage whose last retrain crashed.
        """
        with self._state:
            self._paused += 1
            self._state.wait_for(lambda: self._active is None)
            failed = bool(self._failures)
        if failed:
            self.resume()
            self._raise_failures()

    def resume(self) -> None:
        """Undo one :meth:`pause`; the maintenance thread picks work back up."""
        with self._state:
            if self._paused == 0:
                raise RuntimeError("resume() without a matching pause()")
            self._paused -= 1
            self._state.notify_all()

    def pending_jobs(self) -> List[tuple]:
        """Snapshot of the queued-but-not-started ``(trigger, samples)`` jobs.

        Only stable while paused (the maintenance thread dequeues otherwise);
        the checkpoint path persists this snapshot so queued retrains survive
        a restore instead of being silently dropped with the process.
        """
        with self._state:
            return list(self._queue)

    def quiesce(self) -> None:
        """Block until every queued retrain has landed (or failed).

        Re-raises the first captured background failure.  Must not be called
        while paused with jobs still queued — the frozen queue would never
        drain.  ``drain()``-style terminal paths call this so no caller ever
        observes a half-applied version lineage.
        """
        with self._state:
            self._state.wait_for(
                lambda: not self._queue and self._active is None
            )
        self._raise_failures()

    def close(self) -> None:
        """Finish queued jobs, stop the maintenance thread (idempotent).

        Any outstanding pauses are cancelled so the queued jobs can run to
        completion — shutdown executes queued retrains rather than dropping
        them.  (Runtimes that must *not* run them at shutdown checkpoint
        first: the checkpoint persists the queue, and the restored runtime
        re-enqueues it.)  Like :meth:`quiesce`, re-raises the first captured
        background failure — shutting down must not make a crashed retrain
        disappear.
        """
        with self._state:
            self._closed = True
            self._paused = 0
            self._state.notify_all()
        if self._thread.is_alive():
            self._thread.join()
        self._raise_failures()

    def _raise_failures(self) -> None:
        with self._state:
            failures, self._failures = self._failures, []
        if failures:
            raise RuntimeError(
                f"{len(failures)} background update(s) failed"
            ) from failures[0]
