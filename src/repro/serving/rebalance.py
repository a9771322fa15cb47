"""ShardStats-driven load rebalancing for the sharded serving runtime.

The default placement levels the *number* of streams pinned to each shard,
but live traffic is not uniform: a flash crowd can pin a burst of hot
streams onto one shard while its siblings idle.  The :class:`Rebalancer`
consumes the load signal
:meth:`~repro.serving.service.ScoringService.load_stats` established (queue
depth, occupancy, flush latency) and acts on it three ways, all of them
preserving the per-stream ordering contract:

* **New-stream diversion** — when the placement proposes a *hot* shard
  (queue depth at least ``hot_queue_factor`` times the active mean, and at
  least ``min_hot_depth``), a stream seen for the first time is pinned to the
  least-loaded active shard instead.  Existing streams never move: a route,
  once pinned, changes only through an explicit merge handoff.
* **Deterministic split** — under sustained backlog
  (``split_queue_depth``), the deepest shard triggers the creation of a
  fresh shard over the same registry/update plane; new streams start
  routing to it (it holds no routes and no queue) while every existing
  stream stays where it was.
* **Deterministic merge** — a split-created shard whose queue has been
  empty for ``merge_idle_rounds`` consecutive rebalance rounds hands its
  sessions — rolling windows, detection history and all — to the
  least-loaded survivor in one explicit handoff, its routes are re-pinned,
  and the shard is retired (never routed to again).

Every decision is recorded as a :class:`RebalanceDecision` (surfaced through
``/stats``), timestamps come from an injectable clock, and the whole policy
is a pure function of observed queue depths — two runs with the same
:class:`~repro.serving.service.ManualClock` schedule and the same seeded
load produce identical decisions and route tables.

Concurrency contract: :meth:`Rebalancer.route` runs inside the service's
route-table lock (the service calls it from ``shard_index``), and
:meth:`maybe_rebalance` — invoked at the top of every
:meth:`~repro.serving.sharding.ShardedScoringService.poll` — takes that lock
itself.  Split and merge additionally require *routing quiescence*: no other
thread may sit between its route lookup and its enqueue while a merge moves
sessions.  The supported deployment drives ingest and ``poll`` from one
thread — exactly what the HTTP tier's single batcher thread does — so this
is a documented deployment shape, not a new lock.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..utils.config import ShardingConfig

if TYPE_CHECKING:  # pragma: no cover - typing only (avoid import cycle)
    from .sharding import ShardedScoringService

__all__ = ["RebalanceDecision", "Rebalancer"]


@dataclass(frozen=True)
class RebalanceDecision:
    """One recorded rebalancing action.

    Attributes
    ----------
    kind:
        ``"route"`` (a new stream diverted away from a hot or retired
        shard), ``"split"`` (a shard added under backlog) or ``"merge"``
        (a split shard retired, sessions handed off).
    stream_id:
        The diverted stream for ``"route"`` decisions; ``None`` for
        topology changes.
    source:
        The shard the placement proposed (route), the shard that triggered
        the split, or the shard being retired (merge).
    target:
        The shard actually chosen (route), the freshly created shard
        (split), or the shard adopting the sessions (merge).
    reason:
        Human-readable trigger summary (queue depths, idle rounds).
    at:
        Clock reading when the decision was taken (the injected clock, so
        deterministic under a :class:`~repro.serving.service.ManualClock`).
    """

    kind: str
    stream_id: Optional[str]
    source: int
    target: int
    reason: str
    at: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (the ``/stats`` endpoint serves these)."""
        return dataclasses.asdict(self)


class Rebalancer:
    """Load-aware routing and topology policy over a sharded service.

    Construct with a :class:`~repro.utils.config.ShardingConfig` and hand it
    to :class:`~repro.serving.sharding.ShardedScoringService` (or set
    ``RuntimeConfig.sharding.rebalance=True`` and let the runtime wire it);
    the service calls :meth:`bind` once its shards exist.  With
    ``config.rebalance`` false every method is a no-op passthrough, keeping
    the service's own placement bitwise intact.
    """

    def __init__(
        self,
        config: Optional[ShardingConfig] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = config if config is not None else ShardingConfig(rebalance=True)
        self._clock: Callable[[], float] = clock if clock is not None else time.monotonic
        self._service: Optional["ShardedScoringService"] = None
        self.decisions: List[RebalanceDecision] = []
        self._idle_rounds: Dict[int, int] = {}

    def bind(self, service: "ShardedScoringService") -> None:
        """Attach to the service whose routes this policy may steer.

        Splitting creates shards over the source shard's registry, and
        diversion re-pins streams across shards, so rebalancing requires
        every shard to serve the *same* registry (the horizontal-scaling
        deployment shape).  Multi-model deployments keep their custom
        routers and leave ``rebalance`` off.
        """
        if self.config.rebalance:
            registries = {id(shard.registry) for shard in service.shards}
            if len(registries) > 1:
                raise ValueError(
                    "rebalancing requires all shards to share one registry; "
                    "multi-model deployments must keep rebalance disabled"
                )
        self._service = service

    # ------------------------------------------------------------------ #
    # New-stream routing (called under the service's route-table lock)
    # ------------------------------------------------------------------ #
    def route(self, stream_id: str, proposed: int) -> int:
        """Final shard for a stream seen for the first time.

        Called by ``shard_index`` *inside* the route lock, only for streams
        with no pinned route yet.  Diverts away from retired shards always,
        and away from hot shards when diversion can actually help (more
        than one active shard, and a strictly shallower target exists).
        """
        service = self._service
        if service is None or not self.config.rebalance:
            return proposed
        retired = service.retired_shards
        active = [i for i in range(len(service.shards)) if i not in retired]
        if not active:
            return proposed
        depths = {i: service.shards[i].queue_depth() for i in active}
        if proposed in retired:
            target = min(active, key=lambda i: (depths[i], i))
            self.decisions.append(
                RebalanceDecision(
                    kind="route",
                    stream_id=stream_id,
                    source=proposed,
                    target=target,
                    reason=f"shard {proposed} is retired",
                    at=self._clock(),
                )
            )
            return target
        if len(active) < 2:
            return proposed
        depth = depths[proposed]
        total = sum(depths.values())
        hot = (
            depth >= self.config.min_hot_depth
            and depth * len(active) >= self.config.hot_queue_factor * total
        )
        if not hot:
            return proposed
        target = min(
            (i for i in active if i != proposed), key=lambda i: (depths[i], i)
        )
        if depths[target] >= depth:
            return proposed  # everyone is equally deep; diversion buys nothing
        self.decisions.append(
            RebalanceDecision(
                kind="route",
                stream_id=stream_id,
                source=proposed,
                target=target,
                reason=(
                    f"hot shard: depth {depth} vs mean "
                    f"{total / len(active):.1f} across {len(active)} shards"
                ),
                at=self._clock(),
            )
        )
        return target

    # ------------------------------------------------------------------ #
    # Topology (called once per poll round, before scoring)
    # ------------------------------------------------------------------ #
    def maybe_rebalance(self) -> List[RebalanceDecision]:
        """Run one rebalance round: at most one split and one merge.

        Invoked at the top of every service ``poll()``.  Requires routing
        quiescence for the merge handoff (see the module docstring); the
        split half only appends a shard, which is safe under the route lock
        alone.
        """
        service = self._service
        if service is None or not self.config.rebalance:
            return []
        produced: List[RebalanceDecision] = []
        with service._routes_lock:
            retired = service.retired_shards
            active = [i for i in range(len(service.shards)) if i not in retired]
            depths = {i: service.shards[i].queue_depth() for i in active}
            if (
                self.config.split_queue_depth is not None
                and len(active) < self.config.max_shards
            ):
                candidates = [
                    i for i in active if depths[i] >= self.config.split_queue_depth
                ]
                if candidates:
                    # Deepest shard wins; ties break to the lowest index, so
                    # the choice is reproducible under identical load.
                    source = max(candidates, key=lambda i: (depths[i], -i))
                    new_index = service._spawn_shard_locked(source)
                    decision = RebalanceDecision(
                        kind="split",
                        stream_id=None,
                        source=source,
                        target=new_index,
                        reason=(
                            f"queue depth {depths[source]} >= "
                            f"split_queue_depth {self.config.split_queue_depth}"
                        ),
                        at=self._clock(),
                    )
                    self.decisions.append(decision)
                    produced.append(decision)
                    self._idle_rounds[new_index] = 0
                    active.append(new_index)
                    depths[new_index] = 0
            if self.config.merge_idle_rounds is not None:
                base = service._base_shards
                merged = False
                for index in sorted(i for i in active if i >= base):
                    if depths[index] == 0:
                        self._idle_rounds[index] = self._idle_rounds.get(index, 0) + 1
                    else:
                        self._idle_rounds[index] = 0
                    if (
                        not merged
                        and len(active) > 1
                        and self._idle_rounds[index] >= self.config.merge_idle_rounds
                    ):
                        survivors = [i for i in active if i != index]
                        target = min(survivors, key=lambda i: (depths[i], i))
                        idle = self._idle_rounds[index]
                        service._merge_shard_locked(index, target)
                        decision = RebalanceDecision(
                            kind="merge",
                            stream_id=None,
                            source=index,
                            target=target,
                            reason=(
                                f"split shard idle for {idle} consecutive "
                                f"rounds (merge_idle_rounds="
                                f"{self.config.merge_idle_rounds})"
                            ),
                            at=self._clock(),
                        )
                        self.decisions.append(decision)
                        produced.append(decision)
                        self._idle_rounds.pop(index, None)
                        active.remove(index)
                        merged = True
        return produced
