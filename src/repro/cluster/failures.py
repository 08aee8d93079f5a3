"""Failure injection and hedge monitoring for the sharded cluster.

Two small frontier-event sources plug a :class:`ClusterCoordinator` into
the :class:`repro.sim.lockstep.LockstepRunner` ``interrupts`` hook:

* :class:`FailureInjector` walks a :class:`repro.common.config.FailureConfig`
  schedule (kill / degrade / repair events on the simulated clock) and
  fires each event at its exact time on the lockstep frontier — *before*
  any shard steps at that instant, so a kill scheduled at the same time as
  a scatter delivery deterministically wins the race;
* :class:`HedgeMonitor` simply re-exposes the coordinator's own hedging
  deadline (the time the oldest straggling sub-query crosses the latency
  quantile threshold) as a frontier event, so hedges fire at the exact
  moment a sub-query becomes late instead of at the next shard event.

Both are pure adapters: all the state lives in the coordinator, which
keeps the schedule deterministic and the sources trivially resumable.
:func:`random_failure_schedule` builds seedable kill/repair schedules for
benchmarks and examples.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.common.config import FailureConfig, FailureEvent


class FailureInjector:
    """Replays a :class:`FailureConfig` schedule against the coordinator.

    The schedule was validated (time-ordered, state-machine consistent) by
    ``FailureConfig.__post_init__``; the injector is a cursor over it.
    """

    def __init__(self, config: FailureConfig, coordinator) -> None:
        self.config = config
        self.coordinator = coordinator
        self._cursor = 0

    def next_event_time(self) -> Optional[float]:
        """Time of the next unfired schedule event (``None`` when done)."""
        if self._cursor >= len(self.config.events):
            return None
        return self.config.events[self._cursor].time

    def fire(self, now: float) -> None:
        """Apply the next schedule event; the cursor always advances."""
        event = self.config.events[self._cursor]
        self._cursor += 1
        if event.kind == "kill":
            self.coordinator.kill_shard(event.shard, now)
        elif event.kind == "degrade":
            self.coordinator.degrade_shard(
                event.shard, now, self.config.degrade_factor
            )
        else:  # "repair" — FailureEvent admits no other kind.
            self.coordinator.repair_shard(event.shard, now)


class HedgeMonitor:
    """Frontier-event adapter for the coordinator's hedging deadline.

    The lockstep driver asks for :meth:`next_event_time` on every round,
    so the coordinator answers it from an index it keeps up to date (a
    heap of original sub-queries by scatter time, see
    :meth:`ClusterCoordinator.next_hedge_time`) instead of walking every
    outstanding sub-query.
    """

    def __init__(self, coordinator) -> None:
        self.coordinator = coordinator

    def next_event_time(self) -> Optional[float]:
        """When the oldest eligible sub-query becomes hedge-worthy."""
        return self.coordinator.next_hedge_time()

    def fire(self, now: float) -> None:
        """Scatter duplicates for every sub-query past its deadline."""
        self.coordinator.fire_hedges(now)


def random_failure_schedule(
    shards: int,
    kills: int,
    start: float,
    spacing: float,
    downtime: float,
    seed: int = 0,
    degrade_factor: float = 0.5,
) -> FailureConfig:
    """A seedable kill/repair schedule for benchmarks and examples.

    ``kills`` shards are killed one at a time — the k-th kill at
    ``start + k * spacing``, each repaired ``downtime`` seconds later —
    with the victim shard drawn uniformly (without immediate repeats) by a
    private :class:`random.Random` stream.  Repairs land before the next
    kill when ``downtime < spacing``, keeping at most one shard down at a
    time so the schedule stays valid for any ``replicas >= 1``.
    """
    if downtime >= spacing:
        raise ValueError(
            f"downtime={downtime} must be < spacing={spacing} so each shard "
            "is repaired before the next kill"
        )
    rng = random.Random(seed)
    events: List[FailureEvent] = []
    previous = -1
    for index in range(kills):
        victim = rng.randrange(shards)
        if shards > 1 and victim == previous:
            victim = (victim + 1) % shards
        previous = victim
        kill_at = start + index * spacing
        events.append(FailureEvent(time=kill_at, shard=victim, kind="kill"))
        events.append(
            FailureEvent(time=kill_at + downtime, shard=victim, kind="repair")
        )
    return FailureConfig(events=tuple(events), degrade_factor=degrade_factor)
