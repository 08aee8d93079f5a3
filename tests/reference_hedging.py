"""Reference oracle for the coordinator's hedge deadline: walk every copy.

:meth:`repro.cluster.coordinator.ClusterCoordinator.next_hedge_time`
answers from a heap of original copies keyed by ``(scatter_time,
sub_id)``, popped lazily and rebuilt on kills and repairs, and decides
eligibility from the shard map's cached replica tuples.  The functions
here answer the same questions the obvious way: walk every outstanding
sub-query in dispatch order, decide eligibility with the least-loaded
replica search (``_pick_replica``), and take the percentile of the
latency sample with a fresh sort.  So they are correct by inspection.

``oracle_next_hedge_time`` and ``oracle_fire_hedges`` take the
coordinator as their first argument, so they can be installed as
``ClusterCoordinator`` methods to run a whole cluster on the walk.

This module imports nothing from pytest or ``tests/conftest.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cluster.coordinator import _EPS, ClusterCoordinator, _SubQuery
from repro.metrics.stats import percentile


def oracle_hedge_threshold(
    coordinator: ClusterCoordinator, latencies: Sequence[float]
) -> Optional[float]:
    """``multiplier x`` the configured quantile of ``latencies`` (sorted
    afresh), or ``None`` before ``min_samples`` of them."""
    hedge = coordinator.hedge_config
    if hedge is None or len(latencies) < hedge.min_samples:
        return None
    return hedge.multiplier * percentile(latencies, hedge.quantile * 100.0)


def oracle_hedge_eligible(coordinator: ClusterCoordinator, sub: _SubQuery) -> bool:
    """Original, sole copy of its group, and the least-loaded replica
    search finds another live replica."""
    if sub.hedge_of is not None:
        return False
    group = coordinator._groups.get((sub.query_id, sub.primary))
    if group is None or len(group) != 1:
        return False
    return coordinator._pick_replica(sub.primary, exclude=(sub.shard,)) is not None


def oracle_next_hedge_time(coordinator: ClusterCoordinator) -> Optional[float]:
    """The earliest ``scatter_time + threshold`` over every eligible
    outstanding copy, no earlier than the coordinator's clock."""
    if coordinator.hedge_config is None:
        return None
    threshold = oracle_hedge_threshold(coordinator, coordinator._sub_latencies)
    if threshold is None:
        return None
    best: Optional[float] = None
    for sub in coordinator._subs.values():
        if not oracle_hedge_eligible(coordinator, sub):
            continue
        due = sub.scatter_time + threshold
        if best is None or due < best:
            best = due
    if best is None:
        return None
    return max(best, coordinator._clock)


def oracle_due_hedges(
    coordinator: ClusterCoordinator, now: float
) -> List[_SubQuery]:
    """Every eligible copy past the threshold at ``now``, in dispatch
    order: the copies a ``fire_hedges(now)`` call must duplicate."""
    threshold = oracle_hedge_threshold(coordinator, coordinator._sub_latencies)
    if threshold is None:
        return []
    return [
        sub
        for sub in coordinator._subs.values()
        if oracle_hedge_eligible(coordinator, sub)
        and sub.scatter_time + threshold <= now + _EPS
    ]


def oracle_fire_hedges(coordinator: ClusterCoordinator, now: float) -> None:
    """Duplicate every copy :func:`oracle_due_hedges` names, in order."""
    if oracle_hedge_threshold(coordinator, coordinator._sub_latencies) is None:
        return
    coordinator._clock = max(coordinator._clock, now)
    for sub in oracle_due_hedges(coordinator, now):
        target = coordinator._dispatch_group(
            sub.query_id,
            sub.primary,
            sub.global_chunks,
            now,
            exclude=(sub.shard,),
            hedge_of=sub.sub_id,
            origin="hedge",
        )
        if target is None:
            continue
        coordinator.hedges_fired += 1
        coordinator._affected.add(sub.query_id)
        coordinator._instant(
            "cluster.hedge.fire", now,
            query=sub.query_id,
            sub=sub.sub_id,
            slow_shard=sub.shard,
            hedge_shard=target,
            age=now - sub.scatter_time,
        )
