"""The scatter-gather coordinator of the sharded cluster.

One :class:`ClusterCoordinator` owns the cluster's front door — the same
:class:`repro.service.frontdoor.FrontDoor` pipeline the single-simulator
service runs (arrivals -> classification -> per-class admission ->
completion/release), capping the number of concurrently executing *whole*
queries at the cluster MPL (``shards * mpl_per_shard``, or whatever the
adaptive controller currently allows).  Each shard simulator sees the
cluster through its own :class:`ShardSource` (a
:class:`repro.sim.source.QuerySource`).  There is one scatter/gather path:

* **scatter** — when the front door admits a query, the :class:`ShardMap`
  groups its chunks by primary shard, and each chunk group is dispatched
  as a shard-local sub-query to the least-loaded live replica of that
  primary (on an unreplicated map, the primary itself), landing in the
  shard's pending buffer stamped with its delivery time;
* **gather** — a sub-query completion on any shard reports back through
  :meth:`ClusterCoordinator.complete_subquery`.  The first copy of a chunk
  group to finish wins (a racing hedge is cancelled), and the whole query
  completes when its *last* group is gathered, which is when its
  :class:`ClusterQueryRecord` is written and its completion is fed to the
  front door — releasing its MPL slot, updating the adaptive controller,
  and possibly admitting (and scattering) the next queued queries.

Shard kills re-dispatch the dead shard's groups to surviving replicas (or
park them until a repair), and hedging duplicates stragglers; both are
driven by :mod:`repro.cluster.failures` and are inert on a healthy,
unhedged cluster.

The coordinator's own cost is an optional model, not a separate path.
When the cluster configuration prices the coordinator
(:attr:`repro.common.config.ClusterConfig.models_coordinator`), a
:class:`repro.net.CoordinatorResources` bundle charges classify +
per-sub-query scatter CPU, every scatter/gather message crosses the
coordinator's NIC and the owning shard's NIC, and a query only completes
once the coordinator's CPU has processed (and, for the last sub-query,
merged) its gather message.  Without the bundle scatter and gather are
instant.

A 1-shard cluster degenerates to exactly the single-simulator open-system
service (:func:`repro.service.run_service`): every query has one sub-query
identical to itself (same id, same chunks), every completion releases the
front door immediately, and a released sub-query for the completing shard
starts in the same event.  ``tests/test_cluster_equivalence.py`` pins this
bit for bit.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.config import (
    ClusterConfig,
    DEFAULT_QUERY_CLASS,
    HedgeConfig,
    SystemConfig,
)
from repro.common.errors import SimulationError
from repro.cluster.failures import FailureInjector, HedgeMonitor
from repro.cluster.shardmap import ShardMap
from repro.core.cscan import ScanRequest
from repro.metrics.stats import LatencySummary, _percentile_sorted
from repro.metrics.timeline import validate_timeline
from repro.net.resources import CoordinatorResources, CoordinatorSLO
from repro.obs.alerts import (
    Alert,
    AlertPolicy,
    QueryCompletion,
    evaluate_alerts,
    render_health_digest,
)
from repro.obs.postmortem import (
    LatencyBreakdown,
    assemble_cluster_breakdown,
    build_blame_report,
)
from repro.obs.recorder import (
    FlightRecorder,
    ObservabilityLike,
    build_flight_recorder,
)
from repro.service.admission import (
    AdmissionController,
    QueuedQuery,
    layout_aware_job_size,
)
from repro.service.arrivals import Arrival, offered_rate
from repro.service.frontdoor import FrontDoor, MPLController
from repro.service.slo import (
    AvailabilitySLO,
    SLOReport,
    build_slo_report,
    merge_shard_slo_reports,
)
from repro.sim.lockstep import LockstepRunner
from repro.sim.results import RunResult
from repro.sim.runner import AnyABM, ScanSimulator
from repro.sim.source import NO_STREAM, AdmittedQuery, QuerySource

_EPS = 1e-9


@dataclass
class ClusterQueryRecord:
    """Gathered outcome of one whole query served by the cluster."""

    query_id: int
    name: str
    #: When the query arrived at the cluster's front door.
    submit_time: float
    #: When the front queue admitted it (sub-queries scattered).
    admit_time: float
    #: When its last sub-query finished (the query's completion).
    finish_time: float
    #: Global chunks the query scanned, over all shards.
    num_chunks: int
    #: Shards the query's chunk set was scattered across.
    shards: Tuple[int, ...]
    #: Chunk loads attributed to the query, summed over its shards
    #: (filled in after the run from the per-shard results).
    loads_triggered: int = 0
    #: Workload class the front door routed the query to.
    query_class: str = DEFAULT_QUERY_CLASS
    #: Critical-path stamps: the last-completing sub-query (the one whose
    #: finish completed the whole query) defines the chain the end-to-end
    #: latency is attributed along.  ``critical_shard < 0`` means the
    #: stamps were not recorded (hand-built records).
    critical_shard: int = -1
    #: Shard-side id of the critical sub-query (the whole query id for an
    #: original copy on an unreplicated map, a synthesized id otherwise).
    critical_sub_id: Optional[int] = None
    #: When the coordinator CPU finished classify+scatter for this query.
    ready_time: float = 0.0
    #: When the critical sub-query was dispatched (equals ``ready_time``
    #: for originals; later for re-scatters, orphans and hedges).
    dispatch_time: float = 0.0
    #: When the critical sub-query's scatter message reached its shard.
    delivered_time: float = 0.0
    #: When the critical sub-query finished on its shard.
    shard_finish_time: float = 0.0
    #: When its gather message reached the coordinator.
    gather_arrived_time: float = 0.0
    #: How the critical sub-query came to be dispatched: ``"original"``,
    #: ``"rescatter"``, ``"orphan"`` or ``"hedge"``.
    critical_origin: str = "original"
    #: Always-on end-to-end latency attribution along the critical path
    #: (assembled after the run; ``None`` for hand-built records).
    breakdown: Optional[LatencyBreakdown] = None

    @property
    def queue_wait(self) -> float:
        """Time spent waiting in the front admission queue."""
        return max(0.0, self.admit_time - self.submit_time)

    @property
    def execution_latency(self) -> float:
        """Admission-to-completion latency (slowest sub-query chain)."""
        return self.finish_time - self.admit_time

    @property
    def end_to_end_latency(self) -> float:
        """Submission-to-completion latency (queue wait plus execution)."""
        return self.finish_time - self.submit_time


@dataclass
class _OpenQuery:
    """Coordinator-side state of one admitted, not yet gathered query."""

    submit_time: float
    admit_time: float
    name: str
    query_class: str
    num_chunks: int
    shards: Tuple[int, ...]
    remaining: int
    #: The original global scan (re-scatters and hedges materialise fresh
    #: sub-queries from it).
    spec: ScanRequest
    #: When the coordinator CPU finished classify+scatter (``admit_time``
    #: without a cost model).
    ready: float = 0.0


#: Synthesized sub-query ids start far above any front-door query id, so a
#: sub-query's id never collides with a whole query's (or another sub's —
#: re-scatters and hedges each get a fresh id, even on the same shard).
_SUB_ID_BASE = 1_000_000_000


@dataclass
class _SubQuery:
    """One dispatched copy of a chunk group."""

    sub_id: int
    query_id: int
    #: Primary shard of the chunk group (the group's identity).
    primary: int
    #: The group's *global* chunk ids (re-scatters re-translate them).
    global_chunks: Tuple[int, ...]
    #: Replica shard this copy was dispatched to.
    shard: int
    #: When this copy was scattered (hedging measures age from here).
    scatter_time: float
    submit_time: float
    #: ``sub_id`` of the copy this one hedges, or ``None`` for originals.
    hedge_of: Optional[int] = None
    #: When this copy's scatter message reached its shard.
    delivered: float = 0.0
    #: Why this copy was dispatched: ``"original"`` (first scatter),
    #: ``"rescatter"`` (its predecessor's shard was killed), ``"orphan"``
    #: (parked until a repair) or ``"hedge"`` (straggler duplicate).
    origin: str = "original"

    @property
    def key(self) -> Tuple[int, int]:
        """``(shard, sub_id)``: shard-side ids are only unique per shard
        (every original copy on an unreplicated map keeps its query id)."""
        return (self.shard, self.sub_id)


class ClusterCoordinator:
    """Scatter/gather bookkeeping around the shared front-door pipeline."""

    def __init__(
        self,
        arrivals: Sequence[Arrival],
        shard_map: ShardMap,
        admission: AdmissionController,
        mpl_controller: Optional[MPLController] = None,
        loads_probe: Optional[Callable[[int], int]] = None,
        obs: Optional[FlightRecorder] = None,
        resources: Optional[CoordinatorResources] = None,
        hedge: Optional[HedgeConfig] = None,
        degrade_factor: float = 0.5,
    ) -> None:
        self.frontdoor = FrontDoor(
            arrivals,
            admission,
            mpl_controller=mpl_controller,
            loads_probe=loads_probe,
            where="cluster workload",
            obs=obs,
        )
        #: Optional flight recorder; scatter/gather events go to the
        #: front-door process's ``cluster`` track.
        self._obs = obs
        self._obs_pid = "frontdoor"
        #: Optional CPU/NIC cost model; ``None`` makes scatter and gather
        #: instant.
        self.resources = resources
        self.shard_map = shard_map
        #: Sub-queries scattered to each shard but not yet polled by it,
        #: as ``(release_time, admitted)`` in release order.
        self._pending: List[Deque[Tuple[float, AdmittedQuery]]] = [
            deque() for _ in range(shard_map.num_shards)
        ]
        self._open: Dict[int, _OpenQuery] = {}
        #: Gathered per-query outcomes, in completion order.
        self.records: List[ClusterQueryRecord] = []
        #: Sub-queries scattered to each shard over the run.
        self.subqueries_scattered: List[int] = [0] * shard_map.num_shards
        #: Hedged-request policy (``None`` disables hedging).
        self.hedge_config = hedge
        #: Disk bandwidth multiplier applied to degraded shards.
        self.degrade_factor = degrade_factor
        num_shards = shard_map.num_shards
        #: Per-shard liveness / degradation flags.
        self._live: List[bool] = [True] * num_shards
        self._degraded: List[bool] = [False] * num_shards
        #: Sub-queries currently dispatched to each shard (pending or
        #: running) — the load signal for least-loaded replica routing.
        self._outstanding: List[int] = [0] * num_shards
        #: Live dispatched copies by ``(shard, sub_id)``, in dispatch order.
        self._subs: Dict[Tuple[int, int], _SubQuery] = {}
        #: ``(query_id, primary) -> [(shard, sub_id), ...]`` — the racing
        #: copies of each chunk group (one normally, two while a hedge races).
        self._groups: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        #: Every distinct shard-side id ever dispatched for a query (append-
        #: only; loads attribution sums the shards' counters over these).
        self._sub_ids_by_query: Dict[int, List[int]] = {}
        #: Chunk groups with no live replica, waiting for a repair.
        self._orphans: List[Tuple[int, int, Tuple[int, ...]]] = []
        #: Completed sub-query latencies, kept sorted (the hedge threshold
        #: sample; a percentile reads it without re-sorting).
        self._sub_latencies: List[float] = []
        self._hedge_cache: Tuple[int, float] = (-1, 0.0)
        #: Hedge candidates: ``(scatter_time, sub_id, shard)`` of the
        #: original (non-hedge) copies, a heap with lazy deletion; see
        #: :meth:`next_hedge_time`.  Only kept while hedging is on.
        self._hedge_heap: List[Tuple[float, int, int]] = []
        #: Latest simulated time the coordinator has witnessed.
        self._clock = 0.0
        #: The shard simulators (failed or hedged-out sub-queries are
        #: cancelled directly on them); set via :meth:`attach_shards`.
        self._simulators: Optional[List[ScanSimulator]] = None
        self._next_sub_id = _SUB_ID_BASE
        #: Availability counters and per-shard ``(time, state)`` timelines.
        self.kills = 0
        self.degrades = 0
        self.repairs = 0
        self.hedges_fired = 0
        self.hedges_won = 0
        self.hedges_cancelled = 0
        self.rescatters = 0
        self.orphaned = 0
        self.shard_timelines: List[List[Tuple[float, str]]] = [
            [(0.0, "up")] for _ in range(num_shards)
        ]
        #: Whole queries whose latency a failure, hedge or degraded shard
        #: may have touched (for failure-attributed latency reporting).
        self._affected: Set[int] = set()
        #: Shards whose lockstep probe may have changed since the driver
        #: last asked (``None``: every shard); see :meth:`take_touched`.
        self._touched: Optional[Set[int]] = set()

    # ------------------------------------------------------------ front door
    def next_arrival_time(self) -> Optional[float]:
        """Time of the next unconsumed external arrival."""
        return self.frontdoor.next_arrival_time()

    def pump(self, now: float) -> None:
        """Run the front door up to ``now``, scattering what it admits.

        Admitted queries' sub-queries land in the owning shards' pending
        buffers, stamped with their delivery time; queued and shed arrivals
        are tracked by the admission controller.  Idempotent within one
        instant: every shard's poll calls this, the first call does the
        work.
        """
        arrival = self.frontdoor.next_arrival_time()
        for entry in self.frontdoor.pump(now):
            self._scatter(entry, now)
        if self.frontdoor.next_arrival_time() != arrival:
            # Every shard's probe includes the next external arrival.
            self._touched = None

    def drained(self) -> bool:
        """``True`` once no future query can be admitted (arrivals exhausted
        and the front queues empty) and no orphaned chunk group waits for a
        repair — that work still exists even though no shard can run it."""
        if self._orphans:
            return False
        return self.frontdoor.drained()

    # --------------------------------------------------------------- scatter
    def _scatter(self, entry: QueuedQuery, now: float) -> None:
        """Plan one admitted query into replica-routable chunk groups.

        Each group goes to its least-loaded live replica (on an unreplicated
        map, its one primary shard).  With a cost model every group first
        pays classify + scatter CPU and then two NIC hops, landing in the
        owning shard's pending buffer stamped with its *delivery* time.
        """
        groups = self.shard_map.plan_groups(entry.spec)
        if not groups:
            raise SimulationError(
                f"query {entry.spec.query_id} planned into zero sub-queries"
            )
        query_id = entry.spec.query_id
        self._clock = max(self._clock, now)
        primaries = tuple(sorted(groups))
        self._open[query_id] = _OpenQuery(
            submit_time=entry.submit_time,
            admit_time=now,
            name=entry.spec.name,
            query_class=entry.query_class,
            num_chunks=entry.spec.num_chunks,
            shards=primaries,
            remaining=len(groups),
            spec=entry.spec,
        )
        if self._obs is not None:
            self._instant(
                "cluster.scatter", now,
                query=query_id,
                query_name=entry.spec.name,
                query_class=entry.query_class,
                chunks=entry.spec.num_chunks,
                shards=list(primaries),
                subqueries=len(groups),
            )
            self._obs.set_gauge("cluster.open_queries", now, float(len(self._open)))
        ready = now
        if self.resources is not None:
            ready = self.resources.admit(now, query_id, len(groups))
        self._open[query_id].ready = ready
        for primary in primaries:
            self._dispatch_group(query_id, primary, groups[primary], ready)

    def _pick_replica(
        self, primary: int, exclude: Tuple[int, ...] = ()
    ) -> Optional[int]:
        """Least-loaded live replica of a primary's chunk range.

        Ties break towards the front of the chained-declustering ring (the
        primary itself first), keeping routing deterministic.  ``None``
        when every replica is dead or excluded.
        """
        best: Optional[int] = None
        best_key: Optional[Tuple[int, int]] = None
        for order, shard in enumerate(self.shard_map.replica_shards(primary)):
            if shard in exclude or not self._live[shard]:
                continue
            key = (self._outstanding[shard], order)
            if best_key is None or key < best_key:
                best_key = key
                best = shard
        return best

    def _dispatch_group(
        self,
        query_id: int,
        primary: int,
        global_chunks: Sequence[int],
        now: float,
        exclude: Tuple[int, ...] = (),
        hedge_of: Optional[int] = None,
        origin: str = "original",
    ) -> Optional[int]:
        """Materialise one chunk group on the best live replica.

        Returns the chosen shard, or ``None`` when no replica is live (the
        group is parked as an orphan until a repair).  ``exclude`` keeps a
        hedge off the shard already running the original.  ``origin``
        labels why this copy exists, so the postmortem breakdown can
        bucket its pre-dispatch wait (re-scatter / orphan / hedge
        penalty vs plain coordinator work).
        """
        target = self._pick_replica(primary, exclude)
        if target is None:
            self._orphans.append((query_id, primary, tuple(global_chunks)))
            self.orphaned += 1
            self._affected.add(query_id)
            self._instant(
                "cluster.orphan", now,
                query=query_id,
                primary=primary,
            )
            return None
        open_query = self._open[query_id]
        if origin == "original" and self.shard_map.replicas == 1:
            # The one possible copy keeps the whole query's id, exactly as
            # the query would carry it on a single-simulator service.
            sub_id = query_id
        else:
            sub_id = self._next_sub_id
            self._next_sub_id += 1
        sub_spec = self.shard_map.sub_request(
            open_query.spec, global_chunks, target, sub_id
        )
        sub = _SubQuery(
            sub_id=sub_id,
            query_id=query_id,
            primary=primary,
            global_chunks=tuple(global_chunks),
            shard=target,
            scatter_time=now,
            submit_time=open_query.submit_time,
            hedge_of=hedge_of,
            origin=origin,
        )
        self._subs[sub.key] = sub
        self._groups.setdefault((query_id, primary), []).append(sub.key)
        if hedge_of is None and self.hedge_config is not None:
            heapq.heappush(self._hedge_heap, (now, sub_id, target))
        sub_ids = self._sub_ids_by_query.setdefault(query_id, [])
        if sub_id not in sub_ids:
            sub_ids.append(sub_id)
        self._outstanding[target] += 1
        self.subqueries_scattered[target] += 1
        delivered = now
        if self.resources is not None:
            delivered = self.resources.deliver_scatter(now, target, query_id)
        sub.delivered = delivered
        self._touch(target)
        self._pending[target].append(
            (
                delivered,
                AdmittedQuery(
                    spec=sub_spec,
                    stream=NO_STREAM,
                    submit_time=open_query.submit_time,
                ),
            )
        )
        if self._degraded[target]:
            self._affected.add(query_id)
        return target

    # ---------------------------------------------------------------- gather
    def complete_subquery(
        self, shard: int, sub_id: int, now: float
    ) -> List[AdmittedQuery]:
        """Record one sub-query completion on ``shard``.

        The first copy of a chunk group to finish wins and any racing hedge
        is cancelled (its MPL, pending-buffer and accounting state unwound).
        When it was the query's last group the whole query completes: its
        record is written and its completion is fed to the front door,
        which may admit the next queued queries.  Their sub-queries for
        this same shard that are already deliverable are returned for
        immediate start, mirroring how the single-simulator service starts
        the released query in the same event.

        With a cost model every completion message pays two NIC hops plus
        gather CPU, and the final one additionally pays the merge, so the
        query completes at the coordinator's processing time rather than
        the shard's event time (and released sub-queries are never yet
        deliverable).
        """
        self._clock = max(self._clock, now)
        sub = self._subs.pop((shard, sub_id), None)
        if sub is None:
            raise SimulationError(
                f"completion of sub-query {sub_id} on shard {shard}, which "
                "has no such sub-query outstanding"
            )
        self._outstanding[shard] -= 1
        insort(self._sub_latencies, now - sub.scatter_time)
        query_id = sub.query_id
        losers = [
            other
            for other in self._groups.pop((query_id, sub.primary))
            if other != sub.key
        ]
        for loser in losers:
            self._cancel_sub(loser, now)
        if losers:
            self.hedges_cancelled += len(losers)
            if sub.hedge_of is not None:
                self.hedges_won += 1
        open_query = self._open[query_id]
        open_query.remaining -= 1
        completion = now
        arrived = now
        if self.resources is not None:
            arrived = self.resources.deliver_gather(now, shard, query_id)
            completion = self.resources.process_gather(
                arrived, query_id, final=open_query.remaining == 0
            )
        if self._obs is not None:
            self._instant(
                "cluster.subquery.complete", now,
                query=query_id,
                sub=sub_id,
                shard=shard,
                hedged=sub.hedge_of is not None,
                remaining=open_query.remaining,
            )
        if open_query.remaining > 0:
            return []
        del self._open[query_id]
        if self._obs is not None:
            self._instant(
                "cluster.gather", completion,
                query=query_id,
                query_name=open_query.name,
                query_class=open_query.query_class,
                shards=list(open_query.shards),
                end_to_end_latency=completion - open_query.submit_time,
            )
            self._obs.set_gauge(
                "cluster.open_queries", completion, float(len(self._open))
            )
        self.records.append(
            ClusterQueryRecord(
                query_id=query_id,
                name=open_query.name,
                submit_time=open_query.submit_time,
                admit_time=open_query.admit_time,
                finish_time=completion,
                num_chunks=open_query.num_chunks,
                shards=open_query.shards,
                query_class=open_query.query_class,
                # The winning copy of the last chunk group to gather — a
                # hedge winner or re-scattered copy carries its origin so
                # the pre-dispatch wait lands in the right penalty bucket.
                critical_shard=shard,
                critical_sub_id=sub_id,
                ready_time=open_query.ready,
                dispatch_time=sub.scatter_time,
                delivered_time=sub.delivered,
                shard_finish_time=now,
                gather_arrived_time=arrived,
                critical_origin=sub.origin,
            )
        )
        if completion > now:
            # Arrivals that landed while the gather was in flight must be
            # admitted before this query's MPL slot is released, so the
            # front door sees events in chronological order.
            self.pump(completion)
        queue = self._pending[shard]
        mark = len(queue)
        was_drained = self.drained()
        for entry in self.frontdoor.on_complete(query_id, completion):
            self._scatter(entry, completion)
        if not was_drained and self.drained():
            # Draining can finish shards that are waiting for nothing.
            self._touched = None
        # Same-event start: what this release scattered to the completing
        # shard and is already deliverable leaves the buffer and starts now.
        released = [queue.pop() for _ in range(len(queue) - mark)][::-1]
        queue.extend(item for item in released if item[0] > now)
        return [admitted for due, admitted in released if due <= now]

    def _cancel_sub(self, key: Tuple[int, int], now: float) -> _SubQuery:
        """Withdraw one dispatched copy without completing it.

        A copy still sitting in its shard's pending buffer is simply
        removed; one the shard already started is cancelled inside the
        simulator (unpinning its chunk and freeing its slot).  Either way
        its outstanding count is unwound, so routing and MPL accounting
        never leak cancelled work.
        """
        sub = self._subs.pop(key)
        self._outstanding[sub.shard] -= 1
        self._touch(sub.shard)
        queue = self._pending[sub.shard]
        for index, (_, admitted) in enumerate(queue):
            if admitted.spec.query_id == sub.sub_id:
                del queue[index]
                return sub
        self._require_simulators()[sub.shard].cancel_query(sub.sub_id, now)
        return sub

    # ------------------------------------------------------- failure control
    def attach_shards(self, simulators: Sequence[ScanSimulator]) -> None:
        """Give the coordinator direct access to the shard simulators (to
        cancel failed or hedged-out sub-queries and throttle disks)."""
        self._simulators = list(simulators)

    def _require_simulators(self) -> List[ScanSimulator]:
        if self._simulators is None:
            raise SimulationError(
                "coordinator was not attached to its shard "
                "simulators; call attach_shards() before running"
            )
        return self._simulators

    def kill_shard(self, shard: int, now: float) -> None:
        """Fail-stop one shard: cancel its work, re-scatter every group.

        Undelivered scatters for the shard are dropped (the message has no
        destination any more), in-flight sub-queries are cancelled inside
        the simulator, and each orphaned chunk group is immediately
        re-dispatched to its least-loaded surviving replica — or parked
        until a repair when none is live.  A query still in coordinator CPU
        re-dispatches no earlier than its scatter finishes.
        """
        if not self._live[shard]:
            raise SimulationError(f"shard {shard} is already down")
        self._clock = max(self._clock, now)
        self._live[shard] = False
        self._degraded[shard] = False
        self.kills += 1
        self.shard_timelines[shard].append((now, "down"))
        if self._obs is not None:
            self._instant("cluster.shard.kill", now, shard=shard)
            self._obs.set_gauge(
                "cluster.live_shards", now, float(sum(self._live))
            )
        pending_ids = {
            admitted.spec.query_id for _, admitted in self._pending[shard]
        }
        self._pending[shard].clear()
        self._touch(shard)
        victims = [sub for sub in self._subs.values() if sub.shard == shard]
        simulators = self._require_simulators()
        for sub in victims:
            del self._subs[sub.key]
            self._outstanding[shard] -= 1
            if sub.sub_id not in pending_ids:
                simulators[shard].cancel_query(sub.sub_id, now)
            group = self._groups[(sub.query_id, sub.primary)]
            group.remove(sub.key)
            self._affected.add(sub.query_id)
            if group:
                continue  # A hedge copy elsewhere still covers the group.
            del self._groups[(sub.query_id, sub.primary)]
            target = self._dispatch_group(
                sub.query_id, sub.primary, sub.global_chunks,
                max(now, self._open[sub.query_id].ready),
                origin="rescatter",
            )
            if target is not None:
                self.rescatters += 1
                self._instant(
                    "cluster.rescatter", now,
                    query=sub.query_id,
                    primary=sub.primary,
                    from_shard=shard,
                    to_shard=target,
                )
        # A killed hedge copy leaves its original the sole copy again.
        self._rebuild_hedge_heap()

    def degrade_shard(
        self, shard: int, now: float, factor: Optional[float] = None
    ) -> None:
        """Halve (by default) one live shard's disk bandwidth in place."""
        if not self._live[shard] or self._degraded[shard]:
            raise SimulationError(
                f"cannot degrade shard {shard}: it is not up"
            )
        self._clock = max(self._clock, now)
        self._degraded[shard] = True
        self.degrades += 1
        self.shard_timelines[shard].append((now, "degraded"))
        scale = self.degrade_factor if factor is None else factor
        self._require_simulators()[shard].set_disk_bandwidth_scale(scale)
        for sub in self._subs.values():
            if sub.shard == shard:
                self._affected.add(sub.query_id)
        self._instant(
            "cluster.shard.degrade", now,
            shard=shard,
            bandwidth_scale=scale,
        )

    def repair_shard(self, shard: int, now: float) -> None:
        """Bring a killed or degraded shard back to full health.

        A repaired shard immediately becomes a routing target again, and
        any chunk groups orphaned while every replica was down are
        re-dispatched on the spot.
        """
        if self._live[shard] and not self._degraded[shard]:
            raise SimulationError(
                f"cannot repair shard {shard}: it is already up"
            )
        self._clock = max(self._clock, now)
        was_down = not self._live[shard]
        self._live[shard] = True
        self._degraded[shard] = False
        self.repairs += 1
        self.shard_timelines[shard].append((now, "up"))
        self._require_simulators()[shard].set_disk_bandwidth_scale(1.0)
        if self._obs is not None:
            self._instant("cluster.shard.repair", now, shard=shard)
            self._obs.set_gauge(
                "cluster.live_shards", now, float(sum(self._live))
            )
        if was_down and self._orphans:
            orphans = self._orphans
            self._orphans = []
            for query_id, primary, chunks in orphans:
                target = self._dispatch_group(
                    query_id, primary, chunks, now, origin="orphan"
                )
                if target is not None:
                    self.rescatters += 1
                    self._instant(
                        "cluster.rescatter", now,
                        query=query_id,
                        primary=primary,
                        to_shard=target,
                    )
        # The repaired shard is a live alternative replica again.
        self._rebuild_hedge_heap()

    # --------------------------------------------------------------- hedging
    def _hedge_threshold(self) -> Optional[float]:
        """Current lateness threshold, or ``None`` before enough samples.

        ``multiplier x`` the configured quantile of every completed
        sub-query latency so far; recomputed only when the sample grew.
        """
        hedge = self.hedge_config
        if hedge is None or len(self._sub_latencies) < hedge.min_samples:
            return None
        size = len(self._sub_latencies)
        cached_size, cached = self._hedge_cache
        if cached_size != size:
            cached = hedge.multiplier * _percentile_sorted(
                self._sub_latencies, hedge.quantile * 100.0
            )
            self._hedge_cache = (size, cached)
        return cached

    def _hedge_eligible(self, sub: _SubQuery) -> bool:
        """Original, sole copy of its group, with another live replica."""
        if sub.hedge_of is not None:
            return False
        if len(self._groups[(sub.query_id, sub.primary)]) != 1:
            return False
        live = self._live
        for shard in self.shard_map.replica_shards(sub.primary):
            if shard != sub.shard and live[shard]:
                return True
        return False

    def _rebuild_hedge_heap(self) -> None:
        """Re-admit every outstanding original copy as a hedge candidate.

        :meth:`next_hedge_time` drops ineligible candidates for good, so
        the two events that can make one eligible again — a kill (a
        killed hedge copy shrinks its group back to one) and a repair (an
        alternative replica comes back) — rebuild the heap from scratch.
        """
        if self.hedge_config is None:
            return
        self._hedge_heap = [
            (sub.scatter_time, sub.sub_id, sub.shard)
            for sub in self._subs.values()
            if sub.hedge_of is None
        ]
        heapq.heapify(self._hedge_heap)

    def next_hedge_time(self) -> Optional[float]:
        """When the oldest eligible sub-query crosses the threshold.

        ``None`` without a hedge policy, before the sample warms up, or
        when nothing is eligible; never before the coordinator's clock (a
        sub-query already past the threshold hedges *now*, not in the
        past).

        The threshold is the same for every sub-query, so the answer is
        the earliest ``scatter_time`` among eligible copies.  It comes
        from :attr:`_hedge_heap`, ordered by ``(scatter_time, sub_id)``
        rather than dispatch order (a re-scatter dispatches at
        ``max(now, ready)``, and a priced coordinator's ``ready`` can lie
        ahead of later dispatches).  Entries at the top whose copy is gone
        (completed, cancelled or killed) or not eligible are popped; only
        a kill or a repair can make a copy eligible again, and both
        rebuild the heap.  ``tests/reference_hedging.py`` keeps the walk
        over every outstanding copy as the oracle.
        """
        if self.hedge_config is None:
            return None
        threshold = self._hedge_threshold()
        if threshold is None:
            return None
        heap = self._hedge_heap
        subs = self._subs
        while heap:
            scatter_time, sub_id, shard = heap[0]
            sub = subs.get((shard, sub_id))
            if sub is not None and self._hedge_eligible(sub):
                return max(scatter_time + threshold, self._clock)
            heapq.heappop(heap)
        return None

    def fire_hedges(self, now: float) -> None:
        """Scatter a duplicate for every sub-query past the threshold.

        Each duplicate races the original on a *different* live replica;
        the first completion wins and :meth:`_cancel_sub` unwinds the
        loser.  Duplicates go out in dispatch order, which fixes their
        sub-ids and routing.
        """
        threshold = self._hedge_threshold()
        if threshold is None:
            return
        self._clock = max(self._clock, now)
        due = [
            sub
            for sub in self._subs.values()
            if sub.scatter_time + threshold <= now + _EPS
            and self._hedge_eligible(sub)
        ]
        for sub in due:
            target = self._dispatch_group(
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
            self.hedges_fired += 1
            self._affected.add(sub.query_id)
            self._instant(
                "cluster.hedge.fire", now,
                query=sub.query_id,
                sub=sub.sub_id,
                slow_shard=sub.shard,
                hedge_shard=target,
                age=now - sub.scatter_time,
            )

    def stall_detail(self) -> str:
        """Extra context for the lockstep deadlock error."""
        parts: List[str] = []
        if self._orphans:
            parts.append(
                f"{len(self._orphans)} orphaned chunk group(s) waiting for "
                "a repair that never comes"
            )
        down = [
            shard for shard, live in enumerate(self._live) if not live
        ]
        if down:
            parts.append(f"shard(s) {down} down")
        return "; ".join(parts)

    def sub_ids_of(self, query_id: int) -> Tuple[int, ...]:
        """Every distinct shard-side id ever dispatched for one whole query
        (including cancelled copies, whose chunk loads still happened)."""
        return tuple(self._sub_ids_by_query.get(query_id, ()))

    def availability_report(self, duration: float) -> AvailabilitySLO:
        """Fold the failure/hedging history into an availability section."""
        timelines: List[Tuple[Tuple[float, str], ...]] = []
        downtime: List[float] = []
        degraded: List[float] = []
        for shard in range(self.shard_map.num_shards):
            timeline = self.shard_timelines[shard]
            down_s = 0.0
            degraded_s = 0.0
            for index, (start, state) in enumerate(timeline):
                if index + 1 < len(timeline):
                    end = timeline[index + 1][0]
                else:
                    end = max(duration, start)
                span = max(0.0, end - start)
                if state == "down":
                    down_s += span
                elif state == "degraded":
                    degraded_s += span
            closed = list(timeline)
            if closed[-1][0] < duration:
                # Close the timeline at the run's end so availability is
                # computed over the full makespan.
                closed.append((duration, closed[-1][1]))
            timelines.append(tuple(closed))
            downtime.append(down_s)
            degraded.append(degraded_s)
        affected = [
            record.end_to_end_latency
            for record in self.records
            if record.query_id in self._affected
        ]
        unaffected = [
            record.end_to_end_latency
            for record in self.records
            if record.query_id not in self._affected
        ]
        return AvailabilitySLO(
            replicas=self.shard_map.replicas,
            shard_timelines=tuple(timelines),
            downtime_s=tuple(downtime),
            degraded_s=tuple(degraded),
            kills=self.kills,
            degrades=self.degrades,
            repairs=self.repairs,
            hedges_fired=self.hedges_fired,
            hedges_won=self.hedges_won,
            hedges_cancelled=self.hedges_cancelled,
            rescatters=self.rescatters,
            orphaned=self.orphaned,
            affected_queries=len(affected),
            affected_latency=LatencySummary.from_values(affected),
            unaffected_latency=LatencySummary.from_values(unaffected),
        )

    # ------------------------------------------------------------- per shard
    def take_pending(self, shard: int, now: float) -> List[AdmittedQuery]:
        """Sub-queries buffered for ``shard`` that are due by ``now``."""
        queue = self._pending[shard]
        due: List[AdmittedQuery] = []
        while queue and queue[0][0] <= now + _EPS:
            due.append(queue.popleft()[1])
        if due:
            self._touch(shard)
        return due

    def pending_head_time(self, shard: int) -> Optional[float]:
        """Release time of the oldest buffered sub-query for ``shard``."""
        queue = self._pending[shard]
        if not queue:
            return None
        return queue[0][0]

    def has_pending(self, shard: int) -> bool:
        """Whether ``shard`` still has buffered sub-queries to start."""
        return bool(self._pending[shard])

    def _instant(self, name: str, ts: float, **args: object) -> None:
        """Trace one cluster-lane instant event (a no-op when untraced)."""
        if self._obs is not None:
            self._obs.instant(
                name, "cluster", ts, self._obs_pid, "cluster", **args
            )

    def _touch(self, shard: int) -> None:
        if self._touched is not None:
            self._touched.add(shard)

    def take_touched(self) -> Optional[Set[int]]:
        """Shards touched since the last call, then forget them.

        A shard is touched when its pending buffer gained or lost a
        sub-query or one of its queries was cancelled; ``None`` means every
        shard (the front door's next arrival time moved, or it drained).
        The :class:`repro.sim.lockstep.LockstepRunner` re-probes exactly
        these shards plus the ones it stepped, so any other change to what a
        shard's probe reads must be reported here too.
        """
        touched, self._touched = self._touched, set()
        return touched

    def earliest_in_flight(self) -> Optional[float]:
        """Delivery time of the earliest undelivered sub-query message.

        The :class:`repro.sim.lockstep.LockstepRunner` treats this as an
        event of the min-frontier step: no shard clock may pass it.
        """
        times = [queue[0][0] for queue in self._pending if queue]
        if not times:
            return None
        return min(times)

    def describe(self) -> Dict[str, object]:
        """Flat description of the cluster front door (for reports)."""
        return {
            "workload": "sharded-cluster",
            **self.shard_map.describe(),
            **self.frontdoor.describe(),
        }


class ShardSource(QuerySource):
    """One shard simulator's view of the cluster coordinator."""

    def __init__(self, coordinator: ClusterCoordinator, shard: int) -> None:
        self.coordinator = coordinator
        self.shard = shard

    # ------------------------------------------------------------- interface
    def next_event_time(self) -> Optional[float]:
        pending = self.coordinator.pending_head_time(self.shard)
        # Every shard wakes for external arrivals: whichever shard steps
        # first pumps the front queue, the others pick up their pieces.
        arrival = self.coordinator.next_arrival_time()
        if pending is None:
            return arrival
        if arrival is None or pending <= arrival:
            return pending
        return arrival

    def poll(self, now: float) -> List[AdmittedQuery]:
        self.coordinator.pump(now)
        return self.coordinator.take_pending(self.shard, now)

    def on_complete(self, query_id: int, now: float) -> List[AdmittedQuery]:
        return self.coordinator.complete_subquery(self.shard, query_id, now)

    def drained(self) -> bool:
        return not self.coordinator.has_pending(self.shard) and (
            self.coordinator.drained()
        )

    def describe(self) -> Dict[str, object]:
        return {"shard": self.shard, **self.coordinator.describe()}


@dataclass
class ClusterResult:
    """Outcome of one arrival sequence served by the whole cluster."""

    policy: str
    cluster: ClusterConfig
    shard_map: ShardMap
    #: Raw per-shard simulation results (sub-query granularity).
    shard_runs: List[RunResult]
    #: Per-shard SLO views of the same runs (sub-query latencies).
    shard_reports: List[SLOReport]
    #: The gathered cluster-level SLO report (whole-query latencies,
    #: front-queue counters, per-class slices, utilisation over all
    #: shards' volumes).
    slo: SLOReport
    #: Gathered per-query outcomes, sorted by query id.
    records: List[ClusterQueryRecord] = field(default_factory=list)
    #: ``(time, mpl)`` trajectory of the enforced cluster MPL limit.
    mpl_timeline: Tuple[Tuple[float, int], ...] = ()
    #: The flight recorder shared by the front door and every shard
    #: (``None`` when observability was not requested).
    obs: Optional[FlightRecorder] = None
    #: Coordinator CPU/NIC accounting (``None`` unless the cluster
    #: configuration models the coordinator as a real resource).
    coordinator: Optional[CoordinatorSLO] = None
    #: Validated ``(time, utilisation)`` timelines of the coordinator CPU,
    #: coordinator NIC and each shard NIC (empty on the free path).
    coordinator_timelines: Dict[str, Tuple[Tuple[float, float], ...]] = field(
        default_factory=dict
    )
    #: Replication/failure/hedging accounting (``None`` unless the cluster
    #: is replicated, has a failure schedule or hedges); also threaded into
    #: ``slo.availability``.
    availability: Optional[AvailabilitySLO] = None
    #: Firing episodes of the run's alert policy (empty when no policy was
    #: supplied or nothing fired).
    alerts: Tuple[Alert, ...] = ()

    def health_digest(self, title: str = "Cluster health digest") -> str:
        """Rendered incident summary: every firing alert with its window,
        peak and top-blamed latency phase (or a single all-clear line)."""
        return render_health_digest(self.alerts, self.duration, title=title)

    @property
    def duration(self) -> float:
        """Cluster makespan: the slowest shard's total time, or the last
        gather-merge when the modeled coordinator finishes later."""
        latest = max((run.total_time for run in self.shard_runs), default=0.0)
        if self.records:
            latest = max(
                latest, max(record.finish_time for record in self.records)
            )
        return latest

    @property
    def final_mpl(self) -> int:
        """The MPL in force when the run ended."""
        return self.mpl_timeline[-1][1] if self.mpl_timeline else 0


def run_cluster_service(
    arrivals: Sequence[Arrival],
    config: SystemConfig,
    shard_abms: Sequence[AnyABM],
    cluster: ClusterConfig,
    num_chunks: Optional[int] = None,
    record_trace: bool = False,
    mpl_controller: Optional[MPLController] = None,
    obs: ObservabilityLike = None,
    alerts: Optional[AlertPolicy] = None,
) -> ClusterResult:
    """Serve one arrival sequence with a sharded scatter-gather cluster.

    ``shard_abms`` supplies one Active Buffer Manager per shard, each
    modelling that shard's local table (``ShardMap.chunks_owned(shard)``
    chunks); ``config`` describes each shard's machine (disk volumes, CPU,
    buffer).  ``num_chunks`` is the global table size; by default it is the
    sum of the shard tables, which is exact for both placements.  The front
    door (workload classes, job sizing, adaptive MPL) is configured exactly
    like :func:`repro.service.run_service` configures its own.

    ``obs`` threads one shared flight recorder through the front door (the
    ``"frontdoor"`` process), the coordinator's scatter/gather track and
    every shard simulator (processes ``"shard0"``, ``"shard1"``, ...); the
    recorder comes back on :attr:`ClusterResult.obs`.

    ``alerts`` optionally evaluates an :class:`repro.obs.alerts.AlertPolicy`
    against the finished run — burn-rate rules over the whole-query
    completions and threshold rules over the per-shard disk
    (``"shard<i>.disk"``) and coordinator (``"coordinator.cpu"`` /
    ``"coordinator.nic"``) busy timelines — returning the firing episodes
    on :attr:`ClusterResult.alerts`.
    """
    recorder = build_flight_recorder(obs)
    abms = list(shard_abms)
    if num_chunks is None:
        # Every global chunk appears in exactly `replicas` shard tables
        # (once, with replicas=1), so the sum of the shard tables over-
        # counts the global table by exactly that factor.
        num_chunks = sum(abm.num_chunks for abm in abms) // cluster.replicas
    shard_map = ShardMap.from_cluster_config(cluster, num_chunks)
    shard_map.validate_shard_tables(tuple(abm.num_chunks for abm in abms))
    admission = AdmissionController(
        cluster.front_service(),
        job_size=layout_aware_job_size(
            getattr(abms[0], "layout", None) if abms else None
        ),
    )
    resources: Optional[CoordinatorResources] = None
    if cluster.models_coordinator:
        resources = CoordinatorResources(
            cluster.coordinator, cluster.network, shard_map.num_shards
        )
        if recorder is not None:
            resources.attach_observability(recorder)

    # Loads are recorded per shard-side id; the probe maps them back to the
    # whole query through every dispatched copy (`coordinator` binds late —
    # the probe only runs once the simulation does).  The shards' counters
    # survive cancellation: a hedged loser's chunk loads really happened.
    def loads_probe(query_id: int) -> int:
        sub_ids = coordinator.sub_ids_of(query_id)
        return sum(
            abm.loads_triggered.get(sub_id, 0)
            for abm in abms
            for sub_id in sub_ids
        )

    coordinator = ClusterCoordinator(
        arrivals,
        shard_map,
        admission,
        mpl_controller=mpl_controller,
        loads_probe=loads_probe,
        obs=recorder,
        resources=resources,
        hedge=cluster.hedge,
        degrade_factor=cluster.failures.degrade_factor,
    )
    simulators = [
        ScanSimulator(
            ShardSource(coordinator, shard), config, abm, record_trace=record_trace
        )
        for shard, abm in enumerate(abms)
    ]
    coordinator.attach_shards(simulators)
    interrupts: List[object] = []
    if not cluster.failures.is_empty:
        interrupts.append(FailureInjector(cluster.failures, coordinator))
    if cluster.hedge is not None:
        interrupts.append(HedgeMonitor(coordinator))
    shard_runs = LockstepRunner(
        simulators,
        obs=recorder,
        message_source=coordinator,
        interrupts=interrupts,
    ).run()
    # Shards and coordinator reference each other; break the cycle so the
    # simulators are freed when this call returns, not at the next GC pass.
    coordinator.attach_shards(())

    records = sorted(coordinator.records, key=lambda record: record.query_id)
    for record in records:
        record.loads_triggered = loads_probe(record.query_id)

    # Critical-path attribution: chain every record's coordinator stamps
    # with its critical sub-query's shard-side execution breakdown.  The
    # winning sub-query always completed on its shard, so its QueryResult
    # (and breakdown) exists even under kills, hedges and re-scatters.
    queries_by_shard = [
        {query.query_id: query for query in run.queries} for run in shard_runs
    ]
    for record in records:
        if record.critical_shard < 0 or record.critical_sub_id is None:
            continue
        sub_result = queries_by_shard[record.critical_shard].get(
            record.critical_sub_id
        )
        if sub_result is None or sub_result.breakdown is None:
            continue
        record.breakdown = assemble_cluster_breakdown(
            submit=record.submit_time,
            admit=record.admit_time,
            ready=record.ready_time,
            dispatch=record.dispatch_time,
            delivered=record.delivered_time,
            shard_start=sub_result.arrival_time,
            shard_execution=sub_result.breakdown,
            shard_finish=record.shard_finish_time,
            gather_arrived=record.gather_arrived_time,
            finish=record.finish_time,
            critical_shard=record.critical_shard,
            origin=record.critical_origin,
            where=f"cluster query {record.query_id} breakdown",
        )

    rate = offered_rate(arrivals)
    shard_reports = [
        build_slo_report(
            run,
            offered=coordinator.subqueries_scattered[shard],
            shed=0,
            max_queue_len=0,
            offered_rate_qps=rate,
        )
        for shard, run in enumerate(shard_runs)
    ]
    coordinator_slo: Optional[CoordinatorSLO] = None
    coordinator_duration: Optional[float] = None
    coordinator_timelines: Dict[str, Tuple[Tuple[float, float], ...]] = {}
    makespan = max(
        [run.total_time for run in shard_runs]
        + [record.finish_time for record in records],
        default=0.0,
    )
    if resources is not None:
        coordinator_duration = makespan
        coordinator_slo = resources.report(coordinator_duration)
        coordinator_timelines = resources.timelines()
    availability: Optional[AvailabilitySLO] = None
    if (
        cluster.replicas > 1
        or not cluster.failures.is_empty
        or cluster.hedge is not None
    ):
        availability = coordinator.availability_report(makespan)
    slo = merge_shard_slo_reports(
        shard_reports,
        end_to_end=[record.end_to_end_latency for record in records],
        queue_waits=[record.queue_wait for record in records],
        executions=[record.execution_latency for record in records],
        offered=admission.offered,
        admitted=admission.admitted,
        completed=len(records),
        shed=admission.shed_count,
        max_queue_len=admission.max_queue_len,
        offered_rate_qps=rate,
        classes=coordinator.frontdoor.class_reports(),
        coordinator=coordinator_slo,
        duration=coordinator_duration,
        availability=availability,
    )
    blame = build_blame_report(
        (record.query_class, record.breakdown) for record in records
    )
    if blame.overall.count:
        slo = replace(slo, blame=blame)
    fired: Tuple[Alert, ...] = ()
    if alerts is not None and not alerts.is_empty:
        completions = [
            QueryCompletion(
                finish_time=record.finish_time,
                query_class=record.query_class,
                breakdown=record.breakdown,
            )
            for record in records
            if record.breakdown is not None
        ]
        busy_series: Dict[str, Tuple[Tuple[float, float], ...]] = {
            f"shard{shard}.disk": run.disk_busy_timeline
            for shard, run in enumerate(shard_runs)
        }
        if resources is not None:
            busy_series.update(resources.busy_timelines())
        fired = evaluate_alerts(
            alerts,
            completions,
            busy_series,
            makespan,
            obs=recorder,
            where="cluster alerts",
        )
    mpl_timeline = tuple(coordinator.frontdoor.mpl_timeline)
    validate_timeline(mpl_timeline, where="cluster MPL timeline")
    return ClusterResult(
        policy=slo.policy,
        cluster=cluster,
        shard_map=shard_map,
        shard_runs=shard_runs,
        shard_reports=shard_reports,
        slo=slo,
        records=records,
        mpl_timeline=mpl_timeline,
        obs=recorder,
        coordinator=coordinator_slo,
        coordinator_timelines=coordinator_timelines,
        availability=availability,
        alerts=fired,
    )


def compare_cluster_policies(
    arrivals: Sequence[Arrival],
    config: SystemConfig,
    shard_abms_for_policy,
    cluster: ClusterConfig,
    policies: Sequence[str] = ("normal", "attach", "elevator", "relevance"),
) -> Dict[str, ClusterResult]:
    """Serve the identical arrival sequence under each scheduling policy.

    ``shard_abms_for_policy(policy)`` must return a fresh sequence of
    per-shard ABMs; the cluster analogue of
    :func:`repro.service.compare_service_policies`.
    """
    results: Dict[str, ClusterResult] = {}
    for policy in policies:
        results[policy] = run_cluster_service(
            arrivals, config, shard_abms_for_policy(policy), cluster
        )
    return results
