"""Sharded scatter-gather cluster layer over multiple ABM+disk simulators.

The open-system service (:mod:`repro.service`) admits traffic into *one*
simulator — one ABM sharing one machine's disk volumes.  This package is the
next scaling step toward "millions of users": the table's chunks are
partitioned across several independent shard simulators (each its own ABM,
buffer pool, disk volumes and event core, advanced in lockstep on a shared
clock by :class:`repro.sim.lockstep.LockstepRunner`) behind one front
admission queue:

* :mod:`repro.cluster.shardmap` — :class:`ShardMap`, the chunk->shard
  placement (range-partitioned or striped, built on
  :class:`repro.storage.volumes.VolumeLayout`) and the query planner that
  groups a global scan's chunks by primary shard and materialises each
  group as a shard-local sub-query;
* :mod:`repro.cluster.coordinator` — the scatter-gather coordinator (one
  path for every configuration): one
  :class:`repro.service.admission.AdmissionController` front door, per-shard
  :class:`ShardSource` query sources, gathering of sub-query completions
  into whole-query :class:`ClusterQueryRecord` outcomes, and the
  :func:`run_cluster_service` / :func:`compare_cluster_policies` entry
  points producing a merged cluster :class:`repro.service.slo.SLOReport`.

When :attr:`repro.common.config.ClusterConfig.models_coordinator` is set,
the coordinator itself is a real resource: an optional :mod:`repro.net`
CPU + NIC cost model delays scatter deliveries and gather completions, and
the merged SLO report carries its utilisation and queue-delay warnings.

With ``replicas=R > 1``, a failure schedule, or a hedge policy the same
path also tolerates shard failures:

* :mod:`repro.cluster.shardmap` places each chunk range on ``R`` shards by
  chained declustering, and the coordinator routes each chunk group to the
  least-loaded live replica;
* :mod:`repro.cluster.failures` — :class:`FailureInjector` replays a
  seedable kill/degrade/repair schedule as lockstep frontier events
  (degraded shards lose disk bandwidth in place; killed shards fail-stop,
  their work re-scattered to surviving replicas), and
  :class:`HedgeMonitor` fires hedged duplicates for sub-queries that
  exceed a latency quantile (first completion wins, the loser is cancelled
  and fully unwound);
* the merged SLO report and :class:`ClusterResult` gain an
  :class:`repro.service.slo.AvailabilitySLO` section — per-shard health
  timelines, hedge/re-scatter counters and failure-attributed latency.

A 1-shard cluster reproduces :func:`repro.service.run_service` bit for bit
(same scheduling decisions, same SLO report) — pinned by
``tests/test_cluster_equivalence.py``, which also pins that spelling out
``replicas=1``, an empty failure schedule and no hedge changes nothing.
"""

from repro.cluster.shardmap import ShardMap
from repro.cluster.coordinator import (
    ClusterCoordinator,
    ClusterQueryRecord,
    ClusterResult,
    ShardSource,
    compare_cluster_policies,
    run_cluster_service,
)
from repro.cluster.failures import (
    FailureInjector,
    HedgeMonitor,
    random_failure_schedule,
)

__all__ = [
    "ShardMap",
    "ClusterCoordinator",
    "ClusterQueryRecord",
    "ClusterResult",
    "ShardSource",
    "compare_cluster_policies",
    "run_cluster_service",
    "FailureInjector",
    "HedgeMonitor",
    "random_failure_schedule",
]
