"""Failure resilience: replication and hedging under shard failures.

The replicated cluster (:mod:`repro.cluster`, ``replicas=R``) places every
chunk range on R shards by chained declustering and routes each chunk group
to the least-loaded live replica.  This benchmark asks the availability
question: **what does a mid-run shard failure cost, and what does
replication buy back?**

One fixed Poisson workload (same seed everywhere, so every configuration
serves the identical queries) runs through four scenarios on a 4-shard
NSM cluster:

* **healthy** — R=1, no failures: the p99 baseline;
* **killed R=1** — shard 1 dies mid-run with sub-queries in flight and
  comes back seconds later; without a replica the orphaned chunk groups
  can only wait for the repair, so p99 blows past the bound;
* **killed R=2** — the identical failure schedule: in-flight work
  re-scatters to the surviving replica, p99 stays within the bound and
  throughput degrades gracefully;
* **straggler ± hedging** — a degraded (not dead) shard serves at a
  fraction of its bandwidth; hedged requests duplicate slow sub-queries
  onto the other replica and strictly cut the tail.

The headline claims, asserted deterministically: every scenario completes
every query exactly once; killed R=2 holds p99 within ``BOUND_FACTOR`` x
the healthy p99 while killed R=1 violates it; killed R=2 keeps at least
``GRACEFUL_FACTOR`` of the healthy throughput; and hedging fires and
strictly lowers the straggler p99.

Run it through the benchmark driver (or under pytest-benchmark like the
other benchmarks)::

    PYTHONPATH=src python -m benchmarks.core failure_resilience
"""

from __future__ import annotations

import time

from benchmarks._harness import print_banner, run_once
from repro.cluster import ShardMap, run_cluster_service
from repro.common.config import (
    BufferConfig,
    ClusterConfig,
    CpuConfig,
    DiskConfig,
    FailureConfig,
    FailureEvent,
    HedgeConfig,
    SystemConfig,
)
from repro.common.units import KB, MB
from repro.service import poisson_arrivals, render_availability_table
from repro.sim.setup import make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.storage.schema import ColumnSpec, DataType, TableSchema
from repro.workload.queries import QueryFamily, QueryTemplate

POLICY = "relevance"
SHARDS = 4
NUM_CHUNKS = 64
NUM_QUERIES = 48
MPL_PER_SHARD = 4
SHARD_BUFFER_CHUNKS = 8
RATE_QPS = 6.0
ARRIVAL_SEED = 13

#: Shard 1 dies with sub-queries in flight (the arrival stream above puts
#: primary-1 chunk groups on the wire just before this instant) and comes
#: back four seconds later.
KILL_TIME = 1.06
REPAIR_TIME = 5.0
KILL_SCHEDULE = FailureConfig(
    events=(
        FailureEvent(KILL_TIME, 1, "kill"),
        FailureEvent(REPAIR_TIME, 1, "repair"),
    )
)
#: The straggler scenario: shard 2 keeps answering at 5% bandwidth.
STRAGGLER_SCHEDULE = FailureConfig(
    events=(FailureEvent(0.02, 2, "degrade"),), degrade_factor=0.05
)
HEDGE = HedgeConfig(quantile=0.9, multiplier=1.0, min_samples=4)

#: killed R=2 must hold p99 within this multiple of the healthy p99 —
#: and killed R=1 must violate the same bound.
BOUND_FACTOR = 3.0
#: killed R=2 must keep at least this fraction of the healthy throughput.
GRACEFUL_FACTOR = 0.7


def _config() -> SystemConfig:
    return SystemConfig(
        disk=DiskConfig(bandwidth_bytes_per_s=100 * MB, avg_seek_s=0.002,
                        sequential_seek_s=0.0005),
        cpu=CpuConfig(cores=8),
        buffer=BufferConfig(chunk_bytes=1 * MB, page_bytes=64 * KB,
                            capacity_chunks=SHARD_BUFFER_CHUNKS),
    )


def _workload(config: SystemConfig):
    schema = TableSchema.build(
        "resilience", [ColumnSpec(name, DataType.INT64) for name in "abcd"]
    )
    tuples_per_chunk = int(
        config.buffer.chunk_bytes // schema.tuple_logical_bytes
    )
    layout = NSMTableLayout.from_buffer_config(
        schema, NUM_CHUNKS * tuples_per_chunk, config.buffer
    )
    fast = QueryFamily("F", cpu_per_chunk=0.002)
    slow = QueryFamily("S", cpu_per_chunk=0.008)
    templates = (
        QueryTemplate(fast, 12.5),
        QueryTemplate(fast, 25),
        QueryTemplate(slow, 12.5),
    )
    arrivals = poisson_arrivals(
        templates, layout, RATE_QPS, NUM_QUERIES, seed=ARRIVAL_SEED
    )

    def shard_abms(cluster: ClusterConfig):
        shard_map = ShardMap.from_cluster_config(cluster, NUM_CHUNKS)
        return [
            make_nsm_abm(
                NSMTableLayout.from_buffer_config(
                    schema,
                    shard_map.chunks_owned(shard) * tuples_per_chunk,
                    config.buffer,
                ),
                config,
                POLICY,
                capacity_chunks=SHARD_BUFFER_CHUNKS,
            )
            for shard in range(cluster.shards)
        ]

    return arrivals, shard_abms


def _scenarios():
    base = dict(shards=SHARDS, placement="range", mpl_per_shard=MPL_PER_SHARD)
    return (
        ("healthy", ClusterConfig(**base)),
        ("killed R=1", ClusterConfig(**base, replicas=1,
                                     failures=KILL_SCHEDULE)),
        ("killed R=2", ClusterConfig(**base, replicas=2,
                                     failures=KILL_SCHEDULE)),
        ("straggler R=2", ClusterConfig(**base, replicas=2,
                                        failures=STRAGGLER_SCHEDULE)),
        ("straggler R=2 hedged", ClusterConfig(**base, replicas=2,
                                               failures=STRAGGLER_SCHEDULE,
                                               hedge=HEDGE)),
    )


def _experiment():
    config = _config()
    arrivals, shard_abms = _workload(config)
    results = {}
    core = {}
    for label, cluster in _scenarios():
        started = time.perf_counter()
        results[label] = run_cluster_service(
            arrivals, config, shard_abms(cluster), cluster
        )
        availability = results[label].availability
        core[label] = {
            "queries": NUM_QUERIES,
            "chunks": NUM_CHUNKS,
            "shards": SHARDS,
            "scenario": label,
            "wall_clock_s": round(time.perf_counter() - started, 4),
            "p99_s": round(results[label].slo.latency.p99, 4),
            "throughput_qps": round(results[label].slo.throughput_qps, 4),
            "rescatters": availability.rescatters if availability else 0,
            "hedges_fired": availability.hedges_fired if availability else 0,
        }
    return results, core


def _report(results):
    print_banner(
        f"Failure resilience: {SHARDS} shards, shard 1 killed at "
        f"t={KILL_TIME}s / repaired at t={REPAIR_TIME}s, {POLICY} policy"
    )
    healthy = results["healthy"].slo
    bound = BOUND_FACTOR * healthy.latency.p99
    for label, result in results.items():
        slo = result.slo
        availability = result.availability
        extra = ""
        if availability is not None:
            extra = (
                f", avail {100 * availability.availability:.1f}%, "
                f"rescat {availability.rescatters}, "
                f"orphans {availability.orphaned}, "
                f"hedged {availability.hedges_fired}"
            )
        print(
            f"{label:>21}: p99 {slo.latency.p99:6.2f}s, "
            f"tput {slo.throughput_qps:5.2f} q/s, "
            f"completed {slo.completed}/{slo.offered}{extra}"
        )
    print()
    print(render_availability_table([r.slo for r in results.values()]))

    # Exactly-once completion everywhere, failures or not.
    for label, result in results.items():
        assert result.slo.completed == result.slo.offered, (
            f"{label}: lost queries "
            f"({result.slo.completed}/{result.slo.offered})"
        )

    # The kill caught real in-flight work and R=2 re-scattered it.
    killed_r2 = results["killed R=2"]
    assert killed_r2.availability.rescatters >= 1, (
        "killed R=2: the kill caught no in-flight chunk group"
    )
    # R=2 holds the p99 bound the un-replicated cluster violates.
    r1_p99 = results["killed R=1"].slo.latency.p99
    r2_p99 = killed_r2.slo.latency.p99
    assert r1_p99 > bound, (
        f"killed R=1 p99 {r1_p99:.2f}s unexpectedly within the "
        f"{bound:.2f}s bound — the failure did not hurt"
    )
    assert r2_p99 <= bound, (
        f"killed R=2 p99 {r2_p99:.2f}s exceeds the {bound:.2f}s bound"
    )
    # Graceful degradation: the replicated cluster keeps its throughput.
    assert (
        killed_r2.slo.throughput_qps
        >= GRACEFUL_FACTOR * healthy.throughput_qps
    ), (
        f"killed R=2 throughput {killed_r2.slo.throughput_qps:.2f} q/s fell "
        f"below {GRACEFUL_FACTOR} x healthy "
        f"{healthy.throughput_qps:.2f} q/s"
    )
    # Hedging fires on the straggler and strictly cuts the tail.
    hedged = results["straggler R=2 hedged"]
    unhedged = results["straggler R=2"]
    assert hedged.availability.hedges_fired > 0, "no hedges fired"
    assert hedged.slo.latency.p99 < unhedged.slo.latency.p99, (
        f"hedging did not cut the straggler p99 "
        f"({hedged.slo.latency.p99:.2f}s vs "
        f"{unhedged.slo.latency.p99:.2f}s)"
    )
    print(
        f"\nkilled R=1 p99 {r1_p99:.2f}s vs R=2 {r2_p99:.2f}s "
        f"(bound {bound:.2f}s); hedging cuts the straggler p99 "
        f"{unhedged.slo.latency.p99:.2f}s -> {hedged.slo.latency.p99:.2f}s"
    )


def section():
    """Run, report and gate the experiment; returns its ``BENCH_core`` section."""
    results, core = _experiment()
    _report(results)
    return {
        "workload": {
            "policy": POLICY,
            "shards": SHARDS,
            "num_chunks": NUM_CHUNKS,
            "num_queries": NUM_QUERIES,
            "kill_time_s": KILL_TIME,
            "repair_time_s": REPAIR_TIME,
        },
        "rows": list(core.values()),
    }


def bench_failure_resilience(benchmark):
    run_once(benchmark, section)
