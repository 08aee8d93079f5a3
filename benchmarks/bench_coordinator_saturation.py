"""Coordinator saturation: the scatter-gather front door as the bottleneck.

PR 4's scaling benchmark (:mod:`benchmarks.bench_cluster_scaling`) showed
sustained load at a fixed p95 SLO growing with the shard count — under an
*infinitely fast* coordinator.  This benchmark prices the coordinator in
(:mod:`repro.net`): every admitted query pays classify + per-sub-query
scatter CPU, every sub-query crosses the coordinator NIC twice (scatter
out, gather back) and pays gather CPU on return.  Per-query coordinator
work therefore grows **linearly with the shard count**, so scale-out must
eventually stop paying at the front door.

For shard counts 1/2/4/8/16 the identical Poisson arrival sequence sweeps
a geometric λ grid twice — once with the default zero-cost ("infinite")
coordinator and once with a finite CPU + NIC — measuring the max sustained
load within one fixed p95 bar.  The headline claims, asserted
deterministically:

* **the infinite coordinator keeps the PR 4 scaling law** — sustained
  load strictly increases from 1 to 2 to 4 shards and never regresses at
  8 or 16;
* **the finite coordinator plateaus**: sustained load stops growing by 16
  shards and lands strictly below the infinite coordinator's; and
* **the SLO report pins the blame**: at the plateau the merged cluster
  report shows coordinator CPU/NIC utilisation >= 0.9 with explicit
  bottleneck warnings.

Run it through the benchmark driver (or under pytest-benchmark like the
other benchmarks)::

    PYTHONPATH=src python -m benchmarks.core coordinator_saturation
"""

from __future__ import annotations

import time

from benchmarks._harness import print_banner, run_once
from repro.cluster import ShardMap, run_cluster_service
from repro.common.config import (
    BufferConfig,
    ClusterConfig,
    CoordinatorConfig,
    CpuConfig,
    DiskConfig,
    NetworkConfig,
    SystemConfig,
)
from repro.common.units import KB, MB
from repro.net import SATURATION_WARN
from repro.service import poisson_arrivals
from repro.sim.setup import make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.storage.schema import ColumnSpec, DataType, TableSchema
from repro.workload.queries import QueryFamily, QueryTemplate

POLICY = "relevance"
SHARD_COUNTS = (1, 2, 4, 8, 16)

#: Global table size (chunks) — a multiple of 16 keeps range shards even.
NUM_CHUNKS = 64
#: Queries per λ point and the per-shard admission MPL.
NUM_QUERIES = 48
MPL_PER_SHARD = 4
SHARD_BUFFER_CHUNKS = 8
#: Geometric λ grid (queries/s), tall enough that the 16-shard cluster
#: saturates before the top even with a free coordinator.
OFFERED_LOADS = (
    0.5, 0.75, 1.1, 1.7, 2.5, 3.8, 5.7, 8.5, 12.8, 19.2, 28.8, 43.2
)
ARRIVAL_SEED = 20
#: p95 SLO = this multiple of the light-load p95 on one free-coordinator
#: shard — one fixed latency bar shared by both coordinator models.
SLO_FACTOR = 1.5

#: The finite coordinator: per-query CPU cost grows with the sub-query
#: fan-out, so the front door's throughput ceiling falls as shards grow —
#: ~70 q/s at 1 shard down to ~7 q/s at 16.
FINITE_COORDINATOR = CoordinatorConfig(
    classify_s=0.002,
    scatter_per_subquery_s=0.004,
    gather_per_subquery_s=0.004,
    merge_per_query_s=0.004,
)
#: A modest fabric: message overhead + finite bandwidth, secondary to the
#: coordinator CPU but visible in the utilisation gauges.
FINITE_NETWORK = NetworkConfig(
    bandwidth_bytes_per_s=64 * MB,
    per_message_s=0.0005,
)

#: Coordinator models compared at every shard count.
MODES = ("infinite", "finite")


def _config() -> SystemConfig:
    """One shard machine: modest disk, enough cores that I/O dominates."""
    return SystemConfig(
        disk=DiskConfig(bandwidth_bytes_per_s=100 * MB, avg_seek_s=0.002,
                        sequential_seek_s=0.0005),
        cpu=CpuConfig(cores=8),
        buffer=BufferConfig(chunk_bytes=1 * MB, page_bytes=64 * KB,
                            capacity_chunks=SHARD_BUFFER_CHUNKS),
    )


def _cluster(shards: int, mode: str) -> ClusterConfig:
    if mode == "infinite":
        return ClusterConfig(
            shards=shards, placement="range", mpl_per_shard=MPL_PER_SHARD
        )
    return ClusterConfig(
        shards=shards,
        placement="range",
        mpl_per_shard=MPL_PER_SHARD,
        coordinator=FINITE_COORDINATOR,
        network=FINITE_NETWORK,
    )


def _workload(config: SystemConfig):
    schema = TableSchema.build(
        "coordinator_nsm", [ColumnSpec(name, DataType.INT64) for name in "abcd"]
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

    def shard_abms(shard_map: ShardMap):
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
            for shard in range(shard_map.num_shards)
        ]

    return layout, templates, shard_abms


def _experiment():
    """{mode: {shards: {lambda: ClusterResult}}} plus per-point core stats."""
    config = _config()
    layout, templates, shard_abms = _workload(config)
    surface = {}
    core = {}
    for mode in MODES:
        surface[mode] = {}
        core[mode] = {}
        for shards in SHARD_COUNTS:
            cluster = _cluster(shards, mode)
            shard_map = ShardMap.from_cluster_config(cluster, NUM_CHUNKS)
            per_load = {}
            started = time.perf_counter()
            for offered_load in OFFERED_LOADS:
                arrivals = poisson_arrivals(
                    templates, layout, offered_load, NUM_QUERIES,
                    seed=ARRIVAL_SEED,
                )
                per_load[offered_load] = run_cluster_service(
                    arrivals, config, shard_abms(shard_map), cluster
                )
            core[mode][shards] = {
                "mode": mode,
                "shards": shards,
                "queries": NUM_QUERIES * len(OFFERED_LOADS),
                "wall_clock_s": round(time.perf_counter() - started, 4),
            }
            surface[mode][shards] = per_load
    return surface, core


def _slo_threshold(surface) -> float:
    """The fixed p95 bar: SLO_FACTOR x light-load p95, 1 free shard."""
    lightest = min(surface["infinite"][1])
    return SLO_FACTOR * surface["infinite"][1][lightest].slo.latency.p95


def _sustained(per_load, threshold) -> float:
    """Largest swept λ served within the SLO (0.0 if none)."""
    sustained = [
        offered_load
        for offered_load, result in per_load.items()
        if result.slo.meets(threshold)
    ]
    return max(sustained) if sustained else 0.0


def _blame(per_load, threshold):
    """The coordinator section at the heaviest load that *misses* the SLO
    (deepest saturation); falls back to the heaviest swept load."""
    breaking = [
        offered_load
        for offered_load, result in per_load.items()
        if not result.slo.meets(threshold)
    ]
    return per_load[max(breaking) if breaking else max(per_load)].coordinator


def _report(surface):
    print_banner(
        f"Coordinator saturation: sustained load at fixed p95, shards "
        f"{'/'.join(str(s) for s in SHARD_COUNTS)} "
        f"({POLICY} policy, MPL {MPL_PER_SHARD}/shard)"
    )
    from repro.metrics.report import format_table

    threshold = _slo_threshold(surface)
    sustained = {
        mode: {
            shards: _sustained(surface[mode][shards], threshold)
            for shards in SHARD_COUNTS
        }
        for mode in MODES
    }

    rows = []
    for shards in SHARD_COUNTS:
        blame = _blame(surface["finite"][shards], threshold)
        rows.append([
            shards,
            sustained["infinite"][shards],
            sustained["finite"][shards],
            round(100 * blame.cpu_utilisation, 1),
            round(100 * blame.nic_utilisation, 1),
            len(blame.warnings),
        ])
    print(
        format_table(
            ["shards", "infinite q/s", "finite q/s",
             "coord cpu%", "coord nic%", "warnings"],
            rows,
            title=(
                f"Sustained load (q/s) at p95 <= {threshold:.1f}s, "
                f"infinite vs finite coordinator"
            ),
        )
    )
    print()

    # Claim 1: the free coordinator keeps the PR 4 scaling law.
    chain = [sustained["infinite"][shards] for shards in SHARD_COUNTS]
    for previous, current, shards in zip(chain, chain[1:], SHARD_COUNTS[1:]):
        if shards <= 4:
            assert current > previous, (
                f"infinite coordinator: sustained load fell from {previous} "
                f"to {current} q/s going to {shards} shards"
            )
        else:
            assert current >= previous, (
                f"infinite coordinator: sustained load regressed at "
                f"{shards} shards ({previous} -> {current} q/s)"
            )

    # Claim 2: the finite coordinator plateaus — no gain from 8 to 16
    # shards, and 16 shards land strictly below the free coordinator.
    finite = sustained["finite"]
    assert finite[16] <= finite[8], (
        f"finite coordinator kept scaling past 8 shards "
        f"({finite[8]} -> {finite[16]} q/s); expected a plateau"
    )
    assert finite[16] < sustained["infinite"][16], (
        f"finite coordinator sustained {finite[16]} q/s at 16 shards — "
        f"not below the infinite coordinator's "
        f"{sustained['infinite'][16]} q/s"
    )

    # Claim 3: the SLO report pins the blame at the plateau.
    blame = _blame(surface["finite"][16], threshold)
    assert blame is not None, "finite coordinator run carried no SLO section"
    assert blame.bottleneck_utilisation >= SATURATION_WARN, (
        f"coordinator bottleneck utilisation "
        f"{blame.bottleneck_utilisation:.2f} below {SATURATION_WARN} at the "
        f"16-shard saturation point"
    )
    assert blame.warnings, "saturated coordinator raised no SLO warnings"

    ceiling = finite[16]
    print(
        f"finite coordinator caps sustained load at ~{ceiling:.1f} q/s by "
        f"16 shards (infinite: {sustained['infinite'][16]:.1f} q/s); "
        f"blame: {blame.warnings[0]}"
    )
    return sustained, threshold


def section():
    """Run, report and gate the experiment; returns its ``BENCH_core`` section."""
    surface, core = _experiment()
    sustained, threshold = _report(surface)
    rows = []
    for mode in MODES:
        for shards in SHARD_COUNTS:
            blame = (
                _blame(surface[mode][shards], threshold)
                if mode == "finite"
                else None
            )
            rows.append({
                **core[mode][shards],
                "sustained_qps": sustained[mode][shards],
                "coordinator_cpu_util": (
                    round(blame.cpu_utilisation, 4) if blame else 0.0
                ),
                "coordinator_nic_util": (
                    round(blame.nic_utilisation, 4) if blame else 0.0
                ),
            })
    return {
        "workload": {
            "num_chunks": NUM_CHUNKS,
            "num_queries": NUM_QUERIES,
            "mpl_per_shard": MPL_PER_SHARD,
            "policy": POLICY,
            "shard_counts": list(SHARD_COUNTS),
            "offered_loads": list(OFFERED_LOADS),
            "p95_threshold_s": round(threshold, 4),
        },
        "rows": rows,
    }


def bench_coordinator_saturation(benchmark):
    run_once(benchmark, section)
