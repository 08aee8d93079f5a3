"""Cluster scaling: sustained load at a fixed p95 SLO vs shard count.

The sharded scatter-gather cluster (:mod:`repro.cluster`) partitions the
table across N independent ABM+disk simulators behind one front admission
queue.  This benchmark asks the service question: **how much offered load
can the cluster sustain within a fixed p95 end-to-end latency SLO as the
shard count grows?**

For each layout (NSM / DSM) and shard count 1/2/4/8, the identical Poisson
arrival sequence (same seed at every λ point, so every configuration serves
the same queries) sweeps a geometric λ grid under all four scheduling
policies.  The SLO threshold is fixed *across shard counts* — set from the
no-sharing policy's light-load p95 on the 1-shard cluster — so "sustained
load" is measured against one common latency bar.  The headline claims,
asserted deterministically:

* **sustained throughput at the fixed p95 strictly increases from 1 to 2
  to 4 shards for every policy** (and never regresses at 8) — range
  partitioning turns extra shards into service capacity; and
* **relevance sustains at least the no-sharing load at every shard
  count** — cooperative scanning keeps paying inside each shard.

A second, fixed load point (relevance, NSM, 512 chunks) measures the
lockstep driver itself at 8/16/32/64 shards.  The benchmark wraps
``ScanSimulator.next_step_time`` and ``ScanSimulator.step`` to count probes
and steps and reads the runner's round count; the driver re-probes only
shards that stepped or were touched, so **probes per step stay at or below
1.5 at every shard count** (asserted) — per-round driver cost follows the
shards that have work, not the fleet size.

Run it through the benchmark driver (or under pytest-benchmark like the
other benchmarks)::

    PYTHONPATH=src python -m benchmarks.core cluster_scaling
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from benchmarks._harness import print_banner, run_once
from repro.cluster import ShardMap, compare_cluster_policies, run_cluster_service
from repro.common.config import (
    BufferConfig,
    ClusterConfig,
    CpuConfig,
    DiskConfig,
    SystemConfig,
)
from repro.common.units import KB, MB
from repro.service import poisson_arrivals
from repro.sim.lockstep import LockstepRunner
from repro.sim.runner import ScanSimulator
from repro.sim.setup import make_dsm_abm, make_nsm_abm
from repro.storage.compression import NONE, PDICT, PFOR, PFOR_DELTA
from repro.storage.dsm import DSMTableLayout
from repro.storage.nsm import NSMTableLayout
from repro.storage.schema import ColumnSpec, DataType, TableSchema
from repro.workload.queries import QueryFamily, QueryTemplate

POLICIES = ("normal", "attach", "elevator", "relevance")
SHARD_COUNTS = (1, 2, 4, 8)

#: Global table size (chunks) — fixed across shard counts so every cluster
#: serves the identical workload; a multiple of 8 keeps range shards even.
NUM_CHUNKS = 64
#: Queries per λ point and the per-shard admission MPL.
NUM_QUERIES = 48
MPL_PER_SHARD = 4
#: Each shard machine's buffer (chunks) — per-shard capacity is fixed, the
#: cluster's total buffer grows with the shard count, as real scale-out does.
SHARD_BUFFER_CHUNKS = 8
#: Geometric λ grid (queries/s): each point ~1.5x the previous, tall enough
#: that even the 8-shard cluster saturates before the top and every
#: doubling of the shard count crosses at least one grid point.
OFFERED_LOADS = (
    0.5, 0.75, 1.1, 1.7, 2.5, 3.8, 5.7, 8.5, 12.8, 19.2, 28.8, 43.2, 64.8
)
ARRIVAL_SEED = 20
#: p95 SLO = this multiple of no-sharing's light-load p95 on one shard.
SLO_FACTOR = 1.5

#: The driver-cost load point: shard counts, table size (chunks), queries
#: and offered load (queries/s), plus the asserted re-probe budget.
DRIVER_SHARD_COUNTS = (8, 16, 32, 64)
DRIVER_CHUNKS = 512
DRIVER_QUERIES = 200
DRIVER_LOAD = 20.0
MAX_PROBES_PER_STEP = 1.5


def _config() -> SystemConfig:
    """One shard machine: modest disk, enough cores that I/O dominates."""
    return SystemConfig(
        disk=DiskConfig(bandwidth_bytes_per_s=100 * MB, avg_seek_s=0.002,
                        sequential_seek_s=0.0005),
        cpu=CpuConfig(cores=8),
        buffer=BufferConfig(chunk_bytes=1 * MB, page_bytes=64 * KB,
                            capacity_chunks=SHARD_BUFFER_CHUNKS),
    )


def _nsm_case(config: SystemConfig, num_chunks: int = NUM_CHUNKS):
    schema = TableSchema.build(
        "cluster_nsm", [ColumnSpec(name, DataType.INT64) for name in "abcd"]
    )
    tuples_per_chunk = int(config.buffer.chunk_bytes // schema.tuple_logical_bytes)
    layout = NSMTableLayout.from_buffer_config(
        schema, num_chunks * tuples_per_chunk, config.buffer
    )
    fast = QueryFamily("F", cpu_per_chunk=0.002)
    slow = QueryFamily("S", cpu_per_chunk=0.008)
    templates = (
        QueryTemplate(fast, 12.5),
        QueryTemplate(fast, 25),
        QueryTemplate(slow, 12.5),
    )

    def shard_abms(shard_map: ShardMap, policy: str):
        return [
            make_nsm_abm(
                NSMTableLayout.from_buffer_config(
                    schema,
                    shard_map.chunks_owned(shard) * tuples_per_chunk,
                    config.buffer,
                ),
                config,
                policy,
                capacity_chunks=SHARD_BUFFER_CHUNKS,
            )
            for shard in range(shard_map.num_shards)
        ]

    return layout, templates, shard_abms


def _dsm_case(config: SystemConfig):
    schema = TableSchema.build(
        "cluster_dsm",
        [
            ColumnSpec("key", DataType.OID, PFOR_DELTA),
            ColumnSpec("ref", DataType.OID, PFOR),
            ColumnSpec("price", DataType.DECIMAL, NONE),
            ColumnSpec("flag", DataType.CHAR1, PDICT),
            ColumnSpec("date", DataType.DATE, PFOR, compressed_bits=12),
        ],
    )
    tuples_per_chunk = 25_000
    layout = DSMTableLayout(
        schema=schema,
        num_tuples=NUM_CHUNKS * tuples_per_chunk,
        tuples_per_chunk=tuples_per_chunk,
        page_bytes=config.buffer.page_bytes,
    )
    narrow = QueryFamily("F", cpu_per_chunk=0.002, columns=("key", "price"))
    medium = QueryFamily("G", cpu_per_chunk=0.003, columns=("price", "flag"))
    wide = QueryFamily("S", cpu_per_chunk=0.008, columns=("key", "ref", "date"))
    templates = (
        QueryTemplate(narrow, 12.5),
        QueryTemplate(medium, 25),
        QueryTemplate(wide, 12.5),
    )

    def shard_abms(shard_map: ShardMap, policy: str):
        abms = []
        for shard in range(shard_map.num_shards):
            local = DSMTableLayout(
                schema=schema,
                num_tuples=shard_map.chunks_owned(shard) * tuples_per_chunk,
                tuples_per_chunk=tuples_per_chunk,
                page_bytes=config.buffer.page_bytes,
            )
            capacity_pages = max(64, int(local.table_pages() * 0.35))
            abms.append(
                make_dsm_abm(
                    local, config, policy, capacity_pages=capacity_pages
                )
            )
        return abms

    return layout, templates, shard_abms


def _sweep(config, layout, templates, shard_abms):
    """{shards: {lambda: {policy: SLOReport}}} plus per-shard-count core
    stats (wall-clock seconds, per-decision scheduling cost) over the grid."""
    surface = {}
    core = {}
    for shards in SHARD_COUNTS:
        cluster = ClusterConfig(
            shards=shards, placement="range", mpl_per_shard=MPL_PER_SHARD
        )
        shard_map = ShardMap.from_cluster_config(cluster, NUM_CHUNKS)
        per_load = {}
        started = time.perf_counter()
        scheduling_calls = 0
        scheduling_seconds = 0.0
        for offered_load in OFFERED_LOADS:
            arrivals = poisson_arrivals(
                templates, layout, offered_load, NUM_QUERIES, seed=ARRIVAL_SEED
            )
            results = compare_cluster_policies(
                arrivals,
                config,
                lambda policy: shard_abms(shard_map, policy),
                cluster,
                policies=POLICIES,
            )
            per_load[offered_load] = {
                policy: outcome.slo for policy, outcome in results.items()
            }
            for outcome in results.values():
                for run in outcome.shard_runs:
                    scheduling_calls += run.scheduling_calls
                    scheduling_seconds += run.scheduling_seconds
        core[shards] = {
            "queries": NUM_QUERIES * len(OFFERED_LOADS) * len(POLICIES),
            "chunks": NUM_CHUNKS,
            "shards": shards,
            "wall_clock_s": round(time.perf_counter() - started, 4),
            "per_decision_us": round(
                scheduling_seconds / scheduling_calls * 1e6
                if scheduling_calls
                else 0.0,
                3,
            ),
        }
        surface[shards] = per_load
    return surface, core


def _experiment():
    config = _config()
    results = {}
    core = {}
    for layout_name, case in (("NSM", _nsm_case), ("DSM", _dsm_case)):
        layout, templates, shard_abms = case(config)
        results[layout_name], core[layout_name] = _sweep(
            config, layout, templates, shard_abms
        )
    return results, core


@contextmanager
def _driver_counters():
    """Count lockstep probes, steps and rounds for the enclosed runs."""
    counts = {"probes": 0, "steps": 0, "rounds": 0}
    probe, step, run = (
        ScanSimulator.next_step_time, ScanSimulator.step, LockstepRunner.run
    )

    def counted_probe(self):
        counts["probes"] += 1
        return probe(self)

    def counted_step(self, now):
        counts["steps"] += 1
        return step(self, now)

    def counted_run(self):
        results = run(self)
        counts["rounds"] += self.rounds
        return results

    ScanSimulator.next_step_time = counted_probe
    ScanSimulator.step = counted_step
    LockstepRunner.run = counted_run
    try:
        yield counts
    finally:
        ScanSimulator.next_step_time = probe
        ScanSimulator.step = step
        LockstepRunner.run = run


def _driver_cost():
    """Probes, steps and rounds of one relevance load point per shard count."""
    config = _config()
    layout, templates, shard_abms = _nsm_case(config, DRIVER_CHUNKS)
    arrivals = poisson_arrivals(
        templates, layout, DRIVER_LOAD, DRIVER_QUERIES, seed=ARRIVAL_SEED
    )
    rows = []
    for shards in DRIVER_SHARD_COUNTS:
        cluster = ClusterConfig(
            shards=shards, placement="range", mpl_per_shard=MPL_PER_SHARD
        )
        shard_map = ShardMap.from_cluster_config(cluster, DRIVER_CHUNKS)
        abms = shard_abms(shard_map, "relevance")
        started = time.perf_counter()
        with _driver_counters() as counts:
            result = run_cluster_service(arrivals, config, abms, cluster)
        assert result.slo.completed == DRIVER_QUERIES
        rows.append(
            {
                "shards": shards,
                "wall_clock_s": round(time.perf_counter() - started, 4),
                **counts,
                "probes_per_step": round(counts["probes"] / counts["steps"], 4),
                "probes_per_round": round(counts["probes"] / counts["rounds"], 4),
                "steps_per_round": round(counts["steps"] / counts["rounds"], 4),
            }
        )
    return rows


def _report_driver(rows) -> None:
    from repro.metrics.report import format_table

    print(
        format_table(
            ["shards", "rounds", "steps", "probes", "probes/step",
             "probes/round", "steps/round", "wall s"],
            [
                [row["shards"], row["rounds"], row["steps"], row["probes"],
                 row["probes_per_step"], row["probes_per_round"],
                 row["steps_per_round"], row["wall_clock_s"]]
                for row in rows
            ],
            title=(
                f"Lockstep driver cost: relevance, {DRIVER_QUERIES} queries "
                f"at {DRIVER_LOAD} q/s over {DRIVER_CHUNKS} chunks"
            ),
        )
    )
    for row in rows:
        # Only stepped or touched shards are re-probed, never the fleet.
        assert row["probes_per_step"] <= MAX_PROBES_PER_STEP, (
            f"{row['shards']} shards: {row['probes_per_step']} probes per "
            f"step; need <= {MAX_PROBES_PER_STEP}"
        )


def _slo_threshold(surface) -> float:
    """The fixed p95 bar: SLO_FACTOR x no-sharing light-load p95, 1 shard."""
    lightest = min(surface[1])
    return SLO_FACTOR * surface[1][lightest]["normal"].latency.p95


def _sustained(per_load, policy, threshold) -> float:
    """Largest swept λ the policy serves within the SLO (0.0 if none)."""
    sustained = [
        offered_load
        for offered_load, reports in per_load.items()
        if reports[policy].meets(threshold)
    ]
    return max(sustained) if sustained else 0.0


def _report(results):
    print_banner(
        f"Cluster scaling: sustained load at fixed p95, shards "
        f"{'/'.join(str(s) for s in SHARD_COUNTS)} (range placement, "
        f"MPL {MPL_PER_SHARD}/shard)"
    )
    from repro.metrics.report import format_table

    for layout_name, surface in results.items():
        threshold = _slo_threshold(surface)
        rows = []
        sustained = {}
        for shards in SHARD_COUNTS:
            per_load = surface[shards]
            sustained[shards] = {
                policy: _sustained(per_load, policy, threshold)
                for policy in POLICIES
            }
            heaviest = max(
                (l for l in per_load if per_load[l]["relevance"].meets(threshold)),
                default=min(per_load),
            )
            relevance = per_load[heaviest]["relevance"]
            rows.append(
                [shards]
                + [sustained[shards][policy] for policy in POLICIES]
                + [round(relevance.throughput_qps, 2),
                   round(100 * relevance.disk_utilisation, 1)]
            )
        print(
            format_table(
                ["shards"] + [f"{policy} q/s" for policy in POLICIES]
                + ["rel. tput", "rel. disk%"],
                rows,
                title=(
                    f"{layout_name}: max sustained load (q/s) at p95 <= "
                    f"{threshold:.1f}s"
                ),
            )
        )
        print()

        for policy in POLICIES:
            # The headline scaling claim: each doubling up to 4 shards buys
            # real sustained load, and 8 shards never regresses.
            chain = [sustained[shards][policy] for shards in SHARD_COUNTS]
            for previous, current, shards in zip(chain, chain[1:], SHARD_COUNTS[1:]):
                if shards <= 4:
                    assert current > previous, (
                        f"{layout_name}/{policy}: sustained load fell from "
                        f"{previous} to {current} q/s going to {shards} shards"
                    )
                else:
                    assert current >= previous, (
                        f"{layout_name}/{policy}: sustained load regressed at "
                        f"{shards} shards ({previous} -> {current} q/s)"
                    )
        for shards in SHARD_COUNTS:
            # And sharing keeps paying inside every shard.
            assert (
                sustained[shards]["relevance"] >= sustained[shards]["normal"]
            ), (
                f"{layout_name}: relevance sustained less than normal at "
                f"{shards} shards"
            )
        speedup = sustained[SHARD_COUNTS[-1]]["relevance"] / max(
            sustained[SHARD_COUNTS[0]]["relevance"], 1e-9
        )
        print(
            f"{layout_name}: relevance sustains {speedup:.1f}x the load at "
            f"{SHARD_COUNTS[-1]} shards vs {SHARD_COUNTS[0]} "
            f"(p95 SLO {threshold:.1f}s)"
        )


def section():
    """Run, report and gate the experiment; returns its ``BENCH_core`` section."""
    results, core = _experiment()
    _report(results)
    driver_rows = _driver_cost()
    _report_driver(driver_rows)
    rows = []
    for layout_name, surface in results.items():
        threshold = _slo_threshold(surface)
        for shards, stats in sorted(core[layout_name].items()):
            rows.append({
                "layout": layout_name,
                **stats,
                "sustained_qps": {
                    policy: _sustained(surface[shards], policy, threshold)
                    for policy in POLICIES
                },
            })
    rows += [{"layout": "NSM", "point": "lockstep", **row} for row in driver_rows]
    return {
        "workload": {
            "num_chunks": NUM_CHUNKS,
            "num_queries": NUM_QUERIES,
            "mpl_per_shard": MPL_PER_SHARD,
            "shard_counts": list(SHARD_COUNTS),
            "offered_loads": list(OFFERED_LOADS),
            "driver_chunks": DRIVER_CHUNKS,
            "driver_queries": DRIVER_QUERIES,
            "driver_load": DRIVER_LOAD,
        },
        "rows": rows,
    }


def bench_cluster_scaling(benchmark):
    run_once(benchmark, section)
