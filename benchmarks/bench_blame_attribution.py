"""Blame attribution: always-on stamping is near-free and points correctly.

Every query carries a :class:`repro.obs.postmortem.LatencyBreakdown`
whether or not the flight recorder is attached; this benchmark enforces
the two contracts that make "always on" acceptable and useful:

* **bounded overhead** — the stamped run's wall-clock stays within
  ``OVERHEAD_BUDGET`` (1.05x) of a run with breakdowns disabled (the
  pre-stamping baseline): the median, over ``SAMPLES`` interleaved pairs,
  of each pair's stamped/baseline ratio, with bit-identical scheduling
  fingerprints;
* **correct attribution** — a disk-starved workload pins more than half
  of its p95-tail blame on the disk phases, while a coordinator-saturated
  cluster pins its top tail blame on the coordinator CPU phases.

Run it through the benchmark driver (or under pytest-benchmark like the
other benchmarks)::

    PYTHONPATH=src python -m benchmarks.core blame_attribution
"""

from __future__ import annotations

import gc
import statistics
import time

from benchmarks._harness import print_banner, run_once, spread
from repro.cluster import ShardMap
from repro.cluster.coordinator import run_cluster_service
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
from repro.service import poisson_arrivals
from repro.service.slo import render_blame_table
from repro.sim.results import scheduling_fingerprint
from repro.sim.runner import run_simulation
from repro.sim.setup import make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.storage.schema import ColumnSpec, DataType, TableSchema
from repro.workload.queries import QueryFamily, QueryTemplate

NUM_CHUNKS = 64
NUM_STREAMS = 8
ARRIVAL_SEED = 11
#: Stamped wall-clock must stay within this multiple of breakdowns-off.
OVERHEAD_BUDGET = 1.05
#: Interleaved stamped/unstamped pairs.  Host noise on shared runners
#: drifts slowly over seconds, so the pairs alternate which side samples
#: first, and the gate takes the median of the per-pair ratios: the two
#: sides of one pair share a noise window, so a ratio cancels the drift
#: that a ratio of two independently taken medians keeps.
SAMPLES = 14
#: A "pinned" workload must put at least this tail-blame share on its
#: bottleneck phases.
PIN_SHARE = 0.5

DISK_PHASES = ("disk_seek", "disk_transfer")
COORDINATOR_PHASES = ("coordinator_cpu", "gather_cpu")


def _schema() -> TableSchema:
    return TableSchema.build(
        "blame_nsm", [ColumnSpec(name, DataType.INT64) for name in "abcd"]
    )


def _layout(schema: TableSchema, config: SystemConfig,
            num_chunks: int = NUM_CHUNKS) -> NSMTableLayout:
    tuples_per_chunk = int(
        config.buffer.chunk_bytes // schema.tuple_logical_bytes
    )
    return NSMTableLayout.from_buffer_config(
        schema, num_chunks * tuples_per_chunk, config.buffer
    )


# ---------------------------------------------------------------- overhead
def _overhead_config() -> SystemConfig:
    return SystemConfig(
        disk=DiskConfig(bandwidth_bytes_per_s=100 * MB, avg_seek_s=0.002,
                        sequential_seek_s=0.0005),
        cpu=CpuConfig(cores=4),
        buffer=BufferConfig(chunk_bytes=1 * MB, page_bytes=64 * KB,
                            capacity_chunks=8),
    )


def _overhead_streams(layout):
    fast = QueryFamily("F", cpu_per_chunk=0.002)
    slow = QueryFamily("S", cpu_per_chunk=0.008)
    templates = (
        QueryTemplate(fast, 25),
        QueryTemplate(fast, 50),
        QueryTemplate(slow, 100),
    )
    # Big enough that one sample runs ~1s of wall-clock: a 5% gate needs
    # the per-sample host noise to be well under 5%, and sub-300ms samples
    # are not.
    arrivals = poisson_arrivals(
        templates, layout, 1.5, NUM_STREAMS * 36, seed=ARRIVAL_SEED
    )
    # A closed-stream shape: one single-query stream per arrival, offset
    # by submit time being irrelevant here — run_simulation takes streams.
    return [[arrival.spec] for arrival in arrivals]


def _measure_overhead():
    config = _overhead_config()
    schema = _schema()
    layout = _layout(schema, config)
    streams = _overhead_streams(layout)

    def one_run(breakdowns: bool):
        abm = make_nsm_abm(layout, config, "relevance")
        # Collector pauses land disproportionately on the stamped side (it
        # allocates the breakdown objects), so quiesce the GC around each
        # timed sample — the same thing ``timeit`` does by default.
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            result = run_simulation(
                streams, config, abm, breakdowns=breakdowns
            )
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        return elapsed, result

    off_times = []
    on_times = []
    off_run = on_run = None
    # Interleaved pairs, alternating which side runs first in each pair, so
    # slowly-drifting host noise hits both sides equally.
    for index in range(SAMPLES):
        order = (False, True) if index % 2 == 0 else (True, False)
        for breakdowns in order:
            elapsed, result = one_run(breakdowns)
            if breakdowns:
                on_times.append(elapsed)
                on_run = result
            else:
                off_times.append(elapsed)
                off_run = result
    assert scheduling_fingerprint(off_run) == scheduling_fingerprint(
        on_run
    ), "breakdown stamping changed a scheduling decision"
    assert all(query.breakdown is None for query in off_run.queries)
    for query in on_run.queries:
        query.breakdown.validate(end_to_end=query.end_to_end_latency)

    ratios = [on / off for off, on in zip(off_times, on_times)]
    ratio = statistics.median(ratios)
    assert ratio <= OVERHEAD_BUDGET, (
        f"stamped run took {ratio:.3f}x the breakdowns-off wall-clock, median "
        f"over {SAMPLES} pairs (budget {OVERHEAD_BUDGET}x); pair ratios "
        f"{spread(ratios)}"
    )
    return {
        "workload": "overhead",
        "queries": len(on_run.queries),
        "samples": SAMPLES,
        "baseline_s": spread(off_times),
        "stamped_s": spread(on_times),
        "pair_ratios": spread(ratios),
        "overhead_ratio": round(ratio, 4),
        "budget": OVERHEAD_BUDGET,
    }


# ------------------------------------------------------------- attribution
def _tail_share(blame, phases) -> float:
    shares = blame.tail_shares()
    return sum(shares[name] for name in phases)


def _disk_starved():
    """A slow disk, a tiny buffer and near-zero CPU: disk must take blame."""
    config = SystemConfig(
        disk=DiskConfig(bandwidth_bytes_per_s=20 * MB, avg_seek_s=0.01,
                        sequential_seek_s=0.002),
        cpu=CpuConfig(cores=8),
        buffer=BufferConfig(chunk_bytes=1 * MB, page_bytes=64 * KB,
                            capacity_chunks=4),
    )
    schema = _schema()
    layout = _layout(schema, config)
    fast = QueryFamily("F", cpu_per_chunk=0.0002)
    templates = (QueryTemplate(fast, 50), QueryTemplate(fast, 100))
    arrivals = poisson_arrivals(
        templates, layout, 1.0, 24, seed=ARRIVAL_SEED
    )
    streams = [[arrival.spec] for arrival in arrivals]
    abm = make_nsm_abm(layout, config, "relevance")
    result = run_simulation(streams, config, abm)
    from repro.obs.postmortem import build_blame_report

    blame = build_blame_report(
        (query.query_class, query.breakdown) for query in result.queries
    )
    share = _tail_share(blame.overall, DISK_PHASES)
    assert share > PIN_SHARE, (
        f"disk-starved run pinned only {share:.0%} of p95 blame on disk "
        f"phases (need > {PIN_SHARE:.0%})"
    )
    return blame, {
        "workload": "disk-starved",
        "tail_disk_share": share,
        "tail_threshold_s": blame.overall.tail_threshold_s,
        "queries": blame.overall.count,
    }


def _coordinator_saturated():
    """Heavy classify/scatter/merge costs: the coordinator must take blame."""
    config = SystemConfig(
        disk=DiskConfig(bandwidth_bytes_per_s=400 * MB, avg_seek_s=0.0005,
                        sequential_seek_s=0.0001),
        cpu=CpuConfig(cores=8),
        buffer=BufferConfig(chunk_bytes=1 * MB, page_bytes=64 * KB,
                            capacity_chunks=32),
    )
    schema = _schema()
    tuples_per_chunk = int(
        config.buffer.chunk_bytes // schema.tuple_logical_bytes
    )
    cluster = ClusterConfig(
        shards=4,
        coordinator=CoordinatorConfig(
            classify_s=0.05,
            scatter_per_subquery_s=0.02,
            gather_per_subquery_s=0.02,
            merge_per_query_s=0.05,
        ),
        network=NetworkConfig(per_message_s=0.0001),
    )
    shard_map = ShardMap.from_cluster_config(cluster, NUM_CHUNKS)
    abms = [
        make_nsm_abm(
            NSMTableLayout.from_buffer_config(
                schema,
                shard_map.chunks_owned(shard) * tuples_per_chunk,
                config.buffer,
            ),
            config,
            "relevance",
            capacity_chunks=16,
        )
        for shard in range(cluster.shards)
    ]
    layout = _layout(schema, config)
    fast = QueryFamily("F", cpu_per_chunk=0.0005)
    templates = (QueryTemplate(fast, 25), QueryTemplate(fast, 100))
    arrivals = poisson_arrivals(templates, layout, 4.0, 24, seed=ARRIVAL_SEED)
    result = run_cluster_service(arrivals, config, abms, cluster)
    blame = result.slo.blame
    assert blame is not None
    share = _tail_share(blame.overall, COORDINATOR_PHASES)
    top_phase, _ = blame.overall.top_phases(n=1, tail=True)[0]
    assert share > PIN_SHARE, (
        f"coordinator-saturated run pinned only {share:.0%} of p95 blame "
        f"on coordinator phases (need > {PIN_SHARE:.0%})"
    )
    assert top_phase in COORDINATOR_PHASES, (
        f"coordinator-saturated run's top tail phase is {top_phase}"
    )
    return result, {
        "workload": "coordinator-saturated",
        "tail_coordinator_share": share,
        "top_tail_phase": top_phase,
        "tail_threshold_s": blame.overall.tail_threshold_s,
        "queries": blame.overall.count,
    }


def _experiment():
    overhead = _measure_overhead()
    disk_blame, disk_stats = _disk_starved()
    coord_result, coord_stats = _coordinator_saturated()
    return {
        "overhead": overhead,
        "disk": disk_stats,
        "coordinator": coord_stats,
        "disk_blame": disk_blame,
        "coordinator_result": coord_result,
    }


def _report(stats) -> None:
    print_banner(
        f"Blame attribution: always-on stamping "
        f"(budget {OVERHEAD_BUDGET}x baseline)"
    )
    overhead = stats["overhead"]
    print(
        f"median of {SAMPLES} pairs: breakdowns off "
        f"{overhead['baseline_s']['median']:.4f}s, "
        f"on {overhead['stamped_s']['median']:.4f}s, "
        f"pair ratio {overhead['overhead_ratio']:.3f}x "
        f"(budget {overhead['budget']}x, "
        f"{overhead['queries']} queries)"
    )
    disk = stats["disk"]
    print(
        f"disk-starved: {disk['tail_disk_share']:.0%} of p95 blame on disk "
        f"phases (p95 = {disk['tail_threshold_s']:.3f}s)"
    )
    coord = stats["coordinator"]
    print(
        f"coordinator-saturated: {coord['tail_coordinator_share']:.0%} of "
        f"p95 blame on coordinator phases, top phase "
        f"{coord['top_tail_phase']}"
    )
    print()
    print(render_blame_table(stats["coordinator_result"].slo,
                             title="Coordinator-saturated blame"))


def section():
    """Run, report and gate the experiment; returns its ``BENCH_core`` section."""
    stats = _experiment()
    _report(stats)
    return {
        "workload": {
            "num_chunks": NUM_CHUNKS,
            "samples": SAMPLES,
            "overhead_budget": OVERHEAD_BUDGET,
            "pin_share": PIN_SHARE,
        },
        "rows": [stats["overhead"], stats["disk"], stats["coordinator"]],
    }


def bench_blame_attribution(benchmark):
    run_once(benchmark, section)
