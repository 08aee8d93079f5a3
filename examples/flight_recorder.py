#!/usr/bin/env python
"""Walkthrough: tracing a run with the flight recorder.

Every run entry point (`run_simulation`, `run_service`,
`run_cluster_service`) takes an ``obs`` argument.  Passing an
`ObservabilityConfig` threads one `FlightRecorder` through every layer —
front door, admission queues, cluster coordinator, event core, ABMs and
disk volumes — without changing a single scheduling decision: the traced
run's fingerprint is bit-for-bit identical to the untraced one.

This example traces a small 2-shard cluster, proves that equivalence,
writes the trace as Chrome trace-event JSON (drag it into
https://ui.perfetto.dev) and JSONL into a temporary directory, loads the
JSONL back, prints the windowed metric timelines and the shards'
scheduling cost, and runs once more with only the metrics half on.  The
temporary directory is removed before ``main()`` returns; call
``write_chrome_trace`` on a path of your own to keep a trace.

Run with::

    PYTHONPATH=src python examples/flight_recorder.py
"""

import os
import tempfile

from repro.cluster import ShardMap
from repro.cluster.coordinator import run_cluster_service
from repro.common.config import (
    BufferConfig,
    ClusterConfig,
    CpuConfig,
    DiskConfig,
    ObservabilityConfig,
    SystemConfig,
)
from repro.common.units import KB, MB
from repro.obs import (
    read_jsonl,
    render_run_timelines,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.service import poisson_arrivals, render_slo_table
from repro.sim.results import scheduling_fingerprint
from repro.sim.setup import make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.storage.schema import ColumnSpec, DataType, TableSchema
from repro.workload.queries import QueryFamily, QueryTemplate

SHARDS = 2
NUM_CHUNKS = 32
NUM_QUERIES = 12


def build_workload(config):
    schema = TableSchema.build(
        "trace_demo", [ColumnSpec(name, DataType.INT64) for name in "abcd"]
    )
    tuples_per_chunk = int(
        config.buffer.chunk_bytes // schema.tuple_logical_bytes
    )
    layout = NSMTableLayout.from_buffer_config(
        schema, NUM_CHUNKS * tuples_per_chunk, config.buffer
    )
    fast = QueryFamily("F", cpu_per_chunk=0.002)
    slow = QueryFamily("S", cpu_per_chunk=0.01)
    arrivals = poisson_arrivals(
        (QueryTemplate(fast, 25), QueryTemplate(slow, 100)),
        layout, 1.5, NUM_QUERIES, seed=42,
    )
    cluster = ClusterConfig(shards=SHARDS, placement="range", mpl_per_shard=2)
    shard_map = ShardMap.from_cluster_config(cluster, NUM_CHUNKS)

    def shard_abms():
        return [
            make_nsm_abm(
                NSMTableLayout.from_buffer_config(
                    schema,
                    shard_map.chunks_owned(shard) * tuples_per_chunk,
                    config.buffer,
                ),
                config,
                "relevance",
            )
            for shard in range(SHARDS)
        ]

    return arrivals, cluster, shard_abms


def main():
    config = SystemConfig(
        disk=DiskConfig(bandwidth_bytes_per_s=100 * MB, avg_seek_s=0.002,
                        sequential_seek_s=0.0005),
        cpu=CpuConfig(cores=2),
        buffer=BufferConfig(chunk_bytes=1 * MB, page_bytes=64 * KB,
                            capacity_chunks=8),
    )
    arrivals, cluster, shard_abms = build_workload(config)

    # 1. Run untraced and traced; tracing must change nothing.
    plain = run_cluster_service(arrivals, config, shard_abms(), cluster)
    traced = run_cluster_service(
        arrivals, config, shard_abms(), cluster, obs=ObservabilityConfig()
    )
    for shard, (a, b) in enumerate(zip(plain.shard_runs, traced.shard_runs)):
        assert scheduling_fingerprint(a) == scheduling_fingerprint(b), shard
    print("traced run is decision-for-decision identical to the untraced run")
    print(render_slo_table([traced.slo], title="Traced cluster run"))

    flight = traced.obs
    for line in flight.summary_lines():
        print(f"  {line}")

    # 2. Export: Chrome trace JSON (Perfetto-loadable) and JSONL, into a
    # temporary directory that is removed once the trace has been re-read.
    with tempfile.TemporaryDirectory(prefix="repro_trace_") as out_dir:
        chrome_path = os.path.join(out_dir, "cluster_trace.json")
        payload = write_chrome_trace(flight, chrome_path)
        print(f"\nwrote {chrome_path} "
              f"({validate_chrome_trace(payload)} records, Perfetto-loadable)")
        jsonl_path = os.path.join(out_dir, "cluster_trace.jsonl")
        write_jsonl(flight, jsonl_path)

        # 3. Load the JSONL trace back and poke at it.
        events = read_jsonl(jsonl_path, from_path=True)
    assert events == flight.events
    gathers = [event for event in events if event.name == "cluster.gather"]
    print(f"re-read {len(events)} events from {jsonl_path}")
    slowest = max(gathers, key=lambda e: e.args["end_to_end_latency"])
    print(f"slowest query: {slowest.args['query_name']} "
          f"({slowest.args['end_to_end_latency']:.2f}s end to end, "
          f"spanning shards {slowest.args['shards']})")

    # 4. Metric timelines, windowed, and the scheduling cost (Figure 8's
    # two counters) summed over the shards.
    print()
    print(render_run_timelines(flight, title="Cluster metric timelines"))
    seconds = sum(run.scheduling_seconds for run in traced.shard_runs)
    calls = sum(run.scheduling_calls for run in traced.shard_runs)
    print(f"\nscheduling (all shards): {seconds * 1e3:.3f} ms wall-clock, "
          f"{calls} counted decisions")

    # 5. Either half of the recorder can be switched off: a metrics-only
    # recorder keeps the same timelines without the event log.
    lean = run_cluster_service(
        arrivals, config, shard_abms(), cluster,
        obs=ObservabilityConfig(trace=False),
    )
    assert lean.obs.events == []
    assert all(lean.obs.metrics.series(name) == flight.metrics.series(name)
               for name in flight.metrics.names())
    print(f"metrics-only recorder: {', '.join(lean.obs.summary_lines())}")


if __name__ == "__main__":
    main()
