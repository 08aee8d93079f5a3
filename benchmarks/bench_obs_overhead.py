"""Observability overhead: what a traced cluster run costs over an untraced one.

The flight recorder (:mod:`repro.obs`) is threaded through every layer of
the stack with a ``None``-guard per emission, so a run without a recorder
pays nothing and a run with one pays the event appends.  On this
benchmark's 4-shard cluster (8,110 events, 18 metric series) that is
about 1.2x the untraced wall-clock: the gate's statistic read 1.18-1.24x
over 10 consecutive runs on a shared 2-vCPU host.  The benchmark runs the
workload untraced and traced and enforces the contract:

* **identical decisions** — the traced run's per-shard scheduling
  fingerprints match the untraced run bit for bit;
* **bounded overhead** — traced wall-clock time stays within
  ``OVERHEAD_BUDGET`` (1.35x) of the untraced run: the median, over
  ``SAMPLES`` interleaved untraced/traced pairs, of each pair's ratio;
* **valid exports** — the Chrome trace-event JSON passes
  :func:`repro.obs.export.validate_chrome_trace` (Perfetto-loadable) and
  the JSONL export round-trips exactly.

Run it through the benchmark driver, which also writes both exports to
``benchmarks/out/obs_trace.json`` and ``benchmarks/out/obs_trace.jsonl``
(or under pytest-benchmark like the other benchmarks)::

    PYTHONPATH=src python -m benchmarks.core obs_overhead
"""

from __future__ import annotations

import gc
import json
import statistics
import time

from benchmarks._harness import print_banner, run_once, spread
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
from repro.obs.export import (
    chrome_trace,
    read_jsonl,
    to_jsonl,
    validate_chrome_trace,
)
from repro.service import poisson_arrivals
from repro.sim.results import scheduling_fingerprint
from repro.sim.setup import make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.storage.schema import ColumnSpec, DataType, TableSchema
from repro.workload.queries import QueryFamily, QueryTemplate

SHARDS = 4
NUM_CHUNKS = 64
NUM_QUERIES = 40
MPL_PER_SHARD = 3
ARRIVAL_SEED = 7
RATE_QPS = 1.2
#: Traced wall-clock must stay within this multiple of untraced: the
#: lowest 0.05 step that 10 consecutive runs (1.18-1.24x) clear by 0.1.
OVERHEAD_BUDGET = 1.35
#: Interleaved untraced/traced pairs.  On a shared 2-vCPU host the
#: best-of-5 ratio it replaced spread 1.1-1.74x and failed about one trial
#: in twenty whatever the pair count (it divides two extremes), while the
#: median pair ratio of 15 pairs spread 1.29-1.40x at a 1.3x overhead.
SAMPLES = 15


def _config() -> SystemConfig:
    return SystemConfig(
        disk=DiskConfig(bandwidth_bytes_per_s=100 * MB, avg_seek_s=0.002,
                        sequential_seek_s=0.0005),
        cpu=CpuConfig(cores=4),
        buffer=BufferConfig(chunk_bytes=1 * MB, page_bytes=64 * KB,
                            capacity_chunks=8),
    )


def _workload(config: SystemConfig):
    schema = TableSchema.build(
        "obs_nsm", [ColumnSpec(name, DataType.INT64) for name in "abcd"]
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
        QueryTemplate(fast, 50),
        QueryTemplate(slow, 100),
    )
    arrivals = poisson_arrivals(
        templates, layout, RATE_QPS, NUM_QUERIES, seed=ARRIVAL_SEED
    )
    cluster = ClusterConfig(
        shards=SHARDS, placement="range", mpl_per_shard=MPL_PER_SHARD
    )
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
                capacity_chunks=8,
            )
            for shard in range(SHARDS)
        ]

    return arrivals, cluster, shard_abms


def _one_run(config, arrivals, cluster, shard_abms, obs):
    # Start every sample with no collectable garbage left by the previous
    # one (a traced run leaves far more than an untraced one).
    gc.collect()
    started = time.perf_counter()
    outcome = run_cluster_service(
        arrivals, config, shard_abms(), cluster, obs=obs
    )
    return time.perf_counter() - started, outcome


def _timed_pair(config, arrivals, cluster, shard_abms):
    """``SAMPLES`` wall-clock samples of the untraced and traced runs.

    The two variants are *interleaved* in pairs, alternating which side
    runs first, so a slow patch on the host machine — frequency scaling, a
    background task — degrades both sides rather than skewing the ratio,
    and neither side always inherits the other's leftover state.  Every
    sample is deterministic, so returning the last result of each is fine.
    """
    untraced_times, traced_times = [], []
    untraced = traced = None
    for index in range(SAMPLES):
        order = (False, True) if index % 2 == 0 else (True, False)
        for tracing in order:
            if tracing:
                elapsed, traced = _one_run(
                    config, arrivals, cluster, shard_abms,
                    obs=ObservabilityConfig(),
                )
                traced_times.append(elapsed)
            else:
                elapsed, untraced = _one_run(
                    config, arrivals, cluster, shard_abms, obs=None
                )
                untraced_times.append(elapsed)
    return untraced_times, untraced, traced_times, traced


def _experiment():
    config = _config()
    arrivals, cluster, shard_abms = _workload(config)
    untraced_times, untraced, traced_times, traced = _timed_pair(
        config, arrivals, cluster, shard_abms
    )
    ratios = [traced / untraced for untraced, traced in zip(untraced_times, traced_times)]

    for plain, observed in zip(untraced.shard_runs, traced.shard_runs):
        assert scheduling_fingerprint(plain) == scheduling_fingerprint(
            observed
        ), "tracing changed a scheduling decision"
    assert untraced.slo.as_dict() == traced.slo.as_dict(), (
        "tracing changed the SLO report"
    )

    ratio = statistics.median(ratios)
    assert ratio <= OVERHEAD_BUDGET, (
        f"traced run took {ratio:.2f}x the untraced wall-clock, median over "
        f"{SAMPLES} pairs (budget {OVERHEAD_BUDGET}x); pair ratios {spread(ratios)}"
    )

    # ``traced.obs.events`` builds a fresh TraceEvent list on every read:
    # read it once and export that list.
    events = traced.obs.events
    payload = chrome_trace(events, traced.obs.metrics)
    jsonl = to_jsonl(events)
    num_records = validate_chrome_trace(payload)
    assert read_jsonl(jsonl) == events, "JSONL export did not round-trip"
    row = {
        "samples": SAMPLES,
        "untraced_s": spread(untraced_times),
        "traced_s": spread(traced_times),
        "pair_ratios": spread(ratios),
        "overhead_ratio": round(ratio, 4),
        "budget": OVERHEAD_BUDGET,
        "trace_events": len(events),
        "chrome_records": num_records,
        "metric_series": len(traced.obs.metrics.names()),
    }
    return row, payload, jsonl


def _report(row) -> None:
    print_banner(
        f"Observability overhead: {SHARDS}-shard traced cluster "
        f"(budget {OVERHEAD_BUDGET}x untraced)"
    )
    print(
        f"median of {SAMPLES} pairs: untraced {row['untraced_s']['median']:.4f}s, "
        f"traced {row['traced_s']['median']:.4f}s, "
        f"pair ratio {row['overhead_ratio']:.2f}x (budget {row['budget']}x)"
    )
    print(
        f"{row['trace_events']} trace events, "
        f"{row['chrome_records']} Chrome records, "
        f"{row['metric_series']} metric series"
    )


def section():
    """Run, report and gate the experiment; returns its ``BENCH_core`` section
    and both trace exports."""
    row, payload, jsonl = _experiment()
    _report(row)
    return {
        "workload": {
            "shards": SHARDS,
            "num_chunks": NUM_CHUNKS,
            "num_queries": NUM_QUERIES,
            "rate_qps": RATE_QPS,
        },
        "rows": [row],
        "files": {
            "obs_trace.json": json.dumps(payload),
            "obs_trace.jsonl": jsonl,
        },
    }


def bench_obs_overhead(benchmark):
    run_once(benchmark, section)
