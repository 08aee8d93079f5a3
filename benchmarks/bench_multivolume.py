"""Multi-volume scaling: policy throughput as spindle count grows.

The paper's machine serves scans from a 4-way RAID; the multi-volume disk
subsystem models each volume as an independent head (one in-flight chunk
load per volume, striped chunk placement).  This benchmark sweeps the
volume count 1/2/4/8 under all four scheduling policies, for both NSM and
DSM storage, over a deterministic workload of staggered overlapping range
scans (no RNG: stream ``i`` scans a fixed window starting at chunk
``8 * i``).

Reported per (layout, volumes, policy): total running time, delivered
throughput (queries per second), aggregate disk utilisation and the
sequential fraction of disk requests (the seek-amortisation measure).  The
headline claims, asserted deterministically:

* **total throughput increases with the volume count for every policy** —
  cooperative or not, independent heads serve concurrent scan fronts in
  parallel; and
* **relevance stays at least as fast as no-sharing at every spindle
  count** — the paper's sharing advantage is not an artifact of a single
  serialised disk.

Run it through the benchmark driver (or under pytest-benchmark like the
other benchmarks)::

    PYTHONPATH=src python -m benchmarks.core multivolume
"""

from __future__ import annotations

import time

from benchmarks._harness import print_banner, run_once
from repro.common.config import BufferConfig, CpuConfig, DiskConfig, SystemConfig
from repro.common.units import KB, MB
from repro.core.cscan import ScanRequest
from repro.metrics.report import format_table
from repro.sim.runner import run_simulation
from repro.sim.setup import make_dsm_abm, make_nsm_abm
from repro.storage.compression import NONE, PDICT, PFOR, PFOR_DELTA
from repro.storage.dsm import DSMTableLayout
from repro.storage.nsm import NSMTableLayout
from repro.storage.schema import ColumnSpec, DataType, TableSchema

POLICIES = ("normal", "attach", "elevator", "relevance")
VOLUME_COUNTS = (1, 2, 4, 8)

#: Deterministic workload shape: NUM_STREAMS scans of SPAN chunks, stream i
#: starting at chunk STRIDE * i (staggered, overlapping fronts keep every
#: volume busy without an RNG; 16 fronts leave headroom at 8 volumes).
NUM_STREAMS = 16
STRIDE = 6
SPAN = 32
NUM_CHUNKS = 96


def _base_config(capacity_chunks: int) -> SystemConfig:
    """An I/O-bound machine: plenty of cores so the disks are the bottleneck."""
    return SystemConfig(
        disk=DiskConfig(bandwidth_bytes_per_s=100 * MB, avg_seek_s=0.002,
                        sequential_seek_s=0.0005),
        cpu=CpuConfig(cores=32),
        buffer=BufferConfig(chunk_bytes=1 * MB, page_bytes=64 * KB,
                            capacity_chunks=capacity_chunks),
        stream_start_delay_s=0.02,
    )


def _request(query_id: int, start: int, columns=()) -> ScanRequest:
    chunks = tuple(sorted((start + offset) % NUM_CHUNKS for offset in range(SPAN)))
    return ScanRequest(query_id=query_id, name=f"q{query_id}", chunks=chunks,
                       columns=tuple(columns), cpu_per_chunk=0.0005)


def _nsm_case():
    schema = TableSchema.build(
        "mv_nsm", [ColumnSpec(name, DataType.INT64) for name in "abcd"]
    )
    config = _base_config(capacity_chunks=32)
    tuples = NUM_CHUNKS * int(
        config.buffer.chunk_bytes // schema.tuple_logical_bytes
    )
    layout = NSMTableLayout.from_buffer_config(schema, tuples, config.buffer)
    streams = [[_request(i, STRIDE * i)] for i in range(NUM_STREAMS)]

    def run(policy: str, volumes: int):
        cfg = config.with_volumes(volumes)
        return run_simulation(streams, cfg, make_nsm_abm(layout, cfg, policy))

    return run


def _dsm_case():
    schema = TableSchema.build(
        "mv_dsm",
        [
            ColumnSpec("key", DataType.OID, PFOR_DELTA),
            ColumnSpec("ref", DataType.OID, PFOR),
            ColumnSpec("price", DataType.DECIMAL, NONE),
            ColumnSpec("flag", DataType.CHAR1, PDICT),
            ColumnSpec("date", DataType.DATE, PFOR, compressed_bits=12),
        ],
    )
    config = _base_config(capacity_chunks=8)
    layout = DSMTableLayout(schema=schema, num_tuples=NUM_CHUNKS * 25_000,
                            tuples_per_chunk=25_000,
                            page_bytes=config.buffer.page_bytes)
    capacity_pages = int(layout.table_pages() * 0.35)
    column_sets = (
        ("key", "price"), ("price", "flag"), ("key", "ref", "date"),
        ("price", "date"),
    )
    streams = [
        [_request(i, STRIDE * i, column_sets[i % len(column_sets)])]
        for i in range(NUM_STREAMS)
    ]

    def run(policy: str, volumes: int):
        cfg = config.with_volumes(volumes)
        return run_simulation(
            streams, cfg,
            make_dsm_abm(layout, cfg, policy, capacity_pages=capacity_pages),
        )

    return run


def _experiment():
    """Sweep volumes x policies for both layouts; returns nested stats and
    the wall-clock seconds of each (layout, volumes) point."""
    results = {}
    walls = {}
    for layout_name, runner in (("NSM", _nsm_case()), ("DSM", _dsm_case())):
        per_layout = {}
        for volumes in VOLUME_COUNTS:
            per_volumes = {}
            started = time.perf_counter()
            for policy in POLICIES:
                run = runner(policy, volumes)
                per_volumes[policy] = {
                    "total_time": run.total_time,
                    "throughput_qps": len(run.queries) / run.total_time,
                    "io_requests": run.io_requests,
                    "disk_utilisation": run.disk_utilisation,
                    "volume_utilisation": list(run.volume_utilisation),
                    "sequential_fraction": run.disk_sequential_fraction,
                }
            walls[layout_name, volumes] = time.perf_counter() - started
            per_layout[volumes] = per_volumes
        results[layout_name] = per_layout
    return results, walls


def _report(results):
    print_banner(
        f"Multi-volume scaling: {NUM_STREAMS} staggered scans, volumes "
        f"{'/'.join(str(v) for v in VOLUME_COUNTS)} (striped placement)"
    )
    for layout_name, per_layout in results.items():
        rows = []
        for volumes in VOLUME_COUNTS:
            stats = per_layout[volumes]
            rows.append(
                [volumes]
                + [round(stats[policy]["total_time"], 3) for policy in POLICIES]
                + [round(stats["relevance"]["throughput_qps"], 2),
                   round(100 * stats["relevance"]["disk_utilisation"], 1),
                   round(stats["relevance"]["sequential_fraction"], 2)]
            )
        print(
            format_table(
                ["volumes"] + [f"{policy} s" for policy in POLICIES]
                + ["rel. q/s", "rel. disk%", "rel. seq"],
                rows,
                title=f"{layout_name}: total time (s) vs volume count",
            )
        )
        print()

    for layout_name, per_layout in results.items():
        for policy in POLICIES:
            previous = None
            for volumes in VOLUME_COUNTS:
                throughput = per_layout[volumes][policy]["throughput_qps"]
                # The headline scaling claim: every added spindle pair buys
                # real throughput, for cooperative and classic policies alike.
                if previous is not None:
                    assert throughput > previous, (
                        f"{layout_name}/{policy}: throughput fell from "
                        f"{previous:.3f} to {throughput:.3f} q/s going to "
                        f"{volumes} volumes"
                    )
                previous = throughput
        for volumes in VOLUME_COUNTS:
            stats = per_layout[volumes]
            # And sharing keeps paying at every spindle count.
            assert (
                stats["relevance"]["total_time"]
                <= stats["normal"]["total_time"] * 1.001
            ), (
                f"{layout_name}: relevance slower than normal at "
                f"{volumes} volumes"
            )
        best = per_layout[VOLUME_COUNTS[-1]]
        speedup = (
            per_layout[VOLUME_COUNTS[0]]["relevance"]["total_time"]
            / best["relevance"]["total_time"]
        )
        print(
            f"{layout_name}: relevance speeds up {speedup:.1f}x from "
            f"{VOLUME_COUNTS[0]} to {VOLUME_COUNTS[-1]} volumes "
            f"(seq fraction {best['relevance']['sequential_fraction']:.2f})"
        )


def section():
    """Run, report and gate the experiment; returns its ``BENCH_core`` section."""
    results, walls = _experiment()
    _report(results)
    return {
        "workload": {
            "num_streams": NUM_STREAMS, "stride": STRIDE, "span": SPAN,
            "num_chunks": NUM_CHUNKS, "policies": list(POLICIES),
        },
        "rows": [
            {
                "layout": layout_name,
                "volumes": volumes,
                "queries": NUM_STREAMS,
                "chunks": NUM_CHUNKS,
                "wall_clock_s": round(walls[layout_name, volumes], 4),
                **{
                    f"{policy}_qps": round(stats[policy]["throughput_qps"], 4)
                    for policy in POLICIES
                },
            }
            for layout_name, per_layout in results.items()
            for volumes, stats in per_layout.items()
        ],
    }


def bench_multivolume(benchmark):
    run_once(benchmark, section)
