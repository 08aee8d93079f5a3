"""Interest trackers: wall-clock trajectory of the vector tracker.

The same closed-stream NSM relevance workload runs with the ABM pinned to
the dict-counter :class:`~repro.core.interest.InterestTracker` and to the
numpy-counter :class:`~repro.core.interest.VectorInterestTracker`, across a
growing (queries x chunks) grid that straddles the chunk-count crossover
behind ``repro.core.abm.VECTOR_TRACKER_MIN_CHUNKS``.  Every pair of runs
must produce identical scheduling fingerprints before any number is
reported; at the largest point the vector tracker must be at least **3x**
faster end to end (median against median).  The win is algorithmic, not
numeric: the relevance policy's argmin/argmax over candidate chunks becomes
a masked C-side reduction over the tracker's dense counters, so the gap
widens with buffer capacity and concurrent-query count.

Each point runs ``SAMPLES`` interleaved scalar/vector pairs; each row is
queries x chunks -> median, min and max seconds per tracker, plus the
tracker the ABM picks by itself.

Run it through the benchmark driver (or under pytest-benchmark like the
other benchmarks), from the repository root: both trackers are pinned
through the helpers in ``tests.naive_relevance``::

    PYTHONPATH=src python -m benchmarks.core vector_core
"""

from __future__ import annotations

import time

from benchmarks._harness import SCALE, print_banner, run_once, spread
from repro.common.config import (
    BufferConfig,
    CpuConfig,
    DiskConfig,
    SystemConfig,
)
from repro.common.units import KB, MB
from repro.core.interest import VectorInterestTracker
from repro.sim.results import scheduling_fingerprint
from repro.sim.runner import run_simulation
from repro.sim.setup import make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.storage.schema import ColumnSpec, DataType, TableSchema
from repro.workload.queries import QueryFamily, QueryTemplate
from repro.workload.streams import build_streams
from tests.naive_relevance import use_scalar_tracker, use_vector_tracker

#: (streams, buffer_chunks, table_chunks, cores) of the tracker sweep.  The
#: first two points sit below and at the 256-chunk crossover; the last
#: entry is the largest point carrying the >= 3x assertion.
if SCALE == "paper":
    GRID = (
        (16, 32, 128, 8),
        (16, 64, 256, 8),
        (32, 128, 400, 16),
        (64, 256, 600, 32),
        (128, 512, 1000, 64),
        (192, 768, 1500, 64),
    )
else:
    GRID = (
        (16, 32, 128, 8),
        (16, 64, 256, 8),
        (32, 128, 400, 16),
        (64, 256, 600, 32),
        (128, 512, 1000, 64),
    )

QUERIES_PER_STREAM = 2

#: Interleaved scalar/vector pairs per grid point.
SAMPLES = 3

VECTOR_SPEEDUP_FLOOR = 3.0

TRACKERS = {"scalar": use_scalar_tracker, "vector": use_vector_tracker}


def _system(cores: int, capacity_chunks: int) -> SystemConfig:
    return SystemConfig(
        disk=DiskConfig(
            bandwidth_bytes_per_s=500 * MB,
            avg_seek_s=0.002,
            sequential_seek_s=0.0005,
        ),
        cpu=CpuConfig(cores=cores),
        buffer=BufferConfig(
            chunk_bytes=1 * MB,
            page_bytes=64 * KB,
            capacity_chunks=capacity_chunks,
        ),
        stream_start_delay_s=0.05,
    )


def _layout(config: SystemConfig, chunks: int) -> NSMTableLayout:
    schema = TableSchema.build(
        "t", [ColumnSpec("a", DataType.INT64), ColumnSpec("b", DataType.INT64)]
    )
    tuples = chunks * int(config.buffer.chunk_bytes // schema.tuple_logical_bytes)
    return NSMTableLayout.from_buffer_config(schema, tuples, config.buffer)


def _tracker_case(streams_n: int, capacity: int, chunks: int, cores: int):
    """One single-node scenario, runnable with either tracker pinned."""
    config = _system(cores, capacity)
    layout = _layout(config, chunks)
    fam = QueryFamily("F", cpu_per_chunk=0.004)
    templates = [QueryTemplate(fam, 50), QueryTemplate(fam, 100)]

    def abm():
        return make_nsm_abm(layout, config, "relevance", capacity_chunks=capacity)

    def run(tracker: str):
        streams = build_streams(
            templates, layout, streams_n, QUERIES_PER_STREAM, seed=7
        )
        pinned = TRACKERS[tracker](abm())
        started = time.perf_counter()
        result = run_simulation(streams, config, pinned)
        return result, time.perf_counter() - started

    default = "vector" if isinstance(abm().tracker, VectorInterestTracker) else "scalar"
    return run, default


def _measure_trackers() -> list:
    rows = []
    for streams_n, capacity, chunks, cores in GRID:
        run, default = _tracker_case(streams_n, capacity, chunks, cores)
        walls = {"scalar": [], "vector": []}
        reference = None
        for _ in range(SAMPLES):
            for tracker in ("scalar", "vector"):
                result, wall = run(tracker)
                walls[tracker].append(wall)
                fingerprint = scheduling_fingerprint(result)
                if reference is None:
                    reference = fingerprint
                assert fingerprint == reference, (
                    f"{tracker} tracker changed a scheduling decision"
                )
        scalar, vector = spread(walls["scalar"]), spread(walls["vector"])
        rows.append(
            {
                "queries": streams_n * QUERIES_PER_STREAM,
                "chunks": chunks,
                "shards": 1,
                "buffer_chunks": capacity,
                "samples": SAMPLES,
                "default_tracker": default,
                "scalar_s": scalar,
                "vector_s": vector,
                "speedup": round(scalar["median"] / vector["median"], 2),
            }
        )
    return rows


def _assert_claims(rows) -> None:
    largest = rows[-1]
    assert largest["speedup"] >= VECTOR_SPEEDUP_FLOOR, (
        f"vector tracker only {largest['speedup']}x faster at the largest "
        f"single-node point ({largest['queries']} queries x "
        f"{largest['chunks']} chunks); need >= {VECTOR_SPEEDUP_FLOOR}x"
    )


def _report(rows) -> None:
    print_banner("Interest trackers: scalar vs vector (NSM relevance)")
    print(f"median [min-max] of {SAMPLES} interleaved runs per tracker:")
    for row in rows:
        scalar, vector = row["scalar_s"], row["vector_s"]
        print(
            f"  {row['queries']:4d} queries x {row['chunks']:5d} chunks "
            f"({row['buffer_chunks']:3d} slots, ABM picks {row['default_tracker']}): "
            f"scalar {scalar['median']:7.2f}s [{scalar['min']:.2f}-{scalar['max']:.2f}]  "
            f"vector {vector['median']:6.2f}s [{vector['min']:.2f}-{vector['max']:.2f}]  "
            f"({row['speedup']:.2f}x)"
        )


def section():
    """Run, report and gate the experiment; returns its ``BENCH_core`` section."""
    rows = _measure_trackers()
    _report(rows)
    _assert_claims(rows)
    return {
        "workload": {
            "grid": [list(point) for point in GRID],
            "queries_per_stream": QUERIES_PER_STREAM,
            "samples": SAMPLES,
            "vector_speedup_floor": VECTOR_SPEEDUP_FLOOR,
        },
        "rows": rows,
    }


def bench_vector_core(benchmark):
    run_once(benchmark, section)
