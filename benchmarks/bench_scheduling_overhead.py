"""Scheduling overhead: incremental vs naive relevance bookkeeping.

The paper's Figure 8 argues that relevance scheduling is viable because its
cost stays negligible compared to I/O.  The reference oracle in
``tests/naive_relevance.py`` recomputes every relevance aggregate from
scratch, making one ``choose_load`` walk all registered queries for every
candidate chunk — O(queries x chunks) per decision.  The incremental
interest trackers (:mod:`repro.core.interest`) that every ABM runs maintain
the same aggregates as O(1)-updated counters.

This benchmark sweeps (streams x chunks) for the NSM relevance policy plus
one DSM point, runs every scenario once with the oracle swapped in
(``use_naive_bookkeeping``) and with the ABM's own trackers, and asserts:

* **bit-for-bit identical scheduling decisions** in every scenario (same
  query finish times, same delivery orders, same I/O trace);
* **incremental strictly faster** (real seconds inside the scheduler) at
  the largest (queries x chunks) point of each layout;
* **per-decision cost grows sublinearly in the query count** in
  incremental mode: multiplying the streams by k must multiply the mean
  per-decision time by strictly less than k (the naive mode's per-decision
  cost is what grows with Q).

Run it under pytest-benchmark like the other benchmarks, or standalone
(which also writes ``benchmarks/out/scheduling_overhead_results.json`` for
the CI artifact).  Either way, run it from the repository root: the naive
side is imported from ``tests.naive_relevance``::

    PYTHONPATH=src python -m benchmarks.bench_scheduling_overhead
"""

from __future__ import annotations

import json
import os
import time

from benchmarks._harness import SCALE, print_banner, run_once, update_bench_core
from repro.common.config import PAPER_DSM_SYSTEM, PAPER_NSM_SYSTEM
from repro.common.units import GB
from repro.metrics.report import format_table
from repro.sim.results import scheduling_fingerprint
from repro.sim.runner import run_simulation
from repro.sim.setup import make_dsm_abm, make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.workload.queries import QueryFamily, QueryTemplate
from repro.workload.streams import build_streams
from repro.workload.tpch import lineitem_dsm_layout, lineitem_nsm_schema
from tests.naive_relevance import use_naive_bookkeeping

TABLE_BYTES = 2 * GB
QUERIES_PER_STREAM = 3

#: (streams, chunks) grid; the last entry is the largest point where the
#: strictly-faster assertion is made.  The stream counts at the largest
#: chunk count drive the sublinearity check.
if SCALE == "paper":
    STREAM_COUNTS = (8, 16, 32)
    CHUNK_COUNTS = (256, 512)
else:
    STREAM_COUNTS = (4, 8, 16)
    CHUNK_COUNTS = (128, 256)

#: Where the standalone run writes its machine-readable results.
JSON_PATH = os.environ.get(
    "REPRO_SCHED_OVERHEAD_JSON",
    os.path.join("benchmarks", "out", "scheduling_overhead_results.json"),
)




def _nsm_case(num_streams: int, num_chunks: int):
    config = PAPER_NSM_SYSTEM
    schema = lineitem_nsm_schema()
    chunk_bytes = TABLE_BYTES // num_chunks
    layout = NSMTableLayout(
        schema=schema,
        num_tuples=int(TABLE_BYTES / schema.tuple_logical_bytes),
        chunk_bytes=chunk_bytes,
        page_bytes=min(config.buffer.page_bytes, chunk_bytes),
    )
    # I/O-bound queries over 1/10/100% ranges, like the Figure 8 setup.
    fast = QueryFamily("F", cpu_per_chunk=0.1 * config.chunk_load_time(chunk_bytes))
    templates = [QueryTemplate(fast, percent) for percent in (1, 10, 100)]
    buffer_chunks = max(4, num_chunks // 4)

    def run(naive: bool):
        streams = build_streams(
            templates, layout, num_streams, QUERIES_PER_STREAM, seed=num_chunks
        )
        abm = make_nsm_abm(
            layout, config, "relevance", capacity_chunks=buffer_chunks
        )
        if naive:
            use_naive_bookkeeping(abm)
        return run_simulation(streams, config, abm, record_trace=True)

    return run


def _dsm_case(num_streams: int):
    config = PAPER_DSM_SYSTEM
    layout = lineitem_dsm_layout(5.0, buffer=config.buffer)
    narrow = QueryFamily("F", cpu_per_chunk=0.001, columns=("l_shipdate", "l_extendedprice"))
    wide = QueryFamily(
        "S",
        cpu_per_chunk=0.004,
        columns=("l_shipdate", "l_extendedprice", "l_discount", "l_quantity"),
    )
    templates = [QueryTemplate(narrow, 10), QueryTemplate(wide, 100)]
    capacity_pages = max(64, int(layout.table_pages() * 0.3))

    def run(naive: bool):
        streams = build_streams(
            templates, layout, num_streams, QUERIES_PER_STREAM, seed=99
        )
        abm = make_dsm_abm(
            layout, config, "relevance", capacity_pages=capacity_pages
        )
        if naive:
            use_naive_bookkeeping(abm)
        return run_simulation(streams, config, abm, record_trace=True)

    return run, layout.num_chunks


def _measure(run) -> dict:
    """Run one scenario in both modes; assert identical decisions.

    The timed comparisons gate CI, so the incremental mode (the side a
    scheduler hiccup could push the wrong way) is run twice and the faster
    sample kept; both samples must still make identical decisions.
    """
    naive = run(naive=True)
    started = time.perf_counter()
    incremental = run(naive=False)
    wall_clock = time.perf_counter() - started
    repeat = run(naive=False)
    for candidate in (incremental, repeat):
        assert scheduling_fingerprint(naive) == scheduling_fingerprint(candidate), (
            "incremental bookkeeping changed a scheduling decision"
        )
    incremental_seconds = min(
        incremental.scheduling_seconds, repeat.scheduling_seconds
    )
    calls = incremental.scheduling_calls
    return {
        "naive_seconds": naive.scheduling_seconds,
        "incremental_seconds": incremental_seconds,
        "scheduling_calls": calls,
        "naive_per_decision_us": naive.per_decision_seconds * 1e6,
        "incremental_per_decision_us": (
            incremental_seconds / calls * 1e6 if calls else 0.0
        ),
        "speedup": (
            naive.scheduling_seconds / incremental_seconds
            if incremental_seconds > 0
            else float("inf")
        ),
        "total_time": incremental.total_time,
        "wall_clock_s": wall_clock,
    }


def _experiment():
    results = {"nsm": {}, "dsm": {}}
    for num_chunks in CHUNK_COUNTS:
        for num_streams in STREAM_COUNTS:
            key = f"{num_streams}x{num_chunks}"
            results["nsm"][key] = {
                "streams": num_streams,
                "chunks": num_chunks,
                "queries": num_streams * QUERIES_PER_STREAM,
                **_measure(_nsm_case(num_streams, num_chunks)),
            }
    dsm_streams = STREAM_COUNTS[-1]
    dsm_run, dsm_chunks = _dsm_case(dsm_streams)
    results["dsm"][f"{dsm_streams}x{dsm_chunks}"] = {
        "streams": dsm_streams,
        "chunks": dsm_chunks,
        "queries": dsm_streams * QUERIES_PER_STREAM,
        **_measure(dsm_run),
    }
    _assert_claims(results)
    return results


def _assert_claims(results) -> None:
    largest_chunks = CHUNK_COUNTS[-1]
    # Strictly faster at the largest (queries x chunks) point, per layout.
    for layout_name, per_layout in results.items():
        largest = max(
            per_layout.values(), key=lambda stats: stats["queries"] * stats["chunks"]
        )
        assert largest["incremental_seconds"] < largest["naive_seconds"], (
            f"{layout_name}: incremental scheduling not faster at the largest "
            f"point ({largest['incremental_seconds']:.4f}s vs "
            f"{largest['naive_seconds']:.4f}s)"
        )
    # Per-decision cost grows sublinearly in the query count (fixed chunks).
    low = results["nsm"][f"{STREAM_COUNTS[0]}x{largest_chunks}"]
    high = results["nsm"][f"{STREAM_COUNTS[-1]}x{largest_chunks}"]
    query_ratio = high["queries"] / low["queries"]
    cost_ratio = (
        high["incremental_per_decision_us"]
        / max(1e-9, low["incremental_per_decision_us"])
    )
    assert cost_ratio < query_ratio, (
        f"per-decision cost grew {cost_ratio:.2f}x for a {query_ratio:.0f}x "
        "query increase — not sublinear"
    )


def _report(results) -> None:
    print_banner(
        "Scheduling overhead: incremental vs naive relevance bookkeeping"
    )
    for layout_name, per_layout in results.items():
        rows = []
        for stats in sorted(
            per_layout.values(), key=lambda s: (s["chunks"], s["queries"])
        ):
            rows.append(
                [
                    stats["queries"],
                    stats["chunks"],
                    round(stats["naive_seconds"], 4),
                    round(stats["incremental_seconds"], 4),
                    round(stats["naive_per_decision_us"], 1),
                    round(stats["incremental_per_decision_us"], 1),
                    f"{stats['speedup']:.1f}x",
                ]
            )
        print(
            format_table(
                [
                    "queries",
                    "#chunks",
                    "naive (s)",
                    "incr (s)",
                    "naive us/dec",
                    "incr us/dec",
                    "speedup",
                ],
                rows,
                title=f"{layout_name.upper()}: real scheduler seconds per run",
            )
        )
        print()


def _write_json(results) -> None:
    payload = {
        "workload": {
            "stream_counts": list(STREAM_COUNTS),
            "chunk_counts": list(CHUNK_COUNTS),
            "queries_per_stream": QUERIES_PER_STREAM,
            "scale": SCALE,
        },
        "results": results,
    }
    directory = os.path.dirname(JSON_PATH)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"\nwrote {JSON_PATH}")


def _core_rows(results) -> list:
    """The ``BENCH_core.json`` rows: one per (layout, queries x chunks)."""
    rows = []
    for layout_name, per_layout in results.items():
        for stats in sorted(
            per_layout.values(), key=lambda s: (s["chunks"], s["queries"])
        ):
            rows.append(
                {
                    "layout": layout_name,
                    "queries": stats["queries"],
                    "chunks": stats["chunks"],
                    "shards": 1,
                    "wall_clock_s": round(stats["wall_clock_s"], 4),
                    "per_decision_us": round(
                        stats["incremental_per_decision_us"], 3
                    ),
                }
            )
    return rows


def _write_bench_core(results) -> None:
    path = update_bench_core(
        "scheduling_overhead",
        _core_rows(results),
        workload={
            "stream_counts": list(STREAM_COUNTS),
            "chunk_counts": list(CHUNK_COUNTS),
            "queries_per_stream": QUERIES_PER_STREAM,
        },
    )
    print(f"merged core rows into {path}")


def bench_scheduling_overhead(benchmark):
    results = run_once(benchmark, _experiment)
    _report(results)
    _write_bench_core(results)


if __name__ == "__main__":
    results = _experiment()
    _report(results)
    _write_json(results)
    _write_bench_core(results)
