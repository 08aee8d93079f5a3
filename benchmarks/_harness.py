"""Shared machinery for the benchmark suite.

Every benchmark regenerates one table or figure of the paper.  Two scales are
supported, selected with the ``REPRO_BENCH_SCALE`` environment variable:

* ``small`` (default) — reduced table sizes and stream counts so the whole
  suite finishes in a few minutes while preserving the buffered-fraction and
  CPU/disk balance of the paper's setup (the qualitative shape is identical);
* ``paper`` — the paper's settings (TPC-H SF-10 NSM, SF-40 DSM, 16 streams of
  4 queries, 1 GB / 1.5 GB buffers).

Any other value raises at import, so a misspelt scale cannot run (and
stamp itself on) the small one.

Each benchmark runs its experiment exactly once inside ``benchmark.pedantic``
(the experiment itself is the thing being timed) and prints the resulting
paper-style table to stdout, which pytest shows with ``-s`` and which the
EXPERIMENTS.md numbers were taken from.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence

from repro.common.config import PAPER_DSM_SYSTEM, PAPER_NSM_SYSTEM, SystemConfig
from repro.metrics import PolicyComparison, compare_runs
from repro.sim.setup import dsm_abm_factory, nsm_abm_factory
from repro.sim.sweeps import (
    compare_dsm_policies,
    compare_nsm_policies,
    standalone_times,
)
from repro.storage.dsm import DSMTableLayout
from repro.storage.nsm import NSMTableLayout
from repro.workload import (
    build_streams,
    dsm_query_families,
    lineitem_dsm_layout,
    lineitem_nsm_layout,
    nsm_query_families,
    standard_templates,
)

#: The scales ``REPRO_BENCH_SCALE`` accepts.
SCALES = ("small", "paper")

#: Scale selected through the environment.
SCALE = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
if SCALE not in SCALES:
    raise ValueError(
        f"REPRO_BENCH_SCALE={SCALE!r}: expected one of {', '.join(SCALES)}"
    )


@dataclass(frozen=True)
class NSMScale:
    """Parameters of the row-store experiments at one scale."""

    scale_factor: float
    num_streams: int
    queries_per_stream: int
    buffer_chunks: int


@dataclass(frozen=True)
class DSMScale:
    """Parameters of the column-store experiments at one scale."""

    scale_factor: float
    num_streams: int
    queries_per_stream: int
    buffer_fraction: float


_NSM_SCALES = {
    # ~130 chunks, 32-chunk buffer (same 25% buffered fraction as the paper).
    "small": NSMScale(scale_factor=5.0, num_streams=8, queries_per_stream=3,
                      buffer_chunks=32),
    # The paper's Table 2 setting: SF-10 (~265 chunks), 64-chunk (1 GB) buffer,
    # 16 streams of 4 queries.
    "paper": NSMScale(scale_factor=10.0, num_streams=16, queries_per_stream=4,
                      buffer_chunks=64),
}

_DSM_SCALES = {
    "small": DSMScale(scale_factor=10.0, num_streams=8, queries_per_stream=3,
                      buffer_fraction=0.30),
    # The paper's Table 3 setting: SF-40, 1.5 GB buffer, 16 streams of 4.
    "paper": DSMScale(scale_factor=40.0, num_streams=16, queries_per_stream=4,
                      buffer_fraction=0.30),
}


def nsm_scale() -> NSMScale:
    """The NSM experiment parameters for the selected scale."""
    return _NSM_SCALES[SCALE]


def dsm_scale() -> DSMScale:
    """The DSM experiment parameters for the selected scale."""
    return _DSM_SCALES[SCALE]


def nsm_setup(buffer_chunks: Optional[int] = None):
    """Build the (config, layout, fast, slow) tuple of the NSM experiments."""
    params = nsm_scale()
    config = PAPER_NSM_SYSTEM.with_buffer_chunks(buffer_chunks or params.buffer_chunks)
    layout = lineitem_nsm_layout(params.scale_factor, buffer=config.buffer)
    fast, slow = nsm_query_families(config)
    return config, layout, fast, slow


def dsm_setup():
    """Build the (config, layout, fast, slow, capacity_pages) of the DSM runs."""
    params = dsm_scale()
    config = PAPER_DSM_SYSTEM
    layout = lineitem_dsm_layout(params.scale_factor, buffer=config.buffer)
    capacity_pages = max(64, int(layout.table_pages() * params.buffer_fraction))
    fast, slow = dsm_query_families(layout, config)
    return config, layout, fast, slow, capacity_pages


def nsm_table2_workload(seed: int = 42):
    """The Table 2 workload: streams of random F/S x {1,10,50,100}% queries."""
    params = nsm_scale()
    config, layout, fast, slow = nsm_setup()
    templates = standard_templates(fast, slow)
    streams = build_streams(
        templates, layout, params.num_streams, params.queries_per_stream, seed=seed
    )
    return config, layout, streams


def run_nsm_comparison(
    streams,
    config: SystemConfig,
    layout: NSMTableLayout,
    policies: Sequence[str] = ("normal", "attach", "elevator", "relevance"),
    record_trace: bool = False,
) -> PolicyComparison:
    """Run all policies on an NSM workload and attach the standalone baseline."""
    runs = compare_nsm_policies(
        streams, config, layout, policies=policies, record_trace=record_trace
    )
    specs = [spec for stream in streams for spec in stream]
    baseline = standalone_times(
        specs, config, nsm_abm_factory(layout, config, "normal", prefetch=False)
    )
    return compare_runs(runs, baseline)


def run_dsm_comparison(
    streams,
    config: SystemConfig,
    layout: DSMTableLayout,
    capacity_pages: int,
    policies: Sequence[str] = ("normal", "attach", "elevator", "relevance"),
    record_trace: bool = False,
) -> PolicyComparison:
    """Run all policies on a DSM workload and attach the standalone baseline."""
    runs = compare_dsm_policies(
        streams, config, layout, policies=policies,
        capacity_pages=capacity_pages, record_trace=record_trace,
    )
    specs = [spec for stream in streams for spec in stream]
    baseline = standalone_times(
        specs, config,
        dsm_abm_factory(layout, config, "normal", capacity_pages=capacity_pages,
                        prefetch=False),
    )
    return compare_runs(runs, baseline)


def spread(values: Iterable[float]) -> Dict[str, float]:
    """The median, min and max of repeated wall-clock samples."""
    values = list(values)
    return {
        "median": round(statistics.median(values), 4),
        "min": round(min(values), 4),
        "max": round(max(values), 4),
    }


def run_once(benchmark, func: Callable):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


def print_banner(title: str) -> None:
    """Print a section banner around each benchmark's output."""
    print()
    print("=" * 78)
    print(f"{title}   [scale={SCALE}]")
    print("=" * 78)
