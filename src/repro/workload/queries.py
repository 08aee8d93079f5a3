"""Query families and templates (the paper's F-xx / S-xx notation).

A :class:`QueryFamily` captures *how expensive* a query's per-chunk
processing is (FAST vs SLOW) and, for DSM, which columns it touches.
A :class:`QueryTemplate` combines a family with a range size (percentage of
the table); ``make_scan_request`` instantiates a template into a concrete
:class:`repro.core.ScanRequest` by picking a random contiguous range of
chunks, exactly like the paper's "reading X % of the full relation from a
random location".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.config import DEFAULT_QUERY_CLASS, SystemConfig
from repro.common.errors import ConfigurationError
from repro.core.cscan import ScanRequest
from repro.storage.dsm import DSMTableLayout
from repro.storage.nsm import NSMTableLayout

AnyLayout = Union[NSMTableLayout, DSMTableLayout]

#: Columns read by the FAST query (TPC-H Q6-style aggregation).
Q6_COLUMNS: Tuple[str, ...] = (
    "l_shipdate",
    "l_discount",
    "l_quantity",
    "l_extendedprice",
)

#: Columns read by the SLOW query (TPC-H Q1-style aggregation with extra math).
Q1_COLUMNS: Tuple[str, ...] = (
    "l_returnflag",
    "l_linestatus",
    "l_quantity",
    "l_extendedprice",
    "l_discount",
    "l_tax",
    "l_shipdate",
)


@dataclass(frozen=True)
class QueryFamily:
    """A class of queries with a common per-chunk processing cost.

    ``query_class`` tags every query instantiated from the family with a
    workload class (e.g. ``"interactive"`` / ``"batch"``) for the service
    front door's per-class admission; the default keeps all queries in the
    single catch-all class.
    """

    name: str
    cpu_per_chunk: float
    columns: Tuple[str, ...] = ()
    query_class: str = DEFAULT_QUERY_CLASS

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("query family needs a name")
        if self.cpu_per_chunk < 0:
            raise ConfigurationError("cpu_per_chunk must be non-negative")
        if not self.query_class:
            raise ConfigurationError("query family needs a non-empty query class")

    def with_query_class(self, query_class: str) -> "QueryFamily":
        """Return a copy of this family tagged with a workload class."""
        return replace(self, query_class=query_class)


@dataclass(frozen=True)
class QueryTemplate:
    """A query family combined with a scanned-range size."""

    family: QueryFamily
    percent: float

    def __post_init__(self) -> None:
        if not 0 < self.percent <= 100:
            raise ConfigurationError(
                f"scan percentage must be in (0, 100], got {self.percent}"
            )

    @property
    def label(self) -> str:
        """The paper's QUERY-PERCENTAGE notation, e.g. ``"F-10"``."""
        percent = int(round(self.percent))
        return f"{self.family.name}-{percent:02d}"


def nsm_query_families(
    config: SystemConfig,
    fast_cpu_fraction: float = 0.4,
    slow_cpu_fraction: float = 1.1,
) -> Tuple[QueryFamily, QueryFamily]:
    """The FAST and SLOW families for row storage.

    Costs are calibrated relative to the time it takes to load one chunk from
    disk: FAST is I/O-bound (CPU below one chunk-load), SLOW is CPU-bound.
    With the paper's 16 MB chunks on a 200 MB/s array this gives standalone
    full-scan times close to the paper's 20 s (F-100) and 35 s (S-100).
    """
    io_per_chunk = config.chunk_load_time()
    fast = QueryFamily("F", cpu_per_chunk=fast_cpu_fraction * io_per_chunk)
    slow = QueryFamily("S", cpu_per_chunk=slow_cpu_fraction * io_per_chunk)
    return fast, slow


def dsm_query_families(
    layout: DSMTableLayout,
    config: SystemConfig,
    fast_cpu_fraction: float = 0.35,
    slow_cpu_fraction: float = 1.0,
) -> Tuple[QueryFamily, QueryFamily]:
    """The FAST and SLOW families for column storage.

    DSM reads far fewer bytes per chunk, so per-chunk CPU costs are calibrated
    against the I/O time of each query's *own column set* — reproducing the
    paper's use of a "faster slow query" in the DSM experiment (Section 6.3).
    """
    page_time = config.buffer.page_bytes / config.disk.bandwidth_bytes_per_s

    def column_io(columns: Tuple[str, ...]) -> float:
        pages = sum(layout.average_pages_per_chunk(column) for column in columns)
        return pages * page_time + config.disk.avg_seek_s * len(columns)

    fast = QueryFamily(
        "F", cpu_per_chunk=fast_cpu_fraction * column_io(Q6_COLUMNS), columns=Q6_COLUMNS
    )
    slow = QueryFamily(
        "S", cpu_per_chunk=slow_cpu_fraction * column_io(Q1_COLUMNS), columns=Q1_COLUMNS
    )
    return fast, slow


def standard_templates(
    fast: QueryFamily,
    slow: QueryFamily,
    percentages: Sequence[float] = (1, 10, 50, 100),
) -> Tuple[QueryTemplate, ...]:
    """The 8 query templates of Tables 2 and 3: {F, S} x {1, 10, 50, 100} %."""
    templates = []
    for family in (fast, slow):
        for percent in percentages:
            templates.append(QueryTemplate(family=family, percent=percent))
    return tuple(templates)


def classed_templates(
    templates: Sequence[QueryTemplate], query_class: str
) -> Tuple[QueryTemplate, ...]:
    """Tag every template with a workload class (``interactive``/``batch``).

    Convenience for building class-separated open-system workloads: the
    returned templates instantiate into scan requests carrying
    ``query_class``, which the service front door routes into that class's
    admission queue.
    """
    return tuple(
        replace(template, family=template.family.with_query_class(query_class))
        for template in templates
    )


def make_scan_request(
    template: QueryTemplate,
    query_id: int,
    layout: AnyLayout,
    rng: np.random.Generator,
    columns: Optional[Sequence[str]] = None,
) -> ScanRequest:
    """Instantiate a template into a concrete scan over a random range.

    The scanned range covers ``percent`` of the table's chunks, starting at a
    random chunk (clamped so the range stays inside the table, as in the
    paper's range queries).
    """
    num_chunks = layout.num_chunks
    span = max(1, int(round(template.percent / 100.0 * num_chunks)))
    span = min(span, num_chunks)
    if span == num_chunks:
        start = 0
    else:
        start = int(rng.integers(0, num_chunks - span + 1))
    chunk_ids = tuple(range(start, start + span))
    effective_columns = tuple(columns) if columns is not None else template.family.columns
    return ScanRequest(
        query_id=query_id,
        name=template.label,
        chunks=chunk_ids,
        columns=effective_columns,
        cpu_per_chunk=template.family.cpu_per_chunk,
        query_class=template.family.query_class,
    )
