"""The synthetic 10-column table and column-overlap workloads of Table 4.

Section 6.3.1: "we run various queries against a 200M-tuple relation,
consisting of 10 attributes (called A to J), each 8 bytes wide. ... We use 16
streams of 4 queries that scan 3 adjacent columns from the table.  In
different runs, corresponding queries read the same 40 % subset of the
relation, but may use different columns."  The query *sets* compared are

* non-overlapping: ``ABC`` alone, then ``ABC`` + ``DEF``;
* partially overlapping: ``ABC``, ``ABC,BCD``, ``ABC,BCD,CDE`` and
  ``ABC,BCD,CDE,DEF``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.core.cscan import ScanRequest
from repro.storage.compression import NONE
from repro.storage.dsm import DSMTableLayout
from repro.storage.schema import ColumnSpec, DataType, TableSchema

#: Column names of the synthetic relation.
SYNTHETIC_COLUMNS: Tuple[str, ...] = tuple("ABCDEFGHIJ")


def ten_column_schema() -> TableSchema:
    """The 10-attribute, 8-bytes-per-attribute synthetic schema of Table 4."""
    columns = tuple(
        ColumnSpec(name, DataType.INT64, NONE) for name in SYNTHETIC_COLUMNS
    )
    return TableSchema(name="synthetic10", columns=columns)


def ten_column_layout(
    num_tuples: int,
    tuples_per_chunk: int,
    page_bytes: int,
) -> DSMTableLayout:
    """DSM layout of the synthetic relation."""
    return DSMTableLayout(
        schema=ten_column_schema(),
        num_tuples=num_tuples,
        tuples_per_chunk=tuples_per_chunk,
        page_bytes=page_bytes,
    )


def overlap_query_sets() -> Dict[str, List[Tuple[str, ...]]]:
    """The column sets of Table 4, keyed by the paper's row labels."""
    return {
        "ABC": [("A", "B", "C")],
        "ABC,DEF": [("A", "B", "C"), ("D", "E", "F")],
        "ABC,BCD": [("A", "B", "C"), ("B", "C", "D")],
        "ABC,BCD,CDE": [("A", "B", "C"), ("B", "C", "D"), ("C", "D", "E")],
        "ABC,BCD,CDE,DEF": [
            ("A", "B", "C"),
            ("B", "C", "D"),
            ("C", "D", "E"),
            ("D", "E", "F"),
        ],
    }


def overlap_streams(
    column_sets: Sequence[Tuple[str, ...]],
    layout: DSMTableLayout,
    num_streams: int,
    queries_per_stream: int,
    scan_fraction: float = 0.4,
    cpu_per_chunk: float = 0.0,
    seed: int = 0,
) -> List[List[ScanRequest]]:
    """Build the Table 4 workload: every query scans ``scan_fraction`` of the
    table (random location) over 3 adjacent columns drawn from ``column_sets``
    in round-robin order across queries."""
    if not column_sets:
        raise ConfigurationError("need at least one column set")
    if not 0 < scan_fraction <= 1:
        raise ConfigurationError("scan_fraction must be in (0, 1]")
    rng = make_rng(seed)
    num_chunks = layout.num_chunks
    span = max(1, int(round(scan_fraction * num_chunks)))
    span = min(span, num_chunks)
    streams: List[List[ScanRequest]] = []
    query_id = 0
    for _ in range(num_streams):
        stream: List[ScanRequest] = []
        for _ in range(queries_per_stream):
            columns = column_sets[query_id % len(column_sets)]
            if span == num_chunks:
                start = 0
            else:
                start = int(rng.integers(0, num_chunks - span + 1))
            stream.append(
                ScanRequest(
                    query_id=query_id,
                    name="".join(columns),
                    chunks=tuple(range(start, start + span)),
                    columns=tuple(columns),
                    cpu_per_chunk=cpu_per_chunk,
                )
            )
            query_id += 1
        streams.append(stream)
    return streams
