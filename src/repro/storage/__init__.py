"""Storage layer: table schemas, NSM/PAX and DSM physical layouts.

The scheduling experiments of the paper only depend on the *shape* of the
data on disk: how many chunks a table has, how many pages each (chunk,
column) block occupies, and which chunks a query needs.  This package
provides that shape:

* :mod:`repro.storage.schema` -- column types and table schemas,
* :mod:`repro.storage.compression` -- simulated light-weight compression
  (PFOR, PDICT, PFOR-DELTA) that determines physical value widths,
* :mod:`repro.storage.nsm` -- the row-store (NSM/PAX) layout in which a chunk
  is a fixed number of contiguous pages,
* :mod:`repro.storage.dsm` -- the column-store (DSM) layout in which chunks
  are logical tuple ranges with per-column physical page footprints,
* :mod:`repro.storage.zonemap` -- per-chunk min/max metadata used to turn
  range predicates into (possibly non-contiguous) chunk sets,
* :mod:`repro.storage.volumes` -- chunk-to-volume placement (striped or
  range-partitioned) for the multi-volume disk subsystem.
"""

from repro.storage.schema import ColumnSpec, TableSchema, DataType
from repro.storage.compression import (
    CompressionScheme,
    NONE,
    PFOR,
    PFOR_DELTA,
    PDICT,
    physical_bits_per_value,
)
from repro.storage.nsm import NSMTableLayout
from repro.storage.dsm import DSMTableLayout, ColumnChunkBlock
from repro.storage.volumes import VolumeLayout
from repro.storage.zonemap import ZoneMap, build_zonemap

__all__ = [
    "ColumnSpec",
    "TableSchema",
    "DataType",
    "CompressionScheme",
    "NONE",
    "PFOR",
    "PFOR_DELTA",
    "PDICT",
    "physical_bits_per_value",
    "NSMTableLayout",
    "DSMTableLayout",
    "ColumnChunkBlock",
    "VolumeLayout",
    "ZoneMap",
    "build_zonemap",
]
