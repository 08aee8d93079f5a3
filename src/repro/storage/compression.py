"""Simulated light-weight compression schemes.

The paper's DSM experiments rely on the column widths produced by the
light-weight compression schemes of MonetDB/X100 (Zukowski et al., ICDE
2006): PFOR, PFOR-DELTA and PDICT.  We do not need to actually encode bits;
what matters for I/O scheduling is *how many pages a column chunk occupies*.
Each scheme therefore maps an uncompressed value width to a typical
compressed width (a compression ratio), which the DSM layout uses to compute
per-column page footprints — reproducing the situation of Figure 9 where
e.g. an ``orderkey`` stored as ``PFOR-DELTA(oid)`` occupies 3 bits per value
while a comment string occupies 256 bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import StorageError


@dataclass(frozen=True)
class CompressionScheme:
    """A named compression scheme with a default compression ratio.

    ``default_ratio`` is the factor by which the logical width shrinks
    (e.g. 0.25 means a 32-bit value is stored in 8 bits on average).
    """

    name: str
    default_ratio: float

    def __post_init__(self) -> None:
        if not 0.0 < self.default_ratio <= 1.0:
            raise StorageError(
                f"compression ratio must be in (0, 1], got {self.default_ratio}"
            )

    def compressed_bits(self, logical_bits: int) -> int:
        """Physical width for a value of the given logical width (>= 1 bit)."""
        if logical_bits <= 0:
            raise StorageError("logical_bits must be positive")
        return max(1, round(logical_bits * self.default_ratio))


#: No compression: physical width equals logical width.
NONE = CompressionScheme("none", 1.0)

#: Patched Frame-Of-Reference: small integers relative to a per-block base.
#: Typical ratio for 64-bit oids in TPC-H is ~1/3 (the paper quotes 21 bits).
PFOR = CompressionScheme("PFOR", 21.0 / 64.0)

#: PFOR on deltas of a (nearly) sorted column; very high ratios (3/64).
PFOR_DELTA = CompressionScheme("PFOR-DELTA", 3.0 / 64.0)

#: Dictionary compression for low-cardinality columns (e.g. returnflag:
#: 2 bits for an 8-bit char).
PDICT = CompressionScheme("PDICT", 2.0 / 8.0)

def physical_bits_per_value(logical_bits: int, scheme: CompressionScheme) -> int:
    """Physical width of one value under ``scheme`` (helper for ColumnSpec)."""
    return scheme.compressed_bits(logical_bits)
