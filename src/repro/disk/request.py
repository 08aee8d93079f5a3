"""I/O request records."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple


class RequestKind(Enum):
    """What kind of data an I/O request transfers."""

    #: A full NSM chunk (fixed number of pages).
    NSM_CHUNK = "nsm_chunk"
    #: A set of pages of one column belonging to one logical DSM chunk.
    DSM_COLUMN_BLOCK = "dsm_column_block"


@dataclass(frozen=True)
class IORequest:
    """A single chunk-granularity disk request.

    Attributes
    ----------
    chunk:
        Logical chunk id being (partially) loaded.
    num_bytes:
        Number of bytes transferred.
    kind:
        Whether this is an NSM chunk or a DSM per-column block.
    column:
        Column name for DSM column blocks, ``None`` for NSM chunks.
    triggered_by:
        Identifier of the query on whose behalf the request was issued
        (scheduling decisions are made *for* a query even though the loaded
        data may serve many).
    """

    chunk: int
    num_bytes: int
    kind: RequestKind = RequestKind.NSM_CHUNK
    column: Optional[str] = None
    triggered_by: Optional[int] = None

    def __post_init__(self) -> None:
        if self.chunk < 0:
            raise ValueError("chunk id must be non-negative")
        if self.num_bytes <= 0:
            raise ValueError("num_bytes must be positive")
