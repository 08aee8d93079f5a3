"""Load-operation descriptions returned by the Active Buffer Manager.

The simulator asks the ABM "what should the disk do next?" and receives one of
these objects (or ``None`` when the disk should stay idle).  The operation
already reflects any evictions performed to make room; the simulator only has
to time the transfer and report completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.bufman.slots import BlockKey


@dataclass(frozen=True)
class LoadOperation:
    """One NSM chunk load."""

    chunk: int
    triggered_by: int
    num_bytes: int
    evicted: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ColumnLoad:
    """One column block of a DSM load operation."""

    column: str
    pages: int
    num_bytes: int


@dataclass(frozen=True)
class DSMLoadOperation:
    """One DSM load: the missing column blocks of one logical chunk.

    ``blocks`` is ordered by increasing size (the paper's "column loading
    order" heuristic: load small columns first so queries needing only those
    can be woken earlier).
    """

    chunk: int
    triggered_by: int
    blocks: Tuple[ColumnLoad, ...]
    evicted: Tuple[BlockKey, ...] = ()
