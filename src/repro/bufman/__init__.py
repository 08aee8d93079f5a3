"""Buffer management substrate of the Active Buffer Manager.

:mod:`repro.bufman.slots` holds the chunk-slot and column-block pools the
ABM schedules over; they track per-chunk interest, pins and page-level
occupancy for NSM and DSM respectively.
"""

from repro.bufman.slots import ChunkSlotPool, ChunkSlot, DSMBlockPool, BlockState

__all__ = [
    "ChunkSlotPool",
    "ChunkSlot",
    "DSMBlockPool",
    "BlockState",
]
