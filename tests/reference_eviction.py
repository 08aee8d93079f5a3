"""Reference oracle for DSM eviction candidates: scan the pool and sort.

:class:`repro.bufman.slots.DSMBlockPool` keeps its unpinned blocks in an
LRU index ordered by ``(last_used, load_seq)`` and the DSM policies walk it
through :meth:`DSMSchedulingPolicy._evictable_blocks`, stopping as soon as
enough pages are freed.  :func:`oracle_evictable_blocks` answers the same
question the obvious way -- a walk over every buffered block and a stable
sort by ``last_used`` -- so it is correct by inspection.
:func:`use_oracle_eviction` swaps it into a policy object; the eviction
oracle tests then compare victim lists and scheduling fingerprints.

This module imports nothing from pytest or ``tests/conftest.py``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.bufman.slots import BlockState, DSMBlockPool


def oracle_evictable_blocks(
    pool: DSMBlockPool, protect_chunks: Sequence[int] = ()
) -> List[BlockState]:
    """All unpinned, unreserved blocks outside ``protect_chunks``, least
    recently used first, ties in pool iteration order."""
    protected = set(protect_chunks)
    candidates = [
        block
        for block in pool
        if not block.pinned
        and block.chunk not in protected
        and not pool.is_reserved(block.chunk)
    ]
    candidates.sort(key=lambda block: block.last_used)
    return candidates


def use_oracle_eviction(policy):
    """Make a DSM ``policy`` draw its eviction candidates from
    :func:`oracle_evictable_blocks` instead of the pool's LRU index.

    Returns ``policy`` for chaining.
    """

    def evictable_blocks(protect_chunks: Sequence[int] = ()):
        return iter(oracle_evictable_blocks(policy.abm.pool, protect_chunks))

    policy._evictable_blocks = evictable_blocks
    return policy
