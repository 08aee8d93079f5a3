"""Reference oracles for eviction candidates: scan the pool and sort.

Both buffer pools of :mod:`repro.bufman.slots` keep their unpinned units in
an :class:`~repro.bufman.slots.LRUIndex` ordered by ``(last_used,
load_seq)``.  The NSM policies walk it through
:meth:`ChunkSlotPool.evictable_slots` and the DSM policies through
:meth:`DSMSchedulingPolicy._evictable_blocks`, each stopping at the first
victim that serves.  The oracles here answer the same question the obvious
way -- a walk over every buffered unit, in the order their loads
completed, and a stable sort by ``last_used`` -- so they are correct by
inspection:

* :func:`oracle_evictable_slots` is the NSM scan the policies made before
  the index;
* :func:`oracle_evictable_blocks` is the DSM one, and
  :func:`oracle_evictable_blocks_of` restricts it to some chunks, the
  oracle of :meth:`DSMBlockPool.evictable_blocks_of`.

:func:`use_oracle_eviction` swaps them in under a policy; the eviction
oracle tests then compare victim lists and scheduling fingerprints.

This module imports nothing from pytest or ``tests/conftest.py``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.bufman.slots import BlockState, ChunkSlot, ChunkSlotPool, DSMBlockPool


def oracle_evictable_slots(pool: ChunkSlotPool) -> List[ChunkSlot]:
    """All unpinned slots, least recently used first, ties in load order
    (the pool's slot dict keeps chunks in the order their loads
    completed)."""
    candidates = [slot for slot in pool._slots.values() if not slot.pinned]
    candidates.sort(key=lambda slot: slot.last_used)
    return candidates


def oracle_evictable_blocks(
    pool: DSMBlockPool, protect_chunks: Sequence[int] = ()
) -> List[BlockState]:
    """All unpinned, unreserved blocks outside ``protect_chunks``, least
    recently used first, ties in load order (the pool's block dict keeps
    blocks in the order their loads completed)."""
    protected = set(protect_chunks)
    candidates = [
        block
        for block in pool._blocks.values()
        if not block.pinned
        and block.chunk not in protected
        and not pool.is_reserved(block.chunk)
    ]
    candidates.sort(key=lambda block: block.last_used)
    return candidates


def oracle_evictable_blocks_of(
    pool: DSMBlockPool, chunks: Iterable[int], protect_chunks: Sequence[int] = ()
) -> List[BlockState]:
    """:func:`oracle_evictable_blocks` restricted to the blocks of ``chunks``."""
    wanted = set(chunks)
    return [
        block
        for block in oracle_evictable_blocks(pool, protect_chunks)
        if block.chunk in wanted
    ]


def use_oracle_eviction(policy):
    """Make a bound ``policy`` draw its eviction candidates from the
    oracles instead of the pool's indexes: an NSM policy from
    :func:`oracle_evictable_slots` (swapped in on its pool, where the NSM
    policies read it), a DSM policy from :func:`oracle_evictable_blocks`.

    Returns ``policy`` for chaining.
    """
    pool = policy.abm.pool
    if isinstance(pool, ChunkSlotPool):
        pool.evictable_slots = lambda: iter(oracle_evictable_slots(pool))
        return policy

    def evictable_blocks(protect_chunks: Sequence[int] = ()):
        return iter(oracle_evictable_blocks(policy.abm.pool, protect_chunks))

    def evictable_blocks_of(chunks: Iterable[int], protect_chunks: Sequence[int] = ()):
        return oracle_evictable_blocks_of(policy.abm.pool, chunks, protect_chunks)

    policy._evictable_blocks = evictable_blocks
    policy._evictable_blocks_of = evictable_blocks_of
    return policy
