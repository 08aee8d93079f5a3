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

The NSM baselines answer their other questions from state the ABM already
keeps, too.  The scans they made before are kept here as oracles:

* :func:`oracle_elevator_select_chunk` filters the query's whole ``needed``
  set against the pool, where the elevator reads the tracker's available
  chunks;
* :func:`oracle_elevator_choose_evictions` walks the LRU index asking
  ``interested_count`` per slot, where the elevator reads the tracker's
  unwanted chunks;
* :func:`oracle_sequential_choose_load` collects every active query's
  wanted load into two lists and sorts them, where normal and attach keep
  the head of each in one pass.

:func:`use_oracle_nsm_policy` swaps them in on a bound policy; the NSM
policy oracle tests then compare decisions and scheduling fingerprints.

This module imports nothing from pytest or ``tests/conftest.py``.
"""

from __future__ import annotations

from types import MethodType
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.bufman.slots import BlockState, ChunkSlot, ChunkSlotPool, DSMBlockPool
from repro.core.policies.elevator import ElevatorPolicy
from repro.core.policies.normal import SequentialCursorPolicy


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


# ------------------------------------------------------- NSM policy scans
def oracle_elevator_select_chunk(policy, handle, now: float) -> Optional[int]:
    """The elevator's delivery: the needed buffered chunk loaded first,
    ties to the lowest chunk id."""
    pool = policy.abm.pool
    candidates = [chunk for chunk in handle.needed if chunk in pool]
    if not candidates:
        return None
    return min(candidates, key=lambda chunk: (pool.slot(chunk).loaded_at, chunk))


def oracle_elevator_choose_evictions(
    policy, trigger_query: int, incoming_chunk: int, now: float
) -> Optional[List[int]]:
    """The elevator's victim: the first evictable slot, in LRU order, that
    no registered query needs."""
    abm = policy.abm
    for slot in abm.pool.evictable_slots():
        if abm.interested_count(slot.chunk) == 0:
            return [slot.chunk]
    return None


def _oracle_wanted_chunk(policy, handle) -> Optional[int]:
    """The chunk the query wants loaded next: its cursor chunk, else (with
    prefetch) the one after it, unless buffered or in flight."""
    pool = policy.abm.pool
    loading = pool.loading_chunks()
    candidate = policy._cursor_chunk(handle)
    if candidate is None:
        return None
    if candidate in pool or candidate in loading:
        if not policy._prefetch:
            return None
        candidate = policy._chunk_after_cursor(handle)
        if candidate is None or candidate in pool or candidate in loading:
            return None
    return candidate


def oracle_sequential_choose_load(policy, now: float) -> Optional[Tuple[int, int]]:
    """Normal's and attach's load: every active query's wanted chunk, blocked
    queries first, each bucket sorted by (queued_at, query_id, chunk)."""
    blocked: List[Tuple[float, int, int]] = []
    prefetch: List[Tuple[float, int, int]] = []
    for handle in policy.abm.active_handles():
        if handle.finished:
            continue
        if handle.is_processing and not policy._prefetch:
            continue
        wanted = _oracle_wanted_chunk(policy, handle)
        if wanted is None:
            continue
        queued_at = max(
            handle.blocked_since or 0.0,
            handle.last_delivery_time,
            policy._last_service.get(handle.query_id, 0.0),
        )
        if handle.is_blocked:
            blocked.append((queued_at, handle.query_id, wanted))
        else:
            prefetch.append((queued_at, handle.query_id, wanted))
    for bucket in (blocked, prefetch):
        if bucket:
            bucket.sort()
            _, query_id, chunk = bucket[0]
            policy._last_service[query_id] = now
            return query_id, chunk
    return None


def use_oracle_nsm_policy(policy):
    """Make a bound NSM elevator, normal or attach ``policy`` decide through
    the scans above instead of the tracker and the one-pass load choice.

    Returns ``policy`` for chaining.
    """
    if isinstance(policy, ElevatorPolicy):
        policy.select_chunk_to_consume = MethodType(
            oracle_elevator_select_chunk, policy
        )
        policy.choose_evictions = MethodType(oracle_elevator_choose_evictions, policy)
    elif isinstance(policy, SequentialCursorPolicy):
        policy.choose_load = MethodType(oracle_sequential_choose_load, policy)
    else:
        raise TypeError(f"no NSM policy oracle for {type(policy).__name__}")
    return policy
