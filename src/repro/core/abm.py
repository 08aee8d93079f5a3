"""The Active Buffer Manager (ABM).

The ABM is the component at the heart of the Cooperative Scans framework
(Figure 1 of the paper): it keeps track of every registered CScan operator
and of the chunks currently buffered, and it decides — through a pluggable
scheduling policy — which chunk to load next, on behalf of which query, and
which chunk to evict to make room.

Two variants are provided:

* :class:`ActiveBufferManager` for row storage (NSM/PAX), where a chunk is a
  fixed-size physical unit and the buffer is counted in chunk slots;
* :class:`DSMActiveBufferManager` for column storage, where chunks are
  logical and the buffer is counted in pages of per-column blocks.

The ABM itself is time-agnostic: the driver (the discrete-event simulator in
:mod:`repro.sim`, or the in-memory engine in :mod:`repro.engine`) passes the
current time into every call and executes the returned load operations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bufman.slots import BlockKey, ChunkSlotPool, DSMBlockPool
from repro.common.errors import SchedulingError
from repro.core.cscan import CScanHandle, ScanRequest
from repro.core.interest import (
    DSMInterestTracker,
    InterestTracker,
    VectorInterestTracker,
)
from repro.core.ops import ColumnLoad, DSMLoadOperation, LoadOperation
from repro.core.policies.relevance import RelevancePolicy
from repro.storage.dsm import DSMTableLayout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from typing import Union

    from repro.core.policies.base import DSMSchedulingPolicy, SchedulingPolicy

#: Fallback starvation thresholds for policies without
#: :class:`repro.core.policies.relevance.RelevanceParameters` (the paper's
#: defaults: starved below 2 available chunks, almost starved at 2).
_DEFAULT_STARVATION_THRESHOLD = 2
_DEFAULT_ALMOST_STARVED_THRESHOLD = 2

#: Table size, in chunks, from which an NSM relevance ABM keeps its interest
#: counters in :class:`~repro.core.interest.VectorInterestTracker`.  Set from
#: the measured crossover (16 streams x 4 I/O-bound relevance queries, median
#: of 3-5 interleaved runs per point, 2-vCPU host; scalar time / vector
#: time): 0.6-0.8x at 64-128 chunks with 8-16 buffer slots, 0.87-0.98x at
#: 256 chunks with 8-32 slots but 1.2x with 64, and 1.03-2.0x at 512-1024
#: chunks with every buffer from 8 to 256 slots.  The buffer size moves the
#: crossover within 128-512 chunks, but this chunk-only rule is never more
#: than 15% slower than the faster tracker on any measured point, so the
#: capacity is left out of it.
VECTOR_TRACKER_MIN_CHUNKS = 256


class _BaseABM:
    """State and bookkeeping shared by the NSM and DSM buffer managers."""

    def __init__(self) -> None:
        self._handles: Dict[int, CScanHandle] = {}
        #: The interest tracker (:mod:`repro.core.interest`) answering every
        #: relevance aggregate; installed by the concrete ABM after binding
        #: the policy, because the starvation thresholds come from the policy.
        self.tracker: "Union[InterestTracker, DSMInterestTracker]"
        #: Number of I/O requests issued so far (NSM: one per chunk load,
        #: DSM: one per column block).
        self.io_requests: int = 0
        #: Loads attributed to the query that triggered them (for the paper's
        #: per-query-type I/O columns in Tables 2 and 3).
        self.loads_triggered: Dict[int, int] = {}
        #: Total number of chunk consumptions served from already-buffered
        #: data without triggering a load for that query.
        self.buffer_hits: int = 0
        #: Load operations issued but not yet completed.  With a single-volume
        #: disk this is 0 or 1; a multi-volume driver keeps up to one load in
        #: flight per volume, so the ABM must tolerate (and the pools already
        #: account for) several concurrent loads.
        self.pending_loads: int = 0
        #: Optional flight recorder (:meth:`attach_observability`); ``None``
        #: records nothing and costs one attribute test per decision.
        self._obs = None
        self._obs_pid = "service"
        self._obs_starved_gauge = "service.abm.starved_queries"
        self._obs_hit_gauge = "service.abm.hit_rate"
        #: Last observed per-query starvation state (only maintained while a
        #: recorder is attached; used to emit starvation *flips* only).
        self._obs_starved: Dict[int, bool] = {}
        self._obs_starved_count = 0

    # -------------------------------------------------------- observability
    def attach_observability(self, flight, process: str = "service") -> None:
        """Emit load/evict/attach and starvation-flip events into ``flight``."""
        self._obs = flight
        self._obs_pid = process
        self._obs_starved_gauge = f"{process}.abm.starved_queries"
        self._obs_hit_gauge = f"{process}.abm.hit_rate"

    def _obs_starvation_update(self, handle: CScanHandle, now: float) -> None:
        """Emit an event when this handle's starvation state flipped."""
        query_id = handle.query_id
        starved = (not handle.finished) and self.is_starved(handle)
        if self._obs_starved.get(query_id, False) == starved:
            self._obs_starved[query_id] = starved
            return
        self._obs_starved[query_id] = starved
        self._obs_starved_count += 1 if starved else -1
        self._obs.instant(
            "abm.starved" if starved else "abm.unstarved",
            "abm", now, self._obs_pid, "abm", query=query_id,
        )
        self._obs.set_gauge(
            self._obs_starved_gauge, now, self._obs_starved_count
        )

    def _obs_starvation_sweep(self, now: float) -> None:
        """Re-check every registered handle (availability just changed)."""
        for handle in self._handles.values():
            self._obs_starvation_update(handle, now)

    def _obs_forget(self, query_id: int, now: float) -> None:
        if self._obs_starved.pop(query_id, False):
            self._obs_starved_count -= 1
            self._obs.set_gauge(
                self._obs_starved_gauge, now, self._obs_starved_count
            )

    def _obs_hit_rate_gauge(self, now: float) -> None:
        if self.buffer_hits > 0:
            rate = max(0.0, 1.0 - self.io_requests / self.buffer_hits)
            self._obs.set_gauge(self._obs_hit_gauge, now, rate)

    # ------------------------------------------------------------ queries
    def register(self, request: ScanRequest, now: float) -> CScanHandle:
        """Register a new CScan operator and return its handle."""
        if request.query_id in self._handles:
            raise SchedulingError(f"query {request.query_id} already registered")
        handle = CScanHandle(request, now)
        self._handles[request.query_id] = handle
        # Every registered query gets an attribution entry, even if it never
        # triggers a load of its own; next_load can then bump it blindly.
        self.loads_triggered.setdefault(request.query_id, 0)
        self.tracker.on_register(handle)
        self._policy().on_register(handle, now)
        if self._obs is not None:
            self._obs.instant(
                "abm.register", "abm", now, self._obs_pid, "abm",
                query=request.query_id, chunks=request.num_chunks,
            )
            self._obs_starvation_update(handle, now)
        return handle

    def unregister(self, query_id: int, now: float) -> CScanHandle:
        """Remove a (normally finished) query from the ABM."""
        handle = self._handle(query_id)
        del self._handles[query_id]
        self.tracker.on_unregister(handle)
        self._policy().on_unregister(handle, now)
        if self._obs is not None:
            self._obs.instant(
                "abm.unregister", "abm", now, self._obs_pid, "abm",
                query=query_id,
            )
            self._obs_forget(query_id, now)
        return handle

    def _handle(self, query_id: int) -> CScanHandle:
        try:
            return self._handles[query_id]
        except KeyError as exc:
            raise SchedulingError(f"unknown query {query_id}") from exc

    def handle(self, query_id: int) -> CScanHandle:
        """Public accessor for a registered handle."""
        return self._handle(query_id)

    def active_handles(self) -> List[CScanHandle]:
        """All currently registered (unfinished) scans."""
        return list(self._handles.values())

    def num_active(self) -> int:
        """Number of currently registered scans."""
        return len(self._handles)

    def interested_handles(self, chunk: int) -> List[CScanHandle]:
        """Handles that still need the given chunk (registration order)."""
        handles = self._handles
        return [handles[qid] for qid in self.tracker.interested_ids(chunk)]

    def interested_count(self, chunk: int) -> int:
        """Number of registered scans that still need the given chunk."""
        return self.tracker.interested_count(chunk)

    # --------------------------------------------------------- starvation
    def _snapshot_thresholds(self) -> None:
        """Capture the starvation thresholds from the bound policy's
        :class:`RelevanceParameters` (falling back to the paper's defaults),
        so ablations of the threshold affect the whole starvation logic.
        Snapshotting once at construction keeps the ABM's predicates and
        the tracker's starvation counters in agreement by construction; the
        parameters dataclass is frozen, so they cannot legitimately change
        later."""
        parameters = getattr(self._policy(), "parameters", None)
        if parameters is not None:
            self._starvation_threshold = parameters.starvation_threshold
            self._almost_starved_threshold = parameters.almost_starved_threshold
        else:
            self._starvation_threshold = _DEFAULT_STARVATION_THRESHOLD
            self._almost_starved_threshold = _DEFAULT_ALMOST_STARVED_THRESHOLD

    @property
    def starvation_threshold(self) -> int:
        """A query is starved below this many available chunks."""
        return self._starvation_threshold

    @property
    def almost_starved_threshold(self) -> int:
        """A query is almost starved at or below this many available chunks."""
        return self._almost_starved_threshold

    def is_starved(self, handle: CScanHandle) -> bool:
        """The paper's ``queryStarved``: fewer available chunks than the
        bound policy's starvation threshold."""
        return self.num_available_chunks(handle) < self.starvation_threshold

    def starved_handles(self) -> List[CScanHandle]:
        """All registered scans that are currently starved (registration
        order)."""
        handles = self._handles
        return [handles[qid] for qid in self.tracker.starved_ids_ordered()]

    def available_chunks(self, handle: CScanHandle) -> List[int]:
        """Chunks the query could consume right now, in chunk order (NSM:
        buffered; DSM: every needed column buffered)."""
        return sorted(self.tracker.available_chunks(handle.query_id))

    def num_available_chunks(self, handle: CScanHandle) -> int:
        """Count of chunks the query could consume right now."""
        return self.tracker.available_count(handle.query_id)

    def _policy(self):
        raise NotImplementedError


class ActiveBufferManager(_BaseABM):
    """Active Buffer Manager for row storage (NSM / PAX).

    Parameters
    ----------
    num_chunks:
        Number of chunks of the (clustered) table the scans run against.
    capacity_chunks:
        Buffer pool size in chunk slots.
    policy:
        A :class:`repro.core.policies.base.SchedulingPolicy` instance.
    chunk_bytes:
        Size of a full chunk; used to compute transfer sizes.
    chunk_sizes:
        Optional per-chunk byte sizes (the last chunk of a table is usually
        smaller); defaults to ``chunk_bytes`` for every chunk.
    """

    def __init__(
        self,
        num_chunks: int,
        capacity_chunks: int,
        policy: "SchedulingPolicy",
        chunk_bytes: int,
        chunk_sizes: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__()
        if num_chunks < 1:
            raise SchedulingError("table must have at least one chunk")
        self.num_chunks = num_chunks
        self.chunk_bytes = chunk_bytes
        if chunk_sizes is not None and len(chunk_sizes) != num_chunks:
            raise SchedulingError("chunk_sizes must list one size per chunk")
        self._chunk_sizes = list(chunk_sizes) if chunk_sizes is not None else None
        self.pool = ChunkSlotPool(capacity_chunks)
        self.policy = policy
        policy.bind(self)
        self._snapshot_thresholds()
        # Only the relevance policy reads the tracker's dense vectors, and
        # they pay for their per-event numpy cost only on large tables (see
        # VECTOR_TRACKER_MIN_CHUNKS); both trackers make bit-identical
        # decisions, so the choice is purely a speed one.
        if isinstance(policy, RelevancePolicy) and num_chunks >= VECTOR_TRACKER_MIN_CHUNKS:
            self.tracker = VectorInterestTracker(
                self.pool,
                self.starvation_threshold,
                self.almost_starved_threshold,
                num_chunks,
            )
        else:
            self.tracker = InterestTracker(
                self.pool, self.starvation_threshold, self.almost_starved_threshold
            )
        # The pool drives availability updates (loads and evictions), so the
        # tracker stays consistent even when a test or driver mutates the
        # pool directly.
        self.pool.listener = self.tracker

    def _policy(self) -> "SchedulingPolicy":
        return self.policy

    # --------------------------------------------------------- starvation
    def starved_interested_count(self, chunk: int) -> int:
        """Number of interested queries of the chunk that are starved (the
        ``Qmax``-weighted term of ``loadRelevance``)."""
        return self.tracker.starved_interested_count(chunk)

    def almost_starved_interested_count(self, chunk: int) -> int:
        """Number of interested queries of the chunk that are almost starved
        (the ``Qmax``-weighted term of ``keepRelevance``)."""
        return self.tracker.almost_starved_interested_count(chunk)

    # ----------------------------------------------------------- inspection
    def chunk_size(self, chunk: int) -> int:
        """Size in bytes of one chunk."""
        if self._chunk_sizes is not None:
            return self._chunk_sizes[chunk]
        return self.chunk_bytes

    # ------------------------------------------------------------ data path
    def select_chunk(self, query_id: int, now: float) -> Optional[int]:
        """Pick the next buffered chunk for a query to consume (``selectChunk``).

        Returns ``None`` when no suitable chunk is buffered; the caller should
        then block the query until :meth:`complete_load` wakes it.  When a
        chunk is returned it is pinned on behalf of the query.
        """
        handle = self._handle(query_id)
        if handle.finished:
            return None
        chunk = self.policy.select_chunk_to_consume(handle, now)
        if chunk is None:
            handle.mark_blocked(now)
            self.policy.on_query_blocked(handle, now)
            return None
        if chunk not in self.pool:
            raise SchedulingError(
                f"policy {self.policy.name} selected non-buffered chunk {chunk}"
            )
        if not handle.is_interested(chunk):
            raise SchedulingError(
                f"policy {self.policy.name} selected chunk {chunk} "
                f"not needed by query {query_id}"
            )
        self.pool.pin(chunk, now)
        handle.start_chunk(chunk, now)
        self.buffer_hits += 1
        if self._obs is not None:
            self._obs.instant(
                "abm.attach", "abm", now, self._obs_pid, "abm",
                query=query_id, chunk=chunk,
            )
            self._obs_hit_rate_gauge(now)
        return chunk

    def finish_chunk(self, query_id: int, now: float) -> int:
        """Record that a query finished consuming its current chunk."""
        handle = self._handle(query_id)
        chunk = handle.finish_chunk(now)
        self.pool.unpin(chunk, now)
        self.tracker.on_chunk_finished(handle, chunk)
        self.policy.on_chunk_consumed(handle, chunk, now)
        if self._obs is not None:
            self._obs_starvation_update(handle, now)
        return chunk

    def cancel(self, query_id: int, now: float) -> CScanHandle:
        """Abort an unfinished query: release its pin and unregister it.

        Used by the cluster layer for hedged losers and shard fail-stop.
        Any load the query triggered stays in flight (its data lands in the
        pool for the surviving queries); only the consumption pin is undone.
        """
        handle = self._handle(query_id)
        chunk = handle.abandon_chunk()
        if chunk is not None:
            self.pool.unpin(chunk, now)
        return self.unregister(query_id, now)

    def next_load(self, now: float) -> Optional[LoadOperation]:
        """Decide the next disk operation (``ABM main loop`` body).

        Returns ``None`` when the policy has nothing to schedule (all queries
        satisfied for now) or when no room can be made in the buffer pool.
        """
        decision = self.policy.choose_load(now)
        if decision is None:
            return None
        query_id, chunk = decision
        if chunk in self.pool or self.pool.is_loading(chunk):
            raise SchedulingError(
                f"policy {self.policy.name} chose chunk {chunk} which is already "
                "buffered or being loaded"
            )
        evicted: Tuple[int, ...] = ()
        if not self.pool.has_free_slot():
            victims = self.policy.choose_evictions(query_id, chunk, now)
            if not victims:
                return None
            for victim in victims:
                self.pool.evict(victim)
            evicted = tuple(victims)
        self.pool.start_load(chunk)
        self.io_requests += 1
        self.pending_loads += 1
        self.loads_triggered[query_id] += 1
        if self._obs is not None:
            if evicted:
                self._obs.instant(
                    "abm.evict", "abm", now, self._obs_pid, "abm",
                    victims=list(evicted), for_chunk=chunk,
                )
                self._obs_starvation_sweep(now)
            self._obs.instant(
                "abm.load.issue", "abm", now, self._obs_pid, "abm",
                chunk=chunk, query=query_id,
                num_bytes=self.chunk_size(chunk),
            )
        return LoadOperation(
            chunk=chunk,
            triggered_by=query_id,
            num_bytes=self.chunk_size(chunk),
            evicted=evicted,
        )

    def complete_load(self, operation: LoadOperation, now: float) -> List[int]:
        """Mark a load as finished; returns the blocked queries it may wake."""
        if self.pending_loads <= 0:
            raise SchedulingError("complete_load without a matching next_load")
        self.pending_loads -= 1
        self.pool.complete_load(operation.chunk, now)
        self.policy.on_chunk_loaded(operation.chunk, now)
        woken = [
            handle.query_id
            for handle in self.interested_handles(operation.chunk)
            if handle.is_blocked
        ]
        if self._obs is not None:
            self._obs.instant(
                "abm.load.complete", "abm", now, self._obs_pid, "abm",
                chunk=operation.chunk, query=operation.triggered_by,
                woken=len(woken),
            )
            self._obs_starvation_sweep(now)
        return woken


class DSMActiveBufferManager(_BaseABM):
    """Active Buffer Manager for column storage (DSM).

    The buffer is accounted in pages.  A chunk is *ready* for a query when all
    the column blocks the query needs are buffered; loads fetch the missing
    column blocks of one logical chunk (possibly for a superset of the
    triggering query's columns, as decided by the policy).
    """

    def __init__(
        self,
        layout: DSMTableLayout,
        capacity_pages: int,
        policy: "DSMSchedulingPolicy",
    ) -> None:
        super().__init__()
        self.layout = layout
        self.num_chunks = layout.num_chunks
        self.pool = DSMBlockPool(capacity_pages)
        self.policy = policy
        #: Number of individual column-block transfers (an NSM-comparable
        #: "I/O request" is one chunk-level load operation; this counter keeps
        #: the finer per-column granularity for diagnostics).
        self.column_block_requests: int = 0
        self._block_pages_cache: Dict[BlockKey, int] = {}
        policy.bind(self)
        self._snapshot_thresholds()
        self.tracker = DSMInterestTracker(
            self.pool, self.starvation_threshold, self.almost_starved_threshold
        )
        self.pool.listener = self.tracker

    def _policy(self) -> "DSMSchedulingPolicy":
        return self.policy

    # ----------------------------------------------------------- inspection
    def block_pages(self, chunk: int, column: str) -> int:
        """Pages of one column block of one chunk (cached)."""
        key = (chunk, column)
        pages = self._block_pages_cache.get(key)
        if pages is None:
            pages = self.layout.block_pages(column, chunk)
            self._block_pages_cache[key] = pages
        return pages

    def chunk_ready(self, handle: CScanHandle, chunk: int) -> bool:
        """Whether every column the query needs is buffered for this chunk."""
        return all(self.pool.has_block(chunk, column) for column in handle.columns)

    def missing_columns(self, chunk: int, columns: Iterable[str]) -> List[str]:
        """Columns of ``columns`` whose block for ``chunk`` is not buffered
        and not currently being loaded."""
        return [
            column
            for column in columns
            if not self.pool.has_block(chunk, column)
            and not self.pool.is_loading((chunk, column))
        ]

    def chunk_load_pages(self, chunk: int, columns: Iterable[str]) -> int:
        """Pages that would have to be read to complete ``chunk`` for ``columns``."""
        return sum(
            self.block_pages(chunk, column)
            for column in self.missing_columns(chunk, columns)
        )

    def cached_pages_for(self, handle: CScanHandle, chunk: int) -> int:
        """Buffered pages of the query's columns for one needed chunk (the
        ``useRelevance`` numerator and the reservation criterion)."""
        return self.tracker.cached_pages(handle.query_id, chunk)

    # ------------------------------------------------------------ data path
    def select_chunk(self, query_id: int, now: float) -> Optional[int]:
        """Pick the next ready chunk for a query to consume, pinning its blocks."""
        handle = self._handle(query_id)
        if handle.finished:
            return None
        chunk = self.policy.select_chunk_to_consume(handle, now)
        if chunk is None:
            handle.mark_blocked(now)
            self.policy.on_query_blocked(handle, now)
            return None
        if not handle.is_interested(chunk):
            raise SchedulingError(
                f"policy {self.policy.name} selected chunk {chunk} "
                f"not needed by query {query_id}"
            )
        if not self.chunk_ready(handle, chunk):
            raise SchedulingError(
                f"policy {self.policy.name} selected chunk {chunk} whose columns "
                f"are not all buffered for query {query_id}"
            )
        for column in handle.columns:
            self.pool.pin((chunk, column), now)
        handle.start_chunk(chunk, now)
        self.buffer_hits += 1
        if self._obs is not None:
            self._obs.instant(
                "abm.attach", "abm", now, self._obs_pid, "abm",
                query=query_id, chunk=chunk,
            )
            self._obs_hit_rate_gauge(now)
        return chunk

    def finish_chunk(self, query_id: int, now: float) -> int:
        """Record that a query finished consuming its current chunk."""
        handle = self._handle(query_id)
        chunk = handle.current_chunk
        if chunk is None:
            raise SchedulingError(f"query {query_id} is not consuming a chunk")
        handle.finish_chunk(now)
        for column in handle.columns:
            self.pool.unpin((chunk, column), now)
        self.tracker.on_chunk_finished(handle, chunk)
        self.policy.on_chunk_consumed(handle, chunk, now)
        if self._obs is not None:
            self._obs_starvation_update(handle, now)
        return chunk

    def cancel(self, query_id: int, now: float) -> CScanHandle:
        """Abort an unfinished query: release its block pins and unregister.

        The DSM twin of :meth:`ActiveBufferManager.cancel` — every column
        block pinned for the chunk being consumed is unpinned before the
        handle is removed.
        """
        handle = self._handle(query_id)
        chunk = handle.abandon_chunk()
        if chunk is not None:
            for column in handle.columns:
                self.pool.unpin((chunk, column), now)
        return self.unregister(query_id, now)

    def next_load(self, now: float) -> Optional[DSMLoadOperation]:
        """Decide the next disk operation for the DSM store."""
        decision = self.policy.choose_load(now)
        if decision is None:
            return None
        query_id, chunk, columns = decision
        missing = self.missing_columns(chunk, columns)
        if not missing:
            raise SchedulingError(
                f"policy {self.policy.name} chose chunk {chunk} with no missing columns"
            )
        pages_needed = sum(self.block_pages(chunk, column) for column in missing)
        evicted: Tuple[BlockKey, ...] = ()
        if pages_needed > self.pool.free_pages():
            victims = self.policy.choose_evictions(
                query_id, chunk, pages_needed - self.pool.free_pages(), now
            )
            if victims is None:
                return None
            freed = 0
            applied: List[BlockKey] = []
            for victim in victims:
                freed += self.pool.evict(victim)
                applied.append(victim)
            evicted = tuple(applied)
            if pages_needed > self.pool.free_pages():
                raise SchedulingError(
                    f"policy {self.policy.name} eviction freed {freed} pages but "
                    f"{pages_needed} are needed"
                )
        blocks: List[ColumnLoad] = []
        for column in missing:
            pages = self.block_pages(chunk, column)
            self.pool.start_load((chunk, column), pages)
            blocks.append(
                ColumnLoad(
                    column=column,
                    pages=pages,
                    num_bytes=pages * self.layout.page_bytes,
                )
            )
        # Column loading order: smallest blocks first (Section 6.2) so that
        # queries depending only on narrow columns can be woken earlier.
        blocks.sort(key=lambda block: (block.pages, block.column))
        # One chunk-level load operation counts as one I/O request (the blocks
        # of a chunk are issued together with scatter-gather I/O), which keeps
        # the counter comparable with the NSM experiments and with Table 3.
        self.io_requests += 1
        self.pending_loads += 1
        self.column_block_requests += len(blocks)
        self.loads_triggered[query_id] += 1
        if self._obs is not None:
            if evicted:
                self._obs.instant(
                    "abm.evict", "abm", now, self._obs_pid, "abm",
                    victims=[list(victim) for victim in evicted],
                    for_chunk=chunk,
                )
                self._obs_starvation_sweep(now)
            self._obs.instant(
                "abm.load.issue", "abm", now, self._obs_pid, "abm",
                chunk=chunk, query=query_id,
                columns=[block.column for block in blocks],
                num_bytes=sum(block.num_bytes for block in blocks),
            )
        return DSMLoadOperation(
            chunk=chunk,
            triggered_by=query_id,
            blocks=tuple(blocks),
            evicted=evicted,
        )

    def complete_load(self, operation: DSMLoadOperation, now: float) -> List[int]:
        """Mark a DSM load as finished; returns blocked queries it may wake."""
        if self.pending_loads <= 0:
            raise SchedulingError("complete_load without a matching next_load")
        self.pending_loads -= 1
        for block in operation.blocks:
            self.pool.complete_load((operation.chunk, block.column), now)
        self.policy.on_chunk_loaded(operation.chunk, now)
        available = self.tracker.available_chunks
        woken = [
            handle.query_id
            for handle in self.interested_handles(operation.chunk)
            if handle.is_blocked and operation.chunk in available(handle.query_id)
        ]
        if self._obs is not None:
            self._obs.instant(
                "abm.load.complete", "abm", now, self._obs_pid, "abm",
                chunk=operation.chunk, query=operation.triggered_by,
                woken=len(woken),
            )
            self._obs_starvation_sweep(now)
        return woken
