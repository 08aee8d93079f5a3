"""CScan registration objects.

A ``CScan`` operator differs from a plain ``Scan`` in two ways (Section 4):
it announces *up front* which parts of the table it needs, and it accepts
chunks in whatever order the Active Buffer Manager delivers them.  The
announcement is a :class:`ScanRequest`; the ABM wraps it in a
:class:`CScanHandle` which tracks consumption progress and the bookkeeping
needed by the relevance functions (waiting time, blocked-since, starvation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.common.config import DEFAULT_QUERY_CLASS
from repro.common.errors import SchedulingError


@dataclass(frozen=True)
class ScanRequest:
    """What a CScan operator announces to the ABM when it registers.

    Attributes
    ----------
    query_id:
        Unique identifier of the query (unique per simulation run).
    name:
        Human-readable label, e.g. ``"F-10"`` (FAST query over 10 % of the
        table) in the paper's notation.
    chunks:
        The chunks the scan needs, in table order.  May be the whole table, a
        contiguous range, or a union of ranges (zone-map scans).
    columns:
        For DSM scans, the columns the query reads.  Empty for NSM scans
        (a row-store chunk always contains every column).
    cpu_per_chunk:
        Simulated CPU seconds needed to process one chunk of data once it is
        in the buffer (FAST vs SLOW queries differ here).
    query_class:
        Workload class the query belongs to (e.g. ``"interactive"`` /
        ``"batch"``), consulted by the service front door for per-class
        admission and by the relevance policies for per-class priorities.
        Defaults to the catch-all :data:`repro.common.config.DEFAULT_QUERY_CLASS`.
    """

    query_id: int
    name: str
    chunks: Tuple[int, ...]
    columns: Tuple[str, ...] = ()
    cpu_per_chunk: float = 0.0
    query_class: str = DEFAULT_QUERY_CLASS

    def __post_init__(self) -> None:
        if not self.chunks:
            raise SchedulingError(f"query {self.name!r} requests no chunks")
        if len(set(self.chunks)) != len(self.chunks):
            raise SchedulingError(f"query {self.name!r} lists duplicate chunks")
        if list(self.chunks) != sorted(self.chunks):
            raise SchedulingError(f"query {self.name!r} chunks must be sorted")
        if any(chunk < 0 for chunk in self.chunks):
            raise SchedulingError(f"query {self.name!r} has negative chunk ids")
        if not self.query_class:
            raise SchedulingError(f"query {self.name!r} has an empty query class")
        if len(set(self.columns)) != len(self.columns):
            raise SchedulingError(f"query {self.name!r} lists duplicate columns")
        if self.cpu_per_chunk < 0:
            raise SchedulingError("cpu_per_chunk must be non-negative")

    @property
    def num_chunks(self) -> int:
        """Number of chunks the scan needs in total."""
        return len(self.chunks)


class CScanHandle:
    """The ABM-side state of one registered CScan operator."""

    def __init__(self, request: ScanRequest, now: float) -> None:
        self.request = request
        self.query_id = request.query_id
        self.name = request.name
        self.columns: Tuple[str, ...] = request.columns
        self.query_class = request.query_class
        self.arrival_time = now
        #: Chunks not yet *finished* (the chunk currently being consumed stays
        #: in this set until consumption completes, matching the paper's
        #: definition of "available chunks" which includes the current one).
        self.needed: Set[int] = set(request.chunks)
        self.consumed: Set[int] = set()
        #: Chunk currently being consumed by the query (None if idle/blocked).
        self.current_chunk: Optional[int] = None
        #: When the query last received a chunk from the ABM (used by
        #: ``queryRelevance`` to age long-waiting queries).
        self.last_delivery_time = now
        #: When the query last became blocked (no available chunk); None while
        #: processing or before first block.
        self.blocked_since: Optional[float] = None
        self.finished = False
        #: Chunks delivered, in delivery order (for order-sensitive consumers
        #: and for tests asserting delivery completeness).
        self.delivery_order: List[int] = []

    # ------------------------------------------------------------ inspection
    @property
    def chunks_needed(self) -> int:
        """Number of chunks still needed (including the one being consumed)."""
        return len(self.needed)

    @property
    def is_processing(self) -> bool:
        """Whether the query is currently consuming a chunk."""
        return self.current_chunk is not None

    @property
    def is_blocked(self) -> bool:
        """Whether the query is waiting for the ABM to provide a chunk."""
        return self.blocked_since is not None

    def is_interested(self, chunk: int) -> bool:
        """Whether the query still needs the given chunk."""
        return chunk in self.needed

    def waiting_time(self, now: float) -> float:
        """Time since the ABM last delivered a chunk to this query."""
        return max(0.0, now - self.last_delivery_time)

    # ------------------------------------------------------------- mutation
    def start_chunk(self, chunk: int, now: float) -> None:
        """Record that the query starts consuming ``chunk``."""
        if self.finished:
            raise SchedulingError(f"query {self.query_id} already finished")
        if self.current_chunk is not None:
            raise SchedulingError(
                f"query {self.query_id} is already consuming chunk {self.current_chunk}"
            )
        if chunk not in self.needed:
            raise SchedulingError(
                f"query {self.query_id} does not need chunk {chunk}"
            )
        self.current_chunk = chunk
        self.blocked_since = None
        self.last_delivery_time = now
        self.delivery_order.append(chunk)

    def finish_chunk(self, now: float) -> int:
        """Record that the query finished consuming its current chunk."""
        if self.current_chunk is None:
            raise SchedulingError(f"query {self.query_id} is not consuming a chunk")
        chunk = self.current_chunk
        self.current_chunk = None
        self.needed.discard(chunk)
        self.consumed.add(chunk)
        if not self.needed:
            self.finished = True
        return chunk

    def mark_blocked(self, now: float) -> None:
        """Record that the query is blocked waiting for data."""
        if self.blocked_since is None:
            self.blocked_since = now

    def abandon_chunk(self) -> Optional[int]:
        """Drop the chunk being consumed without finishing it (cancellation).

        Returns the abandoned chunk (so the caller can release its buffer
        pin) or ``None`` if the query was not consuming one.  The chunk
        stays in ``needed``: the query did not get its data.
        """
        chunk = self.current_chunk
        self.current_chunk = None
        return chunk
