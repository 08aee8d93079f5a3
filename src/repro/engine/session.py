"""A small execution session tying tables, scans and the ABM together.

The session demonstrates the full Cooperative Scans data path on real
in-memory data: several queries register their chunk needs with an Active
Buffer Manager, the ABM decides the load order and sharing, and each query's
``CScan`` then iterates its chunks in exactly the delivery order the ABM
chose.  Disk timing is not modelled here (that is the simulator's job); what
the session shows is the *data correctness* of out-of-order delivery and the
I/O sharing achieved (loads vs. logical chunk reads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import EngineError
from repro.core.abm import ActiveBufferManager
from repro.core.cscan import ScanRequest
from repro.core.policies import make_policy
from repro.engine.operators import CScan
from repro.engine.table import ColumnTable


@dataclass
class CooperativeRun:
    """Outcome of driving a set of queries through the ABM."""

    #: Delivery order per query id (the order CScan will read chunks in).
    delivery_orders: Dict[int, List[int]]
    #: Total number of chunk loads the ABM issued.
    loads: int
    #: Total number of chunk consumptions across all queries.
    chunk_reads: int
    #: Scheduling policy used.
    policy: str

    @property
    def sharing_factor(self) -> float:
        """Average number of queries served by each loaded chunk."""
        if self.loads == 0:
            return 0.0
        return self.chunk_reads / self.loads


class Session:
    """Holds named in-memory tables and builds (cooperative) scans over them."""

    def __init__(self) -> None:
        self._tables: Dict[str, ColumnTable] = {}

    # ------------------------------------------------------------ catalogue
    def register_table(self, table: ColumnTable) -> None:
        """Register a table under its name."""
        if table.name in self._tables:
            raise EngineError(f"table {table.name!r} already registered")
        self._tables[table.name] = table

    def table(self, name: str) -> ColumnTable:
        """Look up a registered table."""
        try:
            return self._tables[name]
        except KeyError as exc:
            raise EngineError(f"unknown table {name!r}") from exc

    # ----------------------------------------------------------------- scans
    def cscan(
        self,
        table: str,
        delivery_order: Sequence[int],
        columns: Optional[Sequence[str]] = None,
    ) -> CScan:
        """A cooperative scan reading chunks in an explicit delivery order."""
        return CScan(self.table(table), delivery_order, columns=columns)

    # ------------------------------------------------------------------ ABM
    def run_cooperative(
        self,
        table: str,
        requests: Sequence[ScanRequest],
        policy: str = "relevance",
        buffer_chunks: Optional[int] = None,
    ) -> CooperativeRun:
        """Drive concurrent scan requests through a live ABM.

        I/O and CPU are treated as instantaneous (a logical clock advances by
        one per ABM interaction); the result records each query's chunk
        delivery order and the sharing achieved.  Use the returned orders with
        :meth:`cscan` to actually read the data.
        """
        column_table = self.table(table)
        if not requests:
            raise EngineError("run_cooperative needs at least one request")
        capacity = buffer_chunks or max(2, column_table.num_chunks // 4)
        abm = ActiveBufferManager(
            num_chunks=column_table.num_chunks,
            capacity_chunks=capacity,
            policy=make_policy(policy),
            chunk_bytes=1,
        )
        clock = 0.0
        for request in requests:
            for chunk in request.chunks:
                if not 0 <= chunk < column_table.num_chunks:
                    raise EngineError(
                        f"request {request.name!r} asks for chunk {chunk} outside "
                        f"table {table!r}"
                    )
            abm.register(request, clock)
        pending = {request.query_id: request for request in requests}
        orders: Dict[int, List[int]] = {request.query_id: [] for request in requests}
        chunk_reads = 0
        # Round-robin the queries; when nobody can make progress, let the ABM
        # load the next chunk (instantaneously).
        guard = 0
        limit = 10 * sum(len(request.chunks) for request in requests) + 100
        while pending:
            guard += 1
            if guard > limit:
                raise EngineError("cooperative run did not converge (policy livelock)")
            progressed = False
            for query_id in list(pending):
                clock += 1.0
                chunk = abm.select_chunk(query_id, clock)
                if chunk is None:
                    continue
                progressed = True
                orders[query_id].append(chunk)
                chunk_reads += 1
                abm.finish_chunk(query_id, clock)
                if abm.handle(query_id).finished:
                    abm.unregister(query_id, clock)
                    del pending[query_id]
            if pending and not progressed:
                clock += 1.0
                operation = abm.next_load(clock)
                if operation is None:
                    raise EngineError(
                        "ABM refused to load data while queries are blocked"
                    )
                abm.complete_load(operation, clock)
        return CooperativeRun(
            delivery_orders=orders,
            loads=abm.io_requests,
            chunk_reads=chunk_reads,
            policy=policy,
        )
