"""Pluggable query sources feeding the scan simulator.

The simulator used to hard-code the paper's *closed* workload shape (a fixed
set of streams, each executing its queries back to back).  That shape is now
one implementation of the :class:`QuerySource` interface; the open-system
service layer (:mod:`repro.service`) provides another, where queries arrive
continuously and are admitted by an admission controller.

A query source answers three questions for the event loop:

* *when* is the next source-driven admission event
  (:meth:`QuerySource.next_event_time`),
* *which* queries start now (:meth:`QuerySource.poll`), and
* *what* follows the completion of a query
  (:meth:`QuerySource.on_complete` — the next query of the stream for closed
  workloads; for the open service, whatever the front-door pipeline releases:
  the head of the winning class queue, or several queued queries at once
  right after an adaptive MPL increase).

Sources also carry per-workload bookkeeping that does not belong in the
event loop, such as the paper's per-stream running times.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import SimulationError
from repro.core.cscan import ScanRequest
from repro.sim.results import StreamResult

_EPS = 1e-9

#: Stream index used for queries that do not belong to a closed stream
#: (open-system arrivals).
NO_STREAM = -1


@dataclass(frozen=True)
class AdmittedQuery:
    """A query released by a source for immediate execution.

    ``submit_time`` is the moment the query entered the system (its external
    arrival time); ``None`` means it was submitted at the moment of admission,
    which is always the case for closed streams.  The gap between submission
    and admission is the query's queue wait.
    """

    spec: ScanRequest
    stream: int = NO_STREAM
    submit_time: Optional[float] = None


class QuerySource(abc.ABC):
    """Interface between a workload shape and the discrete-event simulator."""

    @abc.abstractmethod
    def next_event_time(self) -> Optional[float]:
        """Time of the next source-driven admission, or ``None`` if none is
        scheduled (more queries may still be released by completions)."""

    @abc.abstractmethod
    def poll(self, now: float) -> List[AdmittedQuery]:
        """Queries to start at time ``now`` (admission events due by now)."""

    @abc.abstractmethod
    def on_complete(self, query_id: int, now: float) -> List[AdmittedQuery]:
        """React to the completion of ``query_id``; returns queries released
        by that completion (to be started at time ``now``)."""

    @abc.abstractmethod
    def drained(self) -> bool:
        """``True`` once the source will never release another query."""

    def stream_results(self) -> List[StreamResult]:
        """Per-stream results, for sources that model closed streams."""
        return []

    def describe(self) -> Dict[str, object]:
        """Flat description of the workload shape (for reports)."""
        return {}

    def size_hint(self) -> Optional[int]:
        """Total queries the source will ever release, when known up front.

        ``None`` (the default) means unknown — open-system arrivals and
        cluster shards cannot know; ``engine="auto"`` then stays scalar.
        """
        return None


class ClosedStreamSource(QuerySource):
    """The paper's closed workload: streams of back-to-back queries.

    Stream ``i`` starts ``i * start_delay_s`` seconds after the run begins
    (3 s in the paper, Section 5.1); within a stream the next query is
    admitted the moment the previous one completes.
    """

    def __init__(
        self,
        streams: Sequence[Sequence[ScanRequest]],
        start_delay_s: float,
    ) -> None:
        if not streams or all(len(stream) == 0 for stream in streams):
            raise SimulationError("workload contains no queries")
        seen_ids: Set[int] = set()
        for stream in streams:
            for spec in stream:
                if spec.query_id in seen_ids:
                    raise SimulationError(
                        f"duplicate query id {spec.query_id} in workload"
                    )
                seen_ids.add(spec.query_id)
        self._streams = [list(stream) for stream in streams]
        self._cursor: List[int] = [0] * len(self._streams)
        self._start: List[Optional[float]] = [None] * len(self._streams)
        self._results: List[Optional[StreamResult]] = [None] * len(self._streams)
        self._stream_of: Dict[int, int] = {
            spec.query_id: index
            for index, stream in enumerate(self._streams)
            for spec in stream
        }
        self._pending_starts: List[Tuple[float, int]] = sorted(
            (index * start_delay_s, index)
            for index, stream in enumerate(self._streams)
            if stream
        )
        self._start_delay_s = start_delay_s
        # Released-query counter so drained() is O(1); the event loop polls
        # it every iteration and a per-stream cursor walk shows up at scale.
        self._released = 0
        self._total_queries = sum(len(stream) for stream in self._streams)

    # ------------------------------------------------------------- interface
    def next_event_time(self) -> Optional[float]:
        if not self._pending_starts:
            return None
        return self._pending_starts[0][0]

    def poll(self, now: float) -> List[AdmittedQuery]:
        admitted: List[AdmittedQuery] = []
        while self._pending_starts and self._pending_starts[0][0] <= now + _EPS:
            _, stream_index = self._pending_starts.pop(0)
            query = self._advance(stream_index, now)
            if query is not None:
                admitted.append(query)
        return admitted

    def on_complete(self, query_id: int, now: float) -> List[AdmittedQuery]:
        stream_index = self._stream_of[query_id]
        query = self._advance(stream_index, now)
        if query is not None:
            return [query]
        start = self._start[stream_index] or 0.0
        self._results[stream_index] = StreamResult(
            stream=stream_index,
            start_time=start,
            finish_time=now,
            query_names=[spec.name for spec in self._streams[stream_index]],
        )
        return []

    def drained(self) -> bool:
        if self._pending_starts:
            return False
        return self._released >= self._total_queries

    def stream_results(self) -> List[StreamResult]:
        return [result for result in self._results if result is not None]

    def size_hint(self) -> Optional[int]:
        return sum(len(stream) for stream in self._streams)

    def describe(self) -> Dict[str, object]:
        return {
            "workload": "closed-streams",
            "num_streams": len(self._streams),
            "num_queries": sum(len(stream) for stream in self._streams),
            "stream_start_delay_s": self._start_delay_s,
        }

    # -------------------------------------------------------------- plumbing
    def _advance(self, stream_index: int, now: float) -> Optional[AdmittedQuery]:
        cursor = self._cursor[stream_index]
        stream = self._streams[stream_index]
        if cursor >= len(stream):
            return None
        self._cursor[stream_index] = cursor + 1
        self._released += 1
        if self._start[stream_index] is None:
            self._start[stream_index] = now
        return AdmittedQuery(spec=stream[cursor], stream=stream_index)
