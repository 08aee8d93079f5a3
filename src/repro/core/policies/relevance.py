"""The *relevance* policy — the paper's central contribution (Figure 3).

Scheduling decisions are driven by four relevance functions:

``queryRelevance(q)``
    Non-starved queries (2+ available chunks) get ``-inf`` — they have work
    to do and need no help.  Starved queries are prioritised by how little
    data they still need (short queries first) with an ageing term
    ``waitingTime(q) / runningQueries()`` so long queries are not starved
    forever.

``useRelevance(c)``
    When a query picks which available chunk to consume, it prefers the chunk
    with the *fewest* interested queries, so that unpopular chunks are
    consumed (and become evictable) early.

``loadRelevance(c)``
    When loading on behalf of the chosen query, prefer chunks needed by many
    *starved* queries (weighted by ``Qmax``) and, as a tiebreak, by many
    queries overall — maximising sharing per I/O.

``keepRelevance(c)``
    When a slot must be freed, evict the chunk with the lowest keep score:
    chunks needed by queries on the border of starvation are protected, then
    chunks needed by many queries.

The :class:`RelevanceParameters` dataclass exposes the constants involved
(starvation threshold, ageing, short-query priority) so the ablation
benchmarks can switch individual ingredients off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple, Union

import numpy as _np

from repro.core.cscan import CScanHandle
from repro.core.interest import VectorInterestTracker
from repro.core.policies.base import SchedulingPolicy

#: Per-class weight tables accepted by :class:`RelevanceParameters` — either
#: a mapping or an already-normalised tuple of ``(class, value)`` pairs.
ClassWeights = Union[Mapping[str, float], Tuple[Tuple[str, float], ...]]


@dataclass(frozen=True)
class RelevanceParameters:
    """Tunable constants of the relevance policy.

    The defaults follow the paper; the ablation benchmarks override them,
    and the service layer's workload classes plug in per-class weights.
    """

    #: A query is starved when it has fewer than this many available chunks.
    starvation_threshold: int = 2
    #: A query is *almost* starved (its chunks should not be evicted) when it
    #: has at most this many available chunks.
    almost_starved_threshold: int = 2
    #: Weight separating the "starved queries" term from the "all queries"
    #: term in load/keep relevance.  Must exceed the number of concurrent
    #: queries for the lexicographic behaviour the paper intends.
    qmax: int = 1024
    #: Whether shorter queries get higher priority (paper: yes).
    prioritise_short_queries: bool = True
    #: Whether waiting time ages a starved query's priority (paper: yes).
    age_by_waiting_time: bool = True
    #: Additive ``queryRelevance`` boost per workload class (in units of
    #: chunks-needed, the score's natural scale): starved queries of a
    #: boosted class (e.g. ``{"interactive": 64.0}``) are scheduled ahead of
    #: same-aged queries of unboosted classes.  Classes absent from the
    #: table get 0.0, so the empty default changes nothing.
    class_priority: ClassWeights = ()
    #: Multiplier on the waiting-time ageing term per workload class (the
    #: per-class *starvation weight*): a class with weight > 1 escalates
    #: out of starvation faster, < 1 tolerates waiting longer.  Classes
    #: absent from the table get 1.0, so the empty default changes nothing.
    class_starvation_weight: ClassWeights = ()

    def __post_init__(self) -> None:
        if self.starvation_threshold < 1:
            raise ValueError("starvation_threshold must be >= 1")
        if self.almost_starved_threshold < self.starvation_threshold:
            raise ValueError(
                "almost_starved_threshold must be >= starvation_threshold"
            )
        if self.qmax < 2:
            raise ValueError("qmax must be >= 2")
        object.__setattr__(
            self, "class_priority", _normalise_weights(self.class_priority)
        )
        object.__setattr__(
            self,
            "class_starvation_weight",
            _normalise_weights(self.class_starvation_weight),
        )
        for _, weight in self.class_starvation_weight:
            if weight <= 0:
                raise ValueError("class starvation weights must be positive")

    def priority_of(self, query_class: str) -> float:
        """The class's additive ``queryRelevance`` boost (default 0.0)."""
        for name, value in self.class_priority:
            if name == query_class:
                return value
        return 0.0

    def starvation_weight_of(self, query_class: str) -> float:
        """The class's ageing-term multiplier (default 1.0)."""
        for name, value in self.class_starvation_weight:
            if name == query_class:
                return value
        return 1.0


def _normalise_weights(weights: ClassWeights) -> Tuple[Tuple[str, float], ...]:
    """Normalise a mapping (or pair tuple) into a sorted pair tuple, so the
    frozen dataclass stays hashable and order-insensitively comparable."""
    if isinstance(weights, Mapping):
        items = weights.items()
    else:
        items = tuple(weights)
    return tuple(sorted((str(name), float(value)) for name, value in items))


class RelevancePolicy(SchedulingPolicy):
    """Relevance-driven chunk scheduling for NSM storage."""

    name = "relevance"

    def __init__(self, parameters: RelevanceParameters | None = None) -> None:
        super().__init__()
        self.parameters = parameters or RelevanceParameters()

    # -------------------------------------------------------- starvation
    def _available_count(self, handle: CScanHandle) -> int:
        return self.abm.num_available_chunks(handle)

    def query_starved(self, handle: CScanHandle) -> bool:
        """``queryStarved`` from Figure 3 (with a configurable threshold)."""
        return self._available_count(handle) < self.parameters.starvation_threshold

    # ------------------------------------------------- relevance functions
    def query_relevance(self, handle: CScanHandle, now: float) -> float:
        """``queryRelevance``: priority of scheduling a load for this query.

        The per-class tables of :class:`RelevanceParameters` weigh in here:
        the ageing term is scaled by the class's starvation weight and the
        class's priority boost is added on top — both neutral (x1.0 / +0.0)
        for classes absent from the tables, so single-class runs score
        exactly as the paper's Figure 3.
        """
        if not self.query_starved(handle):
            return -math.inf
        parameters = self.parameters
        score = 0.0
        if parameters.prioritise_short_queries:
            score -= handle.chunks_needed
        if parameters.age_by_waiting_time:
            ageing = handle.waiting_time(now) / max(1, self.abm.num_active())
            weight = parameters.starvation_weight_of(handle.query_class)
            if weight != 1.0:
                ageing *= weight
            score += ageing
        boost = parameters.priority_of(handle.query_class)
        if boost != 0.0:
            score += boost
        return score

    def use_relevance(self, chunk: int) -> float:
        """``useRelevance``: which available chunk a query should consume."""
        return self.parameters.qmax - self.abm.interested_count(chunk)

    def load_relevance(self, chunk: int) -> float:
        """``loadRelevance``: which chunk to load for the chosen query.

        Both terms are maintained incrementally by the ABM's interest
        tracker (O(1) reads); ``tests/naive_relevance.py`` recomputes them
        with full walks as the reference oracle.
        """
        abm = self.abm
        return (
            abm.starved_interested_count(chunk) * self.parameters.qmax
            + abm.interested_count(chunk)
        )

    def keep_relevance(self, chunk: int) -> float:
        """``keepRelevance``: how valuable a buffered chunk is to keep."""
        abm = self.abm
        return (
            abm.almost_starved_interested_count(chunk) * self.parameters.qmax
            + abm.interested_count(chunk)
        )

    # --------------------------------------------------------- vector paths
    # Each decision function has a numpy twin used when the ABM runs the
    # vector interest tracker (large tables; see
    # ``repro.core.abm.VECTOR_TRACKER_MIN_CHUNKS``): the argmax/argmin over
    # candidate chunks becomes a fancy-indexed array reduction on the
    # tracker's dense counters.  Scores are integers and ties break to the
    # smallest chunk id in both forms, so the decisions are bit-identical —
    # the scheduling-equivalence tests pin that.
    def _vector_tracker(self) -> Optional[VectorInterestTracker]:
        tracker = self.abm.tracker
        return tracker if isinstance(tracker, VectorInterestTracker) else None

    #: Per-chunk score meaning "not a candidate" in the min-reduction.
    _SELECT_EXCLUDED = 2**62

    def _vector_select(self, tracker, handle: CScanHandle) -> Optional[int]:
        # The tracker's availability set is exactly needed ∩ buffered (built
        # that way at registration, kept in sync on load/evict/consume), so
        # score the whole chunk axis with non-candidates masked out — pure
        # C-side mask arithmetic, no per-call set-to-array conversion.
        counts = _np.where(
            tracker.needed_mask(handle.query_id) & tracker.buffered_mask,
            tracker.interest_values,
            self._SELECT_EXCLUDED,
        )
        best = counts.min()
        if best == self._SELECT_EXCLUDED:
            return None
        # use_relevance = qmax - interested_count: max score == min count;
        # argmax over the equality mask is the first (smallest) tied chunk.
        return int((counts == best).argmax())

    def _vector_choose_load(self, tracker, handle: CScanHandle) -> Optional[int]:
        qmax = self.parameters.qmax
        scores = _np.where(
            tracker.needed_mask(handle.query_id) & ~tracker.unloadable_mask,
            tracker.starved_values * qmax + tracker.interest_values,
            -1,
        )
        best = scores.max()
        if best < 0:
            return None
        return int((scores == best).argmax())

    def _vector_evictions(self, tracker, trigger: CScanHandle) -> Optional[List[int]]:
        chunks = _np.fromiter(
            (slot.chunk for slot in self.abm.pool.evictable_slots()), dtype=_np.int64
        )
        if chunks.size == 0:
            return None
        eligible = ~tracker.needed_mask(trigger.query_id)[chunks]
        qmax = self.parameters.qmax
        for protect_starved in (True, False):
            mask = eligible
            if protect_starved:
                mask = eligible & (tracker.starved_values[chunks] == 0)
            candidates = chunks[mask]
            if candidates.size == 0:
                continue
            scores = (
                tracker.almost_values[candidates] * qmax
                + tracker.interest_values[candidates]
            )
            return [int(candidates[scores == scores.min()].min())]
        return None

    # ------------------------------------------------------------- delivery
    def select_chunk_to_consume(self, handle: CScanHandle, now: float) -> Optional[int]:
        self.scheduling_calls += 1
        tracker = self._vector_tracker()
        if tracker is not None:
            return self._vector_select(tracker, handle)
        best_chunk: Optional[int] = None
        best_score = -math.inf
        for chunk in self.abm.available_chunks(handle):
            score = self.use_relevance(chunk)
            if score > best_score or (score == best_score and best_chunk is not None and chunk < best_chunk):
                best_score = score
                best_chunk = chunk
        return best_chunk

    # ----------------------------------------------------------------- loads
    def choose_load(self, now: float) -> Optional[Tuple[int, int]]:
        self.scheduling_calls += 1
        starved = [
            handle for handle in self.abm.starved_handles() if not handle.finished
        ]
        if not starved:
            return None
        starved.sort(key=lambda handle: self.query_relevance(handle, now), reverse=True)
        for handle in starved:
            chunk = self._choose_chunk_to_load(handle)
            if chunk is not None:
                return handle.query_id, chunk
        return None

    def _choose_chunk_to_load(self, handle: CScanHandle) -> Optional[int]:
        """``chooseChunkToLoad``: the not-yet-buffered chunk with the highest
        load relevance among those the query still needs."""
        tracker = self._vector_tracker()
        if tracker is not None:
            return self._vector_choose_load(tracker, handle)
        pool = self.abm.pool
        best_chunk: Optional[int] = None
        best_score = -math.inf
        for chunk in handle.needed:
            if pool.occupies_slot(chunk):
                continue
            score = self.load_relevance(chunk)
            if score > best_score or (score == best_score and best_chunk is not None and chunk < best_chunk):
                best_score = score
                best_chunk = chunk
        return best_chunk

    # -------------------------------------------------------------- eviction
    def choose_evictions(
        self, trigger_query: int, incoming_chunk: int, now: float
    ) -> Optional[List[int]]:
        self.scheduling_calls += 1
        abm = self.abm
        pool = abm.pool
        trigger = abm.handle(trigger_query)
        tracker = self._vector_tracker()
        if tracker is not None:
            return self._vector_evictions(tracker, trigger)

        def eligible(chunk: int, protect_starved: bool) -> bool:
            if trigger.is_interested(chunk):
                return False
            if protect_starved and abm.starved_interested_count(chunk) > 0:
                return False
            return True

        # First pass: the paper's strict rule (never evict chunks useful to a
        # starved query).  Second pass: relax that protection, because when
        # every evictable chunk is useful to some starved query, evicting the
        # least relevant one still beats idling the disk.
        for protect_starved in (True, False):
            candidates = [
                slot.chunk
                for slot in pool.evictable_slots()
                if eligible(slot.chunk, protect_starved)
            ]
            if candidates:
                victim = min(candidates, key=lambda chunk: (self.keep_relevance(chunk), chunk))
                return [victim]
        return None
