"""Lockstep execution of several scan simulators on one shared clock.

The cluster layer (:mod:`repro.cluster`) runs one :class:`ScanSimulator` per
shard — each with its own ABM, disk volumes and event heaps — but the shards
serve sub-queries of the *same* front-door queries, so their clocks must stay
consistent: a sub-query scattered at (global) time ``t`` must not land on a
shard whose clock already passed ``t``.

:class:`LockstepRunner` guarantees that by advancing the fleet one global
event at a time: each round it takes the global minimum of the simulators'
next event times (:meth:`ScanSimulator.next_step_time`) and steps exactly
the simulators whose event is due at that minimum.  Simulators with later
events are left untouched, so their clocks never pass the global frontier,
and any sub-query scattered during the round carries a timestamp at (or
after) the frontier.

The frontier is event-driven.  Each simulator's last probe result sits in a
heap keyed by time (stale entries are dropped lazily), and a simulator is
re-probed only when its answer may have changed:

* it stepped in the previous round;
* the ``message_source`` reported it as *touched*
  (``take_touched() -> Optional[set]``, ``None`` meaning every shard): the
  coordinator appended to or removed from its pending buffer, cancelled one
  of its queries, moved the front door's next arrival time (which every
  shard's probe includes), or drained;
* an interrupt fired (every simulator counts as touched).

A simulator nobody touched would answer its probe exactly as before — its
clock, queries, disk and source are as they were — so skipping the probe
changes no event: the frontier sequence, every step and every scheduling
decision are those of a driver that re-probes the whole fleet every round.
Per-round driver cost grows with the number of stepped or touched
simulators, not with the fleet size.  Finished simulators are never probed.

Because a fleet of one is stepped on every round, a single simulator driven
by :class:`LockstepRunner` executes the exact event sequence of
:meth:`ScanSimulator.run` — the cluster's 1-shard golden-trace equivalence
rests on this.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.obs.recorder import FlightRecorder, ObservabilityLike, build_flight_recorder
from repro.sim.results import RunResult
from repro.sim.runner import _EPS, _MAX_EVENTS, ScanSimulator


class LockstepRunner:
    """Advances several :class:`ScanSimulator` instances on one clock.

    When ``obs`` is given (an :class:`ObservabilityConfig` or an existing
    :class:`FlightRecorder`), one shared flight recorder is attached to every
    simulator that does not already carry one, labelling shard ``i``'s events
    with the process ``"shard{i}"`` — every shard's spans land in one trace
    on the shared clock.

    ``message_source`` (in practice the cluster coordinator) couples the
    simulators.  Its ``earliest_in_flight() -> Optional[float]`` is checked
    against the frontier each round, so a shard clock can never pass a
    scatter that is still on the wire (the shards' own probes already
    surface those deliveries, so the check is an invariant guard, not a
    behaviour change).  Its optional ``take_touched() -> Optional[set]``
    returns the indices of the simulators whose probe it may have changed
    since the last call (``None``: all of them); a source without it must
    not change any simulator's probe.

    ``interrupts`` are external frontier-event sources (failure injectors,
    hedge monitors): anything with ``next_event_time() -> Optional[float]``
    and ``fire(now) -> None``.  Their times join the frontier candidates
    exactly like in-flight messages, and a due interrupt fires *before* any
    simulator steps at that instant — a kill scheduled at the same time as
    a scatter delivery deterministically wins the race.  After firing, the
    round restarts with every simulator re-probed (the interrupt may have
    created, cancelled or re-routed work on any shard).

    :attr:`rounds` counts the global rounds of the last :meth:`run`.
    """

    def __init__(
        self,
        simulators: Sequence[ScanSimulator],
        obs: ObservabilityLike = None,
        message_source=None,
        interrupts: Sequence = (),
    ) -> None:
        if not simulators:
            raise SimulationError("lockstep runner needs at least one simulator")
        self._simulators = list(simulators)
        self._message_source = message_source
        self._interrupts = list(interrupts)
        self.rounds = 0
        self.flight_recorder: Optional[FlightRecorder] = None
        recorder = build_flight_recorder(obs)
        if recorder is not None:
            for index, simulator in enumerate(self._simulators):
                if simulator.flight_recorder is None:
                    simulator.attach_observability(recorder, f"shard{index}")
            self.flight_recorder = recorder
        else:
            for simulator in self._simulators:
                if simulator.flight_recorder is not None:
                    self.flight_recorder = simulator.flight_recorder
                    break

    def run(self) -> List[RunResult]:
        """Execute every simulator to completion; returns one result each."""
        simulators = self._simulators
        everyone = range(len(simulators))
        source = self._message_source
        take_touched = getattr(source, "take_touched", None)
        for simulator in simulators:
            simulator.begin_run()
        # cached[i] is simulator i's last probe (None: idle or finished);
        # a heap entry (time, i) is live only while cached[i] == time.
        cached: List[Optional[float]] = [None] * len(simulators)
        heap: List[Tuple[float, int]] = []
        probe: Sequence[int] = everyone
        rounds = 0
        while True:
            if take_touched is not None:
                touched = take_touched()
                if touched is None:
                    probe = everyone
                elif touched:
                    probe = sorted(touched.union(probe))
            for index in probe:
                simulator = simulators[index]
                time = None if simulator.is_done() else simulator.next_step_time()
                if time is not None and time != cached[index]:
                    heapq.heappush(heap, (time, index))
                cached[index] = time
            while heap and cached[heap[0][1]] != heap[0][0]:
                heapq.heappop(heap)
            # A stale entry (a touched simulator whose probe moved) leaves
            # the heap only at its top; rebuild once they dominate, so the
            # heap stays within a constant factor of the fleet.
            if len(heap) > 2 * len(simulators) + 32:
                heap = [(time, i) for i, time in enumerate(cached) if time is not None]
                heapq.heapify(heap)
            if not heap and all(simulator.is_done() for simulator in simulators):
                break
            rounds += 1
            if rounds > _MAX_EVENTS:
                raise SimulationError(
                    f"lockstep simulation exceeded {_MAX_EVENTS} rounds; "
                    "likely a scheduling livelock"
                )
            interrupt_times = [
                (when, interrupt)
                for interrupt in self._interrupts
                for when in (interrupt.next_event_time(),)
                if when is not None
            ]
            candidates = [when for when, _ in interrupt_times]
            if heap:
                candidates.append(heap[0][0])
            in_flight = source.earliest_in_flight() if source is not None else None
            if not candidates:
                self._raise_deadlock(in_flight)
            frontier = min(candidates)
            if in_flight is not None and frontier > in_flight + _EPS:
                raise SimulationError(
                    f"lockstep frontier {frontier:.6f} passed an undelivered "
                    f"coordinator message due at {in_flight:.6f}"
                )
            # Interrupts due at the frontier fire before any simulator
            # steps there, then the round restarts with fresh probes: the
            # interrupt may have cancelled or re-routed work anywhere.
            fired = False
            for when, interrupt in interrupt_times:
                while when is not None and when <= frontier + _EPS:
                    interrupt.fire(when)
                    fired = True
                    when = interrupt.next_event_time()
            if fired:
                probe = everyone
                continue
            due: List[Tuple[int, float]] = []
            while heap and heap[0][0] <= frontier + _EPS:
                time, index = heapq.heappop(heap)
                if cached[index] == time:
                    cached[index] = None
                    due.append((index, time))
            due.sort()
            for index, time in due:
                simulators[index].step(time)
            probe = [index for index, _ in due]
        self.rounds = rounds
        return [simulator.finish() for simulator in simulators]

    def _raise_deadlock(self, in_flight: Optional[float]) -> None:
        """No simulator and no interrupt has an event, yet work remains.

        Every unfinished simulator is re-probed once first: one that now
        reports an event was changed without the touch that should have
        re-probed it, which is a driver-contract bug, not a deadlock.
        """
        simulators = self._simulators
        for index, simulator in enumerate(simulators):
            if simulator.is_done():
                continue
            fresh = simulator.next_step_time()
            if fresh is not None:
                raise SimulationError(
                    f"lockstep frontier missed a touch on shard {index} "
                    f"(cached idle, fresh probe {fresh:.6f})"
                )
        detail = "; ".join(
            f"shard {index}: {simulator.progress_summary()}"
            for index, simulator in enumerate(simulators)
            if not simulator.is_done()
        )
        if in_flight is not None:
            detail += (
                f"; earliest undelivered coordinator message "
                f"due at {in_flight:.6f}"
            )
        stall = getattr(self._message_source, "stall_detail", None)
        if stall is not None:
            extra = stall()
            if extra:
                detail += f"; {extra}"
        raise SimulationError(f"cluster deadlock: {detail}")
