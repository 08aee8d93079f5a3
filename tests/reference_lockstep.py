"""Reference oracle for the lockstep driver: probe every shard every round.

:class:`repro.sim.lockstep.LockstepRunner` re-probes only the simulators
that stepped or that its message source reported as touched, trusting the
coordinator's ``take_touched`` contract.  :class:`ReferenceLockstepRunner`
trusts nothing: every round it asks every live simulator for its next
event time, takes the global minimum and steps the simulators due there,
so it is correct by inspection.  The driver-equivalence tests run the same
seeded cluster scenarios under both and compare every output.

:func:`walk_earliest_in_flight` is the matching oracle for the
coordinator's :meth:`~repro.cluster.coordinator.ClusterCoordinator.earliest_in_flight`,
which keeps its answer until a pending buffer changes: it walks every
shard's pending buffer on each call.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import SimulationError
from repro.sim.lockstep import LockstepRunner
from repro.sim.results import RunResult
from repro.sim.runner import _EPS, _MAX_EVENTS


class ReferenceLockstepRunner(LockstepRunner):
    """Drop-in :class:`LockstepRunner` that re-probes the whole fleet each
    round (same constructor, same :attr:`rounds` count)."""

    def run(self) -> List[RunResult]:
        simulators = self._simulators
        for simulator in simulators:
            simulator.begin_run()
        rounds = 0
        while not all(simulator.is_done() for simulator in simulators):
            rounds += 1
            if rounds > _MAX_EVENTS:
                raise SimulationError(
                    f"lockstep simulation exceeded {_MAX_EVENTS} rounds; "
                    "likely a scheduling livelock"
                )
            # Finished simulators are skipped outright: once a shard's
            # source is drained it can never receive another sub-query, so
            # probing it (which would invoke its ABM's policy via the disk
            # kick) only inflates its per-run scheduling statistics.
            times: List[Optional[float]] = [
                None if simulator.is_done() else simulator.next_step_time()
                for simulator in simulators
            ]
            live = [time for time in times if time is not None]
            interrupt_times = [
                (when, source)
                for source in self._interrupts
                for when in (source.next_event_time(),)
                if when is not None
            ]
            candidates = live + [when for when, _ in interrupt_times]
            in_flight = (
                self._message_source.earliest_in_flight()
                if self._message_source is not None
                else None
            )
            if not candidates:
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
            for when, source in interrupt_times:
                while when is not None and when <= frontier + _EPS:
                    source.fire(when)
                    fired = True
                    when = source.next_event_time()
            if fired:
                continue
            for simulator, time in zip(simulators, times):
                if time is not None and time <= frontier + _EPS:
                    simulator.step(time)
        self.rounds = rounds
        return [simulator.finish() for simulator in simulators]


def walk_earliest_in_flight(coordinator) -> Optional[float]:
    """The earliest delivery time at the head of any shard's pending
    buffer, found by walking all of them."""
    times = [queue[0][0] for queue in coordinator._pending if queue]
    return min(times) if times else None
