"""Host-drift calibration: a fixed pure-stdlib kernel timed around each rep.

On a shared host the same code can run 1.5x slower an hour later, and the
process's CPU time moves with wall-clock (neighbours slow the core, they do
not preempt the process), so no raw timing can gate a change.  The kernel
does the same kind of work as the simulator's event core (heap pushes and
pops, dict updates, float arithmetic) on a fixed input, so its wall-clock
tracks how fast the host runs interpreted code.  A run scales its timings by
``REF_KERNEL_S`` over the fastest kernel timing taken between its reps: like
the fastest rep of each input, the fastest kernel is the host at its least
disturbed during the run.
"""

from __future__ import annotations

import heapq
import time

#: Fastest kernel seconds on the reference host (a 2-vCPU x86-64 VM,
#: CPython 3.11).  Fixed, so calibrated numbers from different runs share
#: one scale.
REF_KERNEL_S = 0.057

_ITERATIONS = 60_000
_ROUNDS = 3


def _kernel(iterations: int) -> float:
    heap: list = []
    table: dict = {}
    acc = 0.0
    x = 12345
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x & 0xFFFF, i))
        key = x & 0x3FFF
        table[key] = table.get(key, 0.0) + i * 0.5
        if len(heap) > 512:
            acc += heapq.heappop(heap)[0] * 1e-3
    return acc + len(table)


def kernel_seconds() -> float:
    """Wall-clock of the fastest of a few kernel rounds."""
    times = []
    for _ in range(_ROUNDS):
        started = time.perf_counter()
        _kernel(_ITERATIONS)
        times.append(time.perf_counter() - started)
    return min(times)
