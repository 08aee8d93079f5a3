"""Reference oracle for the ABM's starvation-flip events: sweep every query.

With a flight recorder attached, an ABM emits an ``abm.starved`` /
``abm.unstarved`` instant and a ``<process>.abm.starved_queries`` gauge
sample each time a query's starvation state flips.  After each eviction
and each load completion it re-checks only the queries whose starved flag
the interest tracker saw flip (:meth:`_BaseABM._obs_starvation_flips`).
The oracle here answers the same question the obvious way -- re-check
every registered query, in registration order -- so it is correct by
inspection: it is the sweep the ABM made before the tracker noted flips.

:func:`use_sweep_oracle` swaps it in on an ABM; the starvation oracle tests
then compare the recorded events and gauge series.

This module imports nothing from pytest or ``tests/conftest.py``.
"""

from __future__ import annotations


def use_sweep_oracle(abm):
    """Make ``abm`` re-check every registered handle where it would
    re-check only the noted flips.  Returns ``abm`` for chaining."""

    def sweep(now: float) -> None:
        for handle in abm._handles.values():
            abm._obs_starvation_update(handle, now)

    abm._obs_starvation_flips = sweep
    return abm
