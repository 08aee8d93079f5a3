"""Edge-case pins for the observability helpers.

The empty-input paths of the run's two scheduling counters
(``RunResult.scheduling_seconds`` / ``scheduling_calls``) are load-bearing
for reports on idle runs (a policy that counts no decisions); these tests
pin the all-zeros behaviour so a refactor can't silently reintroduce a
division by zero.
"""

from __future__ import annotations

import pytest

from repro.sim.results import RunResult


def _hand_built(**counters) -> RunResult:
    return RunResult(
        policy="relevance", total_time=2.0, io_requests=0, bytes_read=0,
        cpu_utilisation=0.0, queries=[], streams=[], **counters,
    )


class TestSchedulingCounterEdges:
    def test_per_decision_seconds_with_zero_calls(self):
        # ``normal`` counts no decisions but its ABM calls are still timed.
        result = _hand_built(scheduling_seconds=0.5, scheduling_calls=0)
        assert result.per_decision_seconds == 0.0
        assert result.scheduling_fraction == pytest.approx(0.25)

    def test_per_decision_seconds_divides_seconds_by_calls(self):
        result = _hand_built(scheduling_seconds=0.002, scheduling_calls=4)
        assert result.per_decision_seconds == pytest.approx(0.0005)

    def test_hand_built_result_has_zero_counters(self):
        result = _hand_built()
        assert result.scheduling_seconds == 0.0
        assert result.scheduling_calls == 0
        assert result.per_decision_seconds == 0.0
        assert result.scheduling_fraction == 0.0
