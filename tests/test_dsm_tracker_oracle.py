"""The DSM interest tracker against its walk-everything oracle, on
generated scenarios.

:class:`repro.core.interest.DSMInterestTracker` answers the DSM policies'
per-chunk column questions (overlap counts and column unions, useful and
almost-starved columns, unrequested blocks, ready times, unwanted chunks)
from counters kept up to date by the ABM and pool events.
``tests/naive_relevance.py`` answers each of them by walking the
registered handles and the pool.  Every DSM policy runs the seeded
scenarios of ``tests/test_dsm_eviction_oracle.py`` once with each, and the
two runs must make the same eviction calls with the same victims and end
with the same scheduling fingerprint -- or, where the small buffers
deadlock a run (seed 28), fail with the same error.

Tier-1 runs the fixed seed set; ``-m slow`` adds the slow seeds.
"""

from __future__ import annotations

import pytest

from tests.test_dsm_eviction_oracle import (
    POLICIES,
    SLOW_SEEDS,
    TIER1_SEEDS,
    _run,
    draw,
)


def _assert_equivalent(seed: int, dsm_layout, small_config) -> list:
    scenario = draw(seed)
    outcomes = []
    for policy in POLICIES:
        expected, naive_calls = _run(
            scenario, policy, dsm_layout, small_config, oracle=False, naive=True
        )
        actual, tracker_calls = _run(
            scenario, policy, dsm_layout, small_config, oracle=False
        )
        assert tracker_calls == naive_calls, (scenario, policy)
        assert actual == expected, (scenario, policy)
        outcomes.append(actual)
    return outcomes


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_tracker_and_oracle_schedule_identically(seed, dsm_layout, small_config):
    outcomes = _assert_equivalent(seed, dsm_layout, small_config)
    if seed == 28:
        # The deadlocking scenario must keep failing, on both sides.
        assert any(outcome[0] == "error" for outcome in outcomes)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_tracker_and_oracle_schedule_identically_slow(
    seed, dsm_layout, small_config
):
    _assert_equivalent(seed, dsm_layout, small_config)
