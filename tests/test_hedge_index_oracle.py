"""The coordinator's hedge index against the walk it replaced.

:meth:`ClusterCoordinator.next_hedge_time` answers from a heap of original
copies keyed by ``(scatter_time, sub_id)``: entries at the top are popped
once their copy is gone or ineligible, and kills and repairs rebuild the
heap.  ``tests/reference_hedging.py`` keeps the walk over every
outstanding copy as the oracle.  Two kinds of checks pin the index to it:

* seeded hedged clusters (R = 2 and 3, a free or priced coordinator,
  seeded and hand-written kill/repair/degrade schedules) run once on the
  index, with every threshold, every ``next_hedge_time`` answer and every
  ``fire_hedges`` call checked against the oracle as it happens, and once
  on the oracle itself; both runs must produce identical records,
  availability counters, SLO dicts and per-shard fingerprints;
* hand-driven coordinators walk the transitions the index must survive:
  a killed hedge copy, the only alternative replica killed and repaired,
  a re-scatter whose ``scatter_time`` is out of dispatch order, and no
  answer without a hedge policy or before ``min_samples``.

Tier-1 runs a small fixed seed set that covers every axis; ``-m slow``
runs more.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

import pytest

from repro.cluster import ShardMap, random_failure_schedule, run_cluster_service
from repro.cluster.coordinator import ClusterCoordinator
from repro.common.config import (
    ClusterConfig,
    CoordinatorConfig,
    FailureConfig,
    FailureEvent,
    HedgeConfig,
    NetworkConfig,
)
from repro.common.units import MB
from repro.net.resources import CoordinatorResources
from repro.service import Arrival, poisson_arrivals
from repro.service.admission import AdmissionController
from repro.sim.results import scheduling_fingerprint
from repro.sim.setup import make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.workload.queries import QueryFamily, QueryTemplate
from tests.conftest import make_request
from tests.reference_hedging import (
    oracle_due_hedges,
    oracle_fire_hedges,
    oracle_hedge_threshold,
    oracle_next_hedge_time,
)

NUM_CHUNKS = 48
NUM_QUERIES = 40
SHARD_CHOICES = (3, 4, 6)
#: ``random``: two seeded kill/repair pairs plus a repaired degrade;
#: ``overlap``: two adjacent shards down at once (R = 2 orphans a range)
#: while a third is degraded; ``degrade``: one permanent straggler.
SCHEDULES = ("random", "overlap", "degrade")

#: Tier-1 seeds; ``test_tier1_seeds_cover_every_axis`` pins their coverage.
TIER1_SEEDS = (4, 5, 6, 7, 8, 10, 15)
SLOW_SEEDS = tuple(range(100, 140))


@dataclass(frozen=True)
class Scenario:
    seed: int
    shards: int
    replicas: int
    priced: bool
    schedule: str
    quantile: float


def draw(seed: int) -> Scenario:
    rng = random.Random(seed)
    return Scenario(
        seed=seed,
        shards=rng.choice(SHARD_CHOICES),
        replicas=rng.choice((2, 3)),
        priced=rng.random() < 0.5,
        schedule=rng.choice(SCHEDULES),
        quantile=rng.choice((0.5, 0.8)),
    )


def _failures(scenario: Scenario) -> FailureConfig:
    shards = scenario.shards
    first = random.Random(scenario.seed).randrange(shards)
    if scenario.schedule == "degrade":
        return FailureConfig(
            events=(FailureEvent(0.2, first, "degrade"),), degrade_factor=0.2
        )
    if scenario.schedule == "overlap":
        second = (first + 1) % shards
        third = (first + 2) % shards
        events = (
            FailureEvent(0.4, first, "kill"),
            FailureEvent(0.5, third, "degrade"),
            FailureEvent(0.7, second, "kill"),
            FailureEvent(1.3, first, "repair"),
            FailureEvent(1.6, second, "repair"),
            FailureEvent(2.0, third, "repair"),
        )
        return FailureConfig(events=events, degrade_factor=0.3)
    schedule = random_failure_schedule(
        shards, kills=2, start=0.6, spacing=0.8, downtime=0.5,
        seed=scenario.seed, degrade_factor=0.3,
    )
    events = list(schedule.events)
    events.append(FailureEvent(0.3, first, "degrade"))
    if first not in {event.shard for event in schedule.events}:
        events.append(FailureEvent(2.4, first, "repair"))
    return FailureConfig(
        events=tuple(sorted(events, key=lambda event: event.time)),
        degrade_factor=schedule.degrade_factor,
    )


def _cluster(scenario: Scenario) -> ClusterConfig:
    knobs = {}
    if scenario.priced:
        knobs["coordinator"] = CoordinatorConfig(
            classify_s=0.002,
            scatter_per_subquery_s=0.002,
            gather_per_subquery_s=0.002,
            merge_per_query_s=0.002,
        )
        knobs["network"] = NetworkConfig(
            bandwidth_bytes_per_s=1000 * MB, per_message_s=0.0002
        )
    return ClusterConfig(
        shards=scenario.shards,
        placement="range",
        mpl_per_shard=2,
        replicas=scenario.replicas,
        failures=_failures(scenario),
        hedge=HedgeConfig(quantile=scenario.quantile, min_samples=4),
        **knobs,
    )


def _layout(tiny_schema, small_config, chunks: int) -> NSMTableLayout:
    tuples = chunks * (small_config.buffer.chunk_bytes // 32)
    return NSMTableLayout.from_buffer_config(
        tiny_schema, tuples, small_config.buffer
    )


def _run(scenario: Scenario, tiny_schema, small_config):
    cluster = _cluster(scenario)
    shard_map = ShardMap.from_cluster_config(cluster, NUM_CHUNKS)
    abms = [
        make_nsm_abm(
            _layout(tiny_schema, small_config, shard_map.chunks_owned(shard)),
            small_config,
            "relevance",
            capacity_chunks=4,
        )
        for shard in range(scenario.shards)
    ]
    templates = (
        QueryTemplate(QueryFamily("F", cpu_per_chunk=0.002), 12.5),
        QueryTemplate(QueryFamily("S", cpu_per_chunk=0.02), 25),
    )
    arrivals = poisson_arrivals(
        templates,
        _layout(tiny_schema, small_config, NUM_CHUNKS),
        rate_qps=12.0,
        num_queries=NUM_QUERIES,
        seed=scenario.seed,
    )
    return run_cluster_service(arrivals, small_config, abms, cluster)


def run_checked(scenario: Scenario, tiny_schema, small_config):
    """Run on the index, checking every hedge decision against the oracle
    as it is made; returns ``(result, counts)``."""
    counts = {"deadlines": 0, "fired": 0}
    #: Completed sub-query latencies in completion order, unsorted.
    sample: List[float] = []
    real_complete = ClusterCoordinator.complete_subquery
    real_threshold = ClusterCoordinator._hedge_threshold
    real_next = ClusterCoordinator.next_hedge_time
    real_fire = ClusterCoordinator.fire_hedges

    def complete_subquery(self, shard, sub_id, now):
        sample.append(now - self._subs[(shard, sub_id)].scatter_time)
        return real_complete(self, shard, sub_id, now)

    def hedge_threshold(self):
        threshold = real_threshold(self)
        assert threshold == oracle_hedge_threshold(self, sample)
        return threshold

    def next_hedge_time(self):
        answer = real_next(self)
        assert answer == oracle_next_hedge_time(self)
        counts["deadlines"] += answer is not None
        return answer

    def fire_hedges(self, now):
        expected = [sub.sub_id for sub in oracle_due_hedges(self, now)]
        before = set(self._subs)
        real_fire(self, now)
        fired = [
            sub.hedge_of for key, sub in self._subs.items() if key not in before
        ]
        assert fired == expected
        counts["fired"] += len(fired)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ClusterCoordinator, "complete_subquery", complete_subquery)
        patch.setattr(ClusterCoordinator, "_hedge_threshold", hedge_threshold)
        patch.setattr(ClusterCoordinator, "next_hedge_time", next_hedge_time)
        patch.setattr(ClusterCoordinator, "fire_hedges", fire_hedges)
        result = _run(scenario, tiny_schema, small_config)
    return result, counts


def run_oracle(scenario: Scenario, tiny_schema, small_config):
    """Run with the walk deciding every hedge."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ClusterCoordinator, "next_hedge_time", oracle_next_hedge_time)
        patch.setattr(ClusterCoordinator, "fire_hedges", oracle_fire_hedges)
        return _run(scenario, tiny_schema, small_config)


def outputs(result):
    return (
        [scheduling_fingerprint(run) for run in result.shard_runs],
        result.records,
        result.slo.as_dict(),
        result.availability,
    )


def _check(seed, tiny_schema, small_config):
    scenario = draw(seed)
    result, counts = run_checked(scenario, tiny_schema, small_config)
    assert result.slo.completed == NUM_QUERIES, scenario
    # The checks above saw real work: deadlines answered, hedges fired.
    assert counts["deadlines"] > 0 and counts["fired"] > 0, (scenario, counts)
    assert counts["fired"] == result.availability.hedges_fired, scenario
    if scenario.schedule != "degrade":
        assert result.availability.kills == 2, scenario
    assert outputs(result) == outputs(
        run_oracle(scenario, tiny_schema, small_config)
    ), scenario


def test_tier1_seeds_cover_every_axis():
    drawn = [draw(seed) for seed in TIER1_SEEDS]
    assert {scenario.shards for scenario in drawn} == set(SHARD_CHOICES)
    assert {scenario.replicas for scenario in drawn} == {2, 3}
    assert {scenario.priced for scenario in drawn} == {False, True}
    assert {scenario.schedule for scenario in drawn} == set(SCHEDULES)
    # Two adjacent shards down at once orphans a range only with R = 2,
    # and leaves copies with exactly one live alternative with R = 3.
    assert {
        scenario.replicas for scenario in drawn if scenario.schedule == "overlap"
    } == {2, 3}


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_index_matches_oracle(seed, tiny_schema, small_config):
    _check(seed, tiny_schema, small_config)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_index_matches_oracle_more_seeds(seed, tiny_schema, small_config):
    _check(seed, tiny_schema, small_config)


# ------------------------------------------------- hand-driven transitions
class _StubShard:
    """Stands in for a shard simulator: the coordinator only cancels
    sub-queries on it and rescales its disk."""

    def cancel_query(self, query_id, now):
        pass

    def set_disk_bandwidth_scale(self, scale):
        pass


#: Any overdue copy is hedged as soon as one sub-query has completed.
EAGER = HedgeConfig(quantile=0.5, multiplier=1.0, min_samples=1)


def _coordinator(arrivals, replicas, hedge=EAGER, priced=False):
    """A 4-shard coordinator over 8 chunks (primary ``p`` owns chunks
    ``2p`` and ``2p + 1``), its shards stubbed out."""
    knobs = {}
    if priced:
        knobs["coordinator"] = CoordinatorConfig(
            classify_s=0.5,
            scatter_per_subquery_s=0.01,
            gather_per_subquery_s=0.01,
            merge_per_query_s=0.01,
        )
        knobs["network"] = NetworkConfig(
            bandwidth_bytes_per_s=1000 * MB, per_message_s=0.001
        )
    cluster = ClusterConfig(
        shards=4, mpl_per_shard=4, replicas=replicas, hedge=hedge, **knobs
    )
    resources = None
    if priced:
        resources = CoordinatorResources(cluster.coordinator, cluster.network, 4)
    coordinator = ClusterCoordinator(
        arrivals,
        ShardMap.from_cluster_config(cluster, 8),
        AdmissionController(cluster.front_service()),
        resources=resources,
        hedge=hedge,
    )
    coordinator.attach_shards([_StubShard() for _ in range(4)])
    return coordinator


def _arrivals(*queries):
    """``(time, chunks)`` pairs as arrivals with query ids 1, 2, ..."""
    return [
        Arrival(time, make_request(query_id, chunks))
        for query_id, (time, chunks) in enumerate(queries, start=1)
    ]


def _copies(coordinator, query_id):
    return [sub for sub in coordinator._subs.values() if sub.query_id == query_id]


def _complete(coordinator, query_id, now):
    for sub in _copies(coordinator, query_id):
        coordinator.complete_subquery(sub.shard, sub.sub_id, now)


def _deadline(coordinator):
    answer = coordinator.next_hedge_time()
    assert answer == oracle_next_hedge_time(coordinator)
    return answer


class TestHedgeIndexTransitions:
    def test_killed_hedge_copy_makes_its_original_eligible_again(self):
        # R = 3: query 1's chunks live on shards 0, 1 and 2.
        coordinator = _coordinator(
            _arrivals((0.0, [0, 1]), (0.0, [4, 5])), replicas=3
        )
        coordinator.pump(0.0)
        (original,) = _copies(coordinator, 1)
        assert original.shard == 0
        _complete(coordinator, 2, 1.0)  # threshold = 1.0
        assert _deadline(coordinator) == 1.0
        coordinator.fire_hedges(1.0)
        assert coordinator.hedges_fired == 1
        (hedge,) = [sub for sub in _copies(coordinator, 1) if sub.hedge_of]
        assert hedge.shard == 1
        # Racing a hedge, the original is not eligible: the index pops it.
        assert _deadline(coordinator) is None
        # Killing the hedge's shard leaves the original the sole copy with
        # shard 2 still live, so it is overdue again, from the kill on.
        coordinator.kill_shard(1, 1.5)
        assert _copies(coordinator, 1) == [original]
        assert _deadline(coordinator) == 1.5
        coordinator.fire_hedges(1.5)
        assert coordinator.hedges_fired == 2
        assert [sub.shard for sub in _copies(coordinator, 1)] == [0, 2]

    def test_only_alternative_killed_then_repaired(self):
        # R = 2: query 1's chunks live on shards 0 and 1 only; query 2's
        # (primary 2) on shards 2 and 3.
        coordinator = _coordinator(
            _arrivals((0.0, [0, 1]), (0.0, [4, 5])), replicas=2
        )
        coordinator.pump(0.0)
        _complete(coordinator, 2, 1.0)
        assert _deadline(coordinator) == 1.0
        coordinator.kill_shard(1, 1.2)
        assert _deadline(coordinator) is None
        coordinator.fire_hedges(1.2)
        assert coordinator.hedges_fired == 0
        coordinator.repair_shard(1, 2.0)
        assert _deadline(coordinator) == 2.0
        coordinator.fire_hedges(2.0)
        assert [sub.shard for sub in _copies(coordinator, 1)] == [0, 1]

    def test_rescatter_out_of_dispatch_order_yields_the_true_minimum(self):
        # A priced coordinator classifies one query per 0.5 s, so queries
        # 1, 2 and 3 are scattered at about 0.5, 1.0 and 1.5.  Killing
        # query 2's shard at 0.3 re-scatters it at its own ready time
        # (1.0), dispatched after query 3's copy (1.5).
        coordinator = _coordinator(
            _arrivals((0.0, [6, 7]), (0.0, [0, 1]), (0.0, [2, 3])),
            replicas=3,
            priced=True,
        )
        coordinator.pump(0.0)
        (second,) = _copies(coordinator, 2)
        (third,) = _copies(coordinator, 3)
        assert second.scatter_time < third.scatter_time
        coordinator.kill_shard(second.shard, 0.3)
        (rescattered,) = _copies(coordinator, 2)
        assert rescattered.origin == "rescatter"
        assert rescattered.scatter_time == second.scatter_time
        _complete(coordinator, 1, 0.6)
        dispatched = [sub.scatter_time for sub in coordinator._subs.values()]
        assert dispatched == [third.scatter_time, rescattered.scatter_time]
        threshold = coordinator._hedge_threshold()
        assert _deadline(coordinator) == max(
            rescattered.scatter_time + threshold, coordinator._clock
        )
        assert _deadline(coordinator) < third.scatter_time + threshold

    def test_no_answer_without_a_policy_or_before_min_samples(self):
        queries = ((0.0, [0, 1]), (0.0, [2, 3]), (0.0, [4, 5]), (0.0, [6, 7]))
        unhedged = _coordinator(_arrivals(*queries), replicas=2, hedge=None)
        unhedged.pump(0.0)
        _complete(unhedged, 1, 1.0)
        assert _deadline(unhedged) is None
        unhedged.fire_hedges(5.0)
        assert unhedged.hedges_fired == 0
        # Without a policy the coordinator keeps no candidates at all.
        assert unhedged._hedge_heap == []

        warming = _coordinator(
            _arrivals(*queries),
            replicas=2,
            hedge=HedgeConfig(quantile=0.5, min_samples=3),
        )
        warming.pump(0.0)
        _complete(warming, 1, 1.0)
        _complete(warming, 2, 2.0)
        assert _deadline(warming) is None
        warming.fire_hedges(5.0)
        assert warming.hedges_fired == 0
        _complete(warming, 3, 3.0)
        # Latencies 1, 2, 3: the median is 2, and query 4 was scattered
        # at 0.
        assert _deadline(warming) == 3.0
