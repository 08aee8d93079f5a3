"""The event-driven lockstep driver against its probe-everything oracle.

:class:`repro.sim.lockstep.LockstepRunner` re-probes only the shards that
stepped or that the coordinator reported as touched.  Every scenario here
runs twice through :func:`repro.cluster.run_cluster_service` — once on the
real driver, once on ``tests/reference_lockstep.py``, which re-probes every
live shard every round — and every output must agree exactly: per-shard
scheduling fingerprints, gathered records, SLO dicts, availability reports
and the number of global rounds.

Scenarios are drawn from a seed over shards (1, 3, 8), replication (1, 2),
one or two workload classes, a free or priced coordinator, seeded
kill/repair schedules plus a degrade, and hedging.  Tier-1 runs a small
fixed seed set that provably covers every axis; ``-m slow`` runs more.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

import repro.cluster.coordinator as coordinator_module
from repro.cluster import ShardMap, random_failure_schedule, run_cluster_service
from repro.common.config import (
    ClusterConfig,
    CoordinatorConfig,
    FailureConfig,
    FailureEvent,
    HedgeConfig,
    NetworkConfig,
    WorkloadClassConfig,
)
from repro.common.units import MB
from repro.service import poisson_arrivals
from repro.sim.lockstep import LockstepRunner
from repro.sim.results import scheduling_fingerprint
from repro.sim.setup import make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.workload.queries import QueryFamily, QueryTemplate, classed_templates
from tests.reference_lockstep import ReferenceLockstepRunner

NUM_CHUNKS = 48
NUM_QUERIES = 40
SHARD_CHOICES = (1, 3, 8)

#: Tier-1 seeds; ``test_tier1_seeds_cover_every_axis`` pins their coverage.
TIER1_SEEDS = (1, 5, 6, 12, 16, 27, 44)
SLOW_SEEDS = tuple(range(100, 140))


@dataclass(frozen=True)
class Scenario:
    seed: int
    shards: int
    replicas: int
    classed: bool
    priced: bool
    failures: bool
    hedged: bool


def draw(seed: int) -> Scenario:
    rng = random.Random(seed)
    shards = rng.choice(SHARD_CHOICES)
    return Scenario(
        seed=seed,
        shards=shards,
        replicas=rng.choice((1, 2)) if shards > 1 else 1,
        classed=rng.random() < 0.5,
        priced=rng.random() < 0.5,
        failures=rng.random() < 0.5,
        hedged=rng.random() < 0.5,
    )


def _failures(scenario: Scenario) -> FailureConfig:
    """Two seeded kill/repair pairs, plus a degrade that is repaired."""
    if not scenario.failures:
        return FailureConfig()
    schedule = random_failure_schedule(
        scenario.shards, kills=2, start=0.6, spacing=0.8, downtime=0.5,
        seed=scenario.seed, degrade_factor=0.3,
    )
    victims = {event.shard for event in schedule.events}
    degraded = random.Random(scenario.seed).randrange(scenario.shards)
    events = list(schedule.events)
    events.append(FailureEvent(0.3, degraded, "degrade"))
    if degraded not in victims:
        # A kill resets a degraded shard; otherwise repair it explicitly.
        events.append(FailureEvent(2.4, degraded, "repair"))
    return FailureConfig(
        events=tuple(sorted(events, key=lambda event: event.time)),
        degrade_factor=schedule.degrade_factor,
    )


def _cluster(scenario: Scenario) -> ClusterConfig:
    knobs = {}
    if scenario.classed:
        knobs["classes"] = (
            WorkloadClassConfig("interactive", weight=4.0),
            WorkloadClassConfig("batch", weight=1.0),
        )
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
    if scenario.hedged:
        knobs["hedge"] = HedgeConfig(quantile=0.8, min_samples=4)
    return ClusterConfig(
        shards=scenario.shards,
        placement="range",
        mpl_per_shard=2,
        replicas=scenario.replicas,
        failures=_failures(scenario),
        **knobs,
    )


def _layout(tiny_schema, small_config, chunks: int) -> NSMTableLayout:
    tuples = chunks * (small_config.buffer.chunk_bytes // 32)
    return NSMTableLayout.from_buffer_config(
        tiny_schema, tuples, small_config.buffer
    )


def _arrivals(scenario: Scenario, layout):
    fast = QueryFamily("F", cpu_per_chunk=0.002)
    slow = QueryFamily("S", cpu_per_chunk=0.02)
    templates = (QueryTemplate(fast, 12.5), QueryTemplate(slow, 25))
    if scenario.classed:
        templates = classed_templates(templates[:1], "interactive") + (
            classed_templates(templates[1:], "batch")
        )
    return poisson_arrivals(
        templates, layout, rate_qps=12.0, num_queries=NUM_QUERIES,
        seed=scenario.seed,
    )


def run_under(driver, scenario: Scenario, tiny_schema, small_config):
    """One cluster run with ``driver`` as the lockstep runner class;
    returns ``(result, rounds)``."""
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
    arrivals = _arrivals(scenario, _layout(tiny_schema, small_config, NUM_CHUNKS))
    runners = []

    class Recording(driver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runners.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coordinator_module, "LockstepRunner", Recording)
        result = run_cluster_service(arrivals, small_config, abms, cluster)
    (runner,) = runners
    return result, runner.rounds


def outputs(result, rounds):
    return (
        [scheduling_fingerprint(run) for run in result.shard_runs],
        [(record.query_id, record.finish_time) for record in result.records],
        result.slo.as_dict(),
        result.availability,
        rounds,
    )


def _check(seed, tiny_schema, small_config):
    scenario = draw(seed)
    result, rounds = run_under(LockstepRunner, scenario, tiny_schema, small_config)
    assert result.slo.completed == NUM_QUERIES, scenario
    if scenario.failures:
        assert result.availability.kills == 2, scenario
    oracle, oracle_rounds = run_under(
        ReferenceLockstepRunner, scenario, tiny_schema, small_config
    )
    assert outputs(result, rounds) == outputs(oracle, oracle_rounds), scenario


def test_tier1_seeds_cover_every_axis():
    drawn = [draw(seed) for seed in TIER1_SEEDS]
    assert {scenario.shards for scenario in drawn} == set(SHARD_CHOICES)
    for axis in ("classed", "priced", "failures", "hedged"):
        assert {getattr(scenario, axis) for scenario in drawn} == {False, True}
    assert {scenario.replicas for scenario in drawn} == {1, 2}
    # Hedges and kills only race real replicas with R = 2.
    assert any(
        scenario.replicas == 2 and scenario.hedged and scenario.failures
        for scenario in drawn
    )


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_driver_matches_oracle(seed, tiny_schema, small_config):
    _check(seed, tiny_schema, small_config)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_driver_matches_oracle_more_seeds(seed, tiny_schema, small_config):
    _check(seed, tiny_schema, small_config)
