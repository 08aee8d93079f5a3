"""Starvation-flip events from the tracker's noted flips against the sweep.

With a flight recorder attached, the ABMs re-check only the queries whose
starved flag the interest tracker saw flip since the last eviction or load
completion.  Every scenario here runs twice -- once on that path, once with
``tests/reference_obs.py``'s sweep over every registered query swapped in
-- and the recorded trace events and every ``*.abm.starved_queries`` gauge
series must agree exactly.

Closed-stream scenarios are drawn from a seed over buffer size, volumes,
streams and stream length, and run every NSM policy (relevance on both
trackers) and every DSM policy.  The cluster scenarios run three R=2 shards
with hedging and a kill, so sub-queries are cancelled mid-scan.  Tier-1
runs a few seeds; ``-m slow`` runs more.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.cluster import ShardMap, run_cluster_service
from repro.common.config import (
    ClusterConfig,
    FailureConfig,
    FailureEvent,
    HedgeConfig,
    ObservabilityConfig,
)
from repro.common.errors import SimulationError
from repro.obs import FlightRecorder
from repro.service import poisson_arrivals
from repro.sim.runner import run_simulation
from repro.sim.setup import make_dsm_abm, make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.workload.queries import QueryFamily, QueryTemplate
from repro.workload.streams import build_streams
from tests.naive_relevance import use_scalar_tracker, use_vector_tracker
from tests.reference_obs import use_sweep_oracle

TIER1_SEEDS = (0, 3, 7)
SLOW_SEEDS = tuple(range(100, 120))

NSM_VARIANTS = {
    "normal": ("normal", None),
    "attach": ("attach", None),
    "elevator": ("elevator", None),
    "relevance-dict": ("relevance", use_scalar_tracker),
    "relevance-numpy": ("relevance", use_vector_tracker),
}
DSM_POLICIES = ("normal", "attach", "elevator", "relevance")


@dataclass(frozen=True)
class Scenario:
    seed: int
    buffer_fraction: float
    volumes: int
    streams: int
    queries_per_stream: int


def draw(seed: int) -> Scenario:
    rng = random.Random(seed)
    return Scenario(
        seed=seed,
        buffer_fraction=rng.choice((0.1, 0.2, 0.3, 0.45)),
        volumes=rng.choice((1, 2)),
        streams=rng.randint(3, 6),
        queries_per_stream=rng.randint(2, 3),
    )


def starvation_view(flight: FlightRecorder):
    """The trace events and every ABM starved-queries gauge series."""
    series = {
        name: flight.metrics.series(name)
        for name in flight.metrics.names()
        if name.endswith(".abm.starved_queries")
    }
    return flight.events, series


def _flips(flight: FlightRecorder) -> int:
    return sum(
        event.name in ("abm.starved", "abm.unstarved") for event in flight.events
    )


def _run_closed(abm, templates, layout, scenario: Scenario, config, oracle: bool):
    if oracle:
        use_sweep_oracle(abm)
    streams = build_streams(
        templates, layout, scenario.streams, scenario.queries_per_stream,
        seed=scenario.seed,
    )
    flight = FlightRecorder()
    try:
        run_simulation(streams, config, abm, obs=flight)
    except SimulationError as error:
        # Relevance can deadlock at the smallest buffers (a known simulator
        # defect); both paths must then stop at the same point.
        flight.instant("run.error", "test", 0.0, "test", "test", error=str(error))
    return flight


def _nsm_flight(seed, variant, nsm_layout, small_config, oracle):
    scenario = draw(seed)
    policy, pin_tracker = NSM_VARIANTS[variant]
    config = small_config.with_volumes(scenario.volumes)
    capacity = max(2, int(nsm_layout.num_chunks * scenario.buffer_fraction))
    abm = make_nsm_abm(nsm_layout, config, policy, capacity_chunks=capacity)
    if pin_tracker is not None:
        pin_tracker(abm)
    fast = QueryFamily("F", cpu_per_chunk=0.002)
    slow = QueryFamily("S", cpu_per_chunk=0.02)
    templates = [
        QueryTemplate(fast, 10), QueryTemplate(fast, 50), QueryTemplate(slow, 100),
    ]
    return _run_closed(abm, templates, nsm_layout, scenario, config, oracle)


def _dsm_flight(seed, policy, dsm_layout, small_config, oracle):
    scenario = draw(seed)
    config = small_config.with_volumes(scenario.volumes)
    capacity = max(8, int(dsm_layout.table_pages() * scenario.buffer_fraction))
    abm = make_dsm_abm(dsm_layout, config, policy, capacity_pages=capacity)
    narrow = QueryFamily("F", cpu_per_chunk=0.002, columns=("key", "price"))
    medium = QueryFamily("G", cpu_per_chunk=0.004, columns=("price", "flag"))
    wide = QueryFamily("S", cpu_per_chunk=0.02, columns=("key", "ref", "date"))
    templates = [
        QueryTemplate(narrow, 10), QueryTemplate(medium, 50), QueryTemplate(wide, 100),
    ]
    return _run_closed(abm, templates, dsm_layout, scenario, config, oracle)


def _assert_closed_equivalent(run, seed, variants, layout, small_config) -> int:
    flips = 0
    for variant in variants:
        expected = run(seed, variant, layout, small_config, oracle=True)
        actual = run(seed, variant, layout, small_config, oracle=False)
        assert starvation_view(actual) == starvation_view(expected), (seed, variant)
        flips += _flips(actual)
    return flips


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_nsm_flips_match_the_sweep(seed, nsm_layout, small_config):
    flips = _assert_closed_equivalent(
        _nsm_flight, seed, NSM_VARIANTS, nsm_layout, small_config
    )
    assert flips > 0


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_dsm_flips_match_the_sweep(seed, dsm_layout, small_config):
    flips = _assert_closed_equivalent(
        _dsm_flight, seed, DSM_POLICIES, dsm_layout, small_config
    )
    assert flips > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_closed_flips_match_the_sweep_more_seeds(
    seed, nsm_layout, dsm_layout, small_config
):
    _assert_closed_equivalent(
        _nsm_flight, seed, NSM_VARIANTS, nsm_layout, small_config
    )
    _assert_closed_equivalent(
        _dsm_flight, seed, DSM_POLICIES, dsm_layout, small_config
    )


# ------------------------------------------------------------------ cluster
CLUSTER_CHUNKS = 48
CLUSTER_SHARDS = 3
CLUSTER_QUERIES = 40


def _cluster_run(seed, tiny_schema, small_config, oracle):
    """Three R=2 shards, hedging and a kill at 1.0 s repaired at 2.0 s;
    returns the recorder and how many sub-queries the ABMs cancelled."""
    cluster = ClusterConfig(
        shards=CLUSTER_SHARDS,
        placement="range",
        mpl_per_shard=2,
        replicas=2,
        hedge=HedgeConfig(quantile=0.8, min_samples=4),
        failures=FailureConfig(events=(
            FailureEvent(1.0, seed % CLUSTER_SHARDS, "kill"),
            FailureEvent(2.0, seed % CLUSTER_SHARDS, "repair"),
        )),
    )
    shard_map = ShardMap.from_cluster_config(cluster, CLUSTER_CHUNKS)
    tuples_per_chunk = small_config.buffer.chunk_bytes // 32

    def layout(chunks: int) -> NSMTableLayout:
        return NSMTableLayout.from_buffer_config(
            tiny_schema, chunks * tuples_per_chunk, small_config.buffer
        )

    abms = [
        make_nsm_abm(layout(shard_map.chunks_owned(shard)), small_config,
                     "relevance", capacity_chunks=4)
        for shard in range(CLUSTER_SHARDS)
    ]
    cancelled = []
    for abm in abms:
        if oracle:
            use_sweep_oracle(abm)
        cancel = abm.cancel

        def counting(query_id, now, cancel=cancel):
            cancelled.append(query_id)
            return cancel(query_id, now)

        abm.cancel = counting
    fast = QueryFamily("F", cpu_per_chunk=0.002)
    slow = QueryFamily("S", cpu_per_chunk=0.02)
    arrivals = poisson_arrivals(
        (QueryTemplate(fast, 12.5), QueryTemplate(slow, 25)),
        layout(CLUSTER_CHUNKS), rate_qps=12.0, num_queries=CLUSTER_QUERIES,
        seed=seed,
    )
    result = run_cluster_service(
        arrivals, small_config, abms, cluster, obs=ObservabilityConfig()
    )
    assert result.slo.completed == CLUSTER_QUERIES
    assert result.availability.kills == 1
    assert result.availability.hedges_fired > 0
    return result.obs, len(cancelled)


def _assert_cluster_equivalent(seed, tiny_schema, small_config) -> None:
    expected, _ = _cluster_run(seed, tiny_schema, small_config, oracle=True)
    actual, cancels = _cluster_run(seed, tiny_schema, small_config, oracle=False)
    assert cancels > 0, seed
    assert _flips(actual) > 0, seed
    assert starvation_view(actual) == starvation_view(expected), seed


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_cluster_flips_match_the_sweep(seed, tiny_schema, small_config):
    _assert_cluster_equivalent(seed, tiny_schema, small_config)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_cluster_flips_match_the_sweep_more_seeds(seed, tiny_schema, small_config):
    _assert_cluster_equivalent(seed, tiny_schema, small_config)


def test_recorder_attached_mid_run_catches_up(nsm_layout, small_config):
    """Queries registered before the recorder attaches start noted, so the
    first re-check reports their state as the sweep would."""
    from repro.core.cscan import ScanRequest

    views = []
    for oracle in (True, False):
        abm = make_nsm_abm(nsm_layout, small_config, "relevance", capacity_chunks=4)
        for query_id in range(3):
            abm.register(
                ScanRequest(query_id, f"q{query_id}", range(8 * query_id, 8 * query_id + 8)),
                0.0,
            )
        if oracle:
            use_sweep_oracle(abm)
        flight = FlightRecorder()
        abm.attach_observability(flight)
        operation = abm.next_load(1.0)
        abm.complete_load(operation, 2.0)
        views.append(starvation_view(flight))
    assert views[0] == views[1]
    assert any(event.name == "abm.starved" for event in views[1][0])
