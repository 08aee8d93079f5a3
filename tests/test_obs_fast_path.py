"""The recorder's fixed-shape writers against the keyword path.

The hot emitters (ABM, event core, disk, coordinator and its NICs) resolve
their event kinds and gauge series once, when a recorder is attached, and
append fixed-shape rows into column stores.  Every scenario here runs
twice -- once with a :class:`FlightRecorder`, once with
``tests/reference_obs.py``'s :class:`KeywordFlightRecorder`, whose writers
make today's keyword calls into eagerly built events and by-name gauge
lists -- and the two must record the same events (``args`` in the same
order), the same metric names and series, the same event count and the
same number of dropped events.

Cluster scenarios are drawn from a seed (R=2 shards, hedging, a kill and
its repair, so sub-queries are cancelled); closed-stream ones run NSM and
DSM ABMs.  The recorder is also capped mid-run, built with either half
off, attached mid-run, and given a shard that never serves a query.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.cluster import ShardMap, run_cluster_service
from repro.common.config import (
    ClusterConfig,
    CoordinatorConfig,
    FailureConfig,
    FailureEvent,
    HedgeConfig,
    NetworkConfig,
    ObservabilityConfig,
    WorkloadClassConfig,
)
from repro.common.units import MB
from repro.obs import FlightRecorder, read_jsonl, to_jsonl
from repro.service import poisson_arrivals
from repro.sim.runner import ScanSimulator, run_simulation
from repro.sim.setup import make_dsm_abm, make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.workload.queries import QueryFamily, QueryTemplate, classed_templates
from repro.workload.streams import build_streams
from tests.reference_obs import KeywordFlightRecorder

TIER1_SEEDS = (0, 5)
SLOW_SEEDS = tuple(range(200, 212))
CLUSTER_CHUNKS = 48
CLUSTER_QUERIES = 40


def recorded(flight: FlightRecorder):
    """Everything the recorder exposes, in comparable form."""
    events = flight.events
    view = {
        "events": events,
        "arg_order": [list(event.args) for event in events],
        "summary": flight.summary_lines(),
    }
    if flight.trace is not None:
        view["len"] = len(flight.trace)
        view["dropped"] = flight.trace.dropped
    if flight.metrics is not None:
        names = flight.metrics.names()
        view["names"] = names
        view["series"] = {name: flight.metrics.series(name) for name in names}
    return view


def _assert_same(run, config: ObservabilityConfig):
    fast = run(FlightRecorder(config))
    oracle = run(KeywordFlightRecorder(config))
    assert recorded(fast) == recorded(oracle)
    # The JSONL export turns any tuple a writer stored undecoded into a
    # list, so an exact round trip shows every value is what the keyword
    # call sites passed.
    events = fast.events
    assert read_jsonl(to_jsonl(events)) == events
    return fast


def _assert_rows_agree(events) -> None:
    """The hot rows name their values right: the loads issued, their disk
    transfers (one per DSM column block) and their completions carry the
    same chunks, queries and bytes; each seek is followed by its transfer;
    each CPU span consumes a chunk the ABM handed to that query."""
    def rows(name, *keys):
        return Counter(
            (event.pid, *(event.args[key] for key in keys))
            for event in events if event.name == name
        )

    def bytes_by_load(name, query):
        total = Counter()
        for event in events:
            if event.name == name:
                args = event.args
                total[event.pid, args["chunk"], args[query]] += args["num_bytes"]
        return total

    issued = rows("abm.load.issue", "chunk", "query")
    assert issued
    assert rows("abm.load.complete", "chunk", "query") == issued
    assert bytes_by_load("disk.transfer", "triggered_by") == bytes_by_load(
        "abm.load.issue", "query"
    )
    seeks = [event for event in events if event.name == "disk.seek"]
    transfers = [event for event in events if event.name == "disk.transfer"]
    assert [(e.pid, e.tid, e.args["chunk"], e.ts + e.dur) for e in seeks] == [
        (e.pid, e.tid, e.args["chunk"], e.ts) for e in transfers
    ]
    attached = rows("abm.attach", "query", "chunk")
    assert rows("cpu.chunk", "query", "chunk") - attached == Counter()


# ------------------------------------------------------------------ cluster
def _cluster_run(seed, tiny_schema, small_config, kill_at=1.0, repair=True):
    """Three R=2 shards, a priced coordinator, two classes, hedging, and a
    kill at ``kill_at`` (repaired a second later unless ``repair`` is
    false); returns a function of the recorder."""
    rng = random.Random(seed)
    killed = rng.randrange(3)
    failures = (FailureEvent(kill_at, killed, "kill"),)
    if repair:
        failures += (FailureEvent(kill_at + 1.0, killed, "repair"),)
    cluster = ClusterConfig(
        shards=3,
        placement="range",
        mpl_per_shard=2,
        replicas=2,
        classes=(
            WorkloadClassConfig("interactive", weight=3.0),
            WorkloadClassConfig("batch", weight=1.0),
        ),
        coordinator=CoordinatorConfig(
            classify_s=0.001, scatter_per_subquery_s=0.001,
            gather_per_subquery_s=0.001, merge_per_query_s=0.001,
        ),
        network=NetworkConfig(bandwidth_bytes_per_s=500 * MB,
                              per_message_s=0.0002),
        hedge=HedgeConfig(quantile=0.8, min_samples=4),
        failures=FailureConfig(events=failures),
    )
    shard_map = ShardMap.from_cluster_config(cluster, CLUSTER_CHUNKS)
    tuples_per_chunk = small_config.buffer.chunk_bytes // 32

    def layout(chunks: int) -> NSMTableLayout:
        return NSMTableLayout.from_buffer_config(
            tiny_schema, chunks * tuples_per_chunk, small_config.buffer
        )

    fast = QueryFamily("F", cpu_per_chunk=0.002)
    slow = QueryFamily("S", cpu_per_chunk=0.02)
    templates = classed_templates(
        (QueryTemplate(fast, 12.5),), "interactive"
    ) + classed_templates((QueryTemplate(slow, 25),), "batch")

    def run(flight):
        abms = [
            make_nsm_abm(layout(shard_map.chunks_owned(shard)), small_config,
                         "relevance", capacity_chunks=4)
            for shard in range(3)
        ]
        arrivals = poisson_arrivals(
            templates, layout(CLUSTER_CHUNKS), rate_qps=12.0,
            num_queries=CLUSTER_QUERIES, seed=seed,
        )
        result = run_cluster_service(arrivals, small_config, abms, cluster,
                                     obs=flight)
        assert result.slo.completed == CLUSTER_QUERIES
        assert result.availability.kills == 1
        assert result.availability.hedges_fired > 0
        return flight

    return run


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_cluster_rows_match_the_keyword_path(seed, tiny_schema, small_config):
    flight = _assert_same(
        _cluster_run(seed, tiny_schema, small_config), ObservabilityConfig()
    )
    events = flight.events
    assert {"abm.evict", "cluster.hedge.fire", "cluster.shard.kill",
            "coordinator.net.scatter", "disk.transfer"} <= {
        event.name for event in events
    }
    _assert_rows_agree(events)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_cluster_rows_match_the_keyword_path_more_seeds(
    seed, tiny_schema, small_config
):
    _assert_same(
        _cluster_run(seed, tiny_schema, small_config), ObservabilityConfig()
    )


@pytest.mark.parametrize("config", [
    ObservabilityConfig(trace=False),
    ObservabilityConfig(metrics=False),
    ObservabilityConfig(trace=False, metrics=False),
], ids=["metrics-only", "trace-only", "neither"])
def test_one_half_off(config, tiny_schema, small_config):
    _assert_same(_cluster_run(3, tiny_schema, small_config), config)


def test_cap_reached_mid_run(tiny_schema, small_config):
    run = _cluster_run(1, tiny_schema, small_config)
    total = len(run(FlightRecorder()).trace)
    flight = _assert_same(run, ObservabilityConfig(max_trace_events=total // 3))
    assert len(flight.trace) == total // 3
    assert flight.trace.dropped == total - total // 3


def test_idle_shard_leaves_no_abm_series(tiny_schema, small_config):
    """A shard killed before the first arrival and never repaired serves
    no query: its ABM's hit-rate and starved-queries gauges never fire,
    so neither series exists."""
    run = _cluster_run(2, tiny_schema, small_config, kill_at=0.0, repair=False)
    flight = _assert_same(run, ObservabilityConfig())
    (kill,) = [e for e in flight.events if e.name == "cluster.shard.kill"]
    idle = f"shard{kill.args['shard']}"
    names = flight.metrics.names()
    assert f"{idle}.abm.hit_rate" not in names
    assert f"{idle}.abm.starved_queries" not in names
    assert any(name.endswith(".abm.hit_rate") for name in names)


# ------------------------------------------------------------ closed streams
def _closed_run(abm_factory, templates, layout, config, attach_after=None):
    """Four streams of three queries; with ``attach_after``, the recorder
    is attached to the simulator after that many steps."""

    def run(flight):
        streams = build_streams(templates, layout, 4, 3, seed=7)
        if attach_after is None:
            run_simulation(streams, config, abm_factory(), obs=flight)
            return flight
        simulator = ScanSimulator(streams, config, abm_factory())
        simulator.begin_run()
        steps = 0
        while not simulator.is_done():
            if steps == attach_after:
                simulator.attach_observability(flight)
            simulator.step(simulator.next_step_time())
            steps += 1
        assert steps > attach_after
        simulator.finish()
        return flight

    return run


def _nsm(nsm_layout, small_config, policy, attach_after=None):
    fast = QueryFamily("F", cpu_per_chunk=0.002)
    slow = QueryFamily("S", cpu_per_chunk=0.02)
    templates = [QueryTemplate(fast, 25), QueryTemplate(slow, 60)]
    config = small_config.with_volumes(2)
    return _closed_run(
        lambda: make_nsm_abm(nsm_layout, config, policy, capacity_chunks=6),
        templates, nsm_layout, config, attach_after,
    )


def _dsm(dsm_layout, small_config, policy, attach_after=None):
    narrow = QueryFamily("F", cpu_per_chunk=0.002, columns=("key", "price"))
    wide = QueryFamily("S", cpu_per_chunk=0.02, columns=("key", "ref", "date"))
    templates = [QueryTemplate(narrow, 25), QueryTemplate(wide, 60)]
    capacity = max(8, int(dsm_layout.table_pages() * 0.3))
    return _closed_run(
        lambda: make_dsm_abm(dsm_layout, small_config, policy,
                             capacity_pages=capacity),
        templates, dsm_layout, small_config, attach_after,
    )


@pytest.mark.parametrize("policy", ["normal", "attach", "elevator", "relevance"])
def test_nsm_rows_match_the_keyword_path(policy, nsm_layout, small_config):
    flight = _assert_same(_nsm(nsm_layout, small_config, policy),
                          ObservabilityConfig())
    events = flight.events
    assert any(event.name == "abm.evict" for event in events)
    _assert_rows_agree(events)


@pytest.mark.parametrize("policy", ["normal", "attach", "elevator", "relevance"])
def test_dsm_rows_match_the_keyword_path(policy, dsm_layout, small_config):
    flight = _assert_same(_dsm(dsm_layout, small_config, policy),
                          ObservabilityConfig())
    events = flight.events
    assert any(event.name == "abm.evict" for event in events)
    _assert_rows_agree(events)


def test_recorder_attached_mid_run(nsm_layout, dsm_layout, small_config):
    for run in (_nsm(nsm_layout, small_config, "relevance", attach_after=40),
                _dsm(dsm_layout, small_config, "relevance", attach_after=40)):
        flight = _assert_same(run, ObservabilityConfig())
        assert len(flight.trace) > 0
