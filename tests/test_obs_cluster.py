"""One flight recorder spanning the cluster: front door, shards, volumes."""

import pytest

from repro.cluster import ShardMap
from repro.cluster.coordinator import run_cluster_service
from repro.common.config import ClusterConfig, ObservabilityConfig
from repro.obs import (
    FlightRecorder,
    chrome_trace,
    read_jsonl,
    to_jsonl,
    validate_chrome_trace,
)
from repro.obs.events import PH_ASYNC_BEGIN, PH_ASYNC_END, PH_METADATA
from repro.service import poisson_arrivals
from repro.sim.results import scheduling_fingerprint
from repro.sim.setup import make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.workload.queries import QueryFamily, QueryTemplate

SHARDS = 4
NUM_QUERIES = 8


@pytest.fixture
def workload(tiny_schema, nsm_layout, small_config):
    fast = QueryFamily("F", cpu_per_chunk=0.002)
    templates = (QueryTemplate(fast, 25), QueryTemplate(fast, 100))
    arrivals = poisson_arrivals(
        templates, nsm_layout, 1.5, NUM_QUERIES, seed=13
    )
    cluster = ClusterConfig(shards=SHARDS, placement="range", mpl_per_shard=2)
    shard_map = ShardMap.from_cluster_config(cluster, nsm_layout.num_chunks)
    tuples_per_chunk = small_config.buffer.chunk_bytes // 32

    def shard_abms():
        return [
            make_nsm_abm(
                NSMTableLayout.from_buffer_config(
                    tiny_schema,
                    shard_map.chunks_owned(shard) * tuples_per_chunk,
                    small_config.buffer,
                ),
                small_config,
                "relevance",
            )
            for shard in range(SHARDS)
        ]

    return arrivals, cluster, shard_abms


def _run(workload, config, obs):
    arrivals, cluster, shard_abms = workload
    return run_cluster_service(arrivals, config, shard_abms(), cluster, obs=obs)


class TestClusterTracingChangesNothing:
    def test_fingerprints_and_slo_identical(self, workload, small_config):
        plain = _run(workload, small_config, obs=None)
        traced = _run(workload, small_config, obs=ObservabilityConfig())
        for shard, (a, b) in enumerate(
            zip(plain.shard_runs, traced.shard_runs)
        ):
            assert scheduling_fingerprint(a) == scheduling_fingerprint(b), (
                f"tracing changed shard {shard}"
            )
        assert plain.slo.as_dict() == traced.slo.as_dict()
        assert plain.obs is None and traced.obs is not None


class TestClusterTrace:
    @pytest.fixture
    def traced(self, workload, small_config):
        return _run(workload, small_config, obs=ObservabilityConfig())

    @pytest.fixture
    def events(self, traced):
        """The traced run's events, built once (each read rebuilds them)."""
        return traced.obs.events

    def test_one_process_track_per_shard_plus_frontdoor(self, events):
        pids = {event.pid for event in events}
        assert pids == {"frontdoor"} | {
            f"shard{index}" for index in range(SHARDS)
        }

    def test_scatter_and_gather_bracket_every_query(self, events):
        scatters = [e for e in events if e.name == "cluster.scatter"]
        gathers = [e for e in events if e.name == "cluster.gather"]
        assert len(scatters) == NUM_QUERIES
        assert len(gathers) == NUM_QUERIES
        gathered_at = {e.args["query"]: e.ts for e in gathers}
        for scatter in scatters:
            assert scatter.args["subqueries"] >= 1
            assert gathered_at[scatter.args["query"]] >= scatter.ts - 1e-9

    def test_subquery_completions_count_down_to_gather(self, events):
        completions = [e for e in events if e.name == "cluster.subquery.complete"]
        scatters = [e for e in events if e.name == "cluster.scatter"]
        expected = sum(event.args["subqueries"] for event in scatters)
        assert len(completions) == expected
        assert sum(
            1 for event in completions if event.args["remaining"] == 0
        ) == NUM_QUERIES

    def test_shard_lifecycles_pair_up(self, events):
        for shard in range(SHARDS):
            begins = [e.id for e in events
                      if e.pid == f"shard{shard}" and e.ph == PH_ASYNC_BEGIN]
            ends = [e.id for e in events
                    if e.pid == f"shard{shard}" and e.ph == PH_ASYNC_END]
            assert sorted(begins) == sorted(ends)

    def test_chrome_export_shows_shards_as_processes(self, traced, events):
        payload = chrome_trace(events, traced.obs.metrics)
        assert validate_chrome_trace(payload) >= len(events)
        process_names = {
            record["args"]["name"]
            for record in payload["traceEvents"]
            if record["ph"] == PH_METADATA
            and record["name"] == "process_name"
        }
        for shard in range(SHARDS):
            assert f"shard{shard}" in process_names
        assert "frontdoor" in process_names

    def test_jsonl_round_trips(self, events):
        assert read_jsonl(to_jsonl(events)) == events

    def test_shard_runs_report_scheduling_counters(self, traced):
        # Figure 8's counters are per shard run; every shard that executed
        # a sub-query timed its ABM calls and counted its decisions.
        busy = [run for run in traced.shard_runs if run.queries]
        assert busy
        for run in busy:
            assert run.scheduling_calls > 0
            assert run.scheduling_seconds > 0.0
        assert sum(run.scheduling_calls for run in traced.shard_runs) == sum(
            run.scheduling_calls for run in busy
        )

    def test_sharing_one_recorder_across_runs(self, workload, small_config):
        # Passing a pre-built recorder (instead of a config) appends to it.
        flight = FlightRecorder()
        first = _run(workload, small_config, obs=flight)
        assert first.obs is flight
        count = len(flight.trace)
        second = _run(workload, small_config, obs=flight)
        assert second.obs is flight
        assert len(flight.trace) == 2 * count
