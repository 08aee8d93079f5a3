"""The simulator's ABM call contract and Figure 8's timing counters.

The simulator drives an ABM through seven calls (``register``,
``select_chunk``, ``next_load``, ``complete_load``, ``finish_chunk``,
``unregister``, ``cancel``) and times each one inline into
``RunResult.scheduling_seconds``.  These tests wrap an ABM so every call is
logged by name, then pin how often the simulator makes each call and that
the timer sees the calls of every policy.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from repro.cluster import ShardMap, run_cluster_service
from repro.common.config import ClusterConfig, FailureConfig, FailureEvent
from repro.core.policies import POLICY_NAMES
from repro.service import Arrival
from repro.sim.runner import run_simulation
from repro.sim.setup import make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.workload.queries import QueryFamily, QueryTemplate
from repro.workload.streams import build_streams
from tests.conftest import make_request

ABM_CALLS = (
    "register",
    "select_chunk",
    "next_load",
    "complete_load",
    "finish_chunk",
    "unregister",
    "cancel",
)

NUM_CHUNKS = 32


def count_abm_calls(abm):
    """Log every call made on ``abm``'s seven simulator-facing methods.

    Returns ``{method: [first positional argument, ...]}``; the first
    argument is the query id (the request for ``register``, the operation
    for ``complete_load``, the clock for ``next_load``).
    """
    calls = {name: [] for name in ABM_CALLS}
    for name in ABM_CALLS:
        method = getattr(abm, name)

        def counted(*args, _method=method, _log=calls[name]):
            _log.append(args[0])
            return _method(*args)

        setattr(abm, name, counted)
    return calls


def _streams(layout):
    fast = QueryFamily("F", cpu_per_chunk=0.002)
    slow = QueryFamily("S", cpu_per_chunk=0.02)
    templates = [QueryTemplate(fast, 10), QueryTemplate(slow, 50)]
    return build_streams(templates, layout, 3, 2, seed=5)


def _run_single_node(layout, config, policy):
    abm = make_nsm_abm(layout, config, policy, capacity_chunks=8)
    calls = count_abm_calls(abm)
    started = time.perf_counter()
    result = run_simulation(_streams(layout), config, abm)
    wall = time.perf_counter() - started
    return result, calls, wall


class TestSingleNodeCalls:
    def test_one_register_and_unregister_per_completed_query(
        self, nsm_layout, small_config
    ):
        result, calls, _ = _run_single_node(
            nsm_layout, small_config, "relevance"
        )
        completed = sorted(query.query_id for query in result.queries)
        assert len(completed) == 6
        registered = [request.query_id for request in calls["register"]]
        assert sorted(registered) == completed
        assert sorted(calls["unregister"]) == completed
        assert calls["cancel"] == []
        assert len(calls["select_chunk"]) > 0

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_scheduling_seconds_times_every_policy(
        self, nsm_layout, small_config, policy
    ):
        # ``normal`` counts no decisions, yet its ABM calls are still timed.
        result, calls, wall = _run_single_node(nsm_layout, small_config, policy)
        assert len(calls["select_chunk"]) > 0
        assert 0.0 < result.scheduling_seconds <= wall


class TestClusterCancelCalls:
    def test_one_cancel_per_cancelled_query(self, tiny_schema, small_config):
        cluster = ClusterConfig(
            shards=4,
            mpl_per_shard=2,
            replicas=2,
            failures=FailureConfig(
                events=(
                    FailureEvent(0.05, 1, "kill"),
                    FailureEvent(5.0, 1, "repair"),
                )
            ),
        )
        shard_map = ShardMap.from_cluster_config(cluster, NUM_CHUNKS)
        tuples_per_chunk = small_config.buffer.chunk_bytes // 32
        abms = [
            make_nsm_abm(
                NSMTableLayout.from_buffer_config(
                    tiny_schema,
                    shard_map.chunks_owned(shard) * tuples_per_chunk,
                    small_config.buffer,
                ),
                small_config,
                "relevance",
                capacity_chunks=4,
            )
            for shard in range(cluster.shards)
        ]
        shard_calls = [count_abm_calls(abm) for abm in abms]
        arrivals = [
            Arrival(at, make_request(index + 1, range(NUM_CHUNKS),
                                     name="F", cpu_per_chunk=0.001))
            for index, at in enumerate([0.0, 0.4, 6.0])
        ]
        result = run_cluster_service(arrivals, small_config, abms, cluster)
        assert len(result.records) == 3

        total_cancels = 0
        for run, calls in zip(result.shard_runs, shard_calls):
            registered = {request.query_id for request in calls["register"]}
            completed = {query.query_id for query in run.queries}
            # Every registered query that did not complete was cancelled,
            # exactly once.
            assert Counter(calls["cancel"]) == Counter(registered - completed)
            total_cancels += len(calls["cancel"])
        assert total_cancels >= 1
