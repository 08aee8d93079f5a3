"""Scatter/gather behaviour of the cluster layer.

Covers the shard-map geometry and planner (single-shard, all-shard and
skewed chunk sets, both placements, local-id translation), the coordinator's
gather logic when sub-queries finish out of shard order, front-queue gating
(a query frees its MPL slot only when its *last* sub-query completes), and
the construction-time validation of mismatched shard tables.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterCoordinator, ShardMap, run_cluster_service
from repro.cluster.coordinator import ClusterQueryRecord, ShardSource
from repro.common.config import ClusterConfig, ServiceConfig
from repro.common.errors import ConfigurationError, SimulationError
from repro.service.admission import AdmissionController
from repro.service.arrivals import Arrival
from repro.sim.setup import make_nsm_abm
from repro.storage.nsm import NSMTableLayout

from tests.conftest import make_request


class TestShardMapGeometry:
    def test_range_placement_partitions_contiguously(self):
        shard_map = ShardMap(num_chunks=8, num_shards=2, placement="range")
        assert shard_map._stored == ((0, 1, 2, 3), (4, 5, 6, 7))
        assert shard_map.describe()["shard_sizes"] == [4, 4]

    def test_range_placement_local_ids_start_at_zero(self):
        shard_map = ShardMap(num_chunks=8, num_shards=2, placement="range")
        assert [shard_map.local_chunk_on(1, chunk) for chunk in (4, 5, 6, 7)] == [
            0, 1, 2, 3
        ]

    def test_striped_placement_round_robins(self):
        shard_map = ShardMap(num_chunks=6, num_shards=2, placement="striped")
        assert shard_map._stored == ((0, 2, 4), (1, 3, 5))
        assert shard_map.local_chunk_on(1, 5) == 2

    def test_uneven_range_last_shard_short(self):
        shard_map = ShardMap(num_chunks=10, num_shards=4, placement="range")
        assert shard_map.describe()["shard_sizes"] == [3, 3, 3, 1]

    def test_rejects_unknown_placement(self):
        with pytest.raises(ConfigurationError):
            ShardMap(num_chunks=8, num_shards=2, placement="hashed")

    def test_rejects_empty_shards(self):
        # More shards than chunks can never work...
        with pytest.raises(ConfigurationError, match="at least"):
            ShardMap(num_chunks=4, num_shards=8, placement="range")
        # ...and range placement's ceil-division can starve trailing shards
        # even with shards <= chunks (10 across 6 leaves shard 5 empty).
        with pytest.raises(ConfigurationError, match="no chunks"):
            ShardMap(num_chunks=10, num_shards=6, placement="range")
        # The same split works striped, where every shard keeps >= 1 chunk.
        assert ShardMap(10, 6, "striped").describe()["shard_sizes"] == [
            2, 2, 2, 2, 1, 1
        ]

    def test_validate_shard_tables(self):
        shard_map = ShardMap(num_chunks=8, num_shards=2, placement="range")
        shard_map.validate_shard_tables((4, 4))
        with pytest.raises(ConfigurationError):
            shard_map.validate_shard_tables((4, 5))
        with pytest.raises(ConfigurationError):
            shard_map.validate_shard_tables((4, 4, 4))


def _plan(shard_map, spec):
    """Materialise every chunk group of ``spec`` on its primary shard under
    the query's own id — how the coordinator scatters on an unreplicated
    map."""
    return {
        primary: shard_map.sub_request(spec, chunks, primary, spec.query_id)
        for primary, chunks in shard_map.plan_groups(spec).items()
    }


class TestPlanning:
    def test_single_shard_query_yields_identical_subquery(self):
        shard_map = ShardMap(num_chunks=8, num_shards=2, placement="range")
        spec = make_request(1, [0, 1, 2], cpu_per_chunk=0.5, columns=("a", "b"))
        plan = _plan(shard_map, spec)
        assert list(plan) == [0]
        assert plan[0] == spec  # same chunks, columns, cpu, id, name

    def test_all_shards_query_splits_everywhere(self):
        shard_map = ShardMap(num_chunks=8, num_shards=4, placement="range")
        spec = make_request(2, range(8))
        plan = _plan(shard_map, spec)
        assert list(plan) == [0, 1, 2, 3]
        for shard, sub in plan.items():
            assert sub.chunks == (0, 1)
            assert sub.query_id == 2

    def test_skewed_range_splits_unevenly(self):
        shard_map = ShardMap(num_chunks=8, num_shards=2, placement="range")
        spec = make_request(3, [3, 4, 5, 6, 7])
        plan = _plan(shard_map, spec)
        assert plan[0].chunks == (3,)
        assert plan[1].chunks == (0, 1, 2, 3)

    def test_striped_plan_translates_to_local_ids(self):
        shard_map = ShardMap(num_chunks=6, num_shards=2, placement="striped")
        spec = make_request(4, [1, 2, 3, 5])
        plan = _plan(shard_map, spec)
        assert plan[0].chunks == (1,)        # global 2 -> local 1
        assert plan[1].chunks == (0, 1, 2)   # globals 1, 3, 5
        assert list(plan) == [0, 1]

    def test_one_shard_map_is_identity(self):
        shard_map = ShardMap(num_chunks=8, num_shards=1, placement="range")
        spec = make_request(5, [2, 5, 7])
        assert _plan(shard_map, spec) == {0: spec}


def _coordinator(specs_and_times, max_concurrent=1, num_chunks=8, shards=2):
    shard_map = ShardMap(num_chunks=num_chunks, num_shards=shards, placement="range")
    arrivals = [Arrival(time=time, spec=spec) for time, spec in specs_and_times]
    admission = AdmissionController(ServiceConfig(max_concurrent=max_concurrent))
    return ClusterCoordinator(arrivals, shard_map, admission), admission


class TestGatherOrdering:
    def test_out_of_shard_order_completion(self):
        """The gather must wait for the *last* sub-query, whichever shard
        finishes first, and only then release the front-door slot."""
        first = make_request(0, range(8))   # touches both shards
        second = make_request(1, [0, 1])    # shard 0 only, queued behind
        coordinator, admission = _coordinator([(0.0, first), (0.1, second)])

        coordinator.pump(0.0)  # the event loop pumps at each arrival's time
        assert [a.spec.query_id for a in coordinator.take_pending(0, 0.0)] == [0]
        assert [a.spec.query_id for a in coordinator.take_pending(1, 0.0)] == [0]
        coordinator.pump(0.1)  # second arrival: MPL slot taken, it queues
        assert admission.active == 1 and admission.queue_len == 1

        # Shard 1 (the higher shard) finishes first: nothing is gathered yet.
        assert coordinator.complete_subquery(1, 0, 1.0) == []
        assert coordinator.records == []
        assert not coordinator.drained()

        # Shard 0 finishes last: the query completes at *this* time, the
        # queued query is admitted and its shard-0 piece starts directly.
        released = coordinator.complete_subquery(0, 0, 2.5)
        assert [a.spec.query_id for a in released] == [1]
        (record,) = coordinator.records
        assert record.finish_time == 2.5
        assert record.shards == (0, 1)
        assert record.queue_wait == 0.0
        assert coordinator.drained()

    def test_release_scatters_to_other_shards_via_pending(self):
        first = make_request(0, [0, 1])      # shard 0 only
        second = make_request(1, [4, 5])     # shard 1 only
        coordinator, admission = _coordinator([(0.0, first), (0.0, second)])

        coordinator.pump(0.0)
        assert coordinator.take_pending(0, 0.0)
        # Completing on shard 0 releases query 1, which belongs to shard 1:
        # nothing starts on shard 0, the sub-query waits in shard 1's buffer.
        assert coordinator.complete_subquery(0, 0, 1.0) == []
        assert coordinator.has_pending(1)
        (admitted,) = coordinator.take_pending(1, 1.0)
        assert admitted.spec.query_id == 1
        # It keeps its original submission time, so its eventual record
        # will charge the 1.0 s spent waiting for query 0's slot as queue
        # wait; query 0 itself never queued.
        assert admitted.submit_time == 0.0
        (record,) = coordinator.records
        assert record.query_id == 0
        assert record.queue_wait == 0.0

    def test_unknown_completion_rejected(self):
        spec = make_request(0, [0, 1])
        coordinator, _ = _coordinator([(0.0, spec)])
        coordinator.pump(0.0)
        with pytest.raises(SimulationError):
            coordinator.complete_subquery(0, 99, 1.0)
        with pytest.raises(SimulationError):
            coordinator.complete_subquery(1, 0, 1.0)  # shard it never touched

    def test_rejects_unsorted_and_duplicate_arrivals(self):
        spec_a = make_request(0, [0])
        spec_b = make_request(0, [1])
        with pytest.raises(SimulationError):
            _coordinator([(1.0, spec_a), (0.5, make_request(1, [1]))])
        with pytest.raises(SimulationError):
            _coordinator([(0.0, spec_a), (1.0, spec_b)])

    def test_descending_shard_order_gather(self):
        """Sub-queries completing from the highest shard down still gather
        at the last completion, on a fleet wider than two."""
        spec = make_request(0, range(8))
        coordinator, _ = _coordinator([(0.0, spec)], shards=4)
        coordinator.pump(0.0)
        for shard in (3, 2, 1):
            assert coordinator.complete_subquery(shard, 0, float(4 - shard)) == []
            assert coordinator.records == []
        coordinator.complete_subquery(0, 0, 9.0)
        (record,) = coordinator.records
        assert record.finish_time == 9.0
        assert record.shards == (0, 1, 2, 3)

    def test_zero_subquery_plan_rejected(self):
        spec = make_request(0, [0, 1])
        coordinator, _ = _coordinator([(0.0, spec)])

        class EmptyPlanner:
            num_shards = coordinator.shard_map.num_shards

            def plan_groups(self, _spec):
                return {}

        coordinator.shard_map = EmptyPlanner()
        with pytest.raises(SimulationError, match="zero sub-queries"):
            coordinator.pump(0.0)

    def test_take_pending_after_drain_is_empty(self):
        spec = make_request(0, [0, 1])
        coordinator, _ = _coordinator([(0.0, spec)])
        coordinator.pump(0.0)
        assert [a.spec.query_id for a in coordinator.take_pending(0, 0.0)] == [0]
        # Drained buffers stay drained: repeated takes return nothing, on
        # the owning shard and on shards that never had a piece.
        assert coordinator.take_pending(0, 5.0) == []
        assert coordinator.take_pending(1, 5.0) == []
        assert not coordinator.has_pending(0)
        assert coordinator.pending_head_time(0) is None
        assert coordinator.earliest_in_flight() is None
        coordinator.complete_subquery(0, 0, 1.0)
        assert coordinator.drained()
        assert coordinator.take_pending(0, 10.0) == []

    def test_take_pending_respects_release_times(self):
        spec_a = make_request(0, [0, 1])
        spec_b = make_request(1, [0, 1])
        coordinator, _ = _coordinator(
            [(0.0, spec_a), (0.5, spec_b)], max_concurrent=2
        )
        coordinator.pump(0.0)
        coordinator.pump(0.5)
        # Polling at a time before the second release leaves it buffered.
        assert len(coordinator.take_pending(0, 0.0)) == 1
        assert coordinator.has_pending(0)
        assert coordinator.pending_head_time(0) == 0.5
        assert coordinator.earliest_in_flight() == 0.5
        assert len(coordinator.take_pending(0, 0.5)) == 1


class TestShardSourceProbe:
    def test_next_event_time_is_the_earlier_of_pending_and_arrival(self):
        first = make_request(0, [0, 1])   # shard 0 only
        second = make_request(1, [4, 5])  # shard 1 only
        coordinator, _ = _coordinator(
            [(0.0, first), (2.0, second)], max_concurrent=2
        )
        shard0 = ShardSource(coordinator, 0)
        shard1 = ShardSource(coordinator, 1)
        # Nothing buffered yet: every shard wakes for the next arrival.
        assert shard0.next_event_time() == 0.0
        assert shard1.next_event_time() == 0.0
        coordinator.pump(0.0)
        # Shard 0's buffered sub-query is due before the next arrival.
        assert shard0.next_event_time() == 0.0
        assert shard1.next_event_time() == 2.0
        coordinator.take_pending(0, 0.0)
        assert shard0.next_event_time() == 2.0
        # Arrivals exhausted: only a buffered sub-query wakes a shard.
        coordinator.pump(2.0)
        assert shard0.next_event_time() is None
        assert shard1.next_event_time() == 2.0


class TestClusterQueryRecordProperties:
    def _record(self, submit=1.0, admit=2.0, finish=5.0, shards=(0, 1)):
        return ClusterQueryRecord(
            query_id=7,
            name="q7",
            submit_time=submit,
            admit_time=admit,
            finish_time=finish,
            num_chunks=8,
            shards=tuple(shards),
        )

    def test_latency_decomposition(self):
        record = self._record()
        assert record.queue_wait == 1.0
        assert record.execution_latency == 3.0
        assert record.end_to_end_latency == 4.0
        assert record.end_to_end_latency == (
            record.queue_wait + record.execution_latency
        )

    def test_queue_wait_clamps_clock_noise(self):
        # Front-door timestamps can tie (admit == submit) or carry float
        # noise fractionally below; the wait must never go negative.
        assert self._record(submit=2.0, admit=2.0).queue_wait == 0.0
        assert self._record(submit=2.0, admit=2.0 - 1e-12).queue_wait == 0.0

    def test_zero_duration_query(self):
        record = self._record(submit=3.0, admit=3.0, finish=3.0)
        assert record.queue_wait == 0.0
        assert record.execution_latency == 0.0
        assert record.end_to_end_latency == 0.0


class TestClusterRuns:
    def _run(self, tiny_schema, config, arrival_specs, shards=2, num_chunks=8):
        cluster = ClusterConfig(shards=shards, mpl_per_shard=2)
        shard_map = ShardMap.from_cluster_config(cluster, num_chunks)
        tuples_per_chunk = config.buffer.chunk_bytes // 32
        abms = [
            make_nsm_abm(
                NSMTableLayout.from_buffer_config(
                    tiny_schema,
                    shard_map.chunks_owned(shard) * tuples_per_chunk,
                    config.buffer,
                ),
                config,
                "relevance",
                capacity_chunks=4,
            )
            for shard in range(shards)
        ]
        arrivals = [Arrival(time=time, spec=spec) for time, spec in arrival_specs]
        return run_cluster_service(arrivals, config, abms, cluster)

    def test_gathered_finish_is_slowest_subquery(self, tiny_schema, small_config):
        # One query over everything plus shard-0-only traffic that keeps
        # shard 0 busier, so the big query's sub-queries finish at
        # different times on the two shards.
        specs = [
            (0.0, make_request(0, range(8), cpu_per_chunk=0.01)),
            (0.0, make_request(1, [0, 1, 2, 3], cpu_per_chunk=0.05)),
            (0.0, make_request(2, [0, 1, 2, 3], cpu_per_chunk=0.05)),
        ]
        result = self._run(tiny_schema, small_config, specs)
        record = next(r for r in result.records if r.query_id == 0)
        finishes = {
            shard: query.finish_time
            for shard, run in enumerate(result.shard_runs)
            for query in run.queries
            if query.query_id == 0
        }
        assert len(finishes) == 2
        assert record.finish_time == max(finishes.values())
        assert record.finish_time > min(finishes.values())

    def test_single_shard_query_runs_on_one_shard_only(
        self, tiny_schema, small_config
    ):
        specs = [(0.0, make_request(0, [4, 5, 6, 7], cpu_per_chunk=0.01))]
        result = self._run(tiny_schema, small_config, specs)
        assert [query.query_id for query in result.shard_runs[1].queries] == [0]
        assert result.shard_runs[0].queries == []
        (record,) = result.records
        assert record.shards == (1,)
        # The idle shard is probed only while the front door is still live
        # (one pre-drain round here); the lockstep driver skips finished
        # simulators afterwards, so its policy-call count stays bounded
        # instead of growing with every cluster round.
        assert result.shard_runs[0].scheduling_calls <= 1
        assert result.shard_runs[1].scheduling_calls > 1

    def test_chunks_conserved_across_shards(self, tiny_schema, small_config):
        specs = [
            (0.0, make_request(0, range(8), cpu_per_chunk=0.01)),
            (0.2, make_request(1, [2, 3, 4, 5], cpu_per_chunk=0.01)),
        ]
        result = self._run(tiny_schema, small_config, specs)
        for record in result.records:
            scanned = sum(
                query.chunks
                for run in result.shard_runs
                for query in run.queries
                if query.query_id == record.query_id
            )
            assert scanned == record.num_chunks

    def test_mismatched_shard_tables_rejected(self, tiny_schema, small_config):
        cluster = ClusterConfig(shards=2, mpl_per_shard=2)
        tuples_per_chunk = small_config.buffer.chunk_bytes // 32
        bad_abms = [
            make_nsm_abm(
                NSMTableLayout.from_buffer_config(
                    tiny_schema, 8 * tuples_per_chunk, small_config.buffer
                ),
                small_config,
                "relevance",
            )
            for _ in range(2)
        ]
        arrivals = [Arrival(time=0.0, spec=make_request(0, [0]))]
        with pytest.raises(ConfigurationError):
            run_cluster_service(
                arrivals, small_config, bad_abms, cluster, num_chunks=8
            )
