"""Replication, failure injection, hedged requests and their accounting.

Covers the resilient cluster end to end: configuration validation of the
failure model, chained-declustering shard-map geometry, lockstep behaviour
under kill/degrade/repair (in-flight work, idle shards, mid-run repairs,
frontier-exact races), hedging on straggler shards, and the no-leak
accounting invariants for cancelled sub-queries.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    FailureInjector,
    HedgeMonitor,
    ShardMap,
    random_failure_schedule,
    run_cluster_service,
)
from repro.cluster.coordinator import ClusterCoordinator, ShardSource
from repro.common.config import (
    ClusterConfig,
    FailureConfig,
    FailureEvent,
    HedgeConfig,
)
from repro.common.errors import ConfigurationError, SimulationError
from repro.service import Arrival
from repro.service.admission import AdmissionController, layout_aware_job_size
from repro.service.slo import render_availability_table
from repro.sim.lockstep import LockstepRunner
from repro.sim.results import scheduling_fingerprint
from repro.sim.runner import ScanSimulator
from repro.sim.setup import make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.storage.volumes import VolumeLayout
from tests.conftest import make_request

NUM_CHUNKS = 32


# ----------------------------------------------------------------- harness
def _shard_abms(tiny_schema, small_config, cluster, policy="relevance"):
    shard_map = ShardMap.from_cluster_config(cluster, NUM_CHUNKS)
    tuples_per_chunk = small_config.buffer.chunk_bytes // 32
    return [
        make_nsm_abm(
            NSMTableLayout.from_buffer_config(
                tiny_schema,
                shard_map.chunks_owned(shard) * tuples_per_chunk,
                small_config.buffer,
            ),
            small_config,
            policy,
            capacity_chunks=4,
        )
        for shard in range(cluster.shards)
    ]


def _run(tiny_schema, small_config, cluster, arrivals, policy="relevance"):
    return run_cluster_service(
        arrivals,
        small_config,
        _shard_abms(tiny_schema, small_config, cluster, policy),
        cluster,
    )


def _all_chunk_arrivals(times, first_id=1):
    """One full-table scan per timestamp (touches every primary shard)."""
    return [
        Arrival(time, make_request(first_id + index, range(NUM_CHUNKS),
                                   name="F", cpu_per_chunk=0.001))
        for index, time in enumerate(times)
    ]


# ----------------------------------------------------- config corner cases
class TestFailureModelValidation:
    def test_replicas_above_shard_count_rejected(self):
        with pytest.raises(ConfigurationError, match="exceeds shards"):
            ClusterConfig(shards=2, replicas=3)

    def test_replicas_must_be_positive_integer(self):
        with pytest.raises(ConfigurationError, match="replicas"):
            ClusterConfig(shards=2, replicas=0)
        with pytest.raises(ConfigurationError, match="replicas"):
            ClusterConfig(shards=2, replicas=1.5)

    def test_shardmap_rejects_replicas_above_shards(self):
        with pytest.raises(ConfigurationError, match="replicas"):
            ShardMap(num_chunks=8, num_shards=2, replicas=3)

    def test_replica_placement_cannot_leave_a_shard_empty(self):
        # 10 chunks across 6 range shards starve the trailing shard even
        # before replication; the replicated map refuses it identically.
        with pytest.raises(ConfigurationError, match="no chunks"):
            ShardMap(num_chunks=10, num_shards=6, replicas=2)

    def test_failure_event_outside_cluster_rejected(self):
        with pytest.raises(ConfigurationError, match="only has 2 shard"):
            ClusterConfig(
                shards=2,
                failures=FailureConfig(events=(FailureEvent(1.0, 2, "kill"),)),
            )

    def test_out_of_order_schedule_rejected(self):
        with pytest.raises(ConfigurationError, match="out of order"):
            FailureConfig(
                events=(
                    FailureEvent(2.0, 0, "kill"),
                    FailureEvent(1.0, 0, "repair"),
                )
            )

    def test_double_kill_rejected(self):
        with pytest.raises(ConfigurationError, match="already killed"):
            FailureConfig(
                events=(
                    FailureEvent(1.0, 0, "kill"),
                    FailureEvent(2.0, 0, "kill"),
                )
            )

    def test_degrade_while_down_rejected(self):
        with pytest.raises(ConfigurationError, match="must be up to degrade"):
            FailureConfig(
                events=(
                    FailureEvent(1.0, 0, "kill"),
                    FailureEvent(2.0, 0, "degrade"),
                )
            )

    def test_repair_while_up_rejected(self):
        with pytest.raises(ConfigurationError, match="nothing to repair"):
            FailureConfig(events=(FailureEvent(1.0, 0, "repair"),))

    def test_kill_repair_kill_is_a_valid_schedule(self):
        schedule = FailureConfig(
            events=(
                FailureEvent(1.0, 0, "kill"),
                FailureEvent(2.0, 0, "repair"),
                FailureEvent(3.0, 0, "kill"),
            )
        )
        assert not schedule.is_empty

    @pytest.mark.parametrize("quantile", [0.0, 1.0, -0.5, 1.5])
    def test_hedge_quantile_must_be_strictly_inside_unit_interval(
        self, quantile
    ):
        with pytest.raises(ConfigurationError, match="quantile"):
            HedgeConfig(quantile=quantile)

    def test_hedge_multiplier_and_samples_validated(self):
        with pytest.raises(ConfigurationError, match="multiplier"):
            HedgeConfig(multiplier=0.0)
        with pytest.raises(ConfigurationError, match="min_samples"):
            HedgeConfig(min_samples=0)

    @pytest.mark.parametrize("factor", [0.0, 1.5, -1.0])
    def test_degrade_factor_must_be_in_unit_interval(self, factor):
        with pytest.raises(ConfigurationError, match="degrade_factor"):
            FailureConfig(degrade_factor=factor)

    def test_bad_event_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            FailureEvent(1.0, 0, "explode")

    def test_random_schedule_is_seeded_and_valid(self):
        first = random_failure_schedule(
            shards=4, kills=3, start=1.0, spacing=2.0, downtime=0.5, seed=9
        )
        second = random_failure_schedule(
            shards=4, kills=3, start=1.0, spacing=2.0, downtime=0.5, seed=9
        )
        assert first == second
        assert len(first.events) == 6
        with pytest.raises(ValueError, match="downtime"):
            random_failure_schedule(
                shards=4, kills=2, start=1.0, spacing=1.0, downtime=1.0
            )


# ------------------------------------------------------ replica placement
class TestShardMapReplication:
    def test_chained_declustering_stored_sets(self):
        # 8 chunks, 4 range shards: primary p owns {2p, 2p+1}; with R=2
        # each shard also stores its ring predecessor's range.
        shard_map = ShardMap(num_chunks=8, num_shards=4, replicas=2)
        assert shard_map._stored == (
            (0, 1, 6, 7), (0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 7)
        )
        assert shard_map.describe()["shard_sizes"] == [4, 4, 4, 4]

    def test_replica_shards_follow_the_ring(self):
        shard_map = ShardMap(num_chunks=8, num_shards=4, replicas=2)
        assert shard_map.replica_shards(0) == (0, 1)
        assert shard_map.replica_shards(3) == (3, 0)
        assert shard_map.replica_shards(shard_map.shard_of(6)) == (3, 0)

    def test_local_ids_are_ranks_in_the_stored_set(self):
        shard_map = ShardMap(num_chunks=8, num_shards=4, replicas=2)
        # Shard 0 stores [0, 1, 6, 7]: chunk 6 sits at local position 2.
        assert shard_map.local_chunk_on(0, 6) == 2
        assert shard_map.local_chunk_on(1, 2) == 2
        # Primary-side local id of chunk 6 (primary shard 3 stores
        # [4, 5, 6, 7]).
        assert shard_map.local_chunk_on(shard_map.shard_of(6), 6) == 2

    def test_unstored_chunk_is_a_configuration_error(self):
        shard_map = ShardMap(num_chunks=8, num_shards=4, replicas=2)
        with pytest.raises(ConfigurationError, match="stores no copy"):
            shard_map.local_chunk_on(0, 3)

    def test_unreplicated_geometry_matches_the_volume_layout(self):
        shard_map = ShardMap(num_chunks=NUM_CHUNKS, num_shards=4, replicas=1)
        layout = VolumeLayout(
            num_chunks=NUM_CHUNKS, num_volumes=4, placement="range"
        )
        for chunk in range(NUM_CHUNKS):
            shard = shard_map.shard_of(chunk)
            assert shard == layout.volume_of(chunk)
            assert shard_map.local_chunk_on(shard, chunk) == layout.local_index(chunk)
            assert shard_map.replica_shards(shard) == (shard,)

    def test_validate_shard_tables_checks_stored_counts(self):
        shard_map = ShardMap(num_chunks=8, num_shards=4, replicas=2)
        shard_map.validate_shard_tables((4, 4, 4, 4))
        with pytest.raises(ConfigurationError, match="its ABM models"):
            shard_map.validate_shard_tables((2, 2, 2, 2))

    def test_sub_request_translates_and_keeps_the_class(self):
        shard_map = ShardMap(num_chunks=8, num_shards=4, replicas=2)
        spec = make_request(7, [6, 7], query_class="batch")
        sub = shard_map.sub_request(spec, [6, 7], shard=0, sub_id=123)
        assert sub.query_id == 123
        assert sub.chunks == (2, 3)
        assert sub.query_class == "batch"

    def test_plan_groups_partitions_by_primary(self):
        shard_map = ShardMap(num_chunks=8, num_shards=4, replicas=2)
        groups = shard_map.plan_groups(make_request(1, range(8)))
        assert groups == {0: (0, 1), 1: (2, 3), 2: (4, 5), 3: (6, 7)}


# -------------------------------------------------- failures under lockstep
class TestKillDegradeRepair:
    def test_kill_with_subqueries_in_flight_rescatters(
        self, tiny_schema, small_config
    ):
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
        arrivals = _all_chunk_arrivals([0.0, 0.4, 6.0])
        result = _run(tiny_schema, small_config, cluster, arrivals)
        availability = result.availability
        assert len(result.records) == 3
        assert availability.kills == 1 and availability.repairs == 1
        assert availability.rescatters >= 1
        assert availability.orphaned == 0
        # The killed shard's sub-queries were cancelled, not completed.
        assert result.shard_runs[1].total_time >= 0.0
        assert availability.affected_queries >= 1

    def test_kill_while_idle_routes_around_the_dead_shard(
        self, tiny_schema, small_config
    ):
        cluster = ClusterConfig(
            shards=4,
            mpl_per_shard=2,
            replicas=2,
            failures=FailureConfig(
                events=(
                    FailureEvent(3.0, 1, "kill"),
                    FailureEvent(9.0, 1, "repair"),
                )
            ),
        )
        # Work finishes well before the kill; the later queries must route
        # their primary-1 group to the surviving replica (shard 2).
        arrivals = _all_chunk_arrivals([0.0, 4.0, 5.0])
        result = _run(tiny_schema, small_config, cluster, arrivals)
        availability = result.availability
        assert len(result.records) == 3
        assert availability.rescatters == 0 and availability.orphaned == 0
        # Nothing ran on shard 1 after the kill.
        post_kill = [
            query
            for query in result.shard_runs[1].queries
            if query.arrival_time >= 3.0
        ]
        assert post_kill == []

    def test_r1_kill_orphans_drain_at_repair(self, tiny_schema, small_config):
        cluster = ClusterConfig(
            shards=4,
            mpl_per_shard=2,
            replicas=1,
            failures=FailureConfig(
                events=(
                    FailureEvent(0.05, 1, "kill"),
                    FailureEvent(2.0, 1, "repair"),
                )
            ),
        )
        arrivals = _all_chunk_arrivals([0.0, 0.3])
        result = _run(tiny_schema, small_config, cluster, arrivals)
        availability = result.availability
        assert len(result.records) == 2
        # With R=1 there is no surviving replica: the killed shard's groups
        # park as orphans and only run after the repair.
        assert availability.orphaned >= 1
        assert availability.rescatters >= availability.orphaned
        assert all(record.finish_time >= 2.0 for record in result.records)

    def test_r1_kill_without_repair_deadlocks_with_detail(
        self, tiny_schema, small_config
    ):
        cluster = ClusterConfig(
            shards=2,
            mpl_per_shard=2,
            replicas=1,
            failures=FailureConfig(events=(FailureEvent(0.05, 1, "kill"),)),
        )
        arrivals = _all_chunk_arrivals([0.0])
        with pytest.raises(SimulationError, match="orphaned chunk group"):
            _run(tiny_schema, small_config, cluster, arrivals)

    def test_kill_exactly_on_a_scatter_frontier_wins_the_race(
        self, tiny_schema, small_config
    ):
        # The kill and the admission of query 2 land on the same frontier
        # instant: the interrupt must fire first, so the new query's
        # primary-1 group routes straight to the surviving replica and the
        # dead shard never sees it.
        cluster = ClusterConfig(
            shards=4,
            mpl_per_shard=2,
            replicas=2,
            failures=FailureConfig(
                events=(
                    FailureEvent(1.0, 1, "kill"),
                    FailureEvent(9.0, 1, "repair"),
                )
            ),
        )
        arrivals = _all_chunk_arrivals([0.0, 1.0])
        result = _run(tiny_schema, small_config, cluster, arrivals)
        assert len(result.records) == 2
        assert result.availability.orphaned == 0
        late_on_dead_shard = [
            query
            for query in result.shard_runs[1].queries
            if query.arrival_time >= 1.0
        ]
        assert late_on_dead_shard == []

    def test_degraded_shard_slows_the_run_and_repair_restores_it(
        self, tiny_schema, small_config
    ):
        healthy = ClusterConfig(shards=4, mpl_per_shard=2, replicas=2)
        degraded = ClusterConfig(
            shards=4,
            mpl_per_shard=2,
            replicas=2,
            failures=FailureConfig(
                events=(FailureEvent(0.01, 1, "degrade"),),
                degrade_factor=0.05,
            ),
        )
        repaired = ClusterConfig(
            shards=4,
            mpl_per_shard=2,
            replicas=2,
            failures=FailureConfig(
                events=(
                    FailureEvent(0.01, 1, "degrade"),
                    FailureEvent(0.2, 1, "repair"),
                ),
                degrade_factor=0.05,
            ),
        )
        arrivals = _all_chunk_arrivals([0.0, 0.1, 0.3, 0.5])
        base = _run(tiny_schema, small_config, healthy, arrivals)
        slow = _run(tiny_schema, small_config, degraded, arrivals)
        fixed = _run(tiny_schema, small_config, repaired, arrivals)
        assert slow.availability.degrades == 1
        assert slow.availability.degraded_s[1] > 0.0
        assert slow.slo.latency.p99 > base.slo.latency.p99
        # Repairing early recovers most of the damage.
        assert fixed.slo.latency.p99 < slow.slo.latency.p99

    def test_failure_runs_are_deterministic(self, tiny_schema, small_config):
        cluster = ClusterConfig(
            shards=4,
            mpl_per_shard=2,
            replicas=2,
            failures=FailureConfig(
                events=(
                    FailureEvent(0.05, 1, "kill"),
                    FailureEvent(2.0, 1, "repair"),
                )
            ),
        )
        arrivals = _all_chunk_arrivals([0.0, 0.3, 2.5])
        first = _run(tiny_schema, small_config, cluster, arrivals)
        second = _run(tiny_schema, small_config, cluster, arrivals)
        for run_a, run_b in zip(first.shard_runs, second.shard_runs):
            assert scheduling_fingerprint(run_a) == scheduling_fingerprint(run_b)
        assert first.slo == second.slo


class TestKillDuringCoordinatorCpu:
    """A kill that lands while a query is still in coordinator CPU (its
    scatter not yet finished) must re-dispatch that query's groups no
    earlier than the scatter completes: dispatching before ``ready`` made
    the postmortem's ``rescatter_wait`` negative and killed the run."""

    def test_rescatter_waits_for_the_scatter_to_finish(self):
        from repro.common.config import (
            BufferConfig,
            CoordinatorConfig,
            CpuConfig,
            DiskConfig,
            NetworkConfig,
            SystemConfig,
            WorkloadClassConfig,
        )
        from repro.common.units import KB, MB
        from repro.service import poisson_arrivals
        from repro.storage.schema import ColumnSpec, DataType, TableSchema
        from repro.workload.queries import (
            QueryFamily,
            QueryTemplate,
            classed_templates,
        )

        machine = SystemConfig(
            disk=DiskConfig(
                bandwidth_bytes_per_s=100 * MB,
                avg_seek_s=0.002,
                sequential_seek_s=0.0005,
            ),
            cpu=CpuConfig(cores=8),
            buffer=BufferConfig(
                chunk_bytes=1 * MB, page_bytes=64 * KB, capacity_chunks=8
            ),
        )
        schema = TableSchema.build(
            "orders", [ColumnSpec(name, DataType.INT64) for name in "abcd"]
        )
        tuples_per_chunk = int(
            machine.buffer.chunk_bytes // schema.tuple_logical_bytes
        )

        def layout(chunks):
            return NSMTableLayout.from_buffer_config(
                schema, chunks * tuples_per_chunk, machine.buffer
            )

        cluster = ClusterConfig(
            shards=8,
            placement="range",
            mpl_per_shard=4,
            replicas=2,
            classes=(
                WorkloadClassConfig("interactive", weight=4.0),
                WorkloadClassConfig("batch", weight=1.0),
            ),
            coordinator=CoordinatorConfig(
                classify_s=0.003,
                scatter_per_subquery_s=0.003,
                gather_per_subquery_s=0.003,
                merge_per_query_s=0.003,
            ),
            network=NetworkConfig(
                bandwidth_bytes_per_s=1000 * MB, per_message_s=0.0002
            ),
            failures=FailureConfig(
                events=(
                    FailureEvent(10.01, 1, "kill"),
                    FailureEvent(18.01, 1, "repair"),
                )
            ),
        )
        fast = QueryFamily("F", cpu_per_chunk=0.002)
        batch = QueryFamily("B", cpu_per_chunk=0.02)
        templates = classed_templates(
            (QueryTemplate(fast, 12.5), QueryTemplate(fast, 25)), "interactive"
        ) + classed_templates((QueryTemplate(batch, 50),), "batch")
        arrivals = poisson_arrivals(
            templates, layout(128), rate_qps=10.0, num_queries=150, seed=4
        )
        shard_map = ShardMap.from_cluster_config(cluster, 128)
        abms = [
            make_nsm_abm(
                layout(shard_map.chunks_owned(shard)), machine, "relevance"
            )
            for shard in range(cluster.shards)
        ]
        result = run_cluster_service(arrivals, machine, abms, cluster)
        assert result.slo.completed == 150
        assert result.availability.rescatters > 0
        for record in result.records:
            assert record.dispatch_time >= record.ready_time
            record.breakdown.validate(end_to_end=record.end_to_end_latency)


# ------------------------------------------------------------------ hedging
class TestHedgedRequests:
    def _clusters(self):
        straggler = FailureConfig(
            events=(FailureEvent(0.02, 2, "degrade"),), degrade_factor=0.05
        )
        hedged = ClusterConfig(
            shards=4,
            mpl_per_shard=2,
            replicas=2,
            failures=straggler,
            hedge=HedgeConfig(quantile=0.9, multiplier=1.0, min_samples=4),
        )
        unhedged = ClusterConfig(
            shards=4, mpl_per_shard=2, replicas=2, failures=straggler
        )
        return hedged, unhedged

    def _arrivals(self):
        return _all_chunk_arrivals(
            [0.1 * index for index in range(10)]
        )

    def test_hedging_fires_and_cuts_tail_latency(
        self, tiny_schema, small_config
    ):
        hedged, unhedged = self._clusters()
        arrivals = self._arrivals()
        with_hedge = _run(tiny_schema, small_config, hedged, arrivals)
        without = _run(tiny_schema, small_config, unhedged, arrivals)
        availability = with_hedge.availability
        assert availability.hedges_fired > 0
        assert availability.hedges_cancelled > 0
        assert len(with_hedge.records) == len(arrivals)
        assert len(without.records) == len(arrivals)
        # Every whole query completed exactly once despite duplicates.
        assert sorted(record.query_id for record in with_hedge.records) == [
            arrival.spec.query_id for arrival in arrivals
        ]
        assert with_hedge.slo.latency.p99 < without.slo.latency.p99

    def test_hedged_run_leaks_no_accounting(self, tiny_schema, small_config):
        # Drive the coordinator directly so its internals are inspectable:
        # after the run every sub-query, group, open query, pending buffer,
        # outstanding count and MPL slot must be back to zero.
        hedged, _ = self._clusters()
        arrivals = self._arrivals()
        shard_map = ShardMap.from_cluster_config(hedged, NUM_CHUNKS)
        abms = _shard_abms(tiny_schema, small_config, hedged)
        admission = AdmissionController(
            hedged.front_service(),
            job_size=layout_aware_job_size(getattr(abms[0], "layout", None)),
        )
        coordinator = ClusterCoordinator(
            arrivals,
            shard_map,
            admission,
            hedge=hedged.hedge,
            degrade_factor=hedged.failures.degrade_factor,
        )
        simulators = [
            ScanSimulator(ShardSource(coordinator, shard), small_config, abm)
            for shard, abm in enumerate(abms)
        ]
        coordinator.attach_shards(simulators)
        LockstepRunner(
            simulators,
            message_source=coordinator,
            interrupts=[
                FailureInjector(hedged.failures, coordinator),
                HedgeMonitor(coordinator),
            ],
        ).run()
        assert coordinator.hedges_fired > 0
        assert len(coordinator.records) == len(arrivals)
        assert coordinator._subs == {}
        assert coordinator._groups == {}
        assert coordinator._open == {}
        assert coordinator._orphans == []
        assert all(count == 0 for count in coordinator._outstanding)
        assert not any(
            coordinator.has_pending(shard)
            for shard in range(shard_map.num_shards)
        )
        assert admission.active == 0
        # Cancelled copies keep their load attribution: every dispatched
        # sub-query id is remembered, winners and losers alike.
        hedged_queries = [
            query_id
            for query_id, subs in coordinator._sub_ids_by_query.items()
            if len(subs) > shard_map.num_shards
        ]
        assert hedged_queries

    def test_records_loads_include_cancelled_copies(
        self, tiny_schema, small_config
    ):
        hedged, _ = self._clusters()
        result = _run(tiny_schema, small_config, hedged, self._arrivals())
        assert all(record.loads_triggered > 0 for record in result.records)


# ------------------------------------------------------- availability SLO
class TestAvailabilityReporting:
    @pytest.mark.parametrize(
        "knobs, reported",
        [
            ({}, False),
            ({"replicas": 1, "failures": FailureConfig(), "hedge": None}, False),
            ({"replicas": 2}, True),
            (
                {
                    "failures": FailureConfig(
                        events=(
                            FailureEvent(0.05, 1, "kill"),
                            FailureEvent(1.0, 1, "repair"),
                        )
                    )
                },
                True,
            ),
            ({"hedge": HedgeConfig()}, True),
        ],
    )
    def test_section_only_when_replicated_failing_or_hedged(
        self, tiny_schema, small_config, knobs, reported
    ):
        cluster = ClusterConfig(shards=2, mpl_per_shard=2, **knobs)
        result = _run(
            tiny_schema, small_config, cluster, _all_chunk_arrivals([0.0])
        )
        assert (result.availability is not None) is reported
        assert result.slo.availability is result.availability

    def test_availability_section_round_trips_through_slo(
        self, tiny_schema, small_config
    ):
        cluster = ClusterConfig(
            shards=4,
            mpl_per_shard=2,
            replicas=2,
            failures=FailureConfig(
                events=(
                    FailureEvent(0.05, 1, "kill"),
                    FailureEvent(2.0, 1, "repair"),
                )
            ),
        )
        # The 2.5 s arrival keeps the run open past the repair so the full
        # outage window lands inside the report.
        result = _run(
            tiny_schema,
            small_config,
            cluster,
            _all_chunk_arrivals([0.0, 0.3, 2.5]),
        )
        availability = result.availability
        assert availability is result.slo.availability
        assert availability.replicas == 2
        # Shard 1 was down from the kill to the repair.
        assert availability.downtime_s[1] == pytest.approx(1.95)
        assert availability.shard_timelines[1][0] == (0.0, "up")
        assert availability.shard_timelines[1][1] == (0.05, "down")
        assert availability.shard_timelines[1][2] == (2.0, "up")
        assert 0.0 < availability.availability < 1.0
        flat = result.slo.as_dict()
        assert flat["availability_kills"] == 1
        assert flat["availability_replicas"] == 2

    def test_render_availability_table_covers_both_kinds(
        self, tiny_schema, small_config
    ):
        resilient = ClusterConfig(shards=2, mpl_per_shard=2, replicas=2)
        legacy = ClusterConfig(shards=2, mpl_per_shard=2)
        arrivals = _all_chunk_arrivals([0.0])
        with_availability = _run(tiny_schema, small_config, resilient, arrivals)
        without = _run(tiny_schema, small_config, legacy, arrivals)
        table = render_availability_table(
            [with_availability.slo, without.slo]
        )
        assert "avail%" in table
        assert "-" in table  # the legacy row renders as dashes
