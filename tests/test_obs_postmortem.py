"""Always-on latency attribution: the conservation law and blame tables.

Covers the :mod:`repro.obs.postmortem` builders in isolation (residual
folding, negative clamps, origin bucketing), then the property that matters
everywhere: every completed query's phases sum *exactly* to its end-to-end
latency — across NSM/DSM layouts, all four scheduling policies, single-node
service runs and the cluster's legacy / modeled-coordinator / mid-run-kill /
hedged-straggler paths.  Also pins that stamping never perturbs scheduling:
``breakdowns`` on vs off produces bit-identical fingerprints and SLO dicts.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster import ShardMap, run_cluster_service
from repro.common.config import (
    ClusterConfig,
    CoordinatorConfig,
    FailureConfig,
    FailureEvent,
    HedgeConfig,
    NetworkConfig,
    ServiceConfig,
)
from repro.common.errors import SimulationError
from repro.common.units import MB
from repro.obs.postmortem import (
    BREAKDOWN_PHASES,
    CONSERVATION_TOL,
    LatencyBreakdown,
    assemble_cluster_breakdown,
    build_blame_report,
    build_breakdown,
    build_single_node_breakdown,
)
from repro.service import Arrival, run_service
from repro.service.slo import render_blame_table
from repro.sim.results import scheduling_fingerprint
from repro.sim.runner import run_simulation
from repro.sim.setup import make_dsm_abm, make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from tests.conftest import make_request

POLICIES = ("normal", "attach", "elevator", "relevance")

NUM_CHUNKS = 32


# ------------------------------------------------------------ unit behaviour
class TestBuildBreakdown:
    def test_phases_partition_the_total(self):
        breakdown = build_breakdown(
            1.0, admission_wait=0.25, disk_transfer=0.5, cpu_execute=0.25
        )
        breakdown.validate(end_to_end=1.0)
        assert breakdown.admission_wait == 0.25
        assert math.fsum(breakdown.phase_seconds().values()) == pytest.approx(
            1.0, abs=CONSERVATION_TOL
        )

    def test_residual_folds_into_largest_execution_phase(self):
        # 0.3 + 0.7 leaves a float residual against 1.0 - 1e-8; the fold
        # lands on disk_transfer (largest execution phase), never on the
        # exact stamp-difference phases like admission_wait.
        breakdown = build_breakdown(
            1.0 - 1e-8, admission_wait=0.3, disk_transfer=0.5, cpu_execute=0.2
        )
        assert breakdown.admission_wait == 0.3
        assert breakdown.cpu_execute == 0.2
        breakdown.validate()

    def test_tiny_negative_phase_clamped(self):
        breakdown = build_breakdown(0.5, shard_queue=-1e-9, disk_transfer=0.5)
        assert breakdown.shard_queue == 0.0
        breakdown.validate(end_to_end=0.5)

    def test_large_negative_phase_raises(self):
        with pytest.raises(SimulationError, match="negative"):
            build_breakdown(0.5, shard_queue=-0.01, disk_transfer=0.51)

    def test_large_residual_raises(self):
        with pytest.raises(SimulationError, match="loses"):
            build_breakdown(1.0, disk_transfer=0.5)

    def test_unknown_phase_raises(self):
        with pytest.raises(SimulationError, match="unknown phases"):
            build_breakdown(1.0, warp_drive=1.0)

    def test_validate_rejects_disagreeing_end_to_end(self):
        breakdown = build_breakdown(1.0, disk_transfer=1.0)
        with pytest.raises(SimulationError, match="disagrees"):
            breakdown.validate(end_to_end=2.0)

    def test_validate_rejects_hand_built_nan(self):
        with pytest.raises(SimulationError, match="invalid"):
            LatencyBreakdown(total=1.0, disk_transfer=float("nan")).validate()

    @pytest.mark.parametrize(
        "total, phases",
        [
            (1.0, dict(admission_wait=0.25, disk_transfer=0.5,
                       cpu_execute=0.25)),
            (1.0 - 1e-8, dict(admission_wait=0.3, disk_seek=0.1,
                              disk_transfer=0.4, cpu_execute=0.2)),
            (0.5, dict(disk_seek=-1e-10, disk_transfer=0.5)),
            (0.7, dict(disk_seek=0.4, cpu_execute=0.3 - 1e-9)),
        ],
    )
    def test_single_node_fast_path_matches_generic_builder(
        self, total, phases
    ):
        # The simulator's hot path uses the specialised builder; it must be
        # indistinguishable from build_breakdown on the four phases a single
        # node produces — same clamping, same residual fold, same result.
        fast = build_single_node_breakdown(
            total,
            admission_wait=phases.get("admission_wait", 0.0),
            disk_seek=phases.get("disk_seek", 0.0),
            disk_transfer=phases.get("disk_transfer", 0.0),
            cpu_execute=phases.get("cpu_execute", 0.0),
        )
        assert fast == build_breakdown(total, **phases)
        fast.validate(end_to_end=total)

    def test_single_node_fast_path_rejects_accounting_gap(self):
        with pytest.raises(SimulationError, match="loses"):
            build_single_node_breakdown(
                1.0, admission_wait=0.0, disk_seek=0.0,
                disk_transfer=0.5, cpu_execute=0.0,
            )
        with pytest.raises(SimulationError, match="invalid"):
            build_single_node_breakdown(
                1.0, admission_wait=float("nan"), disk_seek=0.0,
                disk_transfer=1.0, cpu_execute=0.0,
            )
        with pytest.raises(SimulationError, match="invalid"):
            build_single_node_breakdown(
                1.0, admission_wait=0.0, disk_seek=-0.01,
                disk_transfer=1.01, cpu_execute=0.0,
            )

    def test_render(self):
        breakdown = build_breakdown(
            2.0, admission_wait=0.5, disk_transfer=1.2, cpu_execute=0.3
        )
        text = breakdown.render()
        assert "disk_transfer" in text and "60.0%" in text


class TestAssembleClusterBreakdown:
    STAMPS = dict(
        submit=1.0,
        admit=1.1,
        ready=1.15,
        dispatch=1.15,
        delivered=1.2,
        shard_start=1.25,
        shard_finish=2.25,
        gather_arrived=2.3,
        finish=2.35,
        critical_shard=2,
    )

    @staticmethod
    def _shard_execution():
        return build_breakdown(
            1.0, disk_seek=0.1, disk_transfer=0.6, cpu_execute=0.3
        )

    def test_stamps_telescope_to_end_to_end(self):
        breakdown = assemble_cluster_breakdown(
            shard_execution=self._shard_execution(), **self.STAMPS
        )
        breakdown.validate(end_to_end=1.35)
        assert breakdown.admission_wait == pytest.approx(0.1)
        assert breakdown.scatter_nic == pytest.approx(0.05)
        assert breakdown.shard_queue == pytest.approx(0.05)
        assert breakdown.gather_nic == pytest.approx(0.05)
        assert breakdown.gather_cpu == pytest.approx(0.05)
        assert breakdown.critical_shard == 2

    @pytest.mark.parametrize(
        "origin,phase",
        [("rescatter", "rescatter_wait"), ("orphan", "orphan_wait"),
         ("hedge", "hedge_wait")],
    )
    def test_dispatch_wait_bucketed_by_origin(self, origin, phase):
        stamps = dict(self.STAMPS, dispatch=1.4, delivered=1.45,
                      shard_start=1.5, shard_finish=2.5,
                      gather_arrived=2.55, finish=2.6, origin=origin)
        breakdown = assemble_cluster_breakdown(
            shard_execution=self._shard_execution(), **stamps
        )
        breakdown.validate(end_to_end=1.6)
        assert getattr(breakdown, phase) == pytest.approx(0.25)
        assert breakdown.origin == origin

    def test_unknown_origin_raises(self):
        with pytest.raises(SimulationError, match="unknown dispatch origin"):
            assemble_cluster_breakdown(
                shard_execution=self._shard_execution(),
                **dict(self.STAMPS, origin="teleport"),
            )


class TestBlameReport:
    @staticmethod
    def _sample(total, **phases):
        return build_breakdown(total, **phases)

    def test_groups_by_class_and_keeps_overall(self):
        samples = [
            ("fast", self._sample(1.0, disk_transfer=1.0)),
            ("fast", self._sample(2.0, disk_transfer=1.0, cpu_execute=1.0)),
            ("slow", self._sample(4.0, admission_wait=3.0, cpu_execute=1.0)),
        ]
        report = build_blame_report(samples)
        assert report.overall.count == 3
        assert report.overall.total_seconds == pytest.approx(7.0)
        assert [blame.query_class for blame in report.classes] == ["fast", "slow"]
        slow = report.classes[1]
        assert slow.shares()["admission_wait"] == pytest.approx(0.75)

    def test_none_breakdowns_are_skipped(self):
        report = build_blame_report([("fast", None)])
        assert report.overall.count == 0
        assert report.classes == ()

    def test_tail_is_the_p95_slice(self):
        samples = [("c", self._sample(0.1 * i, cpu_execute=0.1 * i))
                   for i in range(1, 21)]
        report = build_blame_report(samples)
        (blame,) = report.classes
        assert blame.tail_count < blame.count
        assert blame.tail_threshold_s >= 0.1 * 19 - CONSERVATION_TOL
        assert blame.top_phases(n=1)[0][0] == "cpu_execute"

    def test_render_blame_table_with_and_without_blame(self):
        result = _nsm_service_run("relevance")
        table = render_blame_table(result.slo)
        assert "tail blame" in table
        assert "all" in table
        from dataclasses import replace

        bare = replace(result.slo, blame=None)
        assert "-" in render_blame_table(bare)


# ----------------------------------------------------- conservation property
def _assert_conserves(queries, label):
    assert queries, label
    for query in queries:
        assert query.breakdown is not None, (label, query.query_id)
        query.breakdown.validate(
            end_to_end=query.end_to_end_latency,
            where=f"{label} query {query.query_id}",
        )


@pytest.mark.parametrize("policy", POLICIES)
def test_single_node_nsm_conserves(nsm_layout, small_config, policy):
    abm = make_nsm_abm(nsm_layout, small_config, policy)
    streams = [
        [make_request(1, range(0, 24), cpu_per_chunk=0.01)],
        [make_request(2, range(8, 32), cpu_per_chunk=0.002)],
        [make_request(3, range(0, 32), cpu_per_chunk=0.02)],
    ]
    result = run_simulation(streams, small_config, abm)
    _assert_conserves(result.queries, f"nsm/{policy}")


@pytest.mark.parametrize("policy", POLICIES)
def test_single_node_dsm_conserves(dsm_layout, small_config, policy):
    abm = make_dsm_abm(dsm_layout, small_config, policy)
    streams = [
        [make_request(1, range(0, 16), columns=("key", "price"))],
        [make_request(2, range(4, 24), columns=("price", "flag"))],
        [make_request(3, range(0, 24), columns=("key",), cpu_per_chunk=0.02)],
    ]
    result = run_simulation(streams, small_config, abm)
    _assert_conserves(result.queries, f"dsm/{policy}")


def test_breakdowns_off_leaves_none_and_identical_schedule(
    nsm_layout, small_config
):
    streams = [
        [make_request(1, range(0, 24))],
        [make_request(2, range(8, 32), cpu_per_chunk=0.002)],
    ]
    on = run_simulation(
        streams, small_config, make_nsm_abm(nsm_layout, small_config, "attach")
    )
    off = run_simulation(
        streams,
        small_config,
        make_nsm_abm(nsm_layout, small_config, "attach"),
        breakdowns=False,
    )
    assert scheduling_fingerprint(on) == scheduling_fingerprint(off)
    assert all(query.breakdown is None for query in off.queries)
    assert all(query.breakdown is not None for query in on.queries)
    assert off.disk_busy_timeline == ()


def test_disk_busy_timeline_is_monotone(nsm_layout, small_config):
    result = run_simulation(
        [[make_request(1, range(0, 32))]],
        small_config,
        make_nsm_abm(nsm_layout, small_config, "normal"),
    )
    points = result.disk_busy_timeline
    assert points
    assert all(a[0] <= b[0] and a[1] <= b[1]
               for a, b in zip(points, points[1:]))


def _nsm_service_run(policy):
    from tests.conftest import make_request as _make

    from repro.common.config import BufferConfig, CpuConfig, DiskConfig, SystemConfig
    from repro.common.units import KB
    from repro.storage.schema import ColumnSpec, DataType, TableSchema

    config = SystemConfig(
        disk=DiskConfig(bandwidth_bytes_per_s=100 * MB, avg_seek_s=0.002,
                        sequential_seek_s=0.0005),
        cpu=CpuConfig(cores=2),
        buffer=BufferConfig(chunk_bytes=1 * MB, page_bytes=64 * KB,
                            capacity_chunks=8),
        stream_start_delay_s=0.5,
    )
    schema = TableSchema.build(
        "tiny",
        [ColumnSpec("a", DataType.INT64), ColumnSpec("b", DataType.INT64),
         ColumnSpec("c", DataType.DECIMAL), ColumnSpec("d", DataType.DECIMAL)],
    )
    tuples = NUM_CHUNKS * (config.buffer.chunk_bytes // 32)
    layout = NSMTableLayout.from_buffer_config(schema, tuples, config.buffer)
    arrivals = [
        Arrival(0.2 * index, _make(index + 1, range(NUM_CHUNKS),
                                   cpu_per_chunk=0.001))
        for index in range(6)
    ]
    return run_service(
        arrivals, config, make_nsm_abm(layout, config, policy), ServiceConfig()
    )


def test_service_run_conserves():
    result = _nsm_service_run("attach")
    _assert_conserves(result.run.queries, "service/attach")
    assert result.slo.blame is not None
    assert result.slo.blame.overall.count == len(result.run.queries)
    # Blame never leaks into the stable SLO dict.
    assert "blame" not in result.slo.as_dict()


# --------------------------------------------------------- cluster property
def _cluster_run(tiny_schema, small_config, cluster, policy="relevance"):
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
            policy,
            capacity_chunks=4,
        )
        for shard in range(cluster.shards)
    ]
    arrivals = [
        Arrival(0.1 * index, make_request(index + 1, range(NUM_CHUNKS),
                                          name="F", cpu_per_chunk=0.001))
        for index in range(10)
    ]
    return run_cluster_service(arrivals, small_config, abms, cluster)


def _assert_cluster_conserves(result, label):
    assert result.records, label
    for record in result.records:
        assert record.breakdown is not None, (label, record.query_id)
        record.breakdown.validate(
            end_to_end=record.end_to_end_latency,
            where=f"{label} query {record.query_id}",
        )
        assert record.breakdown.critical_shard == record.critical_shard
    assert result.slo.blame is not None
    assert result.slo.blame.overall.count == len(result.records)


def test_cluster_legacy_conserves(tiny_schema, small_config):
    result = _cluster_run(tiny_schema, small_config, ClusterConfig(shards=4))
    _assert_cluster_conserves(result, "legacy")
    # A free coordinator has no NIC/CPU phases at all.
    for record in result.records:
        assert record.breakdown.coordinator_cpu == 0.0
        assert record.breakdown.scatter_nic == 0.0


def test_cluster_modeled_coordinator_conserves(tiny_schema, small_config):
    cluster = ClusterConfig(
        shards=4,
        coordinator=CoordinatorConfig(
            classify_s=0.002, scatter_per_subquery_s=0.001,
            gather_per_subquery_s=0.001, merge_per_query_s=0.003,
        ),
        network=NetworkConfig(bandwidth_bytes_per_s=50 * MB,
                              per_message_s=0.0005),
    )
    result = _cluster_run(tiny_schema, small_config, cluster)
    _assert_cluster_conserves(result, "modeled")
    assert any(record.breakdown.coordinator_cpu > 0.0
               for record in result.records)
    assert any(record.breakdown.gather_cpu > 0.0 for record in result.records)


def test_cluster_mid_run_kill_conserves(tiny_schema, small_config):
    cluster = ClusterConfig(
        shards=4, replicas=2,
        failures=FailureConfig(events=(FailureEvent(0.6, 1, "kill"),)),
    )
    result = _cluster_run(tiny_schema, small_config, cluster)
    _assert_cluster_conserves(result, "kill")


def test_cluster_hedged_straggler_conserves(tiny_schema, small_config):
    cluster = ClusterConfig(
        shards=4, replicas=2,
        failures=FailureConfig(events=(FailureEvent(0.2, 2, "degrade"),),
                               degrade_factor=0.05),
        hedge=HedgeConfig(quantile=0.9, min_samples=4, multiplier=1.0),
    )
    result = _cluster_run(tiny_schema, small_config, cluster)
    _assert_cluster_conserves(result, "hedge")


@pytest.mark.parametrize("policy", POLICIES)
def test_cluster_conserves_under_every_policy(tiny_schema, small_config, policy):
    result = _cluster_run(
        tiny_schema, small_config, ClusterConfig(shards=4), policy=policy
    )
    _assert_cluster_conserves(result, f"cluster/{policy}")


def test_breakdown_phases_cover_dataclass_fields():
    breakdown = LatencyBreakdown()
    for name in BREAKDOWN_PHASES:
        assert hasattr(breakdown, name)
