"""The coordinator as a real resource: cost threading + zero-cost gating.

Two halves.  The *gating* half pins the acceptance bar of the refactor:
a zero-cost :class:`CoordinatorConfig`/:class:`NetworkConfig` (the
defaults, passed implicitly or explicitly) must reproduce the legacy
free-coordinator behaviour bit for bit — same scheduling fingerprints,
same SLO dicts, no coordinator section anywhere — across NSM/DSM, every
policy and 1/4 shards.  The *costed* half checks the modeled resource
actually does something: deliveries and completions gain delay, the books
balance (ops and messages against the scatter/gather protocol), the
merged SLO report carries utilisations and saturation warnings, the
utilisation timelines validate, the lockstep frontier guard fires on
causality violations, and tracing a costed run changes nothing.
"""

from __future__ import annotations

import pytest

from repro.cluster import ShardMap, run_cluster_service
from repro.common.config import (
    ClusterConfig,
    CoordinatorConfig,
    NetworkConfig,
    ObservabilityConfig,
)
from repro.common.errors import SimulationError
from repro.metrics.timeline import validate_timeline
from repro.service.arrivals import poisson_arrivals
from repro.sim.lockstep import LockstepRunner
from repro.sim.results import scheduling_fingerprint as _fingerprint
from repro.sim.setup import make_dsm_abm, make_nsm_abm
from repro.storage.dsm import DSMTableLayout
from repro.storage.nsm import NSMTableLayout
from repro.workload.queries import QueryFamily, QueryTemplate

ARRIVAL_SEED = 41
NUM_QUERIES = 12
RATE_QPS = 1.2

#: A deliberately expensive coordinator for the costed tests.
COSTED_COORDINATOR = CoordinatorConfig(
    classify_s=0.01,
    scatter_per_subquery_s=0.005,
    gather_per_subquery_s=0.005,
    merge_per_query_s=0.01,
)
COSTED_NETWORK = NetworkConfig(
    bandwidth_bytes_per_s=10 * 1024 * 1024,
    per_message_s=0.002,
)


def _nsm_templates():
    fast = QueryFamily("F", cpu_per_chunk=0.002)
    slow = QueryFamily("S", cpu_per_chunk=0.02)
    return [QueryTemplate(fast, 25), QueryTemplate(slow, 50)]


def _dsm_templates():
    narrow = QueryFamily("F", cpu_per_chunk=0.002, columns=("key", "price"))
    wide = QueryFamily("S", cpu_per_chunk=0.02, columns=("key", "ref", "date"))
    return [QueryTemplate(narrow, 25), QueryTemplate(wide, 50)]


def _nsm_cluster(tiny_schema, small_config, shards, **cluster_kwargs):
    """(arrivals, cluster, shard_abms factory) for an NSM cluster."""
    cluster = ClusterConfig(
        shards=shards, placement="range", mpl_per_shard=2, **cluster_kwargs
    )
    tuples_per_chunk = small_config.buffer.chunk_bytes // 32
    num_chunks = 32
    global_layout = NSMTableLayout.from_buffer_config(
        tiny_schema, num_chunks * tuples_per_chunk, small_config.buffer
    )
    shard_map = ShardMap.from_cluster_config(cluster, num_chunks)
    arrivals = poisson_arrivals(
        _nsm_templates(), global_layout, RATE_QPS, NUM_QUERIES,
        seed=ARRIVAL_SEED,
    )

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
                capacity_chunks=8,
            )
            for shard in range(shards)
        ]

    return arrivals, cluster, shard_abms


def _dsm_cluster(dsm_schema, small_config, shards, **cluster_kwargs):
    """(arrivals, cluster, shard_abms factory) for a DSM cluster."""
    cluster = ClusterConfig(
        shards=shards, placement="range", mpl_per_shard=2, **cluster_kwargs
    )
    tuples_per_chunk = 25_000
    num_chunks = 32
    global_layout = DSMTableLayout(
        schema=dsm_schema,
        num_tuples=num_chunks * tuples_per_chunk,
        tuples_per_chunk=tuples_per_chunk,
        page_bytes=small_config.buffer.page_bytes,
    )
    shard_map = ShardMap.from_cluster_config(cluster, num_chunks)
    arrivals = poisson_arrivals(
        _dsm_templates(), global_layout, RATE_QPS, NUM_QUERIES,
        seed=ARRIVAL_SEED,
    )

    def shard_abms():
        abms = []
        for shard in range(shards):
            local = DSMTableLayout(
                schema=dsm_schema,
                num_tuples=shard_map.chunks_owned(shard) * tuples_per_chunk,
                tuples_per_chunk=tuples_per_chunk,
                page_bytes=small_config.buffer.page_bytes,
            )
            capacity_pages = max(64, int(local.table_pages() * 0.35))
            abms.append(
                make_dsm_abm(
                    local, small_config, "relevance",
                    capacity_pages=capacity_pages,
                )
            )
        return abms

    return arrivals, cluster, shard_abms


def _policy_cluster(tiny_schema, small_config, shards, policy, **cluster_kwargs):
    arrivals, cluster, _ = _nsm_cluster(
        tiny_schema, small_config, shards, **cluster_kwargs
    )
    tuples_per_chunk = small_config.buffer.chunk_bytes // 32
    shard_map = ShardMap.from_cluster_config(cluster, 32)

    def shard_abms():
        return [
            make_nsm_abm(
                NSMTableLayout.from_buffer_config(
                    tiny_schema,
                    shard_map.chunks_owned(shard) * tuples_per_chunk,
                    small_config.buffer,
                ),
                small_config,
                policy,
                capacity_chunks=8,
            )
            for shard in range(shards)
        ]

    return arrivals, cluster, shard_abms


class TestZeroCostDefaultsAreLegacy:
    """Default (free) configs select the legacy path, bit for bit."""

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize(
        "policy", ["normal", "attach", "elevator", "relevance"]
    )
    def test_nsm_explicit_free_configs_change_nothing(
        self, tiny_schema, small_config, shards, policy
    ):
        arrivals, implicit, shard_abms = _policy_cluster(
            tiny_schema, small_config, shards, policy
        )
        explicit = ClusterConfig(
            shards=shards,
            placement="range",
            mpl_per_shard=2,
            coordinator=CoordinatorConfig(),
            network=NetworkConfig(),
        )
        assert not implicit.models_coordinator
        assert not explicit.models_coordinator
        baseline = run_cluster_service(
            arrivals, small_config, shard_abms(), implicit, record_trace=True
        )
        rerun = run_cluster_service(
            arrivals, small_config, shard_abms(), explicit, record_trace=True
        )
        for run_a, run_b in zip(baseline.shard_runs, rerun.shard_runs):
            assert _fingerprint(run_a) == _fingerprint(run_b)
        assert baseline.slo == rerun.slo
        assert baseline.slo.as_dict() == rerun.slo.as_dict()

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("policy", ["normal", "relevance"])
    def test_dsm_explicit_free_configs_change_nothing(
        self, dsm_schema, small_config, shards, policy
    ):
        arrivals, implicit, _ = _dsm_cluster(dsm_schema, small_config, shards)
        explicit = ClusterConfig(
            shards=shards,
            placement="range",
            mpl_per_shard=2,
            coordinator=CoordinatorConfig(),
            network=NetworkConfig(),
        )
        tuples_per_chunk = 25_000
        shard_map = ShardMap.from_cluster_config(implicit, 32)

        def shard_abms():
            abms = []
            for shard in range(shards):
                local = DSMTableLayout(
                    schema=dsm_schema,
                    num_tuples=shard_map.chunks_owned(shard) * tuples_per_chunk,
                    tuples_per_chunk=tuples_per_chunk,
                    page_bytes=small_config.buffer.page_bytes,
                )
                abms.append(
                    make_dsm_abm(
                        local, small_config, policy,
                        capacity_pages=max(64, int(local.table_pages() * 0.35)),
                    )
                )
            return abms

        baseline = run_cluster_service(
            arrivals, small_config, shard_abms(), implicit, record_trace=True
        )
        rerun = run_cluster_service(
            arrivals, small_config, shard_abms(), explicit, record_trace=True
        )
        for run_a, run_b in zip(baseline.shard_runs, rerun.shard_runs):
            assert _fingerprint(run_a) == _fingerprint(run_b)
        assert baseline.slo == rerun.slo

    def test_free_run_has_no_coordinator_section(
        self, tiny_schema, small_config
    ):
        arrivals, cluster, shard_abms = _nsm_cluster(
            tiny_schema, small_config, shards=2
        )
        result = run_cluster_service(
            arrivals, small_config, shard_abms(), cluster
        )
        assert result.coordinator is None
        assert result.slo.coordinator is None
        assert result.coordinator_timelines == {}
        assert not any(
            key.startswith("coordinator_") for key in result.slo.as_dict()
        )


class TestCostedCoordinator:
    def _run(self, tiny_schema, small_config, shards=2, obs=None, **costs):
        arrivals, cluster, shard_abms = _nsm_cluster(
            tiny_schema, small_config, shards,
            coordinator=costs.pop("coordinator", COSTED_COORDINATOR),
            network=costs.pop("network", COSTED_NETWORK),
        )
        assert cluster.models_coordinator
        return run_cluster_service(
            arrivals, small_config, shard_abms(), cluster, obs=obs
        )

    def test_costed_run_completes_every_query(self, tiny_schema, small_config):
        result = self._run(tiny_schema, small_config)
        assert len(result.records) == NUM_QUERIES
        assert result.slo.completed == NUM_QUERIES

    def test_coordinator_delay_shows_in_latencies(
        self, tiny_schema, small_config
    ):
        arrivals, free_cluster, shard_abms = _nsm_cluster(
            tiny_schema, small_config, shards=2
        )
        free = run_cluster_service(
            arrivals, small_config, shard_abms(), free_cluster
        )
        costed = self._run(tiny_schema, small_config)
        free_by_id = {record.query_id: record for record in free.records}
        for record in costed.records:
            twin = free_by_id[record.query_id]
            # Gather messages + gather/merge CPU push every completion
            # strictly past its free-coordinator twin.
            assert record.finish_time > twin.finish_time
            assert record.execution_latency > 0.0
        assert costed.slo.latency.mean > free.slo.latency.mean
        assert costed.slo.duration >= free.slo.duration

    def test_books_balance_with_the_protocol(self, tiny_schema, small_config):
        result = self._run(tiny_schema, small_config)
        section = result.coordinator
        assert section is not None
        subqueries = sum(len(record.shards) for record in result.records)
        # One scatter CPU charge per admitted query, one gather charge per
        # sub-query completion.
        assert section.cpu_ops == len(result.records) + subqueries
        # The coordinator NIC carries every scatter out and every gather in.
        assert section.nic_messages == 2 * subqueries
        expected_bytes = subqueries * (
            COSTED_NETWORK.scatter_message_bytes
            + COSTED_NETWORK.gather_message_bytes
        )
        assert section.nic_bytes == expected_bytes
        assert 0.0 < section.cpu_utilisation <= 1.0
        assert 0.0 < section.nic_utilisation <= 1.0

    def test_slo_dict_carries_the_coordinator_section(
        self, tiny_schema, small_config
    ):
        result = self._run(tiny_schema, small_config)
        as_dict = result.slo.as_dict()
        assert as_dict["coordinator_cpu_utilisation"] == (
            result.coordinator.cpu_utilisation
        )
        assert as_dict["coordinator_nic_messages"] == (
            result.coordinator.nic_messages
        )
        assert "coordinator_warnings" in as_dict

    def test_timelines_come_back_validated_and_nonempty(
        self, tiny_schema, small_config
    ):
        result = self._run(tiny_schema, small_config)
        assert result.coordinator_timelines["coordinator_cpu"]
        assert result.coordinator_timelines["coordinator_nic"]
        for name, points in result.coordinator_timelines.items():
            validate_timeline(points, where=name)

    def test_saturated_coordinator_is_blamed(self, tiny_schema, small_config):
        result = self._run(
            tiny_schema,
            small_config,
            coordinator=CoordinatorConfig(
                classify_s=2.0,
                scatter_per_subquery_s=0.8,
                gather_per_subquery_s=0.8,
                merge_per_query_s=0.8,
                queue_delay_warn_s=0.25,
            ),
            network=COSTED_NETWORK,
        )
        section = result.coordinator
        assert section.saturated
        assert section.cpu_utilisation >= 0.9
        assert any("bottleneck" in warning for warning in section.warnings)

    def test_determinism(self, tiny_schema, small_config):
        first = self._run(tiny_schema, small_config)
        second = self._run(tiny_schema, small_config)
        for run_a, run_b in zip(first.shard_runs, second.shard_runs):
            assert _fingerprint(run_a) == _fingerprint(run_b)
        assert first.slo == second.slo
        assert first.coordinator == second.coordinator

    def test_tracing_a_costed_run_changes_nothing(
        self, tiny_schema, small_config
    ):
        plain = self._run(tiny_schema, small_config)
        traced = self._run(
            tiny_schema, small_config, obs=ObservabilityConfig()
        )
        for run_a, run_b in zip(plain.shard_runs, traced.shard_runs):
            assert _fingerprint(run_a) == _fingerprint(run_b)
        assert plain.slo.as_dict() == traced.slo.as_dict()
        assert plain.coordinator == traced.coordinator

    def test_costed_run_emits_coordinator_trace_events(
        self, tiny_schema, small_config
    ):
        result = self._run(
            tiny_schema, small_config, obs=ObservabilityConfig()
        )
        recorder = result.obs
        names = [event.name for event in recorder.events]
        assert "coordinator.cpu.scatter" in names
        assert "coordinator.net.scatter" in names
        assert "coordinator.net.gather" in names
        assert names.count("coordinator.cpu.gather-merge") == NUM_QUERIES
        assert "coordinator.cpu.util" in recorder.metrics.names()
        assert "coordinator.nic.util" in recorder.metrics.names()

    def test_records_order_and_mpl_timeline_stay_valid(
        self, tiny_schema, small_config
    ):
        result = self._run(tiny_schema, small_config)
        validate_timeline(result.mpl_timeline, where="costed MPL timeline")
        ids = [record.query_id for record in result.records]
        assert ids == sorted(ids)


class _StuckSimulator:
    """Minimal ScanSimulator stand-in whose first event is at ``when``."""

    flight_recorder = None

    def __init__(self, when: float) -> None:
        self.when = when
        self.stepped = False

    def begin_run(self):
        pass

    def is_done(self):
        return self.stepped

    def next_step_time(self):
        return self.when

    def step(self, now):
        self.stepped = True

    def finish(self):
        return None

    def progress_summary(self):
        return "stub"


class _FrozenMessages:
    def __init__(self, due: float) -> None:
        self.due = due

    def earliest_in_flight(self):
        return self.due


class TestLockstepMessageGuard:
    def test_frontier_may_not_pass_an_undelivered_message(self):
        runner = LockstepRunner(
            [_StuckSimulator(when=5.0)],
            message_source=_FrozenMessages(due=1.0),
        )
        with pytest.raises(SimulationError, match="undelivered"):
            runner.run()

    def test_messages_at_the_frontier_are_fine(self):
        runner = LockstepRunner(
            [_StuckSimulator(when=5.0)],
            message_source=_FrozenMessages(due=5.0),
        )
        assert runner.run() == [None]

    def test_no_message_source_is_the_legacy_path(self):
        runner = LockstepRunner([_StuckSimulator(when=5.0)])
        assert runner.run() == [None]
