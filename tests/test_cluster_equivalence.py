"""Golden-trace equivalence: a 1-shard cluster IS the single-node service.

The cluster layer (front admission queue, scatter-gather coordinator,
lockstep multi-simulator driver) must add no behaviour of its own: with one
shard, every query becomes exactly one sub-query identical to itself, and
the whole stack must reproduce :func:`repro.service.run_service` bit for
bit — same scheduling decisions, same per-query timings and I/O trace
(compared via :func:`repro.sim.results.scheduling_fingerprint`) and the
same SLO report, across NSM/DSM, every policy, both admission disciplines
and a shedding (bounded-queue) configuration.

A multi-shard determinism check rides along: the same cluster run repeated
from fresh ABMs must reproduce itself exactly.
"""

from __future__ import annotations

import pytest

from repro.cluster import run_cluster_service
from repro.common.config import (
    AdaptiveMPLConfig,
    ClusterConfig,
    ServiceConfig,
    WorkloadClassConfig,
)
from repro.service import run_service
from repro.sim.results import scheduling_fingerprint as _fingerprint
from repro.sim.setup import make_dsm_abm, make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.workload.queries import QueryFamily, QueryTemplate
from repro.service.arrivals import poisson_arrivals

ARRIVAL_SEED = 97
NUM_QUERIES = 14
RATE_QPS = 0.9


def _nsm_templates():
    fast = QueryFamily("F", cpu_per_chunk=0.002)
    slow = QueryFamily("S", cpu_per_chunk=0.02)
    return [
        QueryTemplate(fast, 10),
        QueryTemplate(fast, 50),
        QueryTemplate(slow, 100),
    ]


def _dsm_templates():
    narrow = QueryFamily("F", cpu_per_chunk=0.002, columns=("key", "price"))
    wide = QueryFamily("S", cpu_per_chunk=0.02, columns=("key", "ref", "date"))
    return [
        QueryTemplate(narrow, 10),
        QueryTemplate(wide, 50),
        QueryTemplate(wide, 100),
    ]


def _arrivals(templates, layout):
    return poisson_arrivals(
        templates, layout, RATE_QPS, NUM_QUERIES, seed=ARRIVAL_SEED
    )


def _cluster_of(service: ServiceConfig) -> ClusterConfig:
    return ClusterConfig(
        shards=1,
        mpl_per_shard=service.max_concurrent,
        queue_capacity=service.queue_capacity,
        discipline=service.discipline,
        classes=service.classes,
        adaptive=service.adaptive,
    )


def _assert_equivalent(single, clustered):
    assert len(clustered.shard_runs) == 1
    assert _fingerprint(single.run) == _fingerprint(clustered.shard_runs[0])
    assert single.slo == clustered.slo
    # The gathered records agree with the single-simulator per-query results.
    by_id = {query.query_id: query for query in single.run.queries}
    assert sorted(by_id) == [record.query_id for record in clustered.records]
    for record in clustered.records:
        query = by_id[record.query_id]
        assert record.finish_time == query.finish_time
        assert record.admit_time == query.arrival_time
        assert record.submit_time == query.submit_time
        assert record.loads_triggered == query.loads_triggered
        assert record.shards == (0,)


class TestOneShardEquivalenceNSM:
    @pytest.mark.parametrize("policy", ["normal", "attach", "elevator", "relevance"])
    def test_policies_bit_for_bit(self, nsm_layout, small_config, policy):
        arrivals = _arrivals(_nsm_templates(), nsm_layout)
        service = ServiceConfig(max_concurrent=4, queue_capacity=64)
        single = run_service(
            arrivals,
            small_config,
            make_nsm_abm(nsm_layout, small_config, policy, capacity_chunks=8),
            service,
            record_trace=True,
        )
        clustered = run_cluster_service(
            arrivals,
            small_config,
            [make_nsm_abm(nsm_layout, small_config, policy, capacity_chunks=8)],
            _cluster_of(service),
            record_trace=True,
        )
        _assert_equivalent(single, clustered)

    @pytest.mark.parametrize(
        "service",
        [
            ServiceConfig(max_concurrent=2, queue_capacity=3),  # sheds overload
            ServiceConfig(max_concurrent=3, discipline="sjf"),
        ],
        ids=["bounded-queue", "sjf"],
    )
    def test_admission_variants_bit_for_bit(self, nsm_layout, small_config, service):
        arrivals = _arrivals(_nsm_templates(), nsm_layout)
        single = run_service(
            arrivals,
            small_config,
            make_nsm_abm(nsm_layout, small_config, "relevance", capacity_chunks=8),
            service,
            record_trace=True,
        )
        clustered = run_cluster_service(
            arrivals,
            small_config,
            [make_nsm_abm(nsm_layout, small_config, "relevance", capacity_chunks=8)],
            _cluster_of(service),
            record_trace=True,
        )
        assert _fingerprint(single.run) == _fingerprint(clustered.shard_runs[0])
        assert single.slo == clustered.slo
        assert clustered.slo.shed == single.slo.shed


class TestOneShardEquivalenceDSM:
    @pytest.mark.parametrize("policy", ["normal", "attach", "elevator", "relevance"])
    def test_policies_bit_for_bit(self, dsm_layout, small_config, policy):
        arrivals = _arrivals(_dsm_templates(), dsm_layout)
        service = ServiceConfig(max_concurrent=4, queue_capacity=64)
        capacity_pages = max(64, int(dsm_layout.table_pages() * 0.3))

        def abm():
            return make_dsm_abm(
                dsm_layout, small_config, policy, capacity_pages=capacity_pages
            )

        single = run_service(
            arrivals, small_config, abm(), service, record_trace=True
        )
        clustered = run_cluster_service(
            arrivals,
            small_config,
            [abm()],
            _cluster_of(service),
            record_trace=True,
        )
        _assert_equivalent(single, clustered)


class TestFrontDoorConfigEquivalence:
    """The unified front door adds no behaviour of its own: an explicit
    single-class FIFO config, the implicit classless config, and a frozen
    adaptive controller all reproduce the same run bit for bit, through
    both ``run_service`` and a 1-shard ``run_cluster_service``."""

    def _single(self, nsm_layout, small_config, service):
        return run_service(
            _arrivals(_nsm_templates(), nsm_layout),
            small_config,
            make_nsm_abm(nsm_layout, small_config, "relevance", capacity_chunks=8),
            service,
            record_trace=True,
        )

    def _clustered(self, nsm_layout, small_config, service):
        return run_cluster_service(
            _arrivals(_nsm_templates(), nsm_layout),
            small_config,
            [make_nsm_abm(nsm_layout, small_config, "relevance", capacity_chunks=8)],
            _cluster_of(service),
            record_trace=True,
        )

    def test_explicit_default_class_is_the_implicit_config(
        self, nsm_layout, small_config
    ):
        implicit = ServiceConfig(max_concurrent=3, queue_capacity=16)
        explicit = ServiceConfig(
            max_concurrent=3,
            queue_capacity=16,
            classes=(WorkloadClassConfig("default", weight=1.0),),
        )
        single_implicit = self._single(nsm_layout, small_config, implicit)
        single_explicit = self._single(nsm_layout, small_config, explicit)
        assert _fingerprint(single_implicit.run) == _fingerprint(
            single_explicit.run
        )
        assert single_implicit.slo == single_explicit.slo
        clustered_explicit = self._clustered(nsm_layout, small_config, explicit)
        assert _fingerprint(single_explicit.run) == _fingerprint(
            clustered_explicit.shard_runs[0]
        )
        assert single_explicit.slo == clustered_explicit.slo

    def test_class_slices_match_across_front_doors(
        self, nsm_layout, small_config
    ):
        service = ServiceConfig(max_concurrent=3)
        single = self._single(nsm_layout, small_config, service)
        clustered = self._clustered(nsm_layout, small_config, service)
        assert single.slo.classes == clustered.slo.classes
        (slice_,) = single.slo.classes
        assert slice_.query_class == "default"
        assert slice_.completed == single.slo.completed

    def test_adaptive_controller_equivalent_across_front_doors(
        self, nsm_layout, small_config
    ):
        service = ServiceConfig(
            max_concurrent=3,
            adaptive=AdaptiveMPLConfig(
                target_p95_s=30.0, min_mpl=1, max_mpl=8, adjust_every=2
            ),
        )
        single = self._single(nsm_layout, small_config, service)
        clustered = self._clustered(nsm_layout, small_config, service)
        assert _fingerprint(single.run) == _fingerprint(clustered.shard_runs[0])
        assert single.slo == clustered.slo
        assert single.mpl_timeline == clustered.mpl_timeline


class TestResilientDefaultsEquivalence:
    """``replicas=1`` with an empty failure schedule and no hedge policy is
    *not* resilient mode: it must take the legacy cluster path and
    reproduce today's results bit for bit (fingerprints and SLO reports),
    across layouts, policies and shard counts."""

    def _nsm_cluster(self, tiny_schema, small_config, cluster, policy):
        from repro.cluster import ShardMap

        num_chunks = 32
        shard_map = ShardMap.from_cluster_config(cluster, num_chunks)
        tuples_per_chunk = small_config.buffer.chunk_bytes // 32
        global_layout = NSMTableLayout.from_buffer_config(
            tiny_schema, num_chunks * tuples_per_chunk, small_config.buffer
        )
        abms = [
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
            for shard in range(cluster.shards)
        ]
        return run_cluster_service(
            _arrivals(_nsm_templates(), global_layout),
            small_config,
            abms,
            cluster,
            record_trace=True,
        )

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize(
        "policy", ["normal", "attach", "elevator", "relevance"]
    )
    def test_nsm_explicit_defaults_bit_for_bit(
        self, tiny_schema, small_config, shards, policy
    ):
        from repro.common.config import FailureConfig

        plain = ClusterConfig(shards=shards, mpl_per_shard=3)
        explicit = ClusterConfig(
            shards=shards,
            mpl_per_shard=3,
            replicas=1,
            failures=FailureConfig(),
            hedge=None,
        )
        baseline = self._nsm_cluster(tiny_schema, small_config, plain, policy)
        pinned = self._nsm_cluster(tiny_schema, small_config, explicit, policy)
        for run_a, run_b in zip(baseline.shard_runs, pinned.shard_runs):
            assert _fingerprint(run_a) == _fingerprint(run_b)
        assert baseline.slo == pinned.slo
        assert pinned.availability is None
        assert pinned.slo.availability is None

    @pytest.mark.parametrize(
        "policy", ["normal", "attach", "elevator", "relevance"]
    )
    def test_dsm_explicit_defaults_bit_for_bit(
        self, dsm_layout, small_config, policy
    ):
        from repro.common.config import FailureConfig

        arrivals = _arrivals(_dsm_templates(), dsm_layout)
        capacity_pages = max(64, int(dsm_layout.table_pages() * 0.3))

        def run(cluster):
            return run_cluster_service(
                arrivals,
                small_config,
                [
                    make_dsm_abm(
                        dsm_layout,
                        small_config,
                        policy,
                        capacity_pages=capacity_pages,
                    )
                ],
                cluster,
                record_trace=True,
            )

        baseline = run(ClusterConfig(shards=1, mpl_per_shard=4))
        pinned = run(
            ClusterConfig(
                shards=1, mpl_per_shard=4, replicas=1, failures=FailureConfig()
            )
        )
        assert _fingerprint(baseline.shard_runs[0]) == _fingerprint(
            pinned.shard_runs[0]
        )
        assert baseline.slo == pinned.slo
        assert pinned.availability is None


class TestMultiShardDeterminism:
    def _run(self, tiny_schema, small_config, shards):
        from repro.cluster import ShardMap

        cluster = ClusterConfig(shards=shards, mpl_per_shard=3)
        num_chunks = 32
        shard_map = ShardMap.from_cluster_config(cluster, num_chunks)
        tuples_per_chunk = small_config.buffer.chunk_bytes // 32
        global_layout = NSMTableLayout.from_buffer_config(
            tiny_schema, num_chunks * tuples_per_chunk, small_config.buffer
        )
        arrivals = _arrivals(_nsm_templates(), global_layout)
        abms = []
        for shard in range(shards):
            local_layout = NSMTableLayout.from_buffer_config(
                tiny_schema,
                shard_map.chunks_owned(shard) * tuples_per_chunk,
                small_config.buffer,
            )
            abms.append(
                make_nsm_abm(
                    local_layout, small_config, "relevance", capacity_chunks=8
                )
            )
        return run_cluster_service(
            arrivals, small_config, abms, cluster, record_trace=True
        )

    @pytest.mark.parametrize("shards", [2, 4])
    def test_repeat_runs_identical(self, tiny_schema, small_config, shards):
        first = self._run(tiny_schema, small_config, shards)
        second = self._run(tiny_schema, small_config, shards)
        for run_a, run_b in zip(first.shard_runs, second.shard_runs):
            assert _fingerprint(run_a) == _fingerprint(run_b)
        assert first.slo == second.slo
        assert len(first.records) == NUM_QUERIES
