"""Tests for repro.common.config."""

import pytest

from repro.common.config import (
    BufferConfig,
    ClusterConfig,
    CoordinatorConfig,
    CpuConfig,
    DiskConfig,
    NetworkConfig,
    PAPER_DSM_SYSTEM,
    PAPER_NSM_SYSTEM,
    ServiceConfig,
    SystemConfig,
    WorkloadClassConfig,
)
from repro.common.errors import ConfigurationError
from repro.common.units import MB


class TestDiskConfig:
    def test_rejects_negative_bandwidth(self):
        with pytest.raises(ConfigurationError):
            DiskConfig(bandwidth_bytes_per_s=-1)

    def test_rejects_negative_seek(self):
        with pytest.raises(ConfigurationError):
            DiskConfig(avg_seek_s=-0.001)

    def test_rejects_bad_volume_parameters(self):
        with pytest.raises(ConfigurationError):
            DiskConfig(volumes=0)
        with pytest.raises(ConfigurationError):
            DiskConfig(placement="mirrored")

    def test_with_volumes_returns_modified_copy(self):
        disk = DiskConfig()
        wide = disk.with_volumes(4, "range")
        assert (wide.volumes, wide.placement) == (4, "range")
        assert (disk.volumes, disk.placement) == (1, "striped")


class TestCpuConfig:
    def test_rate_with_fewer_queries_than_cores(self):
        assert CpuConfig(cores=4).rate_per_query(2) == 1.0

    def test_rate_with_more_queries_than_cores(self):
        assert CpuConfig(cores=2).rate_per_query(8) == pytest.approx(0.25)

    def test_rate_with_no_queries(self):
        assert CpuConfig(cores=2).rate_per_query(0) == 0.0

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigurationError):
            CpuConfig(cores=0)


class TestBufferConfig:
    def test_capacity_bytes(self):
        buffer = BufferConfig(chunk_bytes=16 * MB, page_bytes=256 * 1024, capacity_chunks=4)
        assert buffer.capacity_bytes == 64 * MB

    def test_chunk_must_be_multiple_of_page(self):
        with pytest.raises(ConfigurationError):
            BufferConfig(chunk_bytes=1000, page_bytes=300)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            BufferConfig(capacity_chunks=0)

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ConfigurationError):
            BufferConfig(chunk_bytes=0)
        with pytest.raises(ConfigurationError):
            BufferConfig(page_bytes=-1)

    def test_defaults_match_the_paper(self):
        buffer = BufferConfig()
        assert buffer.chunk_bytes == 16 * MB
        assert buffer.chunk_bytes // buffer.page_bytes == 64
        assert buffer.capacity_bytes == 1024 * MB


class TestSystemConfig:
    def test_paper_nsm_buffer_is_1gb(self):
        assert PAPER_NSM_SYSTEM.buffer.capacity_bytes == 1024 * MB

    def test_paper_dsm_buffer_is_1_5gb(self):
        assert PAPER_DSM_SYSTEM.buffer.capacity_bytes == 1536 * MB

    def test_chunk_load_time_includes_seek(self):
        config = SystemConfig()
        sequential = config.chunk_load_time(sequential=True)
        random = config.chunk_load_time(sequential=False)
        assert random > sequential

    def test_chunk_load_time_scales_with_size(self):
        config = SystemConfig()
        assert config.chunk_load_time(32 * MB) > config.chunk_load_time(16 * MB)

    def test_with_buffer_chunks_returns_modified_copy(self):
        config = SystemConfig()
        resized = config.with_buffer_chunks(16)
        assert resized.buffer.capacity_chunks == 16
        assert config.buffer.capacity_chunks == 64

    def test_describe_contains_key_parameters(self):
        description = SystemConfig().describe()
        assert description["cpu_cores"] == 2
        assert description["chunk_MB"] == 16.0
        assert description["buffer_chunks"] == 64
        assert description["disk_volumes"] == 1
        assert description["volume_placement"] == "striped"

    def test_system_with_volumes_returns_modified_copy(self):
        config = SystemConfig()
        wide = config.with_volumes(8)
        assert wide.disk.volumes == 8
        assert config.disk.volumes == 1

    def test_rejects_negative_stream_delay(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(stream_start_delay_s=-1.0)


class TestServiceConfigValidation:
    def test_rejects_non_positive_mpl(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_concurrent=0)

    def test_rejects_negative_queue_capacity(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(queue_capacity=-1)

    def test_rejects_unknown_discipline(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(discipline="lifo")

    def test_accepts_loss_system_and_unbounded_queue(self):
        assert ServiceConfig(queue_capacity=0).queue_capacity == 0
        assert ServiceConfig(queue_capacity=None).queue_capacity is None


class TestClusterConfig:
    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(shards=0)

    def test_rejects_non_positive_per_shard_mpl(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(mpl_per_shard=0)

    def test_rejects_unknown_placement(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(placement="hashed")

    def test_rejects_unknown_discipline(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(discipline="random")

    def test_rejects_negative_queue_capacity(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(queue_capacity=-5)

    def test_cluster_mpl_scales_with_shards(self):
        cluster = ClusterConfig(shards=4, mpl_per_shard=6)
        assert cluster.cluster_mpl == 24

    def test_front_service_mirrors_cluster_knobs(self):
        cluster = ClusterConfig(
            shards=2, mpl_per_shard=3, queue_capacity=10, discipline="sjf"
        )
        front = cluster.front_service()
        assert front.max_concurrent == 6
        assert front.queue_capacity == 10
        assert front.discipline == "sjf"
        assert cluster.discipline == "sjf"

    def test_one_shard_front_equals_plain_service(self):
        cluster = ClusterConfig(shards=1, mpl_per_shard=8)
        assert cluster.front_service() == ServiceConfig(max_concurrent=8)

    def test_describe_contains_key_parameters(self):
        description = ClusterConfig(shards=4, mpl_per_shard=2).describe()
        assert description["shards"] == 4
        assert description["cluster_mpl"] == 8
        assert description["shard_placement"] == "range"
        assert description["queue_capacity"] == "unbounded"


class TestRemovedPriorityDiscipline:
    def test_priority_is_rejected_naming_sjf(self):
        # The old name of "sjf" is no longer an alias: every config that
        # takes a discipline rejects it and lists "sjf" among the choices.
        with pytest.raises(ConfigurationError, match="'priority'.*'sjf'"):
            ServiceConfig(max_concurrent=2, discipline="priority")
        with pytest.raises(ConfigurationError, match="'priority'.*'sjf'"):
            ClusterConfig(shards=2, discipline="priority")
        with pytest.raises(ConfigurationError, match="'priority'.*'sjf'"):
            WorkloadClassConfig("batch", discipline="priority")

    def test_canonical_names_do_not_warn(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            for name in ("fifo", "sjf"):
                assert ServiceConfig(discipline=name).discipline == name


class TestCoordinatorConfig:
    def test_defaults_are_free(self):
        coordinator = CoordinatorConfig()
        assert coordinator.is_free
        assert ClusterConfig(shards=2).models_coordinator is False

    def test_any_cost_makes_it_non_free(self):
        assert not CoordinatorConfig(classify_s=0.01).is_free
        assert not CoordinatorConfig(scatter_per_subquery_s=0.01).is_free
        assert not CoordinatorConfig(gather_per_subquery_s=0.01).is_free
        assert not CoordinatorConfig(merge_per_query_s=0.01).is_free

    @pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_costs(self, value):
        with pytest.raises(ConfigurationError):
            CoordinatorConfig(classify_s=value)
        with pytest.raises(ConfigurationError):
            CoordinatorConfig(merge_per_query_s=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_rejects_bad_queue_delay_warn(self, value):
        with pytest.raises(ConfigurationError):
            CoordinatorConfig(queue_delay_warn_s=value)

    def test_describe_is_prefixed(self):
        description = CoordinatorConfig(classify_s=0.25).describe()
        assert description["coordinator_classify_s"] == 0.25
        assert "coordinator_merge_per_query_s" in description


class TestNetworkConfig:
    def test_defaults_are_free(self):
        network = NetworkConfig()
        assert network.is_free
        assert network.bandwidth_bytes_per_s is None

    def test_finite_bandwidth_or_overhead_is_non_free(self):
        assert not NetworkConfig(bandwidth_bytes_per_s=1e6).is_free
        assert not NetworkConfig(per_message_s=0.001).is_free

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_rejects_bad_bandwidth(self, value):
        with pytest.raises(ConfigurationError):
            NetworkConfig(bandwidth_bytes_per_s=value)

    def test_rejects_bad_message_costs(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(per_message_s=-0.1)
        with pytest.raises(ConfigurationError):
            NetworkConfig(scatter_message_bytes=-1)
        with pytest.raises(ConfigurationError):
            NetworkConfig(gather_message_bytes=1.5)

    def test_describe_reports_infinite_default_bandwidth(self):
        description = NetworkConfig().describe()
        assert description["network_bandwidth_bytes_per_s"] == "infinite"
        assert NetworkConfig(bandwidth_bytes_per_s=100.0).describe()[
            "network_bandwidth_bytes_per_s"
        ] == 100.0


class TestClusterCoordinatorWiring:
    def test_models_coordinator_when_either_side_costed(self):
        costed_cpu = ClusterConfig(
            shards=2, coordinator=CoordinatorConfig(classify_s=0.01)
        )
        costed_net = ClusterConfig(
            shards=2, network=NetworkConfig(per_message_s=0.001)
        )
        assert costed_cpu.models_coordinator
        assert costed_net.models_coordinator

    def test_rejects_wrong_types(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(shards=2, coordinator=object())
        with pytest.raises(ConfigurationError):
            ClusterConfig(shards=2, network=object())

    def test_describe_gated_on_modelling(self):
        free = ClusterConfig(shards=2).describe()
        assert "coordinator_classify_s" not in free
        costed = ClusterConfig(
            shards=2, coordinator=CoordinatorConfig(classify_s=0.01)
        ).describe()
        assert costed["coordinator_classify_s"] == 0.01
        assert costed["network_bandwidth_bytes_per_s"] == "infinite"
