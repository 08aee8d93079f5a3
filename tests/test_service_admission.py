"""Tests for the admission controller (MPL cap, queueing, shedding, classes)."""

import pytest

from repro.common.config import ServiceConfig, WorkloadClassConfig
from repro.common.errors import ConfigurationError
from repro.service.admission import (
    AdmissionController,
    default_job_size,
    layout_aware_job_size,
)
from tests.conftest import make_request


def controller(max_concurrent=2, queue_capacity=None, discipline="fifo", **kwargs):
    return AdmissionController(
        ServiceConfig(
            max_concurrent=max_concurrent,
            queue_capacity=queue_capacity,
            discipline=discipline,
            **kwargs,
        )
    )


def release_one(ctrl, query_class=None):
    """Release a slot and return the single query it admits (or None)."""
    released = ctrl.release(query_class)
    assert len(released) <= 1
    return released[0] if released else None


class TestServiceConfig:
    def test_defaults_valid(self):
        config = ServiceConfig()
        assert config.max_concurrent == 8
        assert config.queue_capacity is None
        assert config.discipline == "fifo"
        assert config.classes == ()
        assert config.adaptive is None

    def test_describe_is_flat(self):
        described = ServiceConfig(queue_capacity=4).describe()
        assert described["queue_capacity"] == 4
        assert ServiceConfig().describe()["queue_capacity"] == "unbounded"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_concurrent=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(queue_capacity=-1)
        with pytest.raises(ConfigurationError):
            ServiceConfig(discipline="lifo")

    def test_priority_discipline_is_rejected(self):
        # "priority" was the old name of "sjf"; it is no longer accepted,
        # and the error lists "sjf" among the valid disciplines.
        with pytest.raises(ConfigurationError, match="'sjf'"):
            ServiceConfig(discipline="priority")
        assert ServiceConfig(discipline="sjf").discipline == "sjf"

    def test_internal_paths_are_deprecation_clean(self):
        # Raising DeprecationWarning as an error pins that a clean
        # construct-and-admit cycle over the service and cluster configs
        # emits no deprecation anywhere on the path.
        import warnings

        from repro.common.config import ClusterConfig

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            service = ServiceConfig(max_concurrent=2, discipline="sjf")
            service.resolved_classes()
            ClusterConfig(shards=2, mpl_per_shard=3,
                          discipline="sjf").front_service()
            ctrl = AdmissionController(service)
            ctrl.offer(make_request(0, range(4)), 0.0)
            ctrl.offer(make_request(1, range(8)), 0.1)
            release_one(ctrl)

    def test_resolved_classes_default_is_single_catchall(self):
        config = ServiceConfig(queue_capacity=7, discipline="sjf")
        (cls,) = config.resolved_classes()
        assert cls.name == "default"
        assert cls.weight == 1.0
        assert cls.queue_capacity == 7
        assert cls.discipline == "sjf"

    def test_class_settings_inherit_service_defaults(self):
        config = ServiceConfig(
            queue_capacity=5,
            discipline="sjf",
            classes=(
                WorkloadClassConfig("interactive", weight=3.0),
                WorkloadClassConfig("batch", queue_capacity=2, discipline="fifo"),
            ),
        )
        interactive, batch = config.resolved_classes()
        assert interactive.queue_capacity == 5 and interactive.discipline == "sjf"
        assert batch.queue_capacity == 2 and batch.discipline == "fifo"

    def test_rejects_bad_classes(self):
        with pytest.raises(ConfigurationError):
            WorkloadClassConfig("", weight=1.0)
        with pytest.raises(ConfigurationError):
            WorkloadClassConfig("x", weight=0.0)
        with pytest.raises(ConfigurationError):
            WorkloadClassConfig("x", discipline="lifo")
        with pytest.raises(ConfigurationError):
            ServiceConfig(
                classes=(WorkloadClassConfig("a"), WorkloadClassConfig("a"))
            )


class TestAdmission:
    def test_admits_up_to_mpl_immediately(self):
        ctrl = controller(max_concurrent=2)
        assert ctrl.offer(make_request(0, range(4)), 0.0) is not None
        assert ctrl.offer(make_request(1, range(4)), 0.1) is not None
        assert ctrl.active == 2
        assert ctrl.queue_len == 0

    def test_queues_beyond_mpl(self):
        ctrl = controller(max_concurrent=1)
        assert ctrl.offer(make_request(0, range(4)), 0.0) is not None
        assert ctrl.offer(make_request(1, range(4)), 0.1) is None
        assert ctrl.queue_len == 1
        assert ctrl.shed_count == 0
        assert ctrl.max_queue_len == 1

    def test_release_admits_head_of_queue_fifo(self):
        ctrl = controller(max_concurrent=1)
        ctrl.offer(make_request(0, range(4)), 0.0)
        ctrl.offer(make_request(1, range(4)), 0.1)
        ctrl.offer(make_request(2, range(4)), 0.2)
        first = release_one(ctrl)
        second = release_one(ctrl)
        assert first.spec.query_id == 1
        assert second.spec.query_id == 2
        assert ctrl.active == 1

    def test_sjf_pops_cheapest_scan_first(self):
        ctrl = controller(max_concurrent=1, discipline="sjf")
        ctrl.offer(make_request(0, range(4)), 0.0)
        ctrl.offer(make_request(1, range(20), name="big"), 0.1)
        ctrl.offer(make_request(2, range(2), name="small"), 0.2)
        assert release_one(ctrl).spec.name == "small"
        assert release_one(ctrl).spec.name == "big"

    def test_sjf_ties_break_in_submission_order(self):
        ctrl = controller(max_concurrent=1, discipline="sjf")
        ctrl.offer(make_request(0, range(4)), 0.0)
        ctrl.offer(make_request(1, range(8)), 0.1)
        ctrl.offer(make_request(2, range(8)), 0.2)
        assert release_one(ctrl).spec.query_id == 1
        assert release_one(ctrl).spec.query_id == 2

    def test_bounded_queue_sheds_overflow(self):
        ctrl = controller(max_concurrent=1, queue_capacity=1)
        ctrl.offer(make_request(0, range(4)), 0.0)
        ctrl.offer(make_request(1, range(4)), 0.1)
        shed_candidate = ctrl.offer(make_request(2, range(4)), 0.2)
        assert shed_candidate is None
        assert ctrl.queue_len == 1
        assert ctrl.shed_count == 1
        assert ctrl.shed[0].spec.query_id == 2

    def test_zero_capacity_queue_is_pure_loss(self):
        ctrl = controller(max_concurrent=1, queue_capacity=0)
        ctrl.offer(make_request(0, range(4)), 0.0)
        assert ctrl.offer(make_request(1, range(4)), 0.1) is None
        assert ctrl.queue_len == 0
        assert ctrl.shed_count == 1

    def test_release_with_empty_queue_frees_slot(self):
        ctrl = controller(max_concurrent=1)
        ctrl.offer(make_request(0, range(4)), 0.0)
        assert ctrl.release() == []
        assert ctrl.active == 0
        # Slot is reusable afterwards.
        assert ctrl.offer(make_request(1, range(4)), 1.0) is not None

    def test_release_without_admission_raises(self):
        ctrl = controller()
        with pytest.raises(ValueError):
            ctrl.release()

    def test_controller_revalidates_discipline(self):
        # A config whose discipline was mutated around ServiceConfig's own
        # validation must be rejected at controller construction instead of
        # silently mixing FIFO and SJF orders.
        config = ServiceConfig()
        object.__setattr__(config, "discipline", "lifo")
        with pytest.raises(ConfigurationError):
            AdmissionController(config)

    def test_fifo_controller_never_touches_the_heap(self):
        ctrl = controller(max_concurrent=1, discipline="fifo")
        for query_id in range(4):
            ctrl.offer(make_request(query_id, range(4)), 0.1 * query_id)
        (queue,) = ctrl._queues.values()
        assert queue._heap == []
        assert len(queue._fifo) == 3

    def test_sjf_controller_never_touches_the_fifo(self):
        ctrl = controller(max_concurrent=1, discipline="sjf")
        for query_id in range(4):
            ctrl.offer(make_request(query_id, range(4)), 0.1 * query_id)
        (queue,) = ctrl._queues.values()
        assert len(queue._heap) == 3
        assert len(queue._fifo) == 0

    def test_counters_and_describe(self):
        ctrl = controller(max_concurrent=1, queue_capacity=1)
        ctrl.offer(make_request(0, range(4)), 0.0)
        ctrl.offer(make_request(1, range(4)), 0.1)
        ctrl.offer(make_request(2, range(4)), 0.2)
        described = ctrl.describe()
        assert described["offered"] == 3
        assert described["admitted"] == 1
        assert described["shed"] == 1
        assert described["queued"] == 1
        assert described["max_queue_len"] == 1
        assert described["mpl_limit"] == 1


class TestWorkloadClasses:
    def two_class_controller(self, max_concurrent=2, **class_kwargs):
        return AdmissionController(
            ServiceConfig(
                max_concurrent=max_concurrent,
                classes=(
                    WorkloadClassConfig("interactive", weight=3.0, **class_kwargs),
                    WorkloadClassConfig("batch", weight=1.0, **class_kwargs),
                ),
            )
        )

    def test_arrivals_route_to_their_class_queue(self):
        ctrl = self.two_class_controller(max_concurrent=1)
        ctrl.offer(make_request(0, range(4), query_class="batch"), 0.0)
        ctrl.offer(make_request(1, range(4), query_class="interactive"), 0.1)
        ctrl.offer(make_request(2, range(4), query_class="batch"), 0.2)
        counters = ctrl.class_counters()
        assert counters["interactive"]["queued"] == 1
        assert counters["batch"]["offered"] == 2
        assert counters["batch"]["queued"] == 1

    def test_unknown_class_falls_into_first_configured_class(self):
        ctrl = self.two_class_controller(max_concurrent=1)
        entry = ctrl.offer(make_request(0, range(4), query_class="mystery"), 0.0)
        assert entry.query_class == "interactive"
        assert ctrl.class_counters()["interactive"]["offered"] == 1

    def test_release_resolves_unknown_class_like_offer(self):
        # Regression: offer() routes an unknown class into the "default"
        # queue when one is configured; release() with the same unknown
        # class must resolve to the *same* queue instead of decrementing
        # the first configured class (which has no matching admission).
        ctrl = AdmissionController(
            ServiceConfig(
                max_concurrent=1,
                classes=(
                    WorkloadClassConfig("interactive"),
                    WorkloadClassConfig("default"),
                ),
            )
        )
        entry = ctrl.offer(make_request(0, range(4), query_class="mystery"), 0.0)
        assert entry.query_class == "default"
        assert ctrl.release("mystery") == []
        assert ctrl.active == 0
        assert ctrl.class_counters()["default"]["admitted"] == 1

    def test_unknown_class_prefers_default_queue_when_configured(self):
        ctrl = AdmissionController(
            ServiceConfig(
                max_concurrent=1,
                classes=(
                    WorkloadClassConfig("interactive"),
                    WorkloadClassConfig("default"),
                ),
            )
        )
        entry = ctrl.offer(make_request(0, range(4), query_class="mystery"), 0.0)
        assert entry.query_class == "default"

    def test_weighted_release_prefers_underweighted_class(self):
        # MPL 4 fully taken by batch; 4 interactive + 4 batch queue up.
        # With weights 3:1 the next released slots go interactive-first
        # until interactive's active/weight ratio catches up.
        ctrl = self.two_class_controller(max_concurrent=4)
        for query_id in range(4):
            ctrl.offer(make_request(query_id, range(4), query_class="batch"), 0.0)
        for query_id in range(4, 8):
            ctrl.offer(
                make_request(query_id, range(4), query_class="interactive"), 0.1
            )
        for query_id in range(8, 12):
            ctrl.offer(make_request(query_id, range(4), query_class="batch"), 0.2)
        admitted_classes = [
            release_one(ctrl, "batch").query_class for _ in range(4)
        ]
        # deficits (active/weight) walk: i:0/3 b:3/1 -> i, i:1/3 b:2/1 -> i,
        # i:2/3 b:1/1 -> i, i:3/3=1 b:0/1=0 -> batch.
        assert admitted_classes == [
            "interactive", "interactive", "interactive", "batch"
        ]

    def test_per_class_shed_accounting(self):
        ctrl = AdmissionController(
            ServiceConfig(
                max_concurrent=1,
                classes=(
                    WorkloadClassConfig("interactive", queue_capacity=1),
                    WorkloadClassConfig("batch", queue_capacity=0),
                ),
            )
        )
        ctrl.offer(make_request(0, range(4), query_class="interactive"), 0.0)
        ctrl.offer(make_request(1, range(4), query_class="interactive"), 0.1)
        ctrl.offer(make_request(2, range(4), query_class="interactive"), 0.2)
        ctrl.offer(make_request(3, range(4), query_class="batch"), 0.3)
        assert ctrl.shed_by_class() == {"interactive": 1, "batch": 1}
        assert ctrl.shed_count == 2
        described = ctrl.describe()
        assert described["class_interactive_shed"] == 1
        assert described["class_batch_shed"] == 1

    def test_per_class_disciplines_coexist(self):
        ctrl = AdmissionController(
            ServiceConfig(
                max_concurrent=1,
                classes=(
                    WorkloadClassConfig("interactive", discipline="sjf"),
                    WorkloadClassConfig("batch", discipline="fifo"),
                ),
            )
        )
        ctrl.offer(make_request(0, range(4), query_class="batch"), 0.0)
        ctrl.offer(make_request(1, range(9), query_class="interactive"), 0.1)
        ctrl.offer(make_request(2, range(2), query_class="interactive"), 0.2)
        # Interactive (weight 1, active 0) is picked over batch queue order;
        # its SJF queue pops the smaller scan despite later submission.
        assert release_one(ctrl, "batch").spec.query_id == 2

    def test_raised_limit_drains_several_at_once(self):
        ctrl = controller(max_concurrent=1)
        for query_id in range(4):
            ctrl.offer(make_request(query_id, range(4)), 0.1 * query_id)
        ctrl.limit = 3
        released = ctrl.release()
        assert [entry.spec.query_id for entry in released] == [1, 2, 3]
        assert ctrl.active == 3

    def test_lowered_limit_pauses_admissions(self):
        ctrl = controller(max_concurrent=2)
        ctrl.offer(make_request(0, range(4)), 0.0)
        ctrl.offer(make_request(1, range(4)), 0.1)
        ctrl.offer(make_request(2, range(4)), 0.2)
        ctrl.limit = 1
        # A release while over the limit admits nothing.
        assert ctrl.release() == []
        assert ctrl.active == 1
        assert ctrl.queue_len == 1
        # The next release brings active under the limit and drains again.
        assert [e.spec.query_id for e in ctrl.release()] == [2]


class TestJobSize:
    def test_default_job_size_is_layout_oblivious(self):
        narrow = make_request(0, range(10), columns=("key",))
        wide = make_request(1, range(10), columns=("key", "ref", "date"))
        assert default_job_size(narrow) == default_job_size(wide)

    def test_layout_aware_job_size_weights_requested_columns(self, dsm_layout):
        # Regression for the DSM mis-ordering: a narrow scan over *more*
        # chunks is cheaper than a wide scan over fewer chunks when the
        # wide column set reads more pages in total, but the raw chunk
        # count ranks it the other way around.
        job_size = layout_aware_job_size(dsm_layout)
        columns = sorted(
            (spec.name for spec in dsm_layout.schema.columns),
            key=dsm_layout.average_pages_per_chunk,
        )
        narrow = make_request(
            0, range(12), columns=(columns[0],), cpu_per_chunk=0.01
        )
        wide = make_request(
            1, range(8), columns=tuple(columns), cpu_per_chunk=0.01
        )
        wide_pages = sum(map(dsm_layout.average_pages_per_chunk, columns))
        narrow_pages = dsm_layout.average_pages_per_chunk(columns[0])
        assert 8 * wide_pages > 12 * narrow_pages  # the premise of the bug
        assert default_job_size(narrow) > default_job_size(wide)  # old, wrong
        assert job_size(narrow) < job_size(wide)  # layout-aware, right

    def test_layout_aware_sjf_queue_orders_by_pages(self, dsm_layout):
        job_size = layout_aware_job_size(dsm_layout)
        ctrl = AdmissionController(
            ServiceConfig(max_concurrent=1, discipline="sjf"),
            job_size=job_size,
        )
        columns = sorted(
            (spec.name for spec in dsm_layout.schema.columns),
            key=dsm_layout.average_pages_per_chunk,
        )
        ctrl.offer(make_request(0, range(4), columns=(columns[0],)), 0.0)
        ctrl.offer(
            make_request(1, range(8), columns=tuple(columns), name="wide"), 0.1
        )
        ctrl.offer(
            make_request(2, range(12), columns=(columns[0],), name="narrow"), 0.2
        )
        assert job_size(make_request(9, range(12), columns=(columns[0],))) < (
            job_size(make_request(9, range(8), columns=tuple(columns)))
        )
        assert release_one(ctrl).spec.name == "narrow"
        assert release_one(ctrl).spec.name == "wide"

    def test_layout_aware_falls_back_for_nsm(self, nsm_layout):
        assert layout_aware_job_size(nsm_layout) is default_job_size
        assert layout_aware_job_size(None) is default_job_size

    def test_accepts_catalog_entry(self, dsm_layout):
        from repro.storage.catalog import Catalog

        catalog = Catalog()
        entry = catalog.register(dsm_layout, name="t")
        job_size = layout_aware_job_size(entry)
        spec = make_request(0, range(4), columns=(dsm_layout.schema.columns[0].name,))
        assert job_size(spec) == layout_aware_job_size(dsm_layout)(spec)
