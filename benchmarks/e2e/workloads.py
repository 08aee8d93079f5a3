"""The four end-to-end workloads: inputs from a seed, one rep, output checks.

Each workload drives the simulator only through the public entry points
(``compare_nsm_policies`` / ``compare_dsm_policies``,
``run_cluster_service``, ``make_nsm_abm`` and the config dataclasses), and
never passes ``engine=``, ``workers=`` or ``incremental=``, so a change that
reworks what sits behind those entry points does not have to edit it.

A workload is three functions:

* ``setup(seed)`` builds one rep's inputs (configs, layouts, streams or
  arrivals, shard maps and the shard ABMs).  It is timed as set-up; ABMs are
  stateful, so every rep gets fresh inputs.
* ``run(inputs)`` is the one entry-point call a rep times.
* ``check(result)`` returns the material the output digest is taken over
  and a list of broken invariants (empty when the rep is correct).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.cluster import ShardMap, run_cluster_service
from repro.common.config import (
    PAPER_DSM_SYSTEM,
    PAPER_NSM_SYSTEM,
    BufferConfig,
    ClusterConfig,
    CoordinatorConfig,
    CpuConfig,
    DiskConfig,
    FailureConfig,
    FailureEvent,
    HedgeConfig,
    NetworkConfig,
    ObservabilityConfig,
    SystemConfig,
    WorkloadClassConfig,
)
from repro.common.errors import SimulationError
from repro.common.rng import make_rng
from repro.common.units import KB, MB
from repro.obs.alerts import AlertPolicy, BurnRateRule, ThresholdRule
from repro.service import Arrival, poisson_arrivals
from repro.sim.results import scheduling_fingerprint
from repro.sim.setup import make_nsm_abm
from repro.sim.sweeps import compare_dsm_policies, compare_nsm_policies
from repro.storage.nsm import NSMTableLayout
from repro.storage.schema import ColumnSpec, DataType, TableSchema
from repro.workload import (
    dsm_query_families,
    lineitem_dsm_layout,
    lineitem_nsm_layout,
    nsm_query_families,
    standard_templates,
)
from repro.workload.queries import (
    QueryFamily,
    QueryTemplate,
    classed_templates,
    make_scan_request,
)

#: Queries per closed-stream workload: 16 streams of 4 (paper Tables 2/3).
STREAMS, QUERIES_PER_STREAM = 16, 4


@dataclass(frozen=True)
class Workload:
    """One named workload of the benchmark."""

    name: str
    default_seed: int
    setup: Callable[[int], tuple]
    run: Callable[[tuple], object]
    check: Callable[[object], Tuple[list, List[str]]]
    #: Independent input draws per run (see ``variant_seeds``).
    variants: int = 2

    def variant_seeds(self, seed: int) -> List[int]:
        """The input seeds one run cycles through.

        How long one rep takes depends on its input: which queries overlap
        decides how much I/O the non-sharing policies do, which moves a
        ``paper-nsm`` rep by up to 15% between seeds.  A run therefore
        times several input draws and reports their mean, so its result
        describes the workload rather than one draw.  Variant 0 is
        ``seed`` itself.
        """
        return [seed + 1_000_003 * index for index in range(self.variants)]


def result_counts(result) -> Dict[str, int]:
    """Per-layer counts read off a rep's result: cluster sub-queries,
    hedges, re-scatters, front-door admissions and flight-recorder events
    (all zero for the closed-stream workloads, which bypass those layers)."""
    counts = dict.fromkeys(
        (
            "coordinator.subqueries",
            "coordinator.hedges",
            "coordinator.rescatters",
            "frontdoor.admitted",
            "frontdoor.shed",
            "recorder.events",
            "recorder.dropped",
        ),
        0,
    )
    slo = getattr(result, "slo", None)
    if slo is None:
        return counts
    counts["coordinator.subqueries"] = sum(
        report.offered for report in result.shard_reports
    )
    if result.availability is not None:
        counts["coordinator.hedges"] = result.availability.hedges_fired
        counts["coordinator.rescatters"] = result.availability.rescatters
    counts["frontdoor.admitted"] = slo.admitted
    counts["frontdoor.shed"] = slo.shed
    if result.obs is not None and result.obs.trace is not None:
        counts["recorder.events"] = len(result.obs.trace.events)
        counts["recorder.dropped"] = result.obs.trace.dropped
    return counts


# --------------------------------------------------------------- closed runs
def _balanced_streams(templates, layout, seed: int) -> list:
    """16 streams of 4 queries in which each of the 8 templates appears
    exactly 8 times; the seed decides their order and every scanned range.

    Drawing the templates at random too (as ``build_streams`` does) moves
    the total work by 14% between seeds, which would swamp the host time
    this benchmark measures; a fixed mix keeps it within a few percent.
    """
    rng = make_rng(seed)
    count = STREAMS * QUERIES_PER_STREAM
    mix = [templates[index % len(templates)] for index in range(count)]
    queries = [
        make_scan_request(mix[int(index)], query_id, layout, rng)
        for query_id, index in enumerate(rng.permutation(count))
    ]
    return [
        queries[stream * QUERIES_PER_STREAM:(stream + 1) * QUERIES_PER_STREAM]
        for stream in range(STREAMS)
    ]


def _check_policy_runs(runs) -> Tuple[list, List[str]]:
    offered = STREAMS * QUERIES_PER_STREAM
    problems = [
        f"policy {policy}: {len(result.queries)} of {offered} queries completed"
        for policy, result in runs.items()
        if len(result.queries) != offered
    ]
    material = [
        (policy, scheduling_fingerprint(runs[policy])) for policy in sorted(runs)
    ]
    return material, problems


def _paper_nsm_setup(seed: int) -> tuple:
    config = PAPER_NSM_SYSTEM.with_buffer_chunks(64)
    layout = lineitem_nsm_layout(10.0, buffer=config.buffer)
    fast, slow = nsm_query_families(config)
    streams = _balanced_streams(standard_templates(fast, slow), layout, seed)
    return streams, config, layout


def _paper_nsm_run(inputs: tuple):
    streams, config, layout = inputs
    return compare_nsm_policies(streams, config, layout)


def _paper_dsm_setup(seed: int) -> tuple:
    config = PAPER_DSM_SYSTEM
    # SF-20 is half the paper's SF-40, to keep one rep near 4 s.
    layout = lineitem_dsm_layout(20.0, buffer=config.buffer)
    capacity_pages = max(64, int(layout.table_pages() * 0.30))
    fast, slow = dsm_query_families(layout, config)
    streams = _balanced_streams(standard_templates(fast, slow), layout, seed)
    return streams, config, layout, capacity_pages


def _paper_dsm_run(inputs: tuple):
    streams, config, layout, capacity_pages = inputs
    return compare_dsm_policies(
        streams, config, layout, capacity_pages=capacity_pages
    )


# ------------------------------------------------------------------ clusters
#: One shard machine: 1 MB chunks, an 8-chunk buffer and its own disk.
SHARD_MACHINE = SystemConfig(
    disk=DiskConfig(
        bandwidth_bytes_per_s=100 * MB, avg_seek_s=0.002, sequential_seek_s=0.0005
    ),
    cpu=CpuConfig(cores=8),
    buffer=BufferConfig(chunk_bytes=1 * MB, page_bytes=64 * KB, capacity_chunks=8),
)
_SCHEMA = TableSchema.build(
    "orders", [ColumnSpec(name, DataType.INT64) for name in "abcd"]
)
_TUPLES_PER_CHUNK = int(SHARD_MACHINE.buffer.chunk_bytes // _SCHEMA.tuple_logical_bytes)
_FAST = QueryFamily("F", cpu_per_chunk=0.002)
_SLOW = QueryFamily("S", cpu_per_chunk=0.008)
#: Half-table, CPU-heavy scans: long enough to be running when a shard is
#: killed and to straggle into hedges.
_BATCH = QueryFamily("B", cpu_per_chunk=0.02)


def _layout(num_chunks: int) -> NSMTableLayout:
    return NSMTableLayout.from_buffer_config(
        _SCHEMA, num_chunks * _TUPLES_PER_CHUNK, SHARD_MACHINE.buffer
    )


def _shard_abms(cluster: ClusterConfig, num_chunks: int) -> list:
    """One relevance ABM per shard, each over that shard's local table."""
    shard_map = ShardMap.from_cluster_config(cluster, num_chunks)
    return [
        make_nsm_abm(
            _layout(shard_map.chunks_owned(shard)), SHARD_MACHINE, "relevance"
        )
        for shard in range(cluster.shards)
    ]


def _check_cluster(result, offered: int) -> Tuple[list, List[str]]:
    problems = []
    slo = result.slo
    if not (slo.offered == offered and slo.completed == offered):
        problems.append(
            f"{slo.completed} of {slo.offered} queries completed "
            f"({offered} offered)"
        )
    if len({record.query_id for record in result.records}) != offered:
        problems.append("query records are not one per offered query")
    material = [scheduling_fingerprint(run) for run in result.shard_runs]
    material.append(
        [(record.query_id, record.finish_time) for record in result.records]
    )
    return material, problems


CLUSTER32_QUERIES = 400
_CLUSTER32 = ClusterConfig(shards=32, placement="range", mpl_per_shard=4)
_CLUSTER32_CHUNKS = 512


def _cluster32_setup(seed: int) -> tuple:
    templates = (
        QueryTemplate(_FAST, 12.5),
        QueryTemplate(_FAST, 25),
        QueryTemplate(_SLOW, 12.5),
    )
    arrivals = poisson_arrivals(
        templates, _layout(_CLUSTER32_CHUNKS), rate_qps=40.0,
        num_queries=CLUSTER32_QUERIES, seed=seed,
    )
    return arrivals, _shard_abms(_CLUSTER32, _CLUSTER32_CHUNKS)


def _cluster32_run(inputs: tuple):
    arrivals, abms = inputs
    return run_cluster_service(arrivals, SHARD_MACHINE, abms, _CLUSTER32)


def _cluster32_check(result) -> Tuple[list, List[str]]:
    return _check_cluster(result, CLUSTER32_QUERIES)


FAULTY_QUERIES = 400
_FAULTY_CHUNKS = 128
_KILL_AT = 10.01
_QUIET_S = 0.2
_FAULTY = ClusterConfig(
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
    network=NetworkConfig(bandwidth_bytes_per_s=1000 * MB, per_message_s=0.0002),
    failures=FailureConfig(
        events=(
            FailureEvent(_KILL_AT, 1, "kill"),
            FailureEvent(_KILL_AT + 8.0, 1, "repair"),
            FailureEvent(25.0, 3, "degrade"),
        ),
        degrade_factor=0.2,
    ),
    hedge=HedgeConfig(quantile=0.9),
)
_FAULTY_ALERTS = AlertPolicy(
    burn_rules=(
        BurnRateRule(
            "interactive-latency", threshold_s=0.5, budget=0.05,
            fast_window_s=2.0, slow_window_s=8.0, query_class="interactive",
        ),
    ),
    threshold_rules=(
        ThresholdRule("shard3-disk-hot", series="shard3.disk", threshold=0.9,
                      window_s=2.0, for_s=1.0),
    ),
)


def _faulty_setup(seed: int) -> tuple:
    templates = classed_templates(
        (QueryTemplate(_FAST, 12.5), QueryTemplate(_FAST, 25)), "interactive"
    ) + classed_templates((QueryTemplate(_BATCH, 50),), "batch")
    arrivals = poisson_arrivals(
        templates, _layout(_FAULTY_CHUNKS), rate_qps=10.0,
        num_queries=FAULTY_QUERIES, seed=seed,
    )
    # Hold arrivals back for a short window before the kill, so no query is
    # still in the coordinator's CPU when it fires: re-scattering such a
    # query's sub-queries stamps a dispatch before its scatter finished, and
    # the postmortem rejects the negative wait (a simulator defect this
    # benchmark must not trip over on any seed).
    quiet_from = _KILL_AT - _QUIET_S
    arrivals = [
        Arrival(arrival.time + _QUIET_S, arrival.spec)
        if arrival.time >= quiet_from else arrival
        for arrival in arrivals
    ]
    return arrivals, _shard_abms(_FAULTY, _FAULTY_CHUNKS)


def _faulty_run(inputs: tuple):
    arrivals, abms = inputs
    return run_cluster_service(
        arrivals, SHARD_MACHINE, abms, _FAULTY,
        obs=ObservabilityConfig(), alerts=_FAULTY_ALERTS,
    )


def _faulty_check(result) -> Tuple[list, List[str]]:
    material, problems = _check_cluster(result, FAULTY_QUERIES)
    for record in result.records:
        try:
            record.breakdown.validate(end_to_end=record.end_to_end_latency)
        except SimulationError as error:
            problems.append(f"query {record.query_id}: {error}")
            break
    availability = result.availability
    if availability is None or availability.kills < 1:
        problems.append("the scheduled shard kill did not fire")
    if availability is None or availability.hedges_fired < 1:
        problems.append("no hedged request fired")
    return material, problems


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "paper-nsm", 42,
            _paper_nsm_setup, _paper_nsm_run, _check_policy_runs,
            variants=4,
        ),
        Workload(
            "paper-dsm", 11,
            _paper_dsm_setup, _paper_dsm_run, _check_policy_runs,
        ),
        Workload(
            "cluster-32", 20,
            _cluster32_setup, _cluster32_run, _cluster32_check,
        ),
        Workload(
            "cluster-faulty", 13,
            _faulty_setup, _faulty_run, _faulty_check,
        ),
    )
}
