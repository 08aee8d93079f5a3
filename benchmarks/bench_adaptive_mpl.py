"""Adaptive MPL control and workload-class isolation at the front door.

Two claims about the unified service front door, asserted deterministically
for both storage layouts (NSM and DSM):

1. **Adaptive beats the static sweep.**  ``bench_service_latency`` finds the
   best *static* multiprogramming level by sweeping; the
   :class:`~repro.service.frontdoor.AdaptiveMPLController` (AIMD on the
   observed p95 end-to-end latency and the ABM's buffer-hit rate) must
   sustain **at least** the offered load of the best static MPL at the same
   p95 SLO — without anyone telling it the sweet spot.  Sustained load is
   judged on the *steady-state* p95 (the first ``WARMUP_COMPLETIONS``
   completions are excluded for static and adaptive runs alike, the usual
   warm-up discard of open-system measurements) with zero shed arrivals.

2. **Interactive latency survives a batch doubling.**  With two workload
   classes over the same ABM — a weighted admission share for
   ``interactive``, a relevance-policy priority boost, and the adaptive
   controller guarding the concurrent set — the interactive class's p95
   stays within its SLO while the *batch* arrival rate doubles.

Every λ point replays the same seeded arrival sequence, so the whole
experiment is deterministic and the assertions are stable.

Run it through the benchmark driver (or under pytest-benchmark like the
other benchmarks)::

    PYTHONPATH=src python -m benchmarks.core adaptive_mpl
"""

from __future__ import annotations

import time

from benchmarks._harness import dsm_setup, nsm_setup, print_banner, run_once
from repro.common.config import (
    AdaptiveMPLConfig,
    ServiceConfig,
    WorkloadClassConfig,
)
from repro.core.policies.relevance import RelevanceParameters
from repro.metrics.report import format_table
from repro.service import poisson_arrivals, run_service
from repro.sim.setup import make_dsm_abm, make_nsm_abm
from repro.workload import classed_templates, standard_templates
from repro.workload.queries import QueryTemplate

#: The swept offered loads — the λ grid of ``bench_service_latency``, so
#: "the best static MPL" means the same thing; more queries per point so
#: the steady state dominates the measurement.
NUM_QUERIES = 60
OFFERED_LOADS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40)
ARRIVAL_SEED = 42
#: Completions discarded (in finish order) before measuring steady p95.
WARMUP_COMPLETIONS = 12

#: The static MPLs the sweep tries (8 is ``bench_service_latency``'s MPL).
STATIC_MPLS = (2, 4, 8, 16)
#: The adaptive controller's starting MPL (deliberately mid-grid: the
#: controller has to *find* the sweet spot, not start on it).
ADAPTIVE_START_MPL = 8

#: The p95 SLO: this multiple of the reference (MPL 8) light-load p95.
SLO_FACTOR = 1.5
#: The adaptive controller aims below the SLO so AIMD oscillation around
#: the target stays inside the bar.
TARGET_FRACTION = 0.8

#: Workload-class experiment: interactive arrival rate (q/s), base batch
#: rate (doubled in the second run), query counts, and the admission weight
#: + relevance priority boost the interactive class gets.
INTERACTIVE_RATE = 0.20
BATCH_BASE_RATE = 0.05
NUM_INTERACTIVE = 24
NUM_BATCH = 12
INTERACTIVE_WEIGHT = 4.0
INTERACTIVE_BOOST = 64.0
#: Interactive p95 SLO: this multiple of its batch-free baseline p95.
INTERACTIVE_SLO_FACTOR = 2.0


def _cases():
    """The two storage layouts as (name, config, layout, abm_factory, templates)."""
    nsm_config, nsm_layout, nsm_fast, nsm_slow = nsm_setup()

    def nsm_abm(parameters=None):
        kwargs = {"parameters": parameters} if parameters is not None else {}
        return make_nsm_abm(nsm_layout, nsm_config, "relevance", **kwargs)

    dsm_config, dsm_layout, dsm_fast, dsm_slow, capacity_pages = dsm_setup()

    def dsm_abm(parameters=None):
        kwargs = {"parameters": parameters} if parameters is not None else {}
        return make_dsm_abm(
            dsm_layout, dsm_config, "relevance",
            capacity_pages=capacity_pages, **kwargs,
        )

    return (
        (
            "NSM", nsm_config, nsm_layout, nsm_abm,
            standard_templates(nsm_fast, nsm_slow, percentages=(10, 50, 100)),
        ),
        (
            "DSM", dsm_config, dsm_layout, dsm_abm,
            standard_templates(dsm_fast, dsm_slow, percentages=(10, 50, 100)),
        ),
    )


# ------------------------------------------------- part 1: adaptive vs static
def steady_p95(result):
    """p95 end-to-end latency after the warm-up completions (finish order)."""
    from repro.metrics.stats import percentile

    settled = sorted(result.run.queries, key=lambda query: query.finish_time)[
        WARMUP_COMPLETIONS:
    ]
    return percentile([query.end_to_end_latency for query in settled], 95.0)


def _latency_curve(config, layout, abm_factory, templates, service):
    """{lambda: ServiceResult} over the swept offered loads."""
    curve = {}
    for offered_load in OFFERED_LOADS:
        arrivals = poisson_arrivals(
            templates, layout, offered_load, NUM_QUERIES, seed=ARRIVAL_SEED
        )
        curve[offered_load] = run_service(
            arrivals, config, abm_factory(), service
        )
    return curve


def _sustained(curve, threshold):
    """Largest swept λ served within the steady p95 SLO without shedding."""
    sustained = [
        offered_load
        for offered_load, result in curve.items()
        if result.slo.shed == 0 and steady_p95(result) <= threshold
    ]
    return max(sustained) if sustained else 0.0


def _adaptive_vs_static(name, config, layout, abm_factory, templates):
    static_curves = {
        mpl: _latency_curve(
            config, layout, abm_factory, templates,
            ServiceConfig(max_concurrent=mpl),
        )
        for mpl in STATIC_MPLS
    }
    # The SLO is anchored exactly like bench_service_latency anchors its
    # own: the reference configuration's p95 under the lightest swept load.
    reference = static_curves[ADAPTIVE_START_MPL]
    threshold = SLO_FACTOR * steady_p95(reference[min(OFFERED_LOADS)])
    adaptive_config = AdaptiveMPLConfig(
        target_p95_s=TARGET_FRACTION * threshold,
        min_mpl=1,
        max_mpl=4 * max(STATIC_MPLS),
        adjust_every=4,
        window=8,
    )
    adaptive_curve = _latency_curve(
        config, layout, abm_factory, templates,
        ServiceConfig(max_concurrent=ADAPTIVE_START_MPL, adaptive=adaptive_config),
    )
    return {
        "threshold": threshold,
        "static_curves": static_curves,
        "adaptive_curve": adaptive_curve,
        "static_sustained": {
            mpl: _sustained(curve, threshold)
            for mpl, curve in static_curves.items()
        },
        "adaptive_sustained": _sustained(adaptive_curve, threshold),
    }


# ------------------------------------------- part 2: workload-class isolation
def _class_arrivals(layout, templates_interactive, templates_batch, batch_rate):
    interactive = poisson_arrivals(
        templates_interactive, layout, INTERACTIVE_RATE, NUM_INTERACTIVE,
        seed=ARRIVAL_SEED,
    )
    batch = poisson_arrivals(
        templates_batch, layout, batch_rate, NUM_BATCH,
        seed=ARRIVAL_SEED + 1, first_query_id=NUM_INTERACTIVE,
    )
    return sorted(interactive + batch, key=lambda arrival: arrival.time)


def _class_isolation(name, config, layout, abm_factory, templates):
    # Interactive traffic scans small ranges; batch scans take half or all
    # of the table.
    fast_family = templates[0].family
    slow_family = templates[-1].family
    interactive_templates = classed_templates(
        (QueryTemplate(fast_family, 10),), "interactive"
    )
    batch_templates = classed_templates(
        (QueryTemplate(slow_family, 50), QueryTemplate(slow_family, 100)),
        "batch",
    )
    parameters = RelevanceParameters(
        class_priority={"interactive": INTERACTIVE_BOOST}
    )
    service = ServiceConfig(
        max_concurrent=ADAPTIVE_START_MPL,
        classes=(
            WorkloadClassConfig("interactive", weight=INTERACTIVE_WEIGHT),
            WorkloadClassConfig("batch", weight=1.0),
        ),
    )

    # Batch-free baseline: what interactive latency looks like when the
    # service serves nothing else — the yardstick for the isolation SLO.
    baseline = run_service(
        poisson_arrivals(
            interactive_templates, layout, INTERACTIVE_RATE, NUM_INTERACTIVE,
            seed=ARRIVAL_SEED,
        ),
        config,
        abm_factory(parameters),
        service,
    )
    interactive_slo = (
        INTERACTIVE_SLO_FACTOR
        * baseline.slo.class_report("interactive").latency.p95
    )

    # The adaptive controller guards the mixed runs: its target holds the
    # overall p95 near what the base batch load produces.
    probe = run_service(
        _class_arrivals(layout, interactive_templates, batch_templates,
                        BATCH_BASE_RATE),
        config,
        abm_factory(parameters),
        service,
    )
    adaptive = AdaptiveMPLConfig(
        target_p95_s=probe.slo.latency.p95,
        min_mpl=2,
        max_mpl=4 * ADAPTIVE_START_MPL,
        adjust_every=4,
        window=8,
    )
    adaptive_service = ServiceConfig(
        max_concurrent=ADAPTIVE_START_MPL,
        classes=service.classes,
        adaptive=adaptive,
    )

    runs = {}
    for label, batch_rate in (
        ("base", BATCH_BASE_RATE),
        ("doubled", 2 * BATCH_BASE_RATE),
    ):
        runs[label] = run_service(
            _class_arrivals(layout, interactive_templates, batch_templates,
                            batch_rate),
            config,
            abm_factory(parameters),
            adaptive_service,
        )
    return {
        "interactive_slo": interactive_slo,
        "baseline_p95": baseline.slo.class_report("interactive").latency.p95,
        "runs": runs,
    }


def _experiment():
    results = {}
    for name, config, layout, abm_factory, templates in _cases():
        started = time.perf_counter()
        results[name] = {
            "adaptive_vs_static": _adaptive_vs_static(
                name, config, layout, abm_factory, templates
            ),
            "class_isolation": _class_isolation(
                name, config, layout, abm_factory, templates
            ),
        }
        results[name]["wall_clock_s"] = time.perf_counter() - started
    return results


def _report(results):
    print_banner(
        "Adaptive MPL (AIMD on p95 + buffer hits) vs the static sweep, and "
        "interactive/batch class isolation"
    )
    for name, outcome in results.items():
        part1 = outcome["adaptive_vs_static"]
        rows = []
        for mpl in STATIC_MPLS:
            curve = part1["static_curves"][mpl]
            rows.append(
                [f"static {mpl}"]
                + [round(steady_p95(curve[l]), 2) for l in OFFERED_LOADS]
                + [part1["static_sustained"][mpl]]
            )
        adaptive_curve = part1["adaptive_curve"]
        rows.append(
            ["adaptive"]
            + [round(steady_p95(adaptive_curve[l]), 2) for l in OFFERED_LOADS]
            + [part1["adaptive_sustained"]]
        )
        print(
            format_table(
                ["MPL"] + [f"{l} q/s" for l in OFFERED_LOADS] + ["sustained"],
                rows,
                title=(
                    f"{name}: steady p95 end-to-end latency (s) vs offered "
                    f"load (p95 SLO {part1['threshold']:.1f}s)"
                ),
            )
        )
        final_mpls = {
            l: adaptive_curve[l].final_mpl for l in OFFERED_LOADS
        }
        print(
            f"{name}: adaptive final MPL per load: "
            + ", ".join(f"{l}->{mpl}" for l, mpl in final_mpls.items())
        )
        best_static = max(part1["static_sustained"].values())
        print(
            f"{name}: best static sustained {best_static:.2f} q/s, "
            f"adaptive sustained {part1['adaptive_sustained']:.2f} q/s"
        )
        # Claim 1: the controller finds (at least) the static sweet spot.
        assert part1["adaptive_sustained"] >= best_static, (
            f"{name}: adaptive sustained {part1['adaptive_sustained']} q/s "
            f"but the best static MPL sustains {best_static} q/s"
        )

        part2 = outcome["class_isolation"]
        print()
        rows = []
        for label, result in part2["runs"].items():
            interactive = result.slo.class_report("interactive")
            batch = result.slo.class_report("batch")
            rows.append(
                [
                    label,
                    round(interactive.latency.p95, 2),
                    round(part2["interactive_slo"], 2),
                    round(batch.latency.p95, 2),
                    result.final_mpl,
                ]
            )
        print(
            format_table(
                ["batch load", "int p95", "int SLO", "batch p95", "final MPL"],
                rows,
                title=(
                    f"{name}: interactive p95 vs batch volume "
                    f"(weights {INTERACTIVE_WEIGHT:g}:1, boost "
                    f"{INTERACTIVE_BOOST:g})"
                ),
            )
        )
        # Claim 2: interactive latency holds while batch doubles.
        for label, result in part2["runs"].items():
            interactive = result.slo.class_report("interactive")
            assert interactive.latency.p95 <= part2["interactive_slo"], (
                f"{name}/{label}: interactive p95 "
                f"{interactive.latency.p95:.2f}s exceeds its SLO "
                f"{part2['interactive_slo']:.2f}s"
            )
            assert interactive.shed == 0, (
                f"{name}/{label}: interactive queries were shed"
            )
        print()


def section():
    """Run, report and gate the experiment; returns its ``BENCH_core`` section."""
    results = _experiment()
    _report(results)
    rows = []
    for name, outcome in results.items():
        part1 = outcome["adaptive_vs_static"]
        part2 = outcome["class_isolation"]
        rows.append({
            "layout": name,
            "slo_p95_s": round(part1["threshold"], 4),
            "static_sustained_qps": {
                str(mpl): value
                for mpl, value in part1["static_sustained"].items()
            },
            "adaptive_sustained_qps": part1["adaptive_sustained"],
            "adaptive_final_mpl": {
                str(load): result.final_mpl
                for load, result in part1["adaptive_curve"].items()
            },
            "interactive_slo_s": round(part2["interactive_slo"], 4),
            "interactive_p95_s": {
                label: round(result.slo.class_report("interactive").latency.p95, 4)
                for label, result in part2["runs"].items()
            },
            "wall_clock_s": round(outcome["wall_clock_s"], 4),
        })
    return {
        "workload": {
            "num_queries": NUM_QUERIES,
            "offered_loads": list(OFFERED_LOADS),
            "static_mpls": list(STATIC_MPLS),
            "adaptive_start_mpl": ADAPTIVE_START_MPL,
            "interactive_rate": INTERACTIVE_RATE,
            "batch_base_rate": BATCH_BASE_RATE,
        },
        "rows": rows,
    }


def bench_adaptive_mpl(benchmark):
    run_once(benchmark, section)
