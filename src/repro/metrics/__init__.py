"""Metrics, analytic models and report formatting.

* :mod:`repro.metrics.analytic` -- the buffer-reuse probability of
  Equation 1 / Figure 2 (plus a Monte-Carlo cross-check);
* :mod:`repro.metrics.stats` -- aggregation of simulation results into the
  system- and per-query statistics reported in Tables 2 and 3;
* :mod:`repro.metrics.report` -- plain-text rendering of those statistics in
  the paper's table layout (used by benchmarks and examples);
* :mod:`repro.metrics.reference` -- the published TPC-H configurations of
  Table 1 and the derived ratios quoted in Section 2;
* :mod:`repro.metrics.timeline` -- validated ``(time, value)`` step
  timelines with windowed aggregation and a text drill-down renderer
  (shared by the MPL timelines and the flight recorder's metric series).
"""

from repro.metrics.analytic import (
    buffer_reuse_probability,
    buffer_reuse_probability_curve,
    monte_carlo_reuse_probability,
)
from repro.metrics.stats import (
    QueryTypeStats,
    SystemStats,
    PolicyComparison,
    LatencySummary,
    summarise_run,
    per_query_type_stats,
    compare_runs,
    percentile,
)
from repro.metrics.report import (
    format_table,
    render_policy_comparison,
    render_query_table,
)
from repro.metrics.reference import TPCH_2006_RESULTS, TpchSystem, storage_cost_share
from repro.metrics.timeline import (
    Timeline,
    default_window,
    render_timeline,
    validate_timeline,
)

__all__ = [
    "buffer_reuse_probability",
    "buffer_reuse_probability_curve",
    "monte_carlo_reuse_probability",
    "QueryTypeStats",
    "SystemStats",
    "PolicyComparison",
    "LatencySummary",
    "summarise_run",
    "per_query_type_stats",
    "compare_runs",
    "percentile",
    "format_table",
    "render_policy_comparison",
    "render_query_table",
    "TPCH_2006_RESULTS",
    "TpchSystem",
    "storage_cost_share",
    "Timeline",
    "default_window",
    "render_timeline",
    "validate_timeline",
]
