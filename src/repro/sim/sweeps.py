"""Parameter sweeps used by the Figure 5/6/7 benchmarks.

These helpers run the same workload under every scheduling policy and
collect the results in dictionaries keyed by policy name; the benchmarks
loop over buffer sizes and query counts themselves.  They are deliberately thin: all the real
behaviour lives in the policies and the simulator.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence

from repro.common.config import SystemConfig
from repro.core.cscan import ScanRequest
from repro.core.policies import POLICY_NAMES
from repro.sim.results import RunResult
from repro.sim.runner import AnyABM, run_simulation, run_standalone
from repro.sim.setup import dsm_abm_factory, nsm_abm_factory
from repro.storage.dsm import DSMTableLayout
from repro.storage.nsm import NSMTableLayout

Streams = Sequence[Sequence[ScanRequest]]
ABMFactory = Callable[[], AnyABM]


def compare_policies(
    streams: Streams,
    config: SystemConfig,
    factory_for_policy: Callable[[str], ABMFactory],
    policies: Iterable[str] = POLICY_NAMES,
    record_trace: bool = False,
) -> Dict[str, RunResult]:
    """Run the same workload once per scheduling policy."""
    results: Dict[str, RunResult] = {}
    for policy in policies:
        abm = factory_for_policy(policy)()
        results[policy] = run_simulation(
            streams, config, abm, record_trace=record_trace
        )
    return results


def compare_nsm_policies(
    streams: Streams,
    config: SystemConfig,
    layout: NSMTableLayout,
    policies: Iterable[str] = POLICY_NAMES,
    capacity_chunks: Optional[int] = None,
    record_trace: bool = False,
) -> Dict[str, RunResult]:
    """Convenience wrapper for NSM policy comparisons (Table 2, Figures 4-7)."""
    return compare_policies(
        streams,
        config,
        lambda policy: nsm_abm_factory(
            layout, config, policy, capacity_chunks=capacity_chunks
        ),
        policies=policies,
        record_trace=record_trace,
    )


def compare_dsm_policies(
    streams: Streams,
    config: SystemConfig,
    layout: DSMTableLayout,
    policies: Iterable[str] = POLICY_NAMES,
    capacity_pages: Optional[int] = None,
    record_trace: bool = False,
) -> Dict[str, RunResult]:
    """Convenience wrapper for DSM policy comparisons (Tables 3 and 4)."""
    return compare_policies(
        streams,
        config,
        lambda policy: dsm_abm_factory(
            layout, config, policy, capacity_pages=capacity_pages
        ),
        policies=policies,
        record_trace=record_trace,
    )


def standalone_times(
    specs: Iterable[ScanRequest],
    config: SystemConfig,
    abm_factory: ABMFactory,
) -> Dict[str, float]:
    """Cold standalone running time per distinct query name.

    Used to normalise latencies the way the paper does ("running time divided
    by the base time, when the query runs by itself with an empty buffer").
    """
    times: Dict[str, float] = {}
    for spec in specs:
        if spec.name in times:
            continue
        times[spec.name] = run_standalone(spec, config, abm_factory)
    return times
