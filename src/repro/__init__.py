"""repro — a reproduction of "Cooperative Scans: Dynamic Bandwidth Sharing in
a DBMS" (Zukowski, Héman, Nes, Boncz; VLDB 2007).

The package implements the Cooperative Scans framework — the CScan operator
and the Active Buffer Manager (ABM) with its relevance scheduling policy —
together with every substrate the paper's evaluation relies on: NSM/PAX and
DSM storage layouts, a disk and CPU model, a discrete-event simulator of
concurrent scans, an in-memory query engine with out-of-order-aware
operators, workload generators and the metrics/report machinery that
regenerates the paper's tables and figures.

``examples/quickstart.py`` is the quick start: it runs the four scheduling
policies over one NSM workload and prints the paper-style comparison.
"""

from __future__ import annotations

from repro.common import (
    SystemConfig,
    DiskConfig,
    CpuConfig,
    BufferConfig,
    ServiceConfig,
    ClusterConfig,
    PAPER_NSM_SYSTEM,
    PAPER_DSM_SYSTEM,
)
from repro.core import (
    ScanRequest,
    CScanHandle,
    ActiveBufferManager,
    DSMActiveBufferManager,
    make_policy,
    make_dsm_policy,
    POLICY_NAMES,
)
from repro.sim import (
    run_simulation,
    run_standalone,
    make_nsm_abm,
    make_dsm_abm,
    nsm_abm_factory,
    dsm_abm_factory,
    RunResult,
)
from repro.metrics import PolicyComparison, compare_runs

__version__ = "1.9.0"

__all__ = [
    "SystemConfig",
    "DiskConfig",
    "CpuConfig",
    "BufferConfig",
    "ServiceConfig",
    "ClusterConfig",
    "PAPER_NSM_SYSTEM",
    "PAPER_DSM_SYSTEM",
    "ScanRequest",
    "CScanHandle",
    "ActiveBufferManager",
    "DSMActiveBufferManager",
    "make_policy",
    "make_dsm_policy",
    "POLICY_NAMES",
    "run_simulation",
    "run_standalone",
    "make_nsm_abm",
    "make_dsm_abm",
    "nsm_abm_factory",
    "dsm_abm_factory",
    "RunResult",
    "PolicyComparison",
    "compare_runs",
    "__version__",
]
