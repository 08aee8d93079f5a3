"""Shared utilities used by every other subpackage.

The :mod:`repro.common` package deliberately has no dependency on the rest of
the library.  It provides:

* :mod:`repro.common.units` -- byte/size constants and integer helpers,
* :mod:`repro.common.errors` -- the exception hierarchy of the library,
* :mod:`repro.common.rng` -- deterministic random-number helpers,
* :mod:`repro.common.config` -- the configuration dataclasses describing a
  simulated machine (disk, CPU, buffer pool) and a simulated run.
"""

from repro.common.errors import (
    ReproError,
    ConfigurationError,
    StorageError,
    BufferPoolError,
    SchedulingError,
    SimulationError,
    EngineError,
)
from repro.common.units import (
    KB,
    MB,
    GB,
    ceil_div,
)
from repro.common.rng import make_rng
from repro.common.config import (
    DiskConfig,
    CpuConfig,
    BufferConfig,
    SystemConfig,
    ServiceConfig,
    ClusterConfig,
    CoordinatorConfig,
    NetworkConfig,
    WorkloadClassConfig,
    AdaptiveMPLConfig,
    ObservabilityConfig,
    DEFAULT_QUERY_CLASS,
    ADMISSION_DISCIPLINES,
    VOLUME_PLACEMENTS,
    PAPER_NSM_SYSTEM,
    PAPER_DSM_SYSTEM,
)

__all__ = [
    "ReproError",
    "ConfigurationError",
    "StorageError",
    "BufferPoolError",
    "SchedulingError",
    "SimulationError",
    "EngineError",
    "KB",
    "MB",
    "GB",
    "ceil_div",
    "make_rng",
    "DiskConfig",
    "CpuConfig",
    "BufferConfig",
    "SystemConfig",
    "ServiceConfig",
    "ClusterConfig",
    "CoordinatorConfig",
    "NetworkConfig",
    "WorkloadClassConfig",
    "AdaptiveMPLConfig",
    "ObservabilityConfig",
    "DEFAULT_QUERY_CLASS",
    "ADMISSION_DISCIPLINES",
    "VOLUME_PLACEMENTS",
    "PAPER_NSM_SYSTEM",
    "PAPER_DSM_SYSTEM",
]
