"""Factories wiring storage layouts, policies and buffer managers together."""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.common.config import SystemConfig
from repro.core.abm import ActiveBufferManager, DSMActiveBufferManager
from repro.core.policies import make_dsm_policy, make_policy
from repro.core.policies.base import DSMSchedulingPolicy, SchedulingPolicy
from repro.storage.dsm import DSMTableLayout
from repro.storage.nsm import NSMTableLayout


def make_nsm_abm(
    layout: NSMTableLayout,
    config: SystemConfig,
    policy: Union[str, SchedulingPolicy],
    capacity_chunks: Optional[int] = None,
    **policy_kwargs,
) -> ActiveBufferManager:
    """Build an NSM Active Buffer Manager for a table layout.

    ``policy`` may be a policy name (``"normal"``, ``"attach"``,
    ``"elevator"``, ``"relevance"``) or an already-constructed policy object.
    """
    if isinstance(policy, str):
        policy_obj = make_policy(policy, **policy_kwargs)
    else:
        policy_obj = policy
    capacity = capacity_chunks or config.buffer.capacity_chunks
    chunk_sizes = [layout.chunk_size_bytes(chunk) for chunk in layout.all_chunks()]
    return ActiveBufferManager(
        num_chunks=layout.num_chunks,
        capacity_chunks=capacity,
        policy=policy_obj,
        chunk_bytes=layout.chunk_bytes,
        chunk_sizes=chunk_sizes,
    )


def make_dsm_abm(
    layout: DSMTableLayout,
    config: SystemConfig,
    policy: Union[str, DSMSchedulingPolicy],
    capacity_pages: Optional[int] = None,
    **policy_kwargs,
) -> DSMActiveBufferManager:
    """Build a DSM Active Buffer Manager for a column-store layout."""
    if isinstance(policy, str):
        policy_obj = make_dsm_policy(policy, **policy_kwargs)
    else:
        policy_obj = policy
    if capacity_pages is None:
        capacity_pages = config.buffer.capacity_bytes // layout.page_bytes
    return DSMActiveBufferManager(
        layout=layout,
        capacity_pages=capacity_pages,
        policy=policy_obj,
    )


def nsm_abm_factory(
    layout: NSMTableLayout,
    config: SystemConfig,
    policy_name: str,
    capacity_chunks: Optional[int] = None,
    **policy_kwargs,
) -> Callable[[], ActiveBufferManager]:
    """A zero-argument factory producing fresh NSM ABMs (one per run)."""

    def factory() -> ActiveBufferManager:
        return make_nsm_abm(
            layout, config, policy_name, capacity_chunks=capacity_chunks, **policy_kwargs
        )

    return factory


def dsm_abm_factory(
    layout: DSMTableLayout,
    config: SystemConfig,
    policy_name: str,
    capacity_pages: Optional[int] = None,
    **policy_kwargs,
) -> Callable[[], DSMActiveBufferManager]:
    """A zero-argument factory producing fresh DSM ABMs (one per run)."""

    def factory() -> DSMActiveBufferManager:
        return make_dsm_abm(
            layout, config, policy_name, capacity_pages=capacity_pages, **policy_kwargs
        )

    return factory
