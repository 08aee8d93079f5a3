"""The buffer pools' shared LRU index against its scan-and-sort oracles.

:class:`repro.bufman.slots.ChunkSlotPool` and
:class:`repro.bufman.slots.DSMBlockPool` keep their unpinned units in one
:class:`~repro.bufman.slots.LRUIndex` ordered by ``(last_used,
load_seq)``, and the policies walk it and stop at the first victim that
serves.  ``tests/reference_eviction.py`` keeps the full scans and stable
sorts the policies used before as oracles.  Two checks pin the index to
them:

* random pool operation sequences on either pool, with tied and
  non-monotonic clock values, leave the index in exactly the oracle's
  order after every step; for DSM also
  :meth:`~repro.bufman.slots.DSMBlockPool.evictable_blocks_of` (the
  candidates of some chunks, gathered per chunk and sorted), in the
  oracle's order restricted to those chunks;
* seeded runs -- DSM with all four policies, NSM with normal, attach,
  elevator and relevance on both the dict and the numpy tracker -- make
  the same eviction calls with the same victim lists, and end with the
  same scheduling fingerprint, whether the candidates come from the index
  or from the oracle.

At the smallest buffer drawn (10% of the table, 12 pages) some relevance
runs end in a simulation deadlock, with or without the index: reserved
chunks pin more pages than the next load can spare.  Those runs must then
fail identically, after identical eviction calls.

Tier-1 runs a small fixed seed set and a modest example count; ``-m slow``
runs more of both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bufman.slots import ChunkSlotPool, DSMBlockPool
from repro.common.errors import BufferPoolError, SimulationError
from repro.sim.results import scheduling_fingerprint
from repro.sim.runner import run_simulation
from repro.sim.setup import make_dsm_abm, make_nsm_abm
from repro.workload.queries import QueryFamily, QueryTemplate
from repro.workload.streams import build_streams
from tests.naive_relevance import (
    use_naive_bookkeeping,
    use_scalar_tracker,
    use_vector_tracker,
)
from tests.reference_eviction import (
    oracle_evictable_blocks,
    oracle_evictable_blocks_of,
    oracle_evictable_slots,
    use_oracle_eviction,
)

# ------------------------------------------------------ pool op sequences
CHUNKS = (0, 1, 2, 3)
COLUMNS = ("a", "b", "c")
KEYS = tuple((chunk, column) for chunk in CHUNKS for column in COLUMNS)
#: Few distinct clock values, out of order: ties and time going backwards
#: are both common.
TIMES = (0.0, 1.0, 1.0, 2.0, 0.5, 3.0)
OPS = (
    "start", "start", "start", "complete", "complete", "complete",
    "pin", "pin", "unpin", "unpin", "reserve", "release", "evict", "evict",
)

op_sequences = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(min_value=0, max_value=63),
        st.sampled_from(TIMES),
    ),
    max_size=60,
)


def _pick(candidates: list, index: int):
    return candidates[index % len(candidates)] if candidates else None


def _apply(pool: DSMBlockPool, op: str, index: int, now: float) -> None:
    """Apply one operation to a valid target chosen by ``index`` (a no-op
    when the operation has no valid target)."""
    buffered = [key for key in KEYS if pool.has_block(*key)]
    if op == "start":
        key = _pick(
            [
                key
                for key in KEYS
                if not pool.has_block(*key) and not pool.is_loading(key)
            ],
            index,
        )
        pages = 1 + index % 3
        if key is not None and pages <= pool.free_pages():
            pool.start_load(key, pages)
    elif op == "complete":
        key = _pick([key for key in KEYS if pool.is_loading(key)], index)
        if key is not None:
            pool.complete_load(key, now)
    elif op == "pin":
        key = _pick(buffered, index)
        if key is not None:
            pool.pin(key, now)
    elif op == "unpin":
        key = _pick([key for key in buffered if pool.block(key).pinned], index)
        if key is not None:
            pool.unpin(key, now)
    elif op == "reserve":
        pool.reserve_chunk(CHUNKS[index % len(CHUNKS)])
    elif op == "release":
        chunk = _pick([chunk for chunk in CHUNKS if pool.is_reserved(chunk)], index)
        if chunk is not None:
            pool.release_chunk(chunk)
    elif op == "evict":
        key = _pick(
            [
                key
                for key in buffered
                if not pool.block(key).pinned and not pool.is_reserved(key[0])
            ],
            index,
        )
        if key is not None:
            pool.evict(key)


def _assert_index_matches_oracle(pool: DSMBlockPool) -> None:
    for protect in ((), (0,), (1, 3)):
        index_order = [block.key for block in pool.evictable_blocks(protect)]
        oracle_order = [block.key for block in oracle_evictable_blocks(pool, protect)]
        assert index_order == oracle_order
        for chunks in ({0, 2}, {1, 3}, set(CHUNKS)):
            gathered = [block.key for block in pool.evictable_blocks_of(chunks, protect)]
            oracle_order = [
                block.key
                for block in oracle_evictable_blocks_of(pool, chunks, protect)
            ]
            assert gathered == oracle_order


def _apply_nsm(pool: ChunkSlotPool, op: str, index: int, now: float) -> None:
    """:func:`_apply` for the NSM pool, which has no reservations (those
    operations are no-ops)."""
    buffered = [chunk for chunk in CHUNKS if chunk in pool]
    if op == "start":
        chunk = _pick(
            [
                chunk
                for chunk in CHUNKS
                if not pool.occupies_slot(chunk)
            ],
            index,
        )
        if chunk is not None and pool.has_free_slot():
            pool.start_load(chunk)
    elif op == "complete":
        loading = pool.loading_chunks()
        chunk = _pick([chunk for chunk in CHUNKS if chunk in loading], index)
        if chunk is not None:
            pool.complete_load(chunk, now)
    elif op == "pin":
        chunk = _pick(buffered, index)
        if chunk is not None:
            pool.pin(chunk, now)
    elif op == "unpin":
        chunk = _pick([chunk for chunk in buffered if pool.slot(chunk).pinned], index)
        if chunk is not None:
            pool.unpin(chunk, now)
    elif op == "evict":
        chunk = _pick(
            [chunk for chunk in buffered if not pool.slot(chunk).pinned], index
        )
        if chunk is not None:
            pool.evict(chunk)


def _assert_nsm_index_matches_oracle(pool: ChunkSlotPool) -> None:
    assert [slot.chunk for slot in pool.evictable_slots()] == [
        slot.chunk for slot in oracle_evictable_slots(pool)
    ]


#: Per pool kind: a fresh pool, the operation applier and the check.
POOLS = {
    "dsm": (lambda: DSMBlockPool(capacity_pages=24), _apply,
            _assert_index_matches_oracle),
    "nsm": (lambda: ChunkSlotPool(capacity=3), _apply_nsm,
            _assert_nsm_index_matches_oracle),
}


def _replay(kind: str, ops) -> None:
    make_pool, apply, check = POOLS[kind]
    pool = make_pool()
    for op, index, now in ops:
        apply(pool, op, index, now)
        check(pool)


@pytest.mark.parametrize("kind", sorted(POOLS))
@settings(max_examples=150, deadline=None)
@given(ops=op_sequences)
def test_index_order_matches_oracle(kind, ops):
    _replay(kind, ops)


@pytest.mark.slow
@pytest.mark.parametrize("kind", sorted(POOLS))
@settings(
    max_examples=3000, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(ops=op_sequences)
def test_index_order_matches_oracle_many_examples(kind, ops):
    _replay(kind, ops)


def test_ties_break_in_load_order_not_key_order():
    """Blocks with equal ``last_used`` come out in the order their loads
    completed, even after one of them was pinned and unpinned at the same
    clock value."""
    pool = DSMBlockPool(capacity_pages=8)
    for key in ((2, "b"), (0, "a"), (1, "c")):
        pool.start_load(key, 1)
        pool.complete_load(key, now=1.0)
    pool.pin((2, "b"), now=1.0)
    pool.unpin((2, "b"), now=1.0)
    assert [block.key for block in pool.evictable_blocks()] == [
        (2, "b"), (0, "a"), (1, "c"),
    ]
    _assert_index_matches_oracle(pool)


def test_index_survives_a_failed_eviction():
    """A refused eviction (reserved chunk) leaves the index untouched."""
    pool = DSMBlockPool(capacity_pages=8)
    pool.start_load((0, "a"), 2)
    pool.complete_load((0, "a"), now=0.0)
    pool.reserve_chunk(0)
    with pytest.raises(BufferPoolError):
        pool.evict((0, "a"))
    assert list(pool.evictable_blocks()) == []
    pool.release_chunk(0)
    assert [block.key for block in pool.evictable_blocks()] == [(0, "a")]


# ------------------------------------------------------- seeded DSM runs
POLICIES = ("normal", "attach", "elevator", "relevance")

#: Tier-1 seeds; ``test_tier1_seeds_cover_every_axis`` pins their coverage.
TIER1_SEEDS = (0, 2, 4, 7, 28)
SLOW_SEEDS = tuple(range(100, 130))


@dataclass(frozen=True)
class Scenario:
    seed: int
    buffer_fraction: float
    volumes: int
    streams: int
    queries_per_stream: int


def draw(seed: int) -> Scenario:
    rng = random.Random(seed)
    return Scenario(
        seed=seed,
        buffer_fraction=rng.choice((0.1, 0.2, 0.3, 0.45)),
        volumes=rng.choice((1, 2)),
        streams=rng.randint(3, 6),
        queries_per_stream=rng.randint(2, 3),
    )


def _templates():
    narrow = QueryFamily("F", cpu_per_chunk=0.002, columns=("key", "price"))
    medium = QueryFamily("G", cpu_per_chunk=0.004, columns=("price", "flag"))
    wide = QueryFamily("S", cpu_per_chunk=0.02, columns=("key", "ref", "date"))
    return [
        QueryTemplate(narrow, 10),
        QueryTemplate(medium, 50),
        QueryTemplate(wide, 100),
    ]


def _record_victims(policy) -> List[Tuple[tuple, Optional[tuple]]]:
    """Wrap the policy's ``choose_evictions`` to log every call's
    arguments and victim list."""
    calls: List[Tuple[tuple, Optional[tuple]]] = []
    choose = policy.choose_evictions

    def recording(*args):
        victims = choose(*args)
        calls.append((args, None if victims is None else tuple(victims)))
        return victims

    policy.choose_evictions = recording
    return calls


def _run(
    scenario: Scenario,
    policy: str,
    dsm_layout,
    small_config,
    oracle: bool,
    naive: bool = False,
):
    """One run's outcome -- its scheduling fingerprint, or the error that
    stopped it -- and its log of eviction calls.  ``oracle`` draws eviction
    candidates from the scan-and-sort oracle; ``naive`` answers every
    interest question from ``tests/naive_relevance.py``'s walks."""
    config = small_config.with_volumes(scenario.volumes)
    capacity_pages = max(8, int(dsm_layout.table_pages() * scenario.buffer_fraction))
    abm = make_dsm_abm(dsm_layout, config, policy, capacity_pages=capacity_pages)
    if oracle:
        use_oracle_eviction(abm.policy)
    if naive:
        use_naive_bookkeeping(abm)
    return _simulate(abm, _templates(), dsm_layout, scenario, config)


def _simulate(abm, templates, layout, scenario: Scenario, config):
    """Run the scenario's streams on ``abm``, logging its eviction calls."""
    calls = _record_victims(abm.policy)
    streams = build_streams(
        templates,
        layout,
        scenario.streams,
        scenario.queries_per_stream,
        seed=scenario.seed,
    )
    try:
        result = run_simulation(streams, config, abm, record_trace=True)
    except SimulationError as error:
        return ("error", str(error)), calls
    return scheduling_fingerprint(result), calls


def _assert_equivalent(seed: int, dsm_layout, small_config) -> None:
    scenario = draw(seed)
    for policy in POLICIES:
        expected, oracle_calls = _run(
            scenario, policy, dsm_layout, small_config, oracle=True
        )
        actual, index_calls = _run(
            scenario, policy, dsm_layout, small_config, oracle=False
        )
        assert index_calls == oracle_calls, (scenario, policy)
        assert actual == expected, (scenario, policy)


def test_tier1_seeds_cover_every_axis(dsm_layout, small_config):
    scenarios = [draw(seed) for seed in TIER1_SEEDS]
    assert {scenario.volumes for scenario in scenarios} == {1, 2}
    fractions = {scenario.buffer_fraction for scenario in scenarios}
    assert min(fractions) <= 0.1 and max(fractions) >= 0.3
    # Every policy evicts, some calls find no room, and one run deadlocks.
    refused = 0
    outcomes = []
    for policy in POLICIES:
        for seed in (TIER1_SEEDS[0], TIER1_SEEDS[-1]):
            outcome, calls = _run(draw(seed), policy, dsm_layout, small_config, False)
            assert calls, (seed, policy)
            refused += sum(1 for _, victims in calls if victims is None)
            outcomes.append(outcome)
    assert refused > 0
    assert any(outcome[0] == "error" for outcome in outcomes)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_index_and_oracle_make_identical_evictions(seed, dsm_layout, small_config):
    _assert_equivalent(seed, dsm_layout, small_config)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_index_and_oracle_make_identical_evictions_slow(
    seed, dsm_layout, small_config
):
    _assert_equivalent(seed, dsm_layout, small_config)


# ------------------------------------------------------- seeded NSM runs
#: NSM policy variants: policy name and the tracker it is pinned to
#: (``None`` keeps the one the ABM picks).
NSM_VARIANTS = {
    "normal": ("normal", None),
    "attach": ("attach", None),
    "elevator": ("elevator", None),
    "relevance-dict": ("relevance", use_scalar_tracker),
    "relevance-numpy": ("relevance", use_vector_tracker),
}


def _nsm_templates():
    fast = QueryFamily("F", cpu_per_chunk=0.002)
    slow = QueryFamily("S", cpu_per_chunk=0.02)
    return [
        QueryTemplate(fast, 10),
        QueryTemplate(fast, 50),
        QueryTemplate(slow, 100),
    ]


def _run_nsm(
    scenario: Scenario, variant: str, nsm_layout, small_config, oracle: bool
):
    """:func:`_run` for an NSM variant, buffer sized in chunks."""
    policy, pin_tracker = NSM_VARIANTS[variant]
    config = small_config.with_volumes(scenario.volumes)
    capacity = max(2, int(nsm_layout.num_chunks * scenario.buffer_fraction))
    abm = make_nsm_abm(nsm_layout, config, policy, capacity_chunks=capacity)
    if pin_tracker is not None:
        pin_tracker(abm)
    if oracle:
        use_oracle_eviction(abm.policy)
    return _simulate(abm, _nsm_templates(), nsm_layout, scenario, config)


def _assert_nsm_equivalent(seed: int, nsm_layout, small_config) -> List[list]:
    """Assert index and oracle agree for every variant; returns each
    variant's eviction calls."""
    scenario = draw(seed)
    logs = []
    for variant in NSM_VARIANTS:
        expected, oracle_calls = _run_nsm(
            scenario, variant, nsm_layout, small_config, oracle=True
        )
        actual, index_calls = _run_nsm(
            scenario, variant, nsm_layout, small_config, oracle=False
        )
        assert index_calls == oracle_calls, (scenario, variant)
        assert actual == expected, (scenario, variant)
        logs.append(index_calls)
    return logs


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_nsm_index_and_oracle_make_identical_evictions(
    seed, nsm_layout, small_config
):
    logs = _assert_nsm_equivalent(seed, nsm_layout, small_config)
    assert all(logs), "every NSM variant must evict on the tier-1 seeds"


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_nsm_index_and_oracle_make_identical_evictions_slow(
    seed, nsm_layout, small_config
):
    _assert_nsm_equivalent(seed, nsm_layout, small_config)
