"""The DSM pool's LRU eviction index against its scan-and-sort oracle.

:class:`repro.bufman.slots.DSMBlockPool` keeps its unpinned blocks ordered
by ``(last_used, load_seq)``, and the DSM policies walk that index and stop
once enough pages are freed.  ``tests/reference_eviction.py`` keeps the
full scan and stable sort the policies used before as an oracle.  Two
checks pin the index to it:

* random pool operation sequences, with tied and non-monotonic clock
  values, leave the index in exactly the oracle's order after every step;
* seeded DSM runs of all four policies make the same eviction calls with
  the same victim lists, and end with the same scheduling fingerprint,
  whether the candidates come from the index or from the oracle.

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

from repro.bufman.slots import DSMBlockPool
from repro.common.errors import BufferPoolError, SimulationError
from repro.sim.results import scheduling_fingerprint
from repro.sim.runner import run_simulation
from repro.sim.setup import make_dsm_abm
from repro.workload.queries import QueryFamily, QueryTemplate
from repro.workload.streams import build_streams
from tests.reference_eviction import oracle_evictable_blocks, use_oracle_eviction

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


def _replay(ops) -> None:
    pool = DSMBlockPool(capacity_pages=24)
    for op, index, now in ops:
        _apply(pool, op, index, now)
        _assert_index_matches_oracle(pool)


@settings(max_examples=150, deadline=None)
@given(op_sequences)
def test_index_order_matches_oracle(ops):
    _replay(ops)


@pytest.mark.slow
@settings(
    max_examples=3000, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(op_sequences)
def test_index_order_matches_oracle_many_examples(ops):
    _replay(ops)


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


def _run(scenario: Scenario, policy: str, dsm_layout, small_config, oracle: bool):
    """One run's outcome -- its scheduling fingerprint, or the error that
    stopped it -- and its log of eviction calls."""
    config = small_config.with_volumes(scenario.volumes)
    capacity_pages = max(8, int(dsm_layout.table_pages() * scenario.buffer_fraction))
    abm = make_dsm_abm(dsm_layout, config, policy, capacity_pages=capacity_pages)
    if oracle:
        use_oracle_eviction(abm.policy)
    calls = _record_victims(abm.policy)
    streams = build_streams(
        _templates(),
        dsm_layout,
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
