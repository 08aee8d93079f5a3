"""Every ``src/`` module must be reached from ``examples/`` or ``benchmarks/``.

A module that only tests import is code no entry point runs; it either
gets a caller or goes.  ``python -m tests.reachability`` prints the same
report, and ``--functions`` goes down to single functions.  The function
gate itself is checked here on synthetic inputs, without running any entry
point.
"""

import ast
import textwrap

from tests.reachability import (
    KEEP,
    SRC,
    ImportGraph,
    SrcFunction,
    functions_in,
    gate_problems,
    src_functions,
    static_report,
)


def test_no_src_module_is_reached_only_by_tests():
    tests_only, unreached = static_report()
    assert tests_only == [], f"src/ modules only tests import: {tests_only}"
    assert unreached == [], f"src/ modules nothing imports: {unreached}"


def test_from_package_import_reaches_the_defining_submodule():
    graph = ImportGraph()
    assert graph.defining_module("repro", "ScanRequest") == "repro.core.cscan"
    assert graph.defining_module("repro.bufman", "ChunkSlotPool") == "repro.bufman.slots"
    assert graph.defining_module("repro.sim", "sweeps") == "repro.sim.sweeps"


def test_package_reexports_do_not_count_but_a_registry_does():
    graph = ImportGraph()
    assert graph.edges("repro.bufman") == set()
    assert "repro.core.policies.relevance" in graph.edges("repro.core.policies")


def _fn(qualname: str) -> SrcFunction:
    return SrcFunction(SRC / "repro" / "fake.py", 10, qualname, 3)


def test_gate_fails_on_an_unlisted_unstarred_function():
    dead = [_fn("Pool.reset"), _fn("Pool.describe")]
    existing = [fn.key for fn in dead]
    problems = gate_problems(dead, existing, mentioned={"describe"}, keep={})
    assert len(problems) == 1
    assert "repro.fake:Pool.reset" in problems[0]
    keep = {"repro.fake:Pool.reset": "a reason"}
    assert gate_problems(dead, existing, mentioned={"describe"}, keep=keep) == []


def test_gate_fails_on_a_stale_keep_entry():
    called, gone = _fn("Pool.evict"), "repro.fake:Pool.cancel_load"
    keep = {called.key: "a reason", gone: "a reason"}
    problems = gate_problems([], [called.key], mentioned=set(), keep=keep)
    assert problems == [
        f"KEEP entry {called.key} was called: drop it from KEEP",
        f"KEEP entry {gone} no longer exists",
    ]
    # A run that reaches more than the gating run may call a KEEP entry.
    problems = gate_problems(
        [], [called.key], mentioned=set(), keep=keep, check_called=False
    )
    assert problems == [f"KEEP entry {gone} no longer exists"]


def test_raise_only_bodies_count_as_abstract():
    source = textwrap.dedent(
        '''
        class Base:
            def evaluate(self, batch):
                """Evaluate over a batch."""
                raise NotImplementedError

            def guard(self):
                raise ValueError("produces a result(), not batches")

            def real(self):
                """Has a body."""
                return 1
        '''
    )
    functions = functions_in(ast.parse(source), SRC / "repro" / "fake.py")
    assert [fn.qualname for fn in functions.values()] == ["Base.real"]


def test_keep_entries_exist_and_give_a_reason():
    existing = {fn.key for fn in src_functions().values()}
    assert sorted(set(KEEP) - existing) == []
    assert all(isinstance(reason, str) and reason for reason in KEEP.values())
