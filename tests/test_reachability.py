"""Every ``src/`` module must be reached from ``examples/`` or ``benchmarks/``.

A module that only tests import is code no entry point runs; it either
gets a caller or goes.  ``python -m tests.reachability`` prints the same
report, and ``--functions`` goes down to single functions.
"""

from tests.reachability import ImportGraph, static_report


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
