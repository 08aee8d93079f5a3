"""Which parts of ``src/`` do the repository's entry points reach?

The entry points are the scripts under ``examples/`` and the non-test
modules under ``benchmarks/``; the tests are everything under ``tests/``
plus the ``test_*.py`` files under ``benchmarks/``.  Two passes:

* **static** (the default) walks the import graph with :mod:`ast` and
  prints every ``src/`` module that only tests import, or that nothing
  imports.  It exits non-zero when there is one, so tier-1 can gate it
  (``tests/test_reachability.py``).
* **``--functions``** runs every example and one rep of each end-to-end
  workload (``benchmarks.e2e.workloads.WORKLOADS``) and records the first
  call of each ``src/`` function; ``--benchmarks`` adds one run of every
  ``bench_*`` function through a stand-in ``benchmark`` fixture (they
  write nothing).  It prints the functions nothing called, with their line
  counts, grouped by file.  Names that also appear as text under
  ``benchmarks/`` or ``examples/`` are starred: they may be called on a
  paper-scale branch the small runs skip.  It exits non-zero when an
  uncalled function is neither starred nor listed in :data:`KEEP`, or
  when a :data:`KEEP` entry no longer exists or was called (the last
  check is skipped under ``--benchmarks``, which reaches more than the
  runs :data:`KEEP` is pinned against).  Abstract functions, whether
  ``@abstractmethod`` or a body that only raises, are never listed.

Run from the repository root::

    PYTHONPATH=src python -m tests.reachability
    PYTHONPATH=src python -m tests.reachability --functions
    PYTHONPATH=src python -m tests.reachability --functions --benchmarks

Import-graph rules of the static pass:

* ``from pkg import Name`` reaches the submodule that defines ``Name``,
  following the package's own re-exports, and every package on the way;
* a package ``__init__`` only reaches what it imports for its own use: a
  name that appears in nothing but its import and ``__all__`` is a
  re-export and does not count, while a registry that puts the imported
  classes in a table does;
* imports inside functions count like top-level ones.

This module uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import os
import re
import runpy
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
_LOCAL_TOP_LEVEL = ("repro", "benchmarks", "tests", "examples")


# ------------------------------------------------------------ static pass
@dataclass
class _Module:
    """One parsed module: the imports it makes and the names it uses."""

    is_package: bool
    #: ``(target module, name bound in this module, alias name)`` per import;
    #: the alias name is ``None`` for ``import x.y``.
    imports: List[Tuple[str, str, Optional[str]]] = field(default_factory=list)
    #: Names loaded anywhere outside an import statement and ``__all__``.
    used: Set[str] = field(default_factory=set)


def module_path(name: str) -> Optional[Path]:
    """The file of a local module (``repro`` under ``src/``), else None."""
    parts = name.split(".")
    if parts[0] not in _LOCAL_TOP_LEVEL:
        return None
    base = (SRC if parts[0] == "repro" else ROOT).joinpath(*parts)
    for candidate in (base / "__init__.py", base.with_suffix(".py")):
        if candidate.is_file():
            return candidate
    return None


def module_name(path: Path) -> str:
    """Dotted name of a local file (``src/repro/x.py`` -> ``repro.x``)."""
    path = path.resolve()
    base = SRC if SRC in path.parents else ROOT
    parts = list(path.relative_to(base).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class ImportGraph:
    """Lazily parsed local modules and the import edges between them."""

    def __init__(self) -> None:
        self._modules: Dict[str, Optional[_Module]] = {}

    def module(self, name: str) -> Optional[_Module]:
        if name not in self._modules:
            path = module_path(name)
            self._modules[name] = None if path is None else self._parse(name, path)
        return self._modules[name]

    def _parse(self, name: str, path: Path) -> _Module:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        module = _Module(path.name == "__init__.py")
        package = name if module.is_package else name.rpartition(".")[0]
        skip: Set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    module.imports.append((alias.name, bound, None))
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package.split(".")
                    anchor = anchor[: len(anchor) - node.level + 1]
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    module.imports.append(
                        (base, alias.asname or alias.name, alias.name)
                    )
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                skip.update(id(child) for child in ast.walk(node))
        module.used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and id(node) not in skip
        }
        return module

    def defining_module(self, name: str, attribute: str) -> str:
        """The module that defines ``attribute`` as seen from ``name``."""
        seen: Set[Tuple[str, str]] = set()
        while (name, attribute) not in seen:
            seen.add((name, attribute))
            if module_path(f"{name}.{attribute}") is not None:
                return f"{name}.{attribute}"
            module = self.module(name)
            if module is None or not module.is_package:
                return name
            for target, bound, alias in module.imports:
                if bound == attribute:
                    if alias is None:
                        return target
                    name, attribute = target, alias
                    break
            else:
                return name
        return name

    def edges(self, name: str) -> Set[str]:
        """Local modules executed because ``name`` is executed."""
        module = self.module(name)
        if module is None:
            return set()
        targets: Set[str] = set()
        for target, bound, alias in module.imports:
            if module.is_package and bound not in module.used:
                continue  # a re-export
            if alias is not None and alias != "*":
                target = self.defining_module(target, alias)
            parts = target.split(".")
            targets.update(".".join(parts[:end]) for end in range(1, len(parts) + 1))
        return {target for target in targets if module_path(target) is not None}

    def reach(self, roots: Iterable[str]) -> Set[str]:
        """Every local module executed when ``roots`` are executed."""
        reached: Set[str] = set()
        stack = list(roots)
        while stack:
            name = stack.pop()
            if name in reached:
                continue
            reached.add(name)
            stack.extend(self.edges(name) - reached)
        return reached


def _is_test_file(path: Path) -> bool:
    return path.name.startswith("test_") or path.name == "conftest.py"


def entry_point_files() -> List[Path]:
    """The scripts under ``examples/`` and non-test files under ``benchmarks/``."""
    files = sorted((ROOT / "examples").glob("*.py"))
    files += sorted(
        path for path in (ROOT / "benchmarks").rglob("*.py") if not _is_test_file(path)
    )
    return files


def suite_files() -> List[Path]:
    """Everything under ``tests/`` plus the test files under ``benchmarks/``."""
    files = sorted((ROOT / "tests").rglob("*.py"))
    files += sorted(
        path for path in (ROOT / "benchmarks").rglob("*.py") if _is_test_file(path)
    )
    return files + [ROOT / "conftest.py"]


def src_modules() -> List[str]:
    return sorted(module_name(path) for path in SRC.rglob("*.py"))


def static_report() -> Tuple[List[str], List[str]]:
    """``(modules only tests reach, modules nothing reaches)``."""
    graph = ImportGraph()
    from_entry_points = graph.reach(module_name(p) for p in entry_point_files())
    from_tests = graph.reach(module_name(p) for p in suite_files())
    tests_only, unreached = [], []
    for name in src_modules():
        if name in from_entry_points:
            continue
        (tests_only if name in from_tests else unreached).append(name)
    return tests_only, unreached


def _print_static(tests_only: List[str], unreached: List[str]) -> None:
    total = len(src_modules())
    print(
        f"{total - len(tests_only) - len(unreached)} of {total} src/ modules "
        "are reached from examples/ or benchmarks/"
    )
    for title, names in (
        ("reached only by tests", tests_only),
        ("reached by nothing", unreached),
    ):
        if names:
            print(f"{title}:")
            for name in names:
                print(f"  {module_path(name).relative_to(ROOT)}  ({name})")


# ---------------------------------------------------------- dynamic pass
#: ``src/`` functions that the ``--functions`` runs never call and whose
#: names appear nowhere under ``benchmarks/`` or ``examples/``, but that
#: stay on purpose, keyed ``module:qualname``, one reason each.
KEEP: Dict[str, str] = {
    "repro.sim.lockstep:LockstepRunner._raise_deadlock": (
        "the lockstep deadlock error; generated stall scenarios must reach it"
    ),
    "repro.sim.runner:ScanSimulator.progress_summary": (
        "names the stalled queries in the deadlock error"
    ),
    "repro.cluster.coordinator:ClusterCoordinator.stall_detail": (
        "names orphaned groups and down shards in the deadlock error"
    ),
    "repro.cluster.failures:random_failure_schedule": (
        "seeded failure schedules for generated scenario tests"
    ),
    "repro.core.interest:VectorInterestTracker.starved_interested_count": (
        "the base version reads _starved_interest, which this tracker never "
        "updates, so it would return 0"
    ),
    "repro.core.interest:VectorInterestTracker.almost_starved_interested_count": (
        "the base version reads _almost_interest, which this tracker never "
        "updates, so it would return 0"
    ),
    "repro.engine.merge_join:MergeJoin.__iter__": (
        "the in-order merge join, the reference CooperativeMergeJoin is "
        "tested against"
    ),
    "repro.engine.merge_join:_join_batch": (
        "CooperativeMergeJoin's path without a join index, and MergeJoin's"
    ),
    "repro.engine.table:ColumnTable.column_names": (
        "the column list of Scan, CScan and read_chunk when none is given"
    ),
    "repro.obs.metrics:Counter.inc": (
        "called by FlightRecorder.inc_counter, a traced recorder boundary"
    ),
    "repro.service.admission:layout_aware_job_size.<locals>.job_size": (
        "the admission job-size estimator of DSM service runs"
    ),
    "repro.disk.trace:IOTrace.__len__": "only benchmarks reach it (Figure 4)",
    "repro.disk.trace:IOTrace.__iter__": (
        "scheduling_fingerprint lists a recorded trace; only benchmarks "
        "record one"
    ),
    "repro.workload.synthetic:ten_column_schema": (
        "only benchmarks reach it, through ten_column_layout (Table 4)"
    ),
}


@dataclass(frozen=True)
class SrcFunction:
    """One function or method defined in a ``src/`` file."""

    path: Path
    first_line: int
    qualname: str
    lines: int

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    @property
    def key(self) -> str:
        """``module:qualname``, the form :data:`KEEP` uses."""
        return f"{module_name(self.path)}:{self.qualname}"


def _is_abstract(node: ast.AST) -> bool:
    """``@abstractmethod``, or a body that is only an optional docstring
    and a ``raise``."""
    if any(
        (isinstance(d, ast.Name) and d.id == "abstractmethod")
        or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        for d in node.decorator_list
    ):
        return True
    body = node.body
    if (
        isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def functions_in(tree: ast.AST, path: Path) -> Dict[Tuple[str, int], SrcFunction]:
    """Every non-abstract function of one parsed file, keyed like its code
    object: ``(file name, co_firstlineno)``."""
    functions: Dict[Tuple[str, int], SrcFunction] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                if not _is_abstract(child):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    functions[(str(path), first)] = SrcFunction(
                        path, first, qualname, child.end_lineno - first + 1
                    )
                visit(child, f"{qualname}.<locals>.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return functions


def src_functions() -> Dict[Tuple[str, int], SrcFunction]:
    """Every non-abstract ``src/`` function (see :func:`functions_in`)."""
    functions: Dict[Tuple[str, int], SrcFunction] = {}
    for path in sorted(SRC.rglob("*.py")):
        path = path.resolve()
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        functions.update(functions_in(tree, path))
    return functions


def gate_problems(
    dead: Iterable[SrcFunction],
    existing: Iterable[str],
    mentioned: Set[str],
    keep: Dict[str, str],
    check_called: bool = True,
) -> List[str]:
    """Why the ``--functions`` gate fails, or ``[]`` when it passes.

    ``dead`` are the uncalled functions, ``existing`` the keys of every
    non-abstract ``src/`` function and ``mentioned`` the names that appear
    under ``benchmarks/`` or ``examples/``.  An uncalled function must be
    starred or in ``keep``; a ``keep`` entry must exist and, when
    ``check_called``, must not have been called.
    """
    dead = list(dead)
    problems = [
        f"{fn.key} ({fn.path.relative_to(ROOT)}:{fn.first_line}) is never "
        "called: delete it or add it to KEEP with a reason"
        for fn in dead
        if fn.name not in mentioned and fn.key not in keep
    ]
    existing = set(existing)
    uncalled = {fn.key for fn in dead}
    for key in keep:
        if key not in existing:
            problems.append(f"KEEP entry {key} no longer exists")
        elif check_called and key not in uncalled:
            problems.append(f"KEEP entry {key} was called: drop it from KEEP")
    return problems


def record_first_calls(run: Callable[[], None]) -> Set[Tuple[str, int]]:
    """``(file name, co_firstlineno)`` of every Python function ``run`` calls.

    Python >= 3.12 uses ``sys.monitoring``: each code object reports its
    first ``PY_START`` and is then disabled, so the run goes at nearly full
    speed.  Older versions fall back to a ``sys.setprofile`` hook, which
    sees every call (and is many times slower).
    """
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is None:
        codes: Dict[int, object] = {}

        def profile(frame, event, arg):
            if event == "call":
                codes[id(frame.f_code)] = frame.f_code

        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        return {(code.co_filename, code.co_firstlineno) for code in codes.values()}

    seen: Set[Tuple[str, int]] = set()
    disable = monitoring.DISABLE

    def on_start(code, offset):
        seen.add((code.co_filename, code.co_firstlineno))
        return disable

    tool = next(t for t in range(6) if monitoring.get_tool(t) is None)
    monitoring.use_tool_id(tool, "reachability")
    monitoring.register_callback(tool, monitoring.events.PY_START, on_start)
    monitoring.set_events(tool, monitoring.events.PY_START)
    monitoring.restart_events()
    try:
        run()
    finally:
        monitoring.set_events(tool, 0)
        monitoring.register_callback(tool, monitoring.events.PY_START, None)
        monitoring.free_tool_id(tool)
    return seen


class _StandInBenchmark:
    """The part of pytest-benchmark's ``benchmark`` fixture the benchmarks
    use (``benchmarks/_harness.run_once``), running the function once."""

    def pedantic(self, func, args=(), kwargs=None, **_timing):
        return func(*args, **(kwargs or {}))


def _entry_points(with_benchmarks: bool) -> List[Tuple[str, Callable[[], object]]]:
    """``(label, thunk)`` for every run of the dynamic pass."""
    runs: List[Tuple[str, Callable[[], object]]] = []
    for path in sorted((ROOT / "examples").glob("*.py")):

        def example(path=path):
            saved = sys.argv
            sys.argv = [str(path)]
            try:
                runpy.run_path(str(path), run_name="__main__")
            finally:
                sys.argv = saved

        runs.append((str(path.relative_to(ROOT)), example))

    from benchmarks.e2e.workloads import WORKLOADS

    for workload in WORKLOADS.values():

        def rep(workload=workload):
            return workload.check(workload.run(workload.setup(workload.default_seed)))

        runs.append((f"e2e {workload.name}", rep))
    if with_benchmarks:
        for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            module = importlib.import_module(f"benchmarks.{path.stem}")
            for name in sorted(vars(module)):
                if name.startswith("bench_") and callable(getattr(module, name)):
                    func = getattr(module, name)
                    runs.append(
                        (f"{path.stem}.{name}", lambda func=func: func(_StandInBenchmark()))
                    )
    return runs


def _names_in_entry_point_text() -> Set[str]:
    names: Set[str] = set()
    for directory in ("benchmarks", "examples"):
        for path in (ROOT / directory).rglob("*"):
            if path.suffix in (".py", ".md"):
                text = path.read_text(encoding="utf-8", errors="replace")
                names.update(re.findall(r"[A-Za-z_]\w*", text))
    return names


def functions_report(with_benchmarks: bool) -> int:
    failures: List[str] = []
    runs: List[Tuple[str, Callable[[], object]]] = []

    def run_all() -> None:
        # Imported under the recorder, so import-time calls count too.
        runs.extend(_entry_points(with_benchmarks))
        for label, thunk in runs:
            started = time.perf_counter()
            try:
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    thunk()
            except SystemExit as error:
                if error.code:
                    failures.append(f"{label}: exited with {error.code}")
            except Exception as error:  # one entry point failed; report the rest
                traceback.print_exc()
                failures.append(f"{label}: {type(error).__name__}: {error}")
            print(f"  ran {label} in {time.perf_counter() - started:.1f} s",
                  file=sys.stderr, flush=True)

    started = time.perf_counter()
    called = {
        (os.path.realpath(filename), line)
        for filename, line in record_first_calls(run_all)
    }
    elapsed = time.perf_counter() - started
    functions = src_functions()
    dead = [fn for key, fn in functions.items() if key not in called]
    mentioned = _names_in_entry_point_text()
    print(
        f"{len(dead)} of {len(functions)} src/ functions "
        f"({sum(fn.lines for fn in dead)} lines) were never called by "
        f"{len(runs)} runs in {elapsed:.0f} s on Python "
        f"{sys.version.split()[0]}"
    )
    print("(* = the name also appears under benchmarks/ or examples/; k = in KEEP)")
    by_file: Dict[Path, List[SrcFunction]] = defaultdict(list)
    for fn in dead:
        by_file[fn.path].append(fn)
    for path in sorted(by_file):
        group = sorted(by_file[path], key=lambda fn: fn.first_line)
        print(
            f"{path.relative_to(ROOT)}: {len(group)} functions, "
            f"{sum(fn.lines for fn in group)} lines"
        )
        for fn in group:
            mark = "*" if fn.name in mentioned else "k" if fn.key in KEEP else " "
            print(f"  {mark} {fn.first_line:5d} {fn.lines:4d}  {fn.qualname}")
    for failure in failures:
        print(f"FAILED {failure}")
    problems = gate_problems(
        dead,
        (fn.key for fn in functions.values()),
        mentioned,
        KEEP,
        check_called=not with_benchmarks,
    )
    for problem in problems:
        print(f"GATE {problem}")
    return 1 if failures or problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--functions", action="store_true",
        help="run the entry points, report src/ functions never called and "
        "fail on one that is neither starred nor in KEEP",
    )
    parser.add_argument(
        "--benchmarks", action="store_true",
        help="with --functions: also run every bench_* function once",
    )
    args = parser.parse_args(argv)
    for path in (SRC, ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    if args.functions:
        return functions_report(args.benchmarks)
    tests_only, unreached = static_report()
    _print_static(tests_only, unreached)
    return 1 if tests_only or unreached else 0


if __name__ == "__main__":
    sys.exit(main())
