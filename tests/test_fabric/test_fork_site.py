"""Guards: the package has one of each thing a sweep needs.

``parallel_map``, ``run_supervised`` and ``run_fabric`` all obtain their
local workers from ``LocalBackend``; a second pool appearing anywhere in
``src/repro`` (an executor, a bare ``os.fork``, another fork context)
would bring back its own crash detection, watchdog and retry
bookkeeping. Likewise, anywhere in ``src/repro``, a journal is
constructed in one function, opened and compacted only by the sweep,
and the frame header is parsed in one module: a second journal loop is
how three record shapes came to share one file format, and a second
frame parser is how the fault injector came to parse frames on its
own. The collector is frozen and unfrozen in ``repro.measure`` only,
and run in one function there, which trials and load sessions both
call. No subprocesses here — the source is only read.
"""

import ast
import inspect
import pathlib
import re
import textwrap

import pytest

import repro
from repro.fabric.backend import LocalBackend
from repro.load.runner import LoadSession
from repro.measure.runner import run_trial

ROOT = pathlib.Path(repro.__file__).parent

_FORK_MARKERS = re.compile(
    r"ProcessPoolExecutor|concurrent\.futures|os\.fork\b"
    r"""|get_context\(\s*["']fork["']\s*\)"""
)


def test_local_backend_is_the_only_fork_site():
    forking = sorted(
        str(path.relative_to(ROOT))
        for path in ROOT.rglob("*.py")
        if _FORK_MARKERS.search(path.read_text(encoding="utf-8"))
    )
    home = pathlib.Path(inspect.getsourcefile(LocalBackend))
    assert forking == [str(home.relative_to(ROOT))]


_GC_POLICY = {"freeze", "unfreeze", "collect"}


class _GcPolicySites(ast.NodeVisitor):
    """``module.py:function`` of every ``gc`` freeze, unfreeze or collect
    in one module, under any import alias (``<module>`` outside any
    function)."""

    def __init__(self, module, tree):
        self.module = module
        self.where = "<module>"
        self.aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name == "gc"
        }
        self.sites = []  # (policy, "module.py:function")
        self.visit(tree)

    def visit_FunctionDef(self, node):
        outer, self.where = self.where, node.name
        self.generic_visit(node)
        self.where = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ImportFrom(self, node):
        if node.module == "gc":
            for alias in node.names:
                if alias.name in _GC_POLICY:
                    self.sites.append(
                        (alias.name, f"{self.module}:{self.where}"))

    def visit_Attribute(self, node):
        if node.attr in _GC_POLICY and isinstance(node.value, ast.Name) \
                and node.value.id in self.aliases:
            self.sites.append((node.attr, f"{self.module}:{self.where}"))
        self.generic_visit(node)


def _gc_policy_sites():
    return [
        site
        for path in sorted(ROOT.rglob("*.py"))
        for site in _GcPolicySites(
            str(path.relative_to(ROOT)),
            ast.parse(path.read_text(encoding="utf-8"))).sites
    ]


def test_only_measure_sets_garbage_collection_policy():
    # ``trial_scope`` and ``collect_finished_worlds`` are the one policy:
    # a second freeze or collect elsewhere would undo the scope's
    # accounting (an unfreeze mid-sweep) or walk a forked worker's
    # inherited heap.
    sites = _gc_policy_sites()
    assert sites
    assert [where for __, where in sites
            if not where.startswith("measure/")] == []
    assert [where for policy, where in sites if policy == "collect"] == [
        "measure/parallel.py:collect_finished_worlds"]


@pytest.mark.parametrize("function", [run_trial, LoadSession.__init__],
                         ids=["run_trial", "LoadSession"])
def test_finished_worlds_are_collected_through_the_one_helper(function):
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)}
    assert "collect_finished_worlds" in called


def _package_functions():
    """(``module.py:function``, its AST) for every function anywhere in
    the package."""
    for path in sorted(ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.relative_to(ROOT)}:{node.name}", node


def _functions_calling(matches):
    return sorted({
        name for name, function in _package_functions()
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and matches(node.func)
    })


def _calls_name(name):
    """Matches a call of ``name``, bare or as an attribute."""
    return lambda func: (isinstance(func, ast.Name) and func.id == name) \
        or (isinstance(func, ast.Attribute) and func.attr == name)


def test_one_function_compacts_a_journal():
    assert _functions_calling(_calls_name("rewrite")) == \
        ["measure/supervise.py:run_sweep"]


def test_one_function_opens_a_journal_from_a_path():
    assert _functions_calling(_calls_name("TrialJournal")) == \
        ["measure/journal.py:open_journal"]


def test_only_the_sweep_opens_a_journal():
    assert _functions_calling(_calls_name("open_journal")) == \
        ["measure/supervise.py:run_sweep"]


def test_the_frame_header_is_parsed_in_one_module():
    users = sorted(
        str(path.relative_to(ROOT))
        for package in ("measure", "fabric")
        for path in (ROOT / package).glob("*.py")
        if re.search(r"\b_HEADER\b|\b_MAGIC\b",
                     path.read_text(encoding="utf-8"))
    )
    assert users == ["fabric/protocol.py"]
