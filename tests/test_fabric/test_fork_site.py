"""Guards: the package has one of each thing a sweep needs.

``parallel_map``, ``run_supervised`` and ``run_fabric`` all obtain their
local workers from ``LocalBackend``; a second pool appearing anywhere in
``src/repro`` (an executor, a bare ``os.fork``, another fork context)
would bring back its own crash detection, watchdog and retry
bookkeeping. Likewise the journal is opened from a path, and compacted,
in one function each, and the frame header is parsed in one module: a
second copy of either is how ``run_supervised`` once missed the sidecar
merge and how the fault injector came to parse frames on its own. The
collector is frozen, unfrozen and run in ``repro.measure`` only. No
subprocesses here — the source is only read.
"""

import ast
import inspect
import pathlib
import re

import repro
from repro.fabric.backend import LocalBackend

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


def _gc_policy_calls(tree):
    """Whether ``tree`` freezes, unfreezes or collects through ``gc``,
    under any import alias."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "gc"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gc" \
                and any(a.name in _GC_POLICY for a in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr in _GC_POLICY \
                and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            return True
    return False


def test_only_measure_sets_garbage_collection_policy():
    # ``trial_scope`` and ``run_trial`` are the one policy: a second
    # freeze or collect elsewhere would undo the scope's accounting (an
    # unfreeze mid-sweep) or walk a forked worker's inherited heap.
    users = sorted(
        str(path.relative_to(ROOT))
        for path in ROOT.rglob("*.py")
        if _gc_policy_calls(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert users
    assert [user for user in users if not user.startswith("measure/")] == []


def _harness_functions():
    """(``module.py:function``, its AST) for every function in the two
    harness packages."""
    for package in ("measure", "fabric"):
        for path in sorted((ROOT / package).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{package}/{path.name}:{node.name}", node


def _functions_calling(matches):
    return sorted({
        name for name, function in _harness_functions()
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and matches(node.func)
    })


def test_one_function_compacts_a_journal():
    assert _functions_calling(
        lambda func: isinstance(func, ast.Attribute)
        and func.attr == "rewrite"
    ) == ["measure/supervise.py:run_sweep"]


def test_one_function_opens_a_journal_from_a_path():
    assert _functions_calling(
        lambda func: isinstance(func, ast.Name)
        and func.id == "TrialJournal"
    ) == ["measure/journal.py:open_journal"]


def test_the_frame_header_is_parsed_in_one_module():
    users = sorted(
        str(path.relative_to(ROOT))
        for package in ("measure", "fabric")
        for path in (ROOT / package).glob("*.py")
        if re.search(r"\b_HEADER\b|\b_MAGIC\b",
                     path.read_text(encoding="utf-8"))
    )
    assert users == ["fabric/protocol.py"]
