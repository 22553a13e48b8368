"""``mm-lint`` — static rules that enforce the determinism contract.

The simulator promises bit-identical replay for a given seed (DESIGN.md,
"Determinism contract"). Nothing in Python stops a contributor from
breaking that promise with one innocent-looking line, so this module
checks the contract statically: seven rules, each a hazard visible in a
single expression or statement, all collected by one
:class:`ast.NodeVisitor` pass per file.

======  ==============================================================
REP001  No wall-clock reads (``time.time``/``time.monotonic``/argless
        ``datetime.now``) in simulation-domain code — use ``sim.now``.
REP002  No unseeded or unstably-seeded RNG: module-level ``random.*``
        draws share mutable global state, and ``random.Random(x)`` must
        derive ``x`` via :func:`repro.sim.random.stable_seed`.
REP003  No float ``==``/``!=`` on virtual-time expressions (names
        ``now``/``deadline``/``at``/``*_time``) — compare with an
        ordering, a tolerance, or a ``None`` sentinel.
REP004  No iteration over ``set()``/``dict.keys()`` collections that
        feeds ``schedule()``/``schedule_at()``/``call_soon()`` — event
        order must not depend on hash-iteration order; ``sorted()``
        first.
REP005  No ``os.environ``/``os.getenv`` reads inside simulation
        components — configuration must arrive explicitly so replays do
        not depend on ambient process state.
REP006  No module-level mutable state in simulation-domain packages —
        a warm worker (forked once, then handed trial after trial)
        carries it from one trial into the next and couples them. (Non-empty ALL_CAPS literal tables are treated as
        constants and allowed.)
REP007  Observer-domain code (the ``repro.obs`` package) may not
        schedule/cancel events, install trace hooks, write attributes
        on a simulator, or mutate queues — probes read simulation
        state and append to observer-owned storage, nothing else (the
        zero-observer-effect contract).
======  ==============================================================

Rules REP001, REP003, REP005 and REP006 apply to *simulation-domain*
files (any file under a :data:`SIM_DOMAIN_DIRS` directory); REP007
applies to *observer-domain* files (under an :data:`OBS_DOMAIN_DIRS`
directory); REP002 and REP004 apply everywhere (REP002 excepts
``sim/random.py`` itself, where the blessed streams live). REP001,
REP002 and REP005 see through import aliases (``import time as t``,
``from os import environ``).

Any diagnostic can be silenced for one line with an inline escape hatch::

    self._first_above_time = 0.0  # mm-lint: disable=REP003

(``disable=all`` silences every rule on the line). The comment is the
audit trail: it marks the spot as reviewed-and-intentional, and
``mm-lint --check-suppressions`` flags comments that no longer silence
anything so the audit trail cannot rot.

Run as ``mm-lint [paths…]`` or ``python -m repro.analysis.lint``.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Union

__all__ = [
    "Diagnostic",
    "OBS_DOMAIN_DIRS",
    "RULES",
    "RULE_REGISTRY",
    "Rule",
    "SIM_DOMAIN_DIRS",
    "check_suppressions",
    "is_obs_domain",
    "is_sim_domain",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
    "suppression_comments",
]

#: Directories whose code runs inside the simulated world. A file is
#: "simulation-domain" when any of its path components is one of these.
SIM_DOMAIN_DIRS = frozenset(
    {"sim", "net", "linkem", "transport", "core", "browser", "web", "dns",
     "http", "record", "apps", "corpus", "chaos", "load"}
)

#: Directories whose code *observes* the simulated world. A file is
#: "observer-domain" when any of its path components is one of these;
#: REP007 holds such code to the zero-observer-effect contract.
OBS_DOMAIN_DIRS = frozenset({"obs"})

#: Inline escape hatch: a comment of the form ``mm-lint: disable=<CODE>``
#: (or ``disable=all``) on the offending line. Spelled with a
#: placeholder here so this very comment never registers as a stale
#: suppression in the ``--check-suppressions`` audit.
_DISABLE_RE = re.compile(r"#\s*mm-lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, pointing at a file position."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        """``path:line:col: REPxxx message`` — editor-clickable."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class Rule:
    """One entry in the rule registry."""

    code: str
    summary: str
    #: Scope: "sim" (simulation-domain files), "obs" (observer-domain
    #: files), or "all".
    scope: str


#: Every rule ``mm-lint`` knows. Ordered by code.
RULE_REGISTRY: Dict[str, Rule] = {
    "REP001": Rule(
        "REP001", "wall-clock read in simulation-domain code (use sim.now)", "sim"
    ),
    "REP002": Rule(
        "REP002",
        "unseeded or unstably-seeded RNG (derive seeds via stable_seed)",
        "all",
    ),
    "REP003": Rule("REP003", "float equality on a virtual-time expression", "sim"),
    "REP004": Rule(
        "REP004", "unordered iteration feeds the event queue (sort first)", "all"
    ),
    "REP005": Rule("REP005", "environment read inside a simulation component", "sim"),
    "REP006": Rule(
        "REP006",
        "module-level mutable state carries across trials in a warm worker",
        "sim",
    ),
    "REP007": Rule(
        "REP007", "observer-domain code schedules events or writes sim state", "obs"
    ),
}

#: Rule code -> one-line summary (shown by ``mm-lint --list-rules``).
RULES: Dict[str, str] = {code: rule.summary for code, rule in RULE_REGISTRY.items()}

#: Rules restricted to simulation-domain files.
SIM_DOMAIN_RULES = frozenset(
    rule.code for rule in RULE_REGISTRY.values() if rule.scope == "sim"
)

#: Rules restricted to observer-domain files.
OBS_DOMAIN_RULES = frozenset(
    rule.code for rule in RULE_REGISTRY.values() if rule.scope == "obs"
)


def is_sim_domain(path: Union[str, Path]) -> bool:
    """Whether ``path`` lies in a simulation-domain directory.

    Classification is lexical: a symlink *named* after a sim-domain
    directory classifies everything under it, regardless of where the
    link target lives (the lint never resolves links).
    """
    return any(part in SIM_DOMAIN_DIRS for part in Path(path).parts[:-1])


def is_obs_domain(path: Union[str, Path]) -> bool:
    """Whether ``path`` lies in an observer-domain directory."""
    return any(part in OBS_DOMAIN_DIRS for part in Path(path).parts[:-1])


def _disabled_codes(line: str) -> Set[str]:
    """Rule codes silenced by an inline ``# mm-lint: disable=`` comment."""
    match = _DISABLE_RE.search(line)
    if match is None:
        return set()
    return {code.strip().upper() for code in match.group(1).split(",") if code.strip()}


def suppression_comments(source: str) -> Dict[int, Set[str]]:
    """Map line number -> codes suppressed by a *real* comment there.

    Unlike the per-line regex used while linting (which deliberately
    matches anything that looks like a suppression), this tokenizes the
    source so suppressions quoted inside string literals/docstrings are
    not counted. Used by ``mm-lint --check-suppressions``: a comment the
    tokenizer sees but that silences nothing is a stale suppression.
    """
    found: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            codes = _disabled_codes(tok.string)
            if codes:
                found.setdefault(tok.start[0], set()).update(codes)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    return found


def _terminal_name(node: ast.expr) -> Optional[str]:
    """Last identifier of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _chain_parts(node: ast.expr) -> List[str]:
    """All identifiers of a Name/Attribute chain (``a.b.c`` ->
    ``[a, b, c]``); empty when the chain is rooted elsewhere."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return []
    parts.append(node.id)
    parts.reverse()
    return parts


def _dotted(node: ast.expr) -> Optional[str]:
    """Dotted-name string of a Name/Attribute chain, else None."""
    return ".".join(_chain_parts(node)) or None


def _iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    """Yield ``.py`` files under the given files/directories, sorted."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if any(
                    part.startswith(".") or part == "__pycache__"
                    for part in candidate.parts
                ):
                    continue
                yield candidate
        else:
            yield path


#: Virtual-time identifiers: exactly now/deadline/at, or a ``*_time`` suffix.
_TIME_NAME_RE = re.compile(r"^(?:now|deadline|at)$|_time$")

#: ``^_?ALL_CAPS$`` names are constants by convention (REP006 exemption
#: for non-empty literal tables).
_CONST_NAME_RE = re.compile(r"^_?[A-Z][A-Z0-9_]*$")

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)

#: ``from <module> import <name>`` spellings REP001/REP005 see through.
_TRACKED_FROM_IMPORTS = _WALL_CLOCK_CALLS | frozenset(
    {"os.environ", "os.getenv", "datetime.datetime", "datetime.date"}
)

#: ``random`` module-level draw functions (all share one unseeded global).
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

_SCHEDULE_NAMES = frozenset({"schedule", "schedule_at", "call_soon"})

#: Calls forbidden in observer-domain code (REP007): anything that feeds
#: the event queue or rewires the simulator.
_OBS_FORBIDDEN_CALLS = _SCHEDULE_NAMES | frozenset({"cancel", "set_trace"})

#: Mutating methods that, called on a queue-named receiver from observer
#: code, would change what the simulation dequeues (REP007).
_QUEUE_MUTATORS = frozenset(
    {
        "push", "pop", "popleft", "append", "appendleft", "extend",
        "extendleft", "insert", "remove", "clear",
    }
)

#: Receiver name segments that identify simulator/queue objects (REP007).
_SIM_OBJECT_NAMES = frozenset({"sim", "simulator", "_sim", "_simulator"})

_MUTABLE_FACTORIES = frozenset(
    {
        "list",
        "dict",
        "set",
        "deque",
        "defaultdict",
        "OrderedDict",
        "Counter",
        "bytearray",
    }
)


def _is_blessed_random_module(path: Union[str, Path]) -> bool:
    """``repro/sim/random.py`` — the one place allowed to build streams."""
    p = Path(path)
    return p.name == "random.py" and p.parent.name == "sim"


def _is_time_named(node: ast.expr) -> bool:
    """Does this expression read like a virtual-time value?"""
    if isinstance(node, ast.Call):
        node = node.func
    name = _terminal_name(node)
    return name is not None and _TIME_NAME_RE.search(name) is not None


def _contains_stable_seed(nodes: Sequence[ast.AST]) -> bool:
    """Is any ``stable_seed(...)`` call nested in these subtrees?"""
    for root in nodes:
        for node in ast.walk(root):
            if (
                isinstance(node, ast.Call)
                and _terminal_name(node.func) == "stable_seed"
            ):
                return True
    return False


def _contains_schedule_call(nodes: Sequence[ast.AST]) -> bool:
    """Does any subtree call ``schedule``/``schedule_at``/``call_soon``?"""
    for root in nodes:
        for node in ast.walk(root):
            if (
                isinstance(node, ast.Call)
                and _terminal_name(node.func) in _SCHEDULE_NAMES
            ):
                return True
    return False


def _is_unordered_iterable(node: ast.expr) -> bool:
    """Set literal/constructor or a ``.keys()`` view — hash-ordered."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return not node.args and not node.keywords
    return False


def _is_mutable_initializer(node: ast.expr) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        name = _terminal_name(node.func)
        return name in _MUTABLE_FACTORIES
    return False


def _is_empty_container(node: ast.expr) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    if isinstance(node, ast.Call):
        return not node.args and not node.keywords
    return False


class _Checker(ast.NodeVisitor):
    """One-pass visitor collecting diagnostics for every rule."""

    def __init__(
        self,
        path: str,
        sim_domain: bool,
        blessed_random: bool,
        obs_domain: bool = False,
    ) -> None:
        self.path = path
        self.sim_domain = sim_domain
        self.blessed_random = blessed_random
        self.obs_domain = obs_domain
        self.diagnostics: List[Diagnostic] = []
        #: Local aliases of the ``random`` module (``import random as r``).
        self._random_modules: Set[str] = set()
        #: Local aliases of ``random.Random`` / ``random.SystemRandom``.
        self._random_classes: Set[str] = set()
        self._system_random_classes: Set[str] = set()
        #: Local aliases of module-level draw fns (``from random import …``).
        self._random_fns: Set[str] = set()
        #: Local name -> what it was imported as, for the REP001/REP005
        #: sources (``import time as t`` -> ``{"t": "time"}``; ``from os
        #: import environ`` -> ``{"environ": "os.environ"}``).
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # bookkeeping

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        if code in SIM_DOMAIN_RULES and not self.sim_domain:
            return
        if code in OBS_DOMAIN_RULES and not self.obs_domain:
            return
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self.diagnostics.append(Diagnostic(self.path, line, col, code, message))

    # ------------------------------------------------------------------ #
    # imports (REP001/REP002/REP005 alias tracking)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random":
                self._random_modules.add(alias.asname or alias.name)
            elif alias.asname and alias.name in {"time", "os"}:
                self._aliases[alias.asname] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                bound = alias.asname or alias.name
                if alias.name == "Random":
                    self._random_classes.add(bound)
                elif alias.name == "SystemRandom":
                    self._system_random_classes.add(bound)
                elif alias.name in _GLOBAL_RANDOM_FNS:
                    self._random_fns.add(bound)
        for alias in node.names:
            origin = f"{node.module}.{alias.name}"
            if origin in _TRACKED_FROM_IMPORTS:
                self._aliases[alias.asname or alias.name] = origin
        self.generic_visit(node)

    def _resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Undo import aliasing on the head of a dotted name (``t.time``
        -> ``time.time`` after ``import time as t``)."""
        if dotted is None:
            return None
        head, dot, rest = dotted.partition(".")
        return self._aliases.get(head, head) + dot + rest

    # ------------------------------------------------------------------ #
    # calls: REP001, REP002, REP005

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        resolved = self._resolve(dotted)
        self._check_wall_clock(node, resolved)
        if not self.blessed_random:
            self._check_rng(node, dotted)
        if self.obs_domain:
            self._check_obs_call(node)
        if resolved == "os.getenv":
            self._report(
                node,
                "REP005",
                "os.getenv() read inside a simulation component; pass "
                "configuration in explicitly so replays do not depend on "
                "ambient process state",
            )
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, dotted: Optional[str]) -> None:
        if dotted in _WALL_CLOCK_CALLS:
            self._report(
                node,
                "REP001",
                f"wall-clock read {dotted}() in simulation-domain code; "
                "virtual time is sim.now",
            )
            return
        # Argless datetime.now()/utcnow()/today() on a datetime-ish base.
        if (
            dotted is not None
            and not node.args
            and not node.keywords
            and dotted.rsplit(".", 1)[-1] in {"now", "utcnow", "today"}
            and any(part in {"datetime", "date"} for part in dotted.split(".")[:-1])
        ):
            self._report(
                node,
                "REP001",
                f"wall-clock read {dotted}() in simulation-domain code; "
                "virtual time is sim.now",
            )

    def _check_rng(self, node: ast.Call, dotted: Optional[str]) -> None:
        func = node.func
        # Module-level draws: random.random(), random.shuffle(), ...
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self._random_modules
            and func.attr in _GLOBAL_RANDOM_FNS
        ):
            self._report(
                node,
                "REP002",
                f"{func.value.id}.{func.attr}() draws from the shared "
                "unseeded global generator; use a named stream from "
                "sim.streams (repro.sim.random.RandomStreams)",
            )
            return
        if isinstance(func, ast.Name) and func.id in self._random_fns:
            self._report(
                node,
                "REP002",
                f"{func.id}() draws from the shared unseeded global "
                "generator; use a named stream from sim.streams",
            )
            return
        # SystemRandom: OS entropy, irreproducible by design.
        is_system = (dotted is not None and dotted.endswith(".SystemRandom")) or (
            isinstance(func, ast.Name) and func.id in self._system_random_classes
        )
        if is_system and (dotted or "").split(".", 1)[0] in (
            self._random_modules | self._system_random_classes
        ):
            self._report(
                node,
                "REP002",
                "SystemRandom draws OS entropy and can never replay; use a "
                "stable_seed-seeded random.Random",
            )
            return
        # Random(...) construction.
        is_random_ctor = (
            isinstance(func, ast.Attribute)
            and func.attr == "Random"
            and isinstance(func.value, ast.Name)
            and func.value.id in self._random_modules
        ) or (isinstance(func, ast.Name) and func.id in self._random_classes)
        if not is_random_ctor:
            return
        if not node.args and not node.keywords:
            self._report(
                node,
                "REP002",
                "Random() without a seed is seeded from OS entropy; pass a "
                "stable_seed(master, name)-derived seed",
            )
        elif not _contains_stable_seed(list(node.args) + list(node.keywords)):
            self._report(
                node,
                "REP002",
                "Random(...) seed is not derived via stable_seed(); raw "
                "seeds collide across streams and are not stable across "
                "consumers — derive with stable_seed(master, name)",
            )

    # ------------------------------------------------------------------ #
    # REP007: observer-domain code touching the simulation

    def _check_obs_call(self, node: ast.Call) -> None:
        terminal = _terminal_name(node.func)
        if terminal in _OBS_FORBIDDEN_CALLS:
            self._report(
                node,
                "REP007",
                f"observer-domain code calls {terminal}(); probes must fire "
                "on existing events only — scheduling (or cancelling, or "
                "installing trace hooks) breaks the zero-observer-effect "
                "contract",
            )
            return
        if terminal in _QUEUE_MUTATORS and isinstance(node.func, ast.Attribute):
            receiver = _chain_parts(node.func.value)
            if any("queue" in part.lower() for part in receiver):
                self._report(
                    node,
                    "REP007",
                    f"observer-domain code mutates a queue "
                    f"({'.'.join(receiver)}.{terminal}()); probes may only "
                    "read simulation state",
                )

    def _check_obs_assign(
        self, stmt: ast.stmt, targets: Sequence[ast.expr]
    ) -> None:
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            base = _chain_parts(target.value)
            if any(part in _SIM_OBJECT_NAMES for part in base):
                self._report(
                    stmt,
                    "REP007",
                    f"observer-domain code writes simulator state "
                    f"({'.'.join(base)}.{target.attr} = ...); attach through "
                    "Simulator.use_metrics and keep all observer state on "
                    "the registry",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.obs_domain:
            self._check_obs_assign(node, node.targets)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self.obs_domain:
            self._check_obs_assign(node, [node.target])
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.obs_domain:
            self._check_obs_assign(node, [node.target])
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # REP003: float equality on virtual-time expressions

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            for side, other in ((left, right), (right, left)):
                if not _is_time_named(side):
                    continue
                if isinstance(other, ast.Constant) and (
                    other.value is None or isinstance(other.value, str)
                ):
                    continue
                self._report(
                    node,
                    "REP003",
                    "float equality on a virtual-time expression "
                    f"({ast.unparse(side)}); exact comparison breaks under "
                    "float rounding — use an ordering, a tolerance, or a "
                    "None sentinel",
                )
                break
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # REP004: unordered iteration feeding the event queue

    def visit_For(self, node: ast.For) -> None:
        if _is_unordered_iterable(node.iter) and _contains_schedule_call(
            list(node.body)
        ):
            self._report(
                node,
                "REP004",
                "iterating a set/dict-view while scheduling events makes "
                "event order depend on hash-iteration order; iterate "
                "sorted(...) instead",
            )
        self.generic_visit(node)

    def _check_comprehension(
        self,
        node: Union[ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp],
        elements: Sequence[ast.AST],
    ) -> None:
        if any(
            _is_unordered_iterable(gen.iter) for gen in node.generators
        ) and _contains_schedule_call(elements):
            self._report(
                node,
                "REP004",
                "comprehension over a set/dict-view schedules events in "
                "hash-iteration order; iterate sorted(...) instead",
            )
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, [node.elt])

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_comprehension(node, [node.elt])

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node, [node.elt])

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, [node.key, node.value])

    # ------------------------------------------------------------------ #
    # REP005: os.environ reads

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_environ(node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        # ``from os import environ`` leaves a bare name to read.
        self._check_environ(node)

    def _check_environ(self, node: ast.expr) -> None:
        if self._resolve(_dotted(node)) == "os.environ":
            self._report(
                node,
                "REP005",
                "os.environ read inside a simulation component; pass "
                "configuration in explicitly so replays do not depend on "
                "ambient process state",
            )

    # ------------------------------------------------------------------ #
    # REP006: module-level mutable state (driven from lint_source — the
    # visitor recursion above never enters Module.body assignments).

    def check_module_level(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets: List[ast.expr] = stmt.targets
                value: Optional[ast.expr] = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            if value is None or not _is_mutable_initializer(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.startswith("__") and name.endswith("__"):
                    continue  # __all__ and friends
                if _CONST_NAME_RE.match(name) and not _is_empty_container(value):
                    continue  # non-empty ALL_CAPS literal: a constant table
                self._report(
                    stmt,
                    "REP006",
                    f"module-level mutable {name!r} carries from one trial "
                    "into the next inside a warm worker and couples them; "
                    "move it onto an object owned by the simulation",
                )


def lint_source(
    source: str,
    path: Union[str, Path] = "<string>",
    select: Optional[Set[str]] = None,
    *,
    respect_suppressions: bool = True,
) -> List[Diagnostic]:
    """Lint one module's source text; returns sorted diagnostics.

    Args:
        source: the module text.
        path: where it (notionally) lives — drives the simulation-domain
            rule scoping and appears in diagnostics.
        select: restrict to these rule codes (default: all rules).
        respect_suppressions: honour inline ``# mm-lint: disable=``
            comments (disabled by the stale-suppression audit, which
            needs the raw findings).
    """
    path_str = str(path)
    try:
        tree = ast.parse(source, filename=path_str)
    except SyntaxError as exc:
        return [
            Diagnostic(
                path_str,
                exc.lineno or 1,
                (exc.offset or 1) - 1,
                "E999",
                f"syntax error: {exc.msg}",
            )
        ]
    checker = _Checker(
        path_str,
        sim_domain=is_sim_domain(path),
        blessed_random=_is_blessed_random_module(path),
        obs_domain=is_obs_domain(path),
    )
    checker.visit(tree)
    checker.check_module_level(tree)
    lines = source.splitlines()
    kept: List[Diagnostic] = []
    for diag in checker.diagnostics:
        if select is not None and diag.code not in select:
            continue
        line_text = lines[diag.line - 1] if 0 < diag.line <= len(lines) else ""
        if respect_suppressions:
            disabled = _disabled_codes(line_text)
            if "ALL" in disabled or diag.code in disabled:
                continue
        kept.append(diag)
    kept.sort(key=lambda d: (d.line, d.col, d.code))
    return kept


def _read(path: Union[str, Path]) -> Union[str, Diagnostic]:
    """The one place files are read: the text, or why there is none.

    A missing path (a typo in the CI step) or undecodable bytes must
    fail the run like any other finding, not pass it vacuously.
    """
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return Diagnostic(str(path), 1, 0, "E902", f"cannot read: {exc}")


def lint_file(
    path: Union[str, Path],
    select: Optional[Set[str]] = None,
) -> List[Diagnostic]:
    """Lint one file on disk."""
    source = _read(path)
    if isinstance(source, Diagnostic):
        return [source]
    return lint_source(source, path, select)


def lint_paths(
    paths: Sequence[Union[str, Path]],
    select: Optional[Set[str]] = None,
) -> List[Diagnostic]:
    """Lint files and directory trees; returns all diagnostics."""
    diagnostics: List[Diagnostic] = []
    for path in _iter_python_files(paths):
        diagnostics.extend(lint_file(path, select))
    return diagnostics


def check_suppressions(
    paths: Sequence[Union[str, Path]],
) -> List[Diagnostic]:
    """Find stale ``# mm-lint: disable=`` comments (``--check-suppressions``).

    A suppression is *stale* when the code it names (or, for
    ``disable=all``, any rule) no longer produces a diagnostic on that
    line — the hazard it documented is gone, so the comment is now a
    misleading audit trail. Suppressions inside string literals are
    ignored (they are documentation, not comments). A file that cannot
    be read is reported (``E902``) rather than skipped.
    """
    findings: List[Diagnostic] = []
    for file_path in _iter_python_files(paths):
        source = _read(file_path)
        if isinstance(source, Diagnostic):
            findings.append(source)
            continue
        comments = suppression_comments(source)
        if not comments:
            continue
        raw = lint_source(source, file_path, respect_suppressions=False)
        by_line: Dict[int, Set[str]] = {}
        for diag in raw:
            by_line.setdefault(diag.line, set()).add(diag.code)
        for line, codes in sorted(comments.items()):
            present = by_line.get(line, set())
            if "ALL" in codes:
                if not present:
                    findings.append(
                        Diagnostic(
                            str(file_path),
                            line,
                            0,
                            "SUP001",
                            "stale suppression: 'disable=all' but no rule "
                            "fires on this line — remove the comment",
                        )
                    )
                continue
            for code in sorted(codes - present):
                findings.append(
                    Diagnostic(
                        str(file_path),
                        line,
                        0,
                        "SUP001",
                        f"stale suppression: 'disable={code}' but {code} "
                        "no longer fires on this line — remove the comment",
                    )
                )
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (console script ``mm-lint``)."""
    parser = argparse.ArgumentParser(
        prog="mm-lint",
        description="Determinism lint for the Mahimahi reproduction "
        "(rules REP001-REP007; see repro.analysis.lint).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to enable (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    parser.add_argument(
        "--check-suppressions",
        action="store_true",
        help="audit inline disable= comments; stale ones fail the run",
    )
    options = parser.parse_args(argv)
    if options.list_rules:
        for code, summary in RULES.items():
            print(f"{code}  {summary}")
        return 0

    if options.check_suppressions:
        findings = check_suppressions(options.paths)
        for diag in findings:
            print(diag.format())
        if findings:
            print(
                f"mm-lint: {len(findings)} suppression-audit finding(s)",
                file=sys.stderr,
            )
            return 1
        return 0

    select: Optional[Set[str]] = None
    if options.select:
        select = {code.strip().upper() for code in options.select.split(",")}
        unknown = select - set(RULES)
        if unknown:
            parser.error(f"unknown rule code(s): {', '.join(sorted(unknown))}")

    diagnostics = lint_paths(options.paths, select)
    for diag in diagnostics:
        print(diag.format())
    if diagnostics:
        print(
            f"mm-lint: {len(diagnostics)} determinism violation(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
