"""``mm-lint`` — static rules that enforce the determinism contract.

The simulator promises bit-identical replay for a given seed (DESIGN.md,
"Determinism contract"). Nothing in Python stops a contributor from
breaking that promise with one innocent-looking line, so this module
checks the contract statically, with two engines behind one front end:

* **Per-node AST rules** (REP001-REP007, this module): hazards visible
  in a single expression — wall-clock reads, unseeded RNG, float ``==``
  on virtual time, hash-ordered scheduling, environment reads,
  module-level mutable state, observer-effect writes.
* **Interprocedural dataflow rules** (REP010-REP012,
  :mod:`repro.analysis.flow` + :mod:`repro.analysis.rules_flow`):
  hazards that emerge from statement order and calls between functions —
  wall-clock/env taint reaching sinks, RNG stream aliasing across
  domains, fork-hostile handles inside forked workers.

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
REP010  No wall-clock/environment taint reaching ``schedule()``, RNG
        seeds, or obs artifacts — tracked through assignments and call
        returns, not just the call sites REP001/REP005 flag.
REP011  No seeded ``random.Random`` instance shared across the chaos /
        link / transport domains — derive one stream per domain via
        ``stable_seed``.
REP012  No fork-hostile handles (files, locks, journals, sockets)
        created pre-fork and used inside worker functions handed to
        ``LocalBackend`` / ``run_page_loads`` / ``run_supervised`` /
        ``parallel_map``.
======  ==============================================================

Rules REP001, REP003, REP005, REP006, REP010 and REP011 apply to
*simulation-domain* files (any file under a :data:`SIM_DOMAIN_DIRS`
directory); REP007 applies to *observer-domain* files (under an
:data:`OBS_DOMAIN_DIRS` directory); REP002, REP004 and REP012 apply
everywhere (REP002 excepts ``sim/random.py`` itself, where the blessed
streams live).

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
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.analysis.base import (
    OBS_DOMAIN_DIRS,
    SIM_DOMAIN_DIRS,
    Diagnostic,
    chain_parts as _chain_parts,
    disabled_codes as _disabled_codes,
    dotted as _dotted,
    is_obs_domain,
    is_sim_domain,
    iter_python_files as _iter_python_files,
    suppression_comments,
    terminal_name as _terminal_name,
)
from repro.analysis.rules_flow import FLOW_RULES, run_flow_rules

__all__ = [
    "Diagnostic",
    "OBS_DOMAIN_DIRS",
    "RULES",
    "RULE_REGISTRY",
    "Rule",
    "SIM_DOMAIN_DIRS",
    "check_suppressions",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
]


@dataclass(frozen=True)
class Rule:
    """One entry in the unified rule registry."""

    code: str
    summary: str
    #: Which engine implements it: "ast" (per-node) or "flow" (dataflow).
    engine: str
    #: Scope: "sim" (simulation-domain files), "obs" (observer-domain
    #: files), or "all".
    scope: str


#: The unified registry both engines report against. Ordered by code.
RULE_REGISTRY: Dict[str, Rule] = {
    "REP001": Rule(
        "REP001",
        "wall-clock read in simulation-domain code (use sim.now)",
        "ast",
        "sim",
    ),
    "REP002": Rule(
        "REP002",
        "unseeded or unstably-seeded RNG (derive seeds via stable_seed)",
        "ast",
        "all",
    ),
    "REP003": Rule(
        "REP003", "float equality on a virtual-time expression", "ast", "sim"
    ),
    "REP004": Rule(
        "REP004",
        "unordered iteration feeds the event queue (sort first)",
        "ast",
        "all",
    ),
    "REP005": Rule(
        "REP005", "environment read inside a simulation component", "ast", "sim"
    ),
    "REP006": Rule(
        "REP006",
        "module-level mutable state carries across trials in a warm worker",
        "ast",
        "sim",
    ),
    "REP007": Rule(
        "REP007",
        "observer-domain code schedules events or writes sim state",
        "ast",
        "obs",
    ),
    "REP010": Rule("REP010", FLOW_RULES["REP010"], "flow", "sim"),
    "REP011": Rule("REP011", FLOW_RULES["REP011"], "flow", "sim"),
    "REP012": Rule("REP012", FLOW_RULES["REP012"], "flow", "all"),
}

#: Rule code -> one-line summary (shown by ``mm-lint --list-rules``).
RULES: Dict[str, str] = {code: rule.summary for code, rule in RULE_REGISTRY.items()}

#: AST-engine rules restricted to simulation-domain files.
SIM_DOMAIN_RULES = frozenset(
    rule.code
    for rule in RULE_REGISTRY.values()
    if rule.engine == "ast" and rule.scope == "sim"
)

#: AST-engine rules restricted to observer-domain files.
OBS_DOMAIN_RULES = frozenset(
    rule.code for rule in RULE_REGISTRY.values() if rule.scope == "obs"
)

#: Codes implemented by the dataflow engine.
FLOW_RULE_CODES = frozenset(
    rule.code for rule in RULE_REGISTRY.values() if rule.engine == "flow"
)

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
    """One-pass visitor collecting diagnostics for every AST-engine rule."""

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
    # imports (REP002 alias tracking)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random":
                self._random_modules.add(alias.asname or alias.name)
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
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # calls: REP001, REP002, REP005

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        self._check_wall_clock(node, dotted)
        if not self.blessed_random:
            self._check_rng(node, dotted)
        if self.obs_domain:
            self._check_obs_call(node)
        if dotted == "os.getenv":
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
        if _dotted(node) == "os.environ":
            self._report(
                node,
                "REP005",
                "os.environ read inside a simulation component; pass "
                "configuration in explicitly so replays do not depend on "
                "ambient process state",
            )
        self.generic_visit(node)

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

    Runs both engines: the per-node AST rules and (unless ``select``
    excludes every flow rule) the interprocedural dataflow rules.

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
    sim_domain = is_sim_domain(path)
    checker = _Checker(
        path_str,
        sim_domain=sim_domain,
        blessed_random=_is_blessed_random_module(path),
        obs_domain=is_obs_domain(path),
    )
    checker.visit(tree)
    checker.check_module_level(tree)
    diagnostics = list(checker.diagnostics)
    if select is None or select & FLOW_RULE_CODES:
        diagnostics.extend(run_flow_rules(tree, path_str, sim_domain=sim_domain))
    lines = source.splitlines()
    kept: List[Diagnostic] = []
    for diag in diagnostics:
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


def lint_file(
    path: Union[str, Path],
    select: Optional[Set[str]] = None,
) -> List[Diagnostic]:
    """Lint one file on disk."""
    source = Path(path).read_bytes().decode("utf-8")
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
    ignored (they are documentation, not comments).
    """
    stale: List[Diagnostic] = []
    for file_path in _iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError:
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
                    stale.append(
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
                stale.append(
                    Diagnostic(
                        str(file_path),
                        line,
                        0,
                        "SUP001",
                        f"stale suppression: 'disable={code}' but {code} "
                        "no longer fires on this line — remove the comment",
                    )
                )
    return stale


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (console script ``mm-lint``)."""
    parser = argparse.ArgumentParser(
        prog="mm-lint",
        description="Determinism lint for the Mahimahi reproduction "
        "(rules REP001-REP007 and REP010-REP012; see repro.analysis.lint).",
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
        stale = check_suppressions(options.paths)
        for diag in stale:
            print(diag.format())
        if stale:
            print(
                f"mm-lint: {len(stale)} stale suppression(s)", file=sys.stderr
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
