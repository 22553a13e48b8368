"""Interprocedural dataflow engine for ``mm-lint`` (rules REP010-REP012).

The per-node AST rules in :mod:`repro.analysis.lint` catch determinism
hazards visible in a single expression. Where a value *came from* — a
wall-clock read flowing into the event queue, one seeded RNG fed to two
domains, a pre-fork handle read inside a forked worker — is a *flow*
property: it emerges from the order of statements and from calls
between functions. This module supplies the machinery to see it:

* a per-module **function table and call graph** (module-level functions,
  methods resolved through ``self``, nested defs);
* **function summaries** computed to a fixpoint — which parameters flow
  through to a function's return value, which reach a taint sink inside
  it, and which tags its return value carries;
* a forward **abstract interpretation** over each function body: every
  name maps to a set of abstract provenance tags (``taint:time``,
  ``taint:env``, ``rng``, ``handle``), branches join by union (a *may*
  analysis: "tainted on some path" taints the join), and loops run to a
  two-iteration fixpoint so loop-carried facts propagate.

The engine is policy-free: as it interprets, it emits events (sink
calls, RNG sharing, worker captures) to a :class:`FlowListener`. The
REP010-REP012 decisions and messages live in
:mod:`repro.analysis.rules_flow`, which implements the listener;
:mod:`repro.analysis.lint` drives both from ``lint_source``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, cast

from repro.analysis.base import chain_parts, dotted, terminal_name

__all__ = [
    "FlowEngine",
    "FlowListener",
    "FunctionInfo",
    "HANDLE",
    "RNG",
    "Summary",
    "TAINT_ENV",
    "TAINT_TIME",
    "TagSet",
]

TagSet = FrozenSet[str]

EMPTY: TagSet = frozenset()

#: Value derived from a wall-clock read (``time.time()`` and friends).
TAINT_TIME = "taint:time"

#: Value derived from the process environment (``os.environ``/``getenv``).
TAINT_ENV = "taint:env"

#: A ``random.Random`` instance (or a named stream from ``RandomStreams``).
RNG = "rng"

#: A fork-hostile handle: open file, lock, journal, socket, DB connection.
HANDLE = "handle"

#: Marker for names bound to a local function definition.
FUNC = "func"

_TAINT_TAGS: TagSet = frozenset({TAINT_TIME, TAINT_ENV})

#: Summary-mode tag for "the value of parameter N" (``param:0``, ...).
#: Taint and parameter tags propagate through operators, containers and
#: unknown calls; RNG/HANDLE identify one object and do not.
_PARAM_PREFIX = "param:"

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

_SCHEDULE_NAMES = frozenset({"schedule", "schedule_at", "call_soon"})

_SEED_SINKS = frozenset({"stable_seed", "seed", "Random"})

_ARTIFACT_SINKS = frozenset({"write_artifact"})

#: Callables that fan work out to forked workers; function-valued
#: arguments run post-fork and may not capture pre-fork handles (REP012).
#: ``LocalBackend`` is the one fork site; the rest hand it their factory.
_RUNNER_NAMES = frozenset(
    {
        "LocalBackend",
        "parallel_map",
        "run_supervised",
        "run_page_loads",
    }
)

#: Runner keyword arguments whose callables run in the *parent* process
#: (completion callbacks like parallel_map's on_result), so handle
#: capture there is fine.
_PARENT_SIDE_KWARGS = frozenset({"on_result", "on_error", "on_progress"})

#: Factories whose results are fork-hostile handles (REP012 sources).
_HANDLE_TERMINALS = frozenset(
    {
        "open",
        "Lock",
        "RLock",
        "Semaphore",
        "BoundedSemaphore",
        "Condition",
        "TrialJournal",
    }
)

_HANDLE_DOTTED = frozenset({"socket.socket", "sqlite3.connect", "socket.create_connection"})


def _param_indices(tags: TagSet) -> List[int]:
    """Parameter indices encoded in summary-mode tags."""
    return [
        int(tag[len(_PARAM_PREFIX):])
        for tag in tags
        if tag.startswith(_PARAM_PREFIX)
    ]


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method in the module's function table."""

    name: str
    qualname: str
    node: ast.AST
    params: Tuple[str, ...]
    class_name: Optional[str]


@dataclass
class Summary:
    """Interprocedural facts about one function, grown to a fixpoint."""

    #: Tags the return value carries intrinsically (e.g. TAINT_TIME for
    #: a wall-clock reader, RNG for a stream factory).
    return_tags: TagSet = EMPTY
    #: Parameter indices whose tags flow into the return value.
    passthrough: FrozenSet[int] = frozenset()
    #: Parameter indices that reach a schedule/seed/artifact sink inside.
    taint_sinks: FrozenSet[int] = frozenset()

    def merge(self, other: "Summary") -> bool:
        """Union ``other`` in; True when anything grew."""
        before = (
            self.return_tags,
            self.passthrough,
            self.taint_sinks,
        )
        self.return_tags = self.return_tags | other.return_tags
        self.passthrough = self.passthrough | other.passthrough
        self.taint_sinks = self.taint_sinks | other.taint_sinks
        return before != (
            self.return_tags,
            self.passthrough,
            self.taint_sinks,
        )


class FlowListener:
    """Event sink for the interpreter; the base class ignores everything.

    :mod:`repro.analysis.rules_flow` subclasses this to turn events into
    REP010-REP012 diagnostics.
    """

    def enter_function(self, qualname: str) -> None:
        """A new function body is about to be interpreted."""

    def exit_function(self) -> None:
        """The current function body is done."""

    def sink(
        self, kind: str, callee: List[str], taints: TagSet, node: ast.AST
    ) -> None:
        """A tainted value reached a sink (kind: schedule/seed/artifact)."""

    def rng_share(self, name: str, callee: List[str], node: ast.AST) -> None:
        """An RNG-tagged name was passed to the given callee."""

    def worker_capture(
        self, worker: str, free_name: str, tags: TagSet, node: ast.AST
    ) -> None:
        """A worker function passed to a fork runner reads a free
        variable carrying the given tags."""


Env = Dict[str, TagSet]


def _join_env(a: Env, b: Env) -> Env:
    """Per-name union of two branch states (may-analysis join)."""
    out: Env = dict(a)
    for name, tags in b.items():
        existing = out.get(name)
        out[name] = tags if existing is None else existing | tags
    return out


def _block_terminates(stmts: Sequence[ast.stmt]) -> bool:
    """Does this block always divert control (return/raise/break/...)?

    Conservative syntactic check on the final statement: a block ending
    in ``return``/``raise``/``break``/``continue`` — or in an ``if``
    whose branches both terminate — never falls through, so its state
    must not be joined into the code after the conditional.
    """
    if not stmts:
        return False
    last = stmts[-1]
    if isinstance(last, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
        return True
    if isinstance(last, ast.If):
        return _block_terminates(last.body) and _block_terminates(last.orelse)
    if isinstance(last, (ast.With, ast.AsyncWith)):
        return _block_terminates(last.body)
    return False


def _free_reads(func: ast.AST) -> List[Tuple[str, ast.AST]]:
    """Free-variable reads of a function/lambda body.

    Names loaded in the body that are neither parameters nor bound by
    any assignment-like construct inside it. Order of first occurrence.
    """
    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        body: List[ast.AST] = list(func.body)
        arguments = func.args
    elif isinstance(func, ast.Lambda):
        body = [func.body]
        arguments = func.args
    else:
        return []
    bound: Set[str] = set()
    for group in (
        arguments.posonlyargs,
        arguments.args,
        arguments.kwonlyargs,
    ):
        for arg in group:
            bound.add(arg.arg)
    if arguments.vararg is not None:
        bound.add(arguments.vararg.arg)
    if arguments.kwarg is not None:
        bound.add(arguments.kwarg.arg)
    loads: List[Tuple[str, ast.AST]] = []
    for root in body:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loads.append((node.id, node))
                else:
                    bound.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(node.name)
            elif isinstance(node, ast.ClassDef):
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.add(node.name)
    seen: Set[str] = set()
    out: List[Tuple[str, ast.AST]] = []
    for name, node in loads:
        if name in bound or name in seen:
            continue
        seen.add(name)
        out.append((name, node))
    return out


class _FunctionTable(ast.NodeVisitor):
    """Collect every function/method with a resolvable qualname."""

    def __init__(self) -> None:
        self.functions: List[FunctionInfo] = []
        self.module_funcs: Dict[str, FunctionInfo] = {}
        self.methods: Dict[Tuple[str, str], FunctionInfo] = {}
        self._class_stack: List[str] = []
        self._func_stack: List[str] = []

    def _collect(self, node: ast.AST, name: str) -> None:
        arguments = getattr(node, "args", None)
        params: List[str] = []
        if isinstance(arguments, ast.arguments):
            for group in (arguments.posonlyargs, arguments.args):
                for arg in group:
                    params.append(arg.arg)
        qual_parts = self._class_stack + self._func_stack + [name]
        class_name = self._class_stack[-1] if self._class_stack else None
        info = FunctionInfo(
            name=name,
            qualname=".".join(qual_parts),
            node=node,
            params=tuple(params),
            class_name=class_name if not self._func_stack else None,
        )
        self.functions.append(info)
        if not self._class_stack and not self._func_stack:
            self.module_funcs[name] = info
        if info.class_name is not None:
            self.methods[(info.class_name, name)] = info

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._collect(node, node.name)
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._collect(node, node.name)
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()


class FlowEngine:
    """Run the dataflow analysis for one module and emit rule events."""

    #: Fixpoint iterations for mutually recursive summaries. Summaries
    #: grow monotonically, so iteration count only bounds *depth* of
    #: transitive facts through call cycles; 5 covers real code.
    _SUMMARY_ROUNDS = 5

    def __init__(self, tree: ast.Module, path: str, listener: FlowListener) -> None:
        self.tree = tree
        self.path = path
        self.listener = listener
        table = _FunctionTable()
        table.visit(tree)
        self.functions = table.functions
        self.module_funcs = table.module_funcs
        self.methods = table.methods
        self.summaries: Dict[str, Summary] = {
            info.qualname: Summary() for info in self.functions
        }
        self.module_env: Env = {}

    # ------------------------------------------------------------------ #

    def run(self) -> None:
        """Summaries to fixpoint, then a checking pass over everything."""
        null = FlowListener()
        for _ in range(self._SUMMARY_ROUNDS):
            changed = False
            for info in self.functions:
                interp = _Interpreter(self, info, null, summary=Summary())
                interp.run_summary()
                assert interp.summary is not None
                if self.summaries[info.qualname].merge(interp.summary):
                    changed = True
            if not changed:
                break
        # Module-level pass builds the module environment (handles, RNGs
        # bound at import time) and checks module-level statements.
        self.listener.enter_function("<module>")
        module_interp = _Interpreter(self, None, self.listener, summary=None)
        module_interp.run_module(self.tree)
        self.module_env = module_interp.env
        self.listener.exit_function()
        for info in self.functions:
            self.listener.enter_function(info.qualname)
            interp = _Interpreter(self, info, self.listener, summary=None)
            interp.run_check()
            self.listener.exit_function()

    def resolve_call(
        self, func: ast.expr, class_name: Optional[str]
    ) -> Optional[Tuple[FunctionInfo, int]]:
        """Resolve a call target to (function, parameter offset).

        Offset is 1 for ``self.method(...)`` calls (the receiver binds
        the leading ``self`` parameter), 0 otherwise.
        """
        if isinstance(func, ast.Name):
            info = self.module_funcs.get(func.id)
            if info is not None:
                return info, 0
            return None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and class_name is not None
        ):
            info = self.methods.get((class_name, func.attr))
            if info is not None:
                return info, 1
        return None


class _Interpreter:
    """Forward abstract interpretation of one function body (or the
    module body), emitting events to the engine's listener."""

    def __init__(
        self,
        engine: FlowEngine,
        info: Optional[FunctionInfo],
        listener: FlowListener,
        summary: Optional[Summary],
    ) -> None:
        self.engine = engine
        self.info = info
        self.listener = listener
        self.summary = summary
        self.env: Env = {}
        #: Function defs seen in this scope (REP012 worker resolution).
        self.local_defs: Dict[str, ast.AST] = {}

    # ------------------------------------------------------------------ #
    # entry points

    def run_summary(self) -> None:
        assert self.info is not None and self.summary is not None
        for index, param in enumerate(self.info.params):
            self.env[param] = frozenset({f"{_PARAM_PREFIX}{index}"})
        self._exec_block(self._body())

    def run_check(self) -> None:
        assert self.info is not None
        self.env = dict(self.engine.module_env)
        for param in self.info.params:
            self.env[param] = EMPTY
        self._exec_block(self._body())

    def run_module(self, tree: ast.Module) -> None:
        self._exec_block(tree.body)

    def _body(self) -> List[ast.stmt]:
        assert self.info is not None
        body = getattr(self.info.node, "body", None)
        return list(body) if isinstance(body, list) else []

    @property
    def _class_name(self) -> Optional[str]:
        return self.info.class_name if self.info is not None else None

    # ------------------------------------------------------------------ #
    # state helpers

    def _record_sink(self, kind: str, callee: List[str], tags: TagSet, node: ast.AST) -> None:
        taints = tags & _TAINT_TAGS
        if taints:
            self.listener.sink(kind, callee, taints, node)
        if self.summary is not None:
            for index in _param_indices(tags):
                self.summary.taint_sinks = self.summary.taint_sinks | {index}

    # ------------------------------------------------------------------ #
    # expressions

    def _propagate(self, tags: TagSet) -> TagSet:
        """Tags that survive operators/containers/unknown calls."""
        return frozenset(
            tag
            for tag in tags
            if tag in _TAINT_TAGS or tag.startswith(_PARAM_PREFIX)
        )

    def _eval(self, node: Optional[ast.expr]) -> TagSet:
        if node is None:
            return EMPTY
        if isinstance(node, ast.Name):
            return self.env.get(node.id, EMPTY)
        if isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Subscript):
            if dotted(node.value) == "os.environ":
                self._eval(node.slice)
                return frozenset({TAINT_ENV})
            value = self._eval(node.value)
            self._eval(node.slice)
            return self._propagate(value)
        if isinstance(node, ast.BinOp):
            return self._propagate(self._eval(node.left) | self._eval(node.right))
        if isinstance(node, ast.UnaryOp):
            return self._propagate(self._eval(node.operand))
        if isinstance(node, ast.BoolOp):
            tags: TagSet = EMPTY
            for value_node in node.values:
                tags |= self._eval(value_node)
            # `a or default`: identity tags survive boolean alternation.
            return tags
        if isinstance(node, ast.Compare):
            tags = self._eval(node.left)
            for comparator in node.comparators:
                tags |= self._eval(comparator)
            return self._propagate(tags)
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body) | self._eval(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            tags = EMPTY
            for elt in node.elts:
                tags |= self._eval(elt)
            return self._propagate(tags)
        if isinstance(node, ast.Dict):
            tags = EMPTY
            for key in node.keys:
                if key is not None:
                    tags |= self._eval(key)
            for value_node in node.values:
                tags |= self._eval(value_node)
            return self._propagate(tags)
        if isinstance(node, ast.JoinedStr):
            tags = EMPTY
            for value_node in node.values:
                tags |= self._eval(value_node)
            return self._propagate(tags)
        if isinstance(node, ast.FormattedValue):
            return self._propagate(self._eval(node.value))
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        if isinstance(node, ast.NamedExpr):
            tags = self._eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = tags
            return tags
        if isinstance(node, ast.Lambda):
            return EMPTY
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            return self._eval_comprehension(node)
        return EMPTY

    def _eval_comprehension(
        self,
        node: "ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp",
    ) -> TagSet:
        saved: Dict[str, Optional[TagSet]] = {}
        element_tags: TagSet = EMPTY
        for gen in node.generators:
            iter_tags = self._propagate(self._eval(gen.iter))
            for target_node in ast.walk(gen.target):
                if isinstance(target_node, ast.Name):
                    saved.setdefault(target_node.id, self.env.get(target_node.id))
                    self.env[target_node.id] = iter_tags
            for if_node in gen.ifs:
                self._eval(if_node)
        if isinstance(node, ast.DictComp):
            element_tags = self._eval(node.key) | self._eval(node.value)
        else:
            element_tags = self._eval(node.elt)
        for name, previous in saved.items():
            if previous is None:
                self.env.pop(name, None)
            else:
                self.env[name] = previous
        return self._propagate(element_tags)

    def _eval_attribute(self, node: ast.Attribute) -> TagSet:
        if dotted(node) == "os.environ":
            return frozenset({TAINT_ENV})
        return self._propagate(self._eval(node.value))

    # ------------------------------------------------------------------ #
    # calls

    def _eval_call(self, node: ast.Call) -> TagSet:
        func = node.func
        term = terminal_name(func)
        dotted_name = dotted(func)
        if isinstance(func, ast.Attribute):
            receiver_tags = self._eval(func.value)
            receiver_chain = chain_parts(func.value)
        else:
            receiver_tags = EMPTY
            receiver_chain = []

        arg_tags: List[TagSet] = [self._eval(arg) for arg in node.args]
        kw_tags: List[Tuple[Optional[str], TagSet]] = []
        for keyword in node.keywords:
            kw_tags.append((keyword.arg, self._eval(keyword.value)))
        all_arg_tags: TagSet = EMPTY
        for tags in arg_tags:
            all_arg_tags |= tags
        for _, tags in kw_tags:
            all_arg_tags |= tags

        callee_chain = chain_parts(func) or ([term] if term else [])

        # -- RNG sharing (REP011) -------------------------------------- #
        if callee_chain:
            for arg in node.args:
                if isinstance(arg, ast.Name) and RNG in self.env.get(arg.id, EMPTY):
                    self.listener.rng_share(arg.id, callee_chain, node)
            for keyword in node.keywords:
                value = keyword.value
                if isinstance(value, ast.Name) and RNG in self.env.get(
                    value.id, EMPTY
                ):
                    self.listener.rng_share(value.id, callee_chain, node)

        # -- taint sinks (REP010) -------------------------------------- #
        if term in _SCHEDULE_NAMES:
            self._record_sink("schedule", callee_chain, all_arg_tags, node)
        elif term in _SEED_SINKS:
            self._record_sink("seed", callee_chain, all_arg_tags, node)
        elif term in _ARTIFACT_SINKS:
            self._record_sink("artifact", callee_chain, all_arg_tags, node)

        # -- fork-hostile worker captures (REP012) --------------------- #
        if term in _RUNNER_NAMES:
            self._check_worker_args(node)

        # -- local call: apply the callee's summary -------------------- #
        resolved = self.engine.resolve_call(func, self._class_name)
        if resolved is not None:
            info, offset = resolved
            callee_summary = self.engine.summaries.get(info.qualname, Summary())
            param_of_kw = {name: i for i, name in enumerate(info.params)}
            mapped: List[Tuple[int, TagSet]] = []
            for position, tags in enumerate(arg_tags):
                mapped.append((position + offset, tags))
            for kw_name, tags in kw_tags:
                if kw_name is not None and kw_name in param_of_kw:
                    mapped.append((param_of_kw[kw_name], tags))
            result = callee_summary.return_tags
            for index, tags in mapped:
                if index in callee_summary.taint_sinks:
                    self._record_sink("call", [info.name], tags, node)
                if index in callee_summary.passthrough:
                    result |= tags
            return result

        # -- intrinsic sources ----------------------------------------- #
        if dotted_name in _WALL_CLOCK_CALLS:
            return frozenset({TAINT_TIME})
        if (
            dotted_name is not None
            and not node.args
            and not node.keywords
            and dotted_name.rsplit(".", 1)[-1] in {"now", "utcnow", "today"}
            and any(
                part in {"datetime", "date"}
                for part in dotted_name.split(".")[:-1]
            )
        ):
            return frozenset({TAINT_TIME})
        if dotted_name == "os.getenv" or (
            dotted_name is not None and dotted_name.startswith("os.environ.")
        ):
            return frozenset({TAINT_ENV})
        if term == "Random":
            return frozenset({RNG}) | self._propagate(all_arg_tags)
        if term == "stream" and any(
            "stream" in part.lower() for part in receiver_chain
        ):
            return frozenset({RNG})
        if term in _HANDLE_TERMINALS or dotted_name in _HANDLE_DOTTED:
            return frozenset({HANDLE})

        # Unknown call: taint flows through (str(t), min(t, x), ...).
        return self._propagate(all_arg_tags | receiver_tags)

    def _check_worker_args(self, node: ast.Call) -> None:
        """REP012: inspect function-valued args of a fork-runner call."""
        candidates: List[ast.expr] = list(node.args)
        candidates.extend(
            keyword.value
            for keyword in node.keywords
            if keyword.arg not in _PARENT_SIDE_KWARGS
        )
        for arg in candidates:
            worker: Optional[ast.AST] = None
            worker_name = "<lambda>"
            if isinstance(arg, ast.Lambda):
                worker = arg
            elif isinstance(arg, ast.Name):
                worker = self.local_defs.get(arg.id)
                if worker is None:
                    info = self.engine.module_funcs.get(arg.id)
                    worker = info.node if info is not None else None
                worker_name = arg.id
            if worker is None:
                continue
            for free_name, read_node in _free_reads(worker):
                tags = self.env.get(
                    free_name, self.engine.module_env.get(free_name, EMPTY)
                )
                if tags:
                    self.listener.worker_capture(
                        worker_name, free_name, tags, read_node
                    )

    # ------------------------------------------------------------------ #
    # statements

    def _exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._exec(stmt)

    def _branch(self, stmts: Sequence[ast.stmt]) -> Env:
        """Run a block on a copy of the current state; return its out-state."""
        saved_env = self.env
        self.env = dict(saved_env)
        self._exec_block(stmts)
        out = self.env
        self.env = saved_env
        return out

    def _exec(self, stmt: ast.stmt) -> None:
        kind = type(stmt).__name__
        if isinstance(stmt, ast.Assign):
            value_tags = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, value_tags)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value_tags = self._eval(stmt.value)
                self._assign_target(stmt.target, value_tags)
        elif isinstance(stmt, ast.AugAssign):
            value_tags = self._eval(stmt.value)
            target = stmt.target
            if isinstance(target, ast.Name):
                current = self.env.get(target.id, EMPTY)
                self.env[target.id] = current | self._propagate(value_tags)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            tags = self._eval(stmt.value)
            if self.summary is not None:
                generated = frozenset(
                    tag for tag in tags if not tag.startswith(_PARAM_PREFIX)
                )
                self.summary.return_tags = self.summary.return_tags | generated
                self.summary.passthrough = self.summary.passthrough | frozenset(
                    _param_indices(tags)
                )
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            body_env = self._branch(stmt.body)
            else_env = self._branch(stmt.orelse)
            # A branch that always diverts control (return/raise/...)
            # contributes nothing to the fall-through state; joining it
            # anyway would leak, e.g., a taint picked up on an early-return
            # path into code that only runs when that path was not taken.
            body_exits = _block_terminates(stmt.body)
            else_exits = _block_terminates(stmt.orelse)
            if body_exits and not else_exits:
                self.env = else_env
            elif else_exits and not body_exits:
                self.env = body_env
            else:
                self.env = _join_env(body_env, else_env)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            once = _join_env(self.env, self._branch(stmt.body))
            self.env = once
            self.env = _join_env(once, self._branch(stmt.body))
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_tags = self._propagate(self._eval(stmt.iter))
            for target_node in ast.walk(stmt.target):
                if isinstance(target_node, ast.Name):
                    self.env[target_node.id] = iter_tags
            once = _join_env(self.env, self._branch(stmt.body))
            self.env = once
            self.env = _join_env(once, self._branch(stmt.body))
            self._exec_block(stmt.orelse)
        elif kind in ("Try", "TryStar"):
            # TryStar (3.11+) shares Try's field layout; dispatch on the
            # node-type name so 3.9/3.10 parsers never see the class.
            try_stmt = cast(ast.Try, stmt)
            pre = dict(self.env)
            after_body = self._branch(try_stmt.body + try_stmt.orelse)
            joined = _join_env(pre, after_body)
            for handler in try_stmt.handlers:
                saved = self.env
                self.env = dict(joined)
                if handler.name:
                    self.env[handler.name] = EMPTY
                self._exec_block(handler.body)
                joined = _join_env(joined, self.env)
                self.env = saved
            self.env = joined
            self._exec_block(try_stmt.finalbody)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tags = self._eval(item.context_expr)
                if isinstance(item.optional_vars, ast.Name):
                    self.env[item.optional_vars.id] = tags
            self._exec_block(stmt.body)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.local_defs[stmt.name] = stmt
            self.env[stmt.name] = frozenset({FUNC})
        elif isinstance(stmt, ast.ClassDef):
            self.env[stmt.name] = EMPTY
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
            self._eval(stmt.msg)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        elif isinstance(stmt, ast.Raise):
            self._eval(stmt.exc)
            self._eval(stmt.cause)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = (alias.asname or alias.name).split(".")[0]
                self.env.setdefault(bound, EMPTY)
        elif kind == "Match":
            # Structural pattern matching (3.10+): evaluate the subject,
            # then join all case bodies as alternative branches.
            self._eval(getattr(stmt, "subject", None))
            joined: Optional[Env] = None
            for case in getattr(stmt, "cases", []):
                out = self._branch(case.body)
                joined = out if joined is None else _join_env(joined, out)
            if joined is not None:
                self.env = _join_env(self.env, joined)
        # Pass/Break/Continue/Global/Nonlocal: no dataflow effect.

    def _assign_target(self, target: ast.expr, value_tags: TagSet) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value_tags
        elif isinstance(target, (ast.Tuple, ast.List)):
            element_tags = self._propagate(value_tags)
            for elt in target.elts:
                self._assign_target(elt, element_tags)
        elif isinstance(target, ast.Attribute):
            self._eval(target.value)
        elif isinstance(target, ast.Subscript):
            self._eval(target.value)
            self._eval(target.slice)
        elif isinstance(target, ast.Starred):
            self._assign_target(target.value, value_tags)
