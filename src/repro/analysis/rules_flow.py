"""Flow-sensitive lint rules REP010-REP012 (``mm-lint``).

These rules consume the events emitted by the interprocedural dataflow
engine in :mod:`repro.analysis.flow` and turn them into diagnostics:

======  ==============================================================
REP010  Wall-clock/environment taint: values *derived from*
        ``time.*``/``os.environ`` (tracked through assignments,
        arithmetic, and call returns — not just the call site REP001 and
        REP005 already flag) may not reach ``schedule()``, RNG seeds, or
        observability artifacts.
REP011  RNG stream aliasing: one seeded ``random.Random`` instance may
        not be shared across the chaos / link / transport domains — each
        domain derives its own stream via ``stable_seed``.
REP012  Fork-hostile handles: file descriptors, locks, journals, and
        sockets created before the fork may not be used inside worker
        functions handed to ``LocalBackend`` (the one fork site) or to
        the entry points that feed it — ``run_page_loads`` /
        ``run_supervised`` / ``parallel_map`` — the child inherits a
        duplicated, corrupt handle.
======  ==============================================================

REP010 and REP011 apply to simulation-domain files; REP012 applies
everywhere (the harness code that forks lives outside the sim domain).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.analysis.base import Diagnostic
from repro.analysis.flow import HANDLE, FlowEngine, FlowListener, TagSet

__all__ = ["FLOW_RULES", "FlowRuleChecker", "run_flow_rules"]

#: Rule code -> one-line summary (merged into the mm-lint registry).
FLOW_RULES: Dict[str, str] = {
    "REP010": "wall-clock/environment taint reaches a schedule/seed/artifact sink",
    "REP011": "one seeded RNG instance shared across chaos/link/transport domains",
    "REP012": "fork-hostile handle used inside a forked worker function",
}

#: Flow rules restricted to simulation-domain files.
SIM_DOMAIN_FLOW_RULES = frozenset({"REP010", "REP011"})

#: (domain, keywords) — matched against call-chain segments, in order;
#: the first matching domain wins (so ``ChaosPipe`` is chaos, not link).
_RNG_DOMAINS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("chaos", ("chaos", "fault", "gilbert", "inject")),
    ("transport", ("tcp", "udp", "transport", "congestion")),
    ("link", ("link", "pipe", "codel", "delay", "queue", "aqm", "trace")),
)

_SINK_DESCRIPTION = {
    "schedule": "the event queue",
    "seed": "an RNG seed",
    "artifact": "an observability artifact",
    "call": "a taint sink inside the callee",
}


def classify_rng_domain(callee_chain: List[str]) -> Optional[str]:
    """Which sim domain a call chain belongs to, if recognisable."""
    for domain, keywords in _RNG_DOMAINS:
        for part in callee_chain:
            lowered = part.lower()
            if any(keyword in lowered for keyword in keywords):
                return domain
    return None


class FlowRuleChecker(FlowListener):
    """Turn dataflow events into REP010-REP012 diagnostics."""

    def __init__(self, path: str, sim_domain: bool) -> None:
        self.path = path
        self.sim_domain = sim_domain
        self.diagnostics: List[Diagnostic] = []
        #: REP011 bookkeeping: rng name -> (domain, first callee) per scope.
        self._rng_domains: Dict[str, Tuple[str, str]] = {}

    # ------------------------------------------------------------------ #

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        if code in SIM_DOMAIN_FLOW_RULES and not self.sim_domain:
            return
        self.diagnostics.append(
            Diagnostic(
                self.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                code,
                message,
            )
        )

    # ------------------------------------------------------------------ #
    # engine events

    def enter_function(self, qualname: str) -> None:
        self._rng_domains = {}

    def sink(
        self, kind: str, callee: List[str], taints: TagSet, node: ast.AST
    ) -> None:
        origin = " and ".join(
            sorted(tag.split(":", 1)[1] for tag in taints)
        ).replace("time", "wall-clock").replace("env", "os.environ")
        target = _SINK_DESCRIPTION.get(kind, kind)
        callee_name = ".".join(callee) if callee else "<call>"
        self._report(
            node,
            "REP010",
            f"{origin}-tainted value reaches {target} via "
            f"{callee_name}(); replays would diverge — derive the value "
            "from sim.now or pass configuration in explicitly",
        )

    def rng_share(self, name: str, callee: List[str], node: ast.AST) -> None:
        domain = classify_rng_domain(callee)
        if domain is None:
            return
        callee_name = ".".join(callee)
        previous = self._rng_domains.get(name)
        if previous is None:
            self._rng_domains[name] = (domain, callee_name)
            return
        prev_domain, prev_callee = previous
        if prev_domain == domain:
            return
        self._report(
            node,
            "REP011",
            f"seeded RNG {name!r} is shared across domains: already fed "
            f"to {prev_callee}() [{prev_domain}], now to {callee_name}() "
            f"[{domain}]; aliased streams couple the domains' draw "
            "sequences — derive one stream per domain via "
            "stable_seed(master, name)",
        )

    def worker_capture(
        self, worker: str, free_name: str, tags: TagSet, node: ast.AST
    ) -> None:
        if HANDLE not in tags:
            return
        self._report(
            node,
            "REP012",
            f"fork-hostile handle {free_name!r} is created before the "
            f"fork but used inside worker {worker!r}; the forked child "
            "inherits a duplicated descriptor/lock state (torn writes, "
            "deadlocks) — open the handle inside the worker, post-fork",
        )


def run_flow_rules(
    tree: ast.Module, path: str, *, sim_domain: bool
) -> List[Diagnostic]:
    """Run the dataflow engine over one parsed module.

    Rule scoping (sim-domain only for REP010/REP011) happens inside the
    checker; rule *selection* happens in ``lint_source`` alongside the
    AST rules, so ``--select`` treats both engines uniformly.
    """
    checker = FlowRuleChecker(path, sim_domain)
    engine = FlowEngine(tree, path, checker)
    engine.run()
    return checker.diagnostics
