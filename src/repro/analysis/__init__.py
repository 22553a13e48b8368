"""Determinism analysis: static lint + dataflow engine + runtime sanitizer.

The reproduction's headline claim (Table 1) tightens, in a single-clock
simulator, to *bit-identical replay*: the same seed must produce the same
event stream, byte for byte, on any machine. This package makes that
contract mechanically checked rather than hoped for:

* :mod:`repro.analysis.lint` — ``mm-lint``, the front end: per-node AST
  rules (REP001-REP007) plus the flow rules below, and a
  stale-suppression audit.
* :mod:`repro.analysis.flow` — the interprocedural dataflow engine:
  per-module call graph, function summaries, and a forward abstract
  interpretation tracking wall-clock/env taint, RNG identity, and
  fork-hostile handles.
* :mod:`repro.analysis.rules_flow` — flow rules REP010-REP012
  (taint-to-sink, RNG stream aliasing, handle capture in forked
  workers).
* :mod:`repro.analysis.base` — the shared front end (file discovery,
  domain classification, suppression comments, :class:`Diagnostic`).
* :mod:`repro.analysis.sanitizer` — an opt-in
  :class:`~repro.sim.simulator.Simulator` execution observer that folds
  every executed event into a BLAKE2 digest, and
  :func:`~repro.analysis.sanitizer.check_determinism`, which replays a
  scenario and reports the first divergent event.

Submodules are intentionally not imported here: lint and sanitizer are
run as ``python -m repro.analysis.<mod>``, and an eager package import
would put a second copy of the module in ``sys.modules`` under ``runpy``.
"""

__all__ = [
    "base",
    "flow",
    "lint",
    "rules_flow",
    "sanitizer",
]
