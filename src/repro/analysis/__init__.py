"""Determinism analysis: static lint + runtime sanitizer.

The reproduction's headline claim (Table 1) tightens, in a single-clock
simulator, to *bit-identical replay*: the same seed must produce the same
event stream, byte for byte, on any machine. This package makes that
contract mechanically checked rather than hoped for, in two layers
(DESIGN.md §6) — lint the causes, digest the effects:

* :mod:`repro.analysis.lint` — ``mm-lint``: seven per-node AST rules
  (REP001-REP007) in one visitor, the inline suppression grammar, and a
  stale-suppression audit.
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
    "lint",
    "sanitizer",
]
