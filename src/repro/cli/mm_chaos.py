"""``mm-chaos <plan.json> [inner command ...]``.

Runs the enclosed command under a :class:`~repro.chaos.plan.FaultPlan`:
link clauses act on this shell's boundary, server/DNS clauses are wired
into the stack's ``mm-webreplay`` shell. Composes like any Mahimahi
shell::

    mm-webreplay site/ mm-link 14 14 mm-chaos plan.json mm-delay 40 load

``mm-chaos --example`` prints a starter plan to stdout.
"""

from __future__ import annotations

import sys
from typing import List

from repro.cli.common import CliError, ShellSpec, continue_command_line, main_wrapper

USAGE = "usage: mm-chaos <plan.json> [inner command ...]"

_EXAMPLE_CLAUSES = (
    ("outage", {"direction": "both", "start": 2.0, "duration": 1.0,
                "period": 10.0}),
    ("ge-loss", {"direction": "downlink", "p_good_bad": 0.02,
                 "p_bad_good": 0.3, "loss_good": 0.0, "loss_bad": 0.8}),
    ("server", {"kind": "stall", "skip": 5, "count": 2,
                "after_bytes": 1024, "stall": 0.5}),
    ("dns", {"kind": "servfail", "skip": 1, "count": 1}),
)


def _example_plan():
    from repro.chaos.plan import FaultPlan

    clauses = tuple(
        FaultPlan.CLAUSE_KINDS[kind](**args)
        for kind, args in _EXAMPLE_CLAUSES
    )
    return FaultPlan(clauses=clauses, name="example")


def run(argv: List[str], specs: List[ShellSpec]) -> int:
    if not argv:
        raise CliError(USAGE)
    if argv[0] == "--example":
        print(_example_plan().to_json())
        return 0
    path = argv[0]
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read plan {path!r}: {exc}") from None
    # Parse eagerly so a bad plan fails before any simulation is built.
    from repro.chaos.plan import FaultPlan
    from repro.errors import ChaosError

    try:
        plan = FaultPlan.from_json(text)
    except ChaosError as exc:
        raise CliError(f"bad fault plan {path!r}: {exc}") from None
    spec = ("chaos", {
        "plan_json": text,
        "label": f"{plan.name}:{len(plan)}",
    })
    return continue_command_line(argv[1:], specs + [spec])


main = main_wrapper(run)

if __name__ == "__main__":
    sys.exit(main())
