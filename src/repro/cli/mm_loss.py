"""``mm-loss <uplink|downlink|both> <loss-rate> [inner command ...]``.

Example::

    mm-webreplay site/ mm-loss downlink 0.01 mm-link 14 14 load

Bursty (Gilbert–Elliott) mode replaces the flat rate with ``ge`` and the
chain parameters::

    mm-loss downlink ge <p-good-bad> <p-bad-good> <loss-good> <loss-bad> ...

which drops exactly the packets a one-clause ``mm-chaos`` plan with the
same parameters would.
"""

from __future__ import annotations

import sys
from typing import List

from repro.cli.common import (
    CliError, ShellSpec, continue_command_line, main_wrapper, parse_float,
)

USAGE = (
    "usage: mm-loss <uplink|downlink|both> <loss-rate> [inner command ...]\n"
    "       mm-loss <uplink|downlink|both> ge <p-good-bad> <p-bad-good> "
    "<loss-good> <loss-bad> [inner command ...]"
)


def _probability(text: str, what: str) -> float:
    value = parse_float(text, what)
    if not 0.0 <= value <= 1.0:
        raise CliError(f"{what} must be in [0, 1]: {text!r}")
    return value


def run(argv: List[str], specs: List[ShellSpec]) -> int:
    if len(argv) < 2:
        raise CliError(USAGE)
    direction = argv[0]
    if direction not in ("uplink", "downlink", "both"):
        raise CliError(f"{USAGE}\nbad direction: {direction!r}")
    if argv[1] == "ge":
        if len(argv) < 6:
            raise CliError(USAGE)
        p_gb = _probability(argv[2], "transition probability")
        p_bg = _probability(argv[3], "transition probability")
        loss_good = _probability(argv[4], "loss rate")
        loss_bad = _probability(argv[5], "loss rate")
        ge = {
            "p_good_bad": p_gb, "p_bad_good": p_bg,
            "loss_good": loss_good, "loss_bad": loss_bad,
        }
        spec = ("loss", {
            "uplink_ge": ge if direction in ("uplink", "both") else None,
            "downlink_ge": ge if direction in ("downlink", "both") else None,
            "label": f"{direction}:ge({p_gb:g},{p_bg:g})",
        })
        return continue_command_line(argv[6:], specs + [spec])
    rate = _probability(argv[1], "loss rate")
    spec = ("loss", {
        "uplink_loss": rate if direction in ("uplink", "both") else 0.0,
        "downlink_loss": rate if direction in ("downlink", "both") else 0.0,
        "label": f"{direction}:{rate:g}",
    })
    return continue_command_line(argv[2:], specs + [spec])


main = main_wrapper(run)

if __name__ == "__main__":
    sys.exit(main())
