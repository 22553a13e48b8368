"""``mm-loss <uplink|downlink|both> <loss-rate> [inner command ...]``.

Example::

    mm-webreplay site/ mm-loss downlink 0.01 mm-link 14 14 load

Bursty (Gilbert–Elliott) loss is a one-clause ``mm-chaos`` plan
(``ge-loss``); ``mm-chaos --example`` prints one.
"""

from __future__ import annotations

import sys
from typing import List

from repro.cli.common import (
    CliError, ShellSpec, continue_command_line, main_wrapper, parse_float,
)

USAGE = "usage: mm-loss <uplink|downlink|both> <loss-rate> [inner command ...]"


def run(argv: List[str], specs: List[ShellSpec]) -> int:
    if len(argv) < 2:
        raise CliError(USAGE)
    direction = argv[0]
    if direction not in ("uplink", "downlink", "both"):
        raise CliError(f"{USAGE}\nbad direction: {direction!r}")
    rate = parse_float(argv[1], "loss rate")
    if not 0.0 <= rate <= 1.0:
        raise CliError(f"loss rate must be in [0, 1]: {argv[1]!r}")
    spec = ("loss", {
        "uplink_loss": rate if direction in ("uplink", "both") else 0.0,
        "downlink_loss": rate if direction in ("downlink", "both") else 0.0,
        "label": f"{direction}:{rate:g}",
    })
    return continue_command_line(argv[2:], specs + [spec])


main = main_wrapper(run)

if __name__ == "__main__":
    sys.exit(main())
