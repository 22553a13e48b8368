"""``mm-loss <uplink|downlink|both> <loss-rate> [inner command ...]``.

Example::

    mm-webreplay site/ mm-loss downlink 0.01 mm-link 14 14 load

Bursty (Gilbert–Elliott) loss is a one-clause ``mm-chaos`` plan
(``ge-loss``); ``mm-chaos --example`` prints one.
"""

from __future__ import annotations

import sys
from typing import List, Sequence

from repro.cli.common import (
    CliError, Shell, continue_command_line, main_wrapper, parse_arg,
    unit_float,
)

USAGE = "usage: mm-loss <uplink|downlink|both> <loss-rate> [inner command ...]"


def run(argv: List[str], shells: Sequence[Shell] = ()) -> int:
    if len(argv) < 2:
        raise CliError(USAGE)
    direction = argv[0]
    if direction not in ("uplink", "downlink", "both"):
        raise CliError(f"{USAGE}\nbad direction: {direction!r}")
    rate = parse_arg(argv[1], "loss rate", unit_float)
    uplink = rate if direction in ("uplink", "both") else 0.0
    downlink = rate if direction in ("downlink", "both") else 0.0
    shell = (f"loss({direction}:{rate:g})", lambda stack: stack.add_loss(
        downlink_loss=downlink, uplink_loss=uplink))
    return continue_command_line(argv[2:], [*shells, shell])


main = main_wrapper(run)

if __name__ == "__main__":
    sys.exit(main())
