"""``mm-link <uplink> <downlink> [options] [inner command ...]``.

``uplink`` / ``downlink`` are packet-delivery trace files or plain numbers
(a constant rate in Mbit/s). Options::

    --uplink-queue=N|codel     uplink queue: N-packet drop-tail, or CoDel
    --downlink-queue=N|codel   downlink queue likewise

Example::

    mm-webreplay site/ mm-link 14 14 --downlink-queue=codel mm-delay 40 load
"""

from __future__ import annotations

import sys
from typing import List

from repro.cli.common import (
    CliError,
    ShellSpec,
    continue_command_line,
    main_wrapper,
    parse_trace_or_rate,
)

USAGE = ("usage: mm-link <uplink trace|Mbit/s> <downlink trace|Mbit/s> "
         "[--uplink-queue=N] [--downlink-queue=N] [inner command ...]")


def run(argv: List[str], specs: List[ShellSpec]) -> int:
    if len(argv) < 2:
        raise CliError(USAGE)
    uplink = parse_trace_or_rate(argv[0], "uplink")
    downlink = parse_trace_or_rate(argv[1], "downlink")
    rest = argv[2:]
    options = {"uplink": uplink, "downlink": downlink,
               "label": f"{argv[0]}/{argv[1]}"}
    while rest and rest[0].startswith("--"):
        flag = rest.pop(0)
        name, __, value = flag.partition("=")
        if name == "--uplink-queue":
            options["uplink_queue"] = _packets(value)
        elif name == "--downlink-queue":
            options["downlink_queue"] = _packets(value)
        else:
            raise CliError(f"{USAGE}\nunknown option {name!r}")
    return continue_command_line(rest, specs + [("link", options)])


def _packets(value: str):
    if value == "codel":
        return "codel"
    if not value.isdigit() or int(value) < 1:
        raise CliError(
            f"queue must be a positive packet count or 'codel': {value!r}")
    return int(value)


main = main_wrapper(run)

if __name__ == "__main__":
    sys.exit(main())
