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
from typing import List, Sequence

from repro.cli.common import (
    CliError,
    Shell,
    continue_command_line,
    main_wrapper,
    parse_arg,
    parse_trace_or_rate,
    positive_int,
)
from repro.linkem.codel import CoDelQueue
from repro.linkem.queues import DropTailQueue

USAGE = ("usage: mm-link <uplink trace|Mbit/s> <downlink trace|Mbit/s> "
         "[--uplink-queue=N] [--downlink-queue=N] [inner command ...]")


def run(argv: List[str], shells: Sequence[Shell] = ()) -> int:
    if len(argv) < 2:
        raise CliError(USAGE)
    uplink = parse_trace_or_rate(argv[0], "uplink")
    downlink = parse_trace_or_rate(argv[1], "downlink")
    rest = argv[2:]
    queues = {}  # add_link keyword -> queue factory
    while rest and rest[0].startswith("--"):
        name, __, value = rest.pop(0).partition("=")
        if name not in ("--uplink-queue", "--downlink-queue"):
            raise CliError(f"{USAGE}\nunknown option {name!r}")
        queues[name[2:].replace("-", "_")] = parse_arg(value, name, _queue)

    def add(stack):
        return stack.add_link(uplink, downlink, **{
            keyword: make() for keyword, make in queues.items()})

    return continue_command_line(
        rest, [*shells, (f"link({argv[0]}/{argv[1]})", add)])


def _queue(text: str):
    """A queue option's type: ``codel``, or a drop-tail packet count."""
    if text == "codel":
        return CoDelQueue
    packets = positive_int(text)
    return lambda: DropTailQueue(max_packets=packets)


main = main_wrapper(run)

if __name__ == "__main__":
    sys.exit(main())
