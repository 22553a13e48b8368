"""``mm-webreplay [options] <recorded-dir> [inner command ...]``.

Replays a recorded folder with multi-origin preservation (the default) or
from a single server (the paper's ablation). Options::

    --single-server   one server for everything (web-page-replay style)
    --protocol=mux    replay over the SPDY-style multiplexed transport
                      (the browser of load and fetch follows automatically)

Example::

    mm-webreplay recorded/ mm-link 14 14 mm-delay 40 load
"""

from __future__ import annotations

import os
import sys
from typing import List, Sequence

from repro.cli.common import CliError, Shell, continue_command_line, main_wrapper
from repro.record.store import RecordedSite

USAGE = ("usage: mm-webreplay [--single-server] [--protocol=http/1.1|mux] "
         "<recorded-dir> [inner command ...]")


def run(argv: List[str], shells: Sequence[Shell] = ()) -> int:
    single_server = False
    protocol = "http/1.1"
    rest = list(argv)
    while rest and rest[0].startswith("--"):
        flag = rest.pop(0)
        if flag == "--single-server":
            single_server = True
        elif flag.startswith("--protocol="):
            protocol = flag.split("=", 1)[1]
            if protocol not in ("http/1.1", "mux"):
                raise CliError(f"unknown protocol {protocol!r}")
        else:
            raise CliError(f"{USAGE}\nunknown option {flag!r}")
    if not rest:
        raise CliError(USAGE)
    directory = rest.pop(0)
    if not os.path.isdir(directory):
        raise CliError(f"not a recorded-site directory: {directory!r}")
    label = (os.path.basename(directory.rstrip("/"))
             + ("!single" if single_server else "")
             + ("!mux" if protocol == "mux" else ""))

    def add(stack):
        return stack.add_replay(RecordedSite.load(directory),
                                single_server=single_server,
                                protocol=protocol)

    return continue_command_line(rest, [*shells, (f"replay({label})", add)])


main = main_wrapper(run)

if __name__ == "__main__":
    sys.exit(main())
