"""``mm-delay <one-way-delay-ms> [inner command ...]``.

Example::

    mm-webreplay site/ mm-delay 40 load
"""

from __future__ import annotations

import sys
from typing import List

from repro.cli.common import (
    CliError, ShellSpec, continue_command_line, main_wrapper, parse_float,
)

USAGE = "usage: mm-delay <one-way-delay-ms> [inner command ...]"


def run(argv: List[str], specs: List[ShellSpec]) -> int:
    if not argv:
        raise CliError(USAGE)
    delay_ms = parse_float(argv[0], "one-way delay")
    if delay_ms < 0:
        raise CliError("delay must be >= 0")
    spec = ("delay", {"delay": delay_ms / 1000.0, "label": f"{argv[0]}ms"})
    return continue_command_line(argv[1:], specs + [spec])


main = main_wrapper(run)

if __name__ == "__main__":
    sys.exit(main())
